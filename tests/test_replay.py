"""Replay identity: seeded outputs stay byte-for-byte what they were.

Each case below runs a seeded entry point (scenario, attack script,
campaign, bench sweep, demo, bounded-exhaustive search) and hashes what it
produced. The digests in ``tests/data/replay_digests.json`` pin those
outputs, so a refactor that changes any trace, ledger block, snapshot or
report row fails here.

Regenerate digests only for a deliberate behaviour change, naming just the
cases it changes: ``PYTHONPATH=src python tests/test_replay.py --write CASE
[CASE ...]`` rewrites those and keeps every other pinned digest; ``--write``
alone rewrites them all.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from hearthgate import bench, cli, harness
from hearthgate.channels import DeliverAll
from hearthgate.config import load_config
from hearthgate.ledger import ChannelName

DIGESTS = Path(__file__).parent / "data" / "replay_digests.json"

SCENARIO = harness.ScenarioSpec(
    devices=3,
    reports=(("temperature_c", 21.5, "C"), ("temperature_c", 85.0, "C")),
    revoke=True,
)


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _ledger_digest(network) -> str:
    return _sha(b"".join(block.canonical_bytes()
                         for channel in ChannelName
                         for block in network.chains[channel]))


def scenario_case(wiring: str, seed: int) -> dict:
    adversary = DeliverAll() if wiring == "deliver-all" else None
    result = harness.run_scenario(SCENARIO, adversary, seed)
    return {"trace": result.trace.digest(),
            "ledger": _ledger_digest(result.world.network)}


def attack_case(name: str) -> str:
    return harness.run_attack(name, seed=7).result.trace.digest()


def campaign_case() -> str:
    result = harness.run_campaign(40, base_seed=11)
    return _sha("\n".join(r.to_json() for r in result.records))


def bench_case() -> str:
    profile = bench.LoadProfile(
        arrival_rate=120.0, duration=10.0, process="poisson",
        tx_mix=(("data", 0.6), ("identity", 0.2), ("risk_management", 0.2)))
    return _sha(bench.sweep([120.0, 260.0], profile=profile, seed=5).to_csv())


def demo_case(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = load_config(None, env={})
        cfg.seed = seed
        cfg.snapshot = str(Path(tmp) / "demo.snapshot")
        code, lines, _ = cli.run_demo(cfg)
        transcript = "\n".join(lines).replace(cfg.snapshot, "<snapshot>")
        snapshot = Path(cfg.snapshot).read_bytes()
    return {"code": code, "transcript": _sha(transcript),
            "snapshot": _sha(snapshot)}


def bounded_case() -> str:
    spec = harness.ScenarioSpec(devices=1, reports=(), retries=0)
    results = harness.bounded_exhaustive(
        spec, seed=7, actions=("deliver", "drop", "replay"))
    rows = [[list(prefix),
             {k: [v.holds, v.witness] for k, v in sorted(verdicts.items())}]
            for prefix, verdicts in results]
    return _sha(json.dumps(rows, sort_keys=True))


CASES = {
    **{f"scenario/{w}/seed-{s}": (scenario_case, (w, s))
       for w in ("deliver-all", "direct") for s in (1, 7)},
    **{f"attack/{name}": (attack_case, (name,))
       for name in sorted(harness.ATTACK_SCRIPTS)},
    "campaign/40-runs-base-11": (campaign_case, ()),
    "bench/poisson-two-rows": (bench_case, ()),
    **{f"demo/seed-{s}": (demo_case, (s,)) for s in (3, 7)},
    "bounded-exhaustive/one-device": (bounded_case, ()),
}


def _pinned() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_unchanged(case):
    fn, args = CASES[case]
    assert fn(*args) == _pinned()[case]


def test_every_pinned_case_still_runs():
    assert sorted(_pinned()) == sorted(CASES)


if __name__ == "__main__":
    flag, names = sys.argv[1:2], sys.argv[2:]
    unknown = sorted(set(names) - set(CASES))
    if flag != ["--write"] or unknown:
        sys.exit(f"usage: test_replay.py --write [CASE ...]"
                 f"{'; unknown: ' + ', '.join(unknown) if unknown else ''}")
    # Named cases are re-pinned alone; every other digest stays as it was.
    digests = _pinned() if names else {}
    for name in names or sorted(CASES):
        fn, args = CASES[name]
        digests[name] = fn(*args)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(names or CASES)} of {len(digests)} digests to {DIGESTS}")
