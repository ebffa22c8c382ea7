"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
These pin the externally observable guarantees of the whole stack; the
per-module suites cover the internals.
"""

from __future__ import annotations

import time

from conftest import NOW, make_network
from hearthgate import channels as ch
from hearthgate import cli, harness, ledger
from hearthgate.bench import LoadProfile, sweep
from hearthgate.channels import SecureChannel, Trace
from hearthgate.config import load_config
from hearthgate.crypto import gen_link_key
from hearthgate.ledger import ChannelName, make_transaction
from hearthgate.payloads import DataEntry, DeviceStatus
from hearthgate.risk import RiskEngine, DEFAULT_RULES
from hearthgate.roles import (
    Authenticator,
    Device,
    RevokedDevice,
    Server,
    TokenExpired,
    deliver_token,
    establish_session,
    provision_device,
)
from hearthgate.runtime import SimClock, seeded_rng


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


CAMPAIGN_RUNS = 10_000
CAMPAIGN_BUDGET_S = 300.0


def test_criterion_1_lemma_campaign():
    """>= 10,000 randomized adversarial runs, zero property violations.

    Two populations: single-device onboarding, and two concurrently
    registering devices whose interleaved requests probe token integrity.
    """
    weights = {"deliver": 6.0, "drop": 1.0, "replay": 1.0, "tamper": 1.0,
               "inject": 1.0}
    two_devices = harness.ScenarioSpec(
        devices=2, reports=(("temperature_c", 21.5, "C"),), retries=1)
    started = time.perf_counter()
    single = harness.run_campaign(6_000, base_seed=1, weights=weights)
    double = harness.run_campaign(4_000, base_seed=1_000_000, weights=weights,
                                  spec=two_devices)
    elapsed = time.perf_counter() - started
    runs = single.runs + double.runs
    violations = single.violations + double.violations
    ok = (not violations and runs >= CAMPAIGN_RUNS
          and elapsed < CAMPAIGN_BUDGET_S)
    report(1, ok,
           f"{len(violations)} violations / {runs} randomized runs "
           f"(mixed deliver/drop/replay/tamper/inject; 1- and 2-device "
           f"scenarios), {elapsed:.1f}s (budget {CAMPAIGN_BUDGET_S:.0f}s)")


ATTACKS = [
    ("replay-device-request", "TokenUnknown"),
    ("replay-stale-token", "TokenExpired"),
    ("tamper-ciphertext-bit", "Malformed"),
    ("token-swap-across-devices", "TokenUnknown"),
    ("inject-forged-registration", "SignatureInvalid"),
]


def test_criterion_2_known_attack_suite():
    """Every scripted attack rejected with its documented error; the attacker
    never earns a registration success."""
    failures = []
    for name, expected in ATTACKS:
        outcome = harness.run_attack(name, seed=7)
        honest = {d.uid.hex for d in outcome.result.world.devices}
        foreign = [e for e in outcome.result.trace.by_kind(ch.REGISTRATION_SUCCESS)
                   if e.get("uid") not in honest]
        if not (outcome.defeated and outcome.error_seen == expected
                and not foreign):
            failures.append((name, outcome.error_seen, outcome.detail))
    report(2, not failures,
           f"{len(ATTACKS) - len(failures)}/{len(ATTACKS)} attack scripts "
           f"rejected with documented errors{'; failures: ' + repr(failures) if failures else ''}")


def _onboarding_world(seed: int):
    rng = seeded_rng(seed)
    clock = SimClock(NOW)
    trace = Trace()
    network, orgs = make_network(rng)
    server = Server(rng.child("server"), clock, trace, network=network,
                    identity=orgs["server-org"])
    auth = Authenticator(rng.child("auth"), clock, trace)
    link = gen_link_key(rng)
    device = Device(rng.child("device"), clock, trace, link, name="device-1")
    auth.provision_link_key(device.name, link)
    h_s = SecureChannel(auth.name, "server")
    return clock, server, auth, device, h_s


def test_criterion_3_totp_window():
    """Token accepted at issue time +29 s, rejected at +31 s (zero step skew)."""
    results = {}
    for offset in (29.0, 31.0):
        clock, server, auth, device, h_s = _onboarding_world(seed=3)
        sid = establish_session(auth, server, h_s)
        clock.set((clock.now() // 30 + 1) * 30)  # issue exactly on a step edge
        deliver_token(auth, server, sid, h_s)
        provision_device(auth, device)
        request = device.build_registration_request()
        clock.advance(offset)
        try:
            server.handle_registration(request.message, device.name)
            results[offset] = "accepted"
        except TokenExpired:
            results[offset] = "rejected"
    ok = results == {29.0: "accepted", 31.0: "rejected"}
    report(3, ok, f"issue+29s -> {results[29.0]}, issue+31s -> {results[31.0]}")


def test_criterion_4_lifecycle_ledger_state(tmp_path):
    """Demo leaves active-then-deactivated records, a populated revocation
    list, and a dead device."""
    cfg = load_config(None, env={})
    cfg.snapshot = str(tmp_path / "lifecycle.snapshot")
    code, _, world = cli.run_demo(cfg)
    device = world.devices[0]
    records = [r for r in world.network.query(ChannelName.IDENTITY, "server-org")
               if r.device_uid.hex() == device.uid.hex]
    statuses = [r.status for r in records]
    crl_ok = device.keys.kem.public_key in world.server.crl
    try:
        world.server.handle_data_report(device.build_data_report(
            "temperature_c", 20.0, "C").message)
        post_revocation = "accepted"
    except RevokedDevice:
        post_revocation = "rejected"
    ok = (code == 0 and statuses == [DeviceStatus.ACTIVE, DeviceStatus.DEACTIVATED]
          and crl_ok and post_revocation == "rejected")
    report(4, ok,
           f"identity records {[s.value for s in statuses]}, device key in "
           f"CRL: {crl_ok}, post-revocation report {post_revocation}")


def test_criterion_5_tamper_evidence(tmp_path):
    """Exhaustive single-byte sweep over a 20-block snapshot: every flip detected."""
    rng = seeded_rng(5)
    net, orgs = make_network(rng, max_block_txs=1)
    for i in range(20):
        entry = DataEntry(rng.bytes(16), "temperature_c", 20.0 + i, "C",
                          NOW + i, rng.bytes(32))
        net.submit(make_transaction(ChannelName.DATA, entry,
                                    orgs["server-org"], NOW + i), NOW + i)
    net.settle()
    path = tmp_path / "tamper.snapshot"
    ledger.write_snapshot(net, str(path))
    ok, detail = ledger.verify_snapshot(str(path))
    assert ok, detail
    membership, chains = ledger.load_snapshot(str(path))
    blocks = chains[ChannelName.DATA]
    assert len(blocks) == 21  # genesis + 20 committed
    misses = 0
    swept = 0
    for height, block in enumerate(blocks):
        raw = block.canonical_bytes()
        for i in range(len(raw)):
            swept += 1
            mutated = bytearray(raw)
            mutated[i] ^= 0x01
            try:
                candidate = ledger.decode_block(bytes(mutated))
            except Exception:
                continue  # unparseable: detected
            patched = blocks[:height] + [candidate] + blocks[height + 1:]
            ok, _, _ = ledger.verify_blocks(patched, ChannelName.DATA,
                                            membership)
            if ok:
                misses += 1
    report(5, misses == 0,
           f"{swept} byte flips across 21 snapshot blocks, {misses} undetected")


def test_criterion_6_risk_alerting():
    """One matching commit -> exactly one alert and exactly one event per
    subscribed role, in commit order."""
    rng = seeded_rng(6)
    net, orgs = make_network(rng)
    engine = RiskEngine(list(DEFAULT_RULES), orgs["risk-engine"])
    engine.attach(net)
    subs = {org: net.subscribe(ChannelName.RISK_MANAGEMENT, org)
            for org in ("server-org", "fire-dept", "homesure")}
    t = NOW
    for value in (82.0, 21.0, 95.0):  # two alerts, one quiet reading
        entry = DataEntry(rng.bytes(16), "temperature_c", value, "C", t,
                          rng.bytes(32))
        net.submit(make_transaction(ChannelName.DATA, entry,
                                    orgs["server-org"], t), t)
        t += 1.0
    net.settle()
    alerts = net.query(ChannelName.RISK_MANAGEMENT, "server-org")
    polled = {org: handle.poll() for org, handle in subs.items()}
    counts = {org: len(events) for org, events in polled.items()}
    orders = {org: [p.observed for _, p in events]
              for org, events in polled.items()}
    same_order = len({tuple(o) for o in orders.values()}) == 1
    ok = (len(alerts) == 2 and counts == {"server-org": 2, "fire-dept": 2,
                                          "homesure": 2}
          and same_order and orders["fire-dept"] == [82.0, 95.0])
    report(6, ok,
           f"{len(alerts)} alerts on the risk channel; per-role event counts "
           f"{counts}; identical commit order: {same_order}")


BENCH_RATES = [30.0, 60.0, 100.0, 130.0, 160.0, 175.0, 200.0, 250.0, 300.0]


def test_criterion_7_benchmark_shape():
    """mu=200: throughput tracks offered to 160, latency <500 ms to 175, and
    300 tx/s costs more than 4x the latency of 100 tx/s."""
    profile = LoadProfile(arrival_rate=BENCH_RATES[0], duration=30.0)
    result = sweep(BENCH_RATES, profile=profile, seed=1, mu=200.0)
    by_rate = {row.offered: row for row in result.rows}
    a_ok = all(abs(by_rate[r].throughput - r) / r <= 0.05
               for r in BENCH_RATES if r <= 160.0)
    b_ok = all(by_rate[r].mean_ms < 500.0 for r in BENCH_RATES if r <= 175.0)
    ratio = by_rate[300.0].mean_ms / by_rate[100.0].mean_ms
    c_ok = ratio > 4.0
    monotone = all(by_rate[r].p50_ms <= by_rate[r].p95_ms <= by_rate[r].p99_ms
                   for r in BENCH_RATES)
    capped = all(by_rate[r].throughput <= r + 1e-9 for r in BENCH_RATES)
    report(7, a_ok and b_ok and c_ok and monotone and capped,
           f"throughput ±5% up to 160: {a_ok}; latency <500 ms up to 175: "
           f"{b_ok}; latency(300)/latency(100) = {ratio:.1f}x (>4x: {c_ok})")


def test_criterion_8_demo_determinism(tmp_path, monkeypatch, capsys):
    """Two runs with one seed: byte-identical transcript and snapshot."""
    outputs = []
    snapshots = []
    for name in ("run-a", "run-b"):
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code = cli.main(["demo", "--seed", "11"])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out.encode())
        snapshots.append((workdir / "demo.snapshot").read_bytes())
    ok = outputs[0] == outputs[1] and snapshots[0] == snapshots[1]
    report(8, ok,
           f"transcripts identical: {outputs[0] == outputs[1]}; snapshots "
           f"identical: {snapshots[0] == snapshots[1]} "
           f"({len(snapshots[0])} bytes)")
