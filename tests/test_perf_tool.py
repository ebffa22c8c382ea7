"""``tools/perf.py`` measures every committed row, paired across two trees.

The working tree's ``src/`` is paired with itself at tiny counts, so no git
is needed: every section, backend and row name of the newest run in
``BENCH_kem.json``, and every field of the ``BENCH_scenario.json`` rows,
comes back with both sides' medians, a median ratio and a win count. The
``commit`` row's settles each cut one full block, the load row digests the
blocks it commits, and the ``wire`` rows decode what they encode.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hearthgate import ledger, wire

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import perf  # noqa: E402

PAIRED = {"rev", "this", "median ratio", "wins"}


def _newest(name: str) -> dict:
    return json.loads((ROOT / name).read_text())["runs"][-1]


def _leaves(tree: dict, path: tuple = ()) -> dict:
    """Each row's statistics by its (section, backend, ..., row) path."""
    if "this" in tree:
        return {path: tree}
    leaves = {}
    for key, sub in tree.items():
        leaves.update(_leaves(sub, path + (key,)))
    return leaves


def test_self_pair_gives_every_committed_row(monkeypatch):
    for name, tiny in (("SAMPLES", 2), ("FRESH_SAMPLES", 1), ("SCENARIO_SAMPLES", 1),
                       ("LOAD_SAMPLES", 1), ("SIZES", (1,)), ("KERNEL_LOOP", 1)):
        monkeypatch.setattr(perf, name, tiny)
    src = ROOT / "src"
    sections, scenario = perf.measure({"rev": src, "this": src})

    committed = _newest("BENCH_kem.json")
    del committed["meta"]
    rows = _leaves(sections)
    assert set(rows) == set(_leaves(committed))
    assert all(set(stats) == PAIRED for stats in rows.values())

    committed_rows = _newest("BENCH_scenario.json")["rows"]
    assert {row["kem"] for row in scenario} == {row["kem"] for row in committed_rows}
    for row in scenario:
        assert set(row) == set(committed_rows[0])
        assert row["registered"] == row["devices"] == 1
        assert set(row["wall_ms"]) == PAIRED
        assert set(row["wall_ms_per_device"]) == {"rev", "this"}


def test_meta_counts_src_lines_as_wc_does():
    files = sorted((ROOT / "src" / "hearthgate").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *map(str, files)], capture_output=True,
                        text=True, check=True)
    total = int(wc.stdout.splitlines()[-1].split()[0])
    assert perf.machine_meta()["src_lines"] == perf.src_lines() == total


def test_commit_row_settles_one_full_block_per_call():
    times, (blocks, last_block_txs, _) = perf.sample_commit(0, 3)
    assert blocks == 1 + 3 and last_block_txs == perf.BLOCK_TXS
    assert set(times) == {"commit"}


def test_load_row_times_each_committed_transaction_and_checks_its_bytes():
    times, check = perf.sample_load(0)
    assert set(times) == {"mixed load row"} and 0 < times["mixed load row"] < 1e5
    # The check digests every committed block, so both trees must commit the
    # same bytes; a second run of the same sample commits them again.
    assert perf.sample_load(0)[1] == check != perf.sample_load(1)[1]


def test_wire_rows_decode_what_they_encode():
    ops = perf._wire_ops()
    assert set(ops) == {f"{what} {step}" for what in (
        "RegistrationRequest", "registration payload", "data tx body")
        for step in ("encode", "decode")}
    assert ops["RegistrationRequest encode"]() == wire.encode(ops["RegistrationRequest decode"]())
    assert ops["registration payload encode"]() == wire.REGISTRATION_PAYLOAD.encode(
        ops["registration payload decode"]())
    assert ops["data tx body encode"]() == ledger._TX_BODY.encode(ops["data tx body decode"]())


class _Side:
    def __init__(self, name: str, log: list, check: str):
        self.name, self.log, self.check = name, log, check

    def ask(self, request: dict) -> dict:
        self.log.append((self.name, request["i"]))
        return {"times": {"op": 2.0 if self.name == "this" else 4.0}, "check": self.check}


def test_sides_alternate_and_differing_outputs_stop_the_run():
    log: list = []
    rows, check = perf.paired({"rev": _Side("rev", log, "a"), "this": _Side("this", log, "a")},
                              {"group": "kem"}, 4)
    # Each side follows the other; the 7 pairs of adjacent samples alternate
    # which side ran first.
    assert log == [(name, i) for i in range(4) for name in ("rev", "this")]
    assert rows == {"op": {"rev": 4.0, "this": 2.0, "median ratio": 0.5, "wins": 7}}
    assert check == "a"
    with pytest.raises(SystemExit, match="differ"):
        perf.paired({"rev": _Side("rev", [], "a"), "this": _Side("this", [], "b")},
                    {"group": "kem"}, 1)
