"""The benchmark's traced pass holds every gate at its self-test size.

``perfbench/run.py --trace 1`` exits 1 when a gate fails: a required span
(``mlkem.decaps`` among them on ``fleet-pq``) records no call, the traced
pass's digest differs from the untraced pass run just before it in the same
process, or the workload raises. Each workload's ``tiny`` inputs take well
under a second here, so Tier-1 catches such a failure before a benchmark
run does. On ``ledger-mix`` the traced payload encodings, transactions and
submits must also match one for one.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", list(run.workloads.WORKLOADS))
def test_tiny_traced_run_holds_every_gate(name, tmp_path, monkeypatch):
    # The fleets write and delete a snapshot file in the benchmark's work
    # directory; a temporary one keeps the checkout clean.
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    w = run.workloads.WORKLOADS[name]
    _, errors, _, spans = run.traced_run(w, SEED, w.tiny)
    assert errors == []
    assert not spans.missing(w.required_spans)
    if name == "ledger-mix":
        # One payload encoding and one transaction per submit: a codec
        # shortcut that went round the traced functions would lose spans.
        calls = {span: spans.stats[span][0] for span in (
            "payloads.encode_payload", "ledger.make_transaction", "ledger.submit")}
        assert len(set(calls.values())) == 1, calls
