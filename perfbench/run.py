#!/usr/bin/env python3
"""Wall-clock benchmark of hearthgate, run from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: it repeats
the workload's fixed inputs ``--seconds`` divided by the workload's planned
iteration time, and at least twice; the count never depends on how fast the
program runs. Each part of the work (one onboarding, one report, one campaign
run, one rate row) is timed and scaled to reference machine speed by a
reference workload timed around it (see ``calibrate.py``): a shared host can
run the same code up to twice as slow for stretches of a fraction of a second
to many minutes. The metrics are built from each part's median over the
repeats. Set-up probes, each a fresh interpreter scaled the same way, run
between the repeats, so they too sample the machine across the run.
``--trace 1`` runs the inputs once untraced and once traced and reports
per-layer metrics from the spans. Every line before the last names a metric
with its unit; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when every correctness gate holds, 1 when one fails or the
checkout holds no hearthgate sources. Spans and the per-layer summary of a
traced run are written under ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
PROBE = Path(__file__).with_name("setup_probe.py")
EXPECTED_ROWS = Path(__file__).with_name("expected_ledger_rows.json")

# The program under test is the checkout's own source tree, never an
# installed copy, so this runs before the hearthgate imports below.
if not (SRC / "hearthgate" / "__init__.py").is_file():
    sys.exit(f"perfbench: no hearthgate sources under {SRC}")
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
PROBES_PER_REPEAT = 4
MIN_REPEATS = 2
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}
# Error codes the roles and the dispatcher write into rejection events.
ROLE_CODES = ("Malformed", "SignatureInvalid", "TokenExpired", "TokenUnknown",
              "LedgerRejected", "UnknownDevice", "RevokedDevice", "TokenMismatch",
              "AlreadyRevoked", "other")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)
    return ordered[max(1, min(len(ordered), int(rank))) - 1]


def layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in tracer.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_share"] = "ratio"
        units[f"{name}.self_share"] = "ratio"
        if name in tracer.FAILING_SPANS:
            units[f"{name}.failed"] = "count"
    units.update({
        "crypto.hybrid_decrypt.useful_ratio": "ratio",
        "payloads.encode_payload.per_tx": "ratio",
        "ledger.blocks_cut": "count",
        "ledger.txs_per_block": "ratio",
        "ledger.sim_s_per_wall_s": "ratio",
        "risk.alerts": "count",
        "channels.derive_closure.terms": "count",
    })
    for code in ROLE_CODES:
        units[f"roles.rejected.{code}"] = "count"
    units.update({"failed_ratio": "ratio", "trace.overhead_ratio": "ratio",
                  "trace.wall_s": "s"})
    return units


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def repeat_count(w: workloads.Workload, seconds: float) -> int:
    return max(MIN_REPEATS, int(seconds // w.nominal_s))


def run_repeats(w: workloads.Workload, seed: int, params: dict, repeats: int,
                mark=workloads.no_mark, between=None, pacers=None):
    """Repeat the workload ``repeats`` times, calling ``between`` before each
    repeat and scaling its parts with a fresh pacer when ``pacers`` is a
    list to collect them in; returns the outcomes and the total wall time."""
    outcomes = []
    start = perf_counter()
    for _ in range(repeats):
        if between is not None:
            between()
        gc.collect()
        pacer = calibrate.NoPacer() if pacers is None else calibrate.Pacer()
        outcomes.append(w.iteration(seed, params, WORKDIR, mark, pacer))
        if pacers is not None:
            pacers.append(pacer)
    return outcomes, perf_counter() - start


def median_each(samples) -> list[float]:
    """Median over the repeats at each position of a fixed-order list."""
    return [statistics.median(column) for column in zip(*samples)]


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter, import plus World and org
    construction: its time at reference speed and as measured."""
    out = subprocess.run([sys.executable, str(PROBE), name, str(seed)],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    scaled, measured = out.stdout.split()[-2:]
    return float(scaled), float(measured)


def end_to_end(w: workloads.Workload, outcomes, setup_s: float) -> dict[str, float]:
    latency = median_each(o.latency_ms for o in outcomes)
    wall = sum(median_each(o.parts_s for o in outcomes))
    return {
        "setup_s": setup_s,
        "throughput_per_s": outcomes[0].units / wall,
        "latency_p50_ms": percentile(latency, 50),
        "latency_tail_ms": percentile(latency, w.tail_pct),
    }


def gate_errors(w: workloads.Workload, seed: int, params: dict, outcomes) -> list[str]:
    errors = [e for o in outcomes for e in o.errors]
    if not all(o.latency_ms for o in outcomes):
        errors.append("no operation succeeded, so there is no latency to report")
    if len({o.digest for o in outcomes}) != 1:
        errors.append("repeats of the same inputs produced different outputs")
    if w.name == "ledger-mix" and seed == DEFAULT_SEED and params == w.params:
        expected = json.loads(EXPECTED_ROWS.read_text())
        if outcomes[0].model != expected:
            errors.append(f"virtual-time rows differ from {EXPECTED_ROWS.name}: "
                          f"{outcomes[0].model}")
    return errors


def traced_run(w: workloads.Workload, seed: int, params: dict):
    """One untraced pass, then the same inputs traced; returns the outcomes,
    gate errors and per-layer metrics."""
    plain, plain_wall = run_repeats(w, seed, params, 1)
    spans = tracer.Tracer()
    spans.install()
    try:
        traced, traced_wall = run_repeats(w, seed, params, 1, mark=spans.mark)
    finally:
        spans.uninstall()

    errors = gate_errors(w, seed, params, traced)
    if [o.digest for o in traced] != [o.digest for o in plain]:
        errors.append("the traced run's digest differs from the untraced run's")
    missing = spans.missing(w.required_spans)
    if missing:
        errors.append(f"required spans recorded no call: {missing}")
    if w.name == "ledger-mix":
        submits = spans.stats["ledger.submit"][0]
        if submits != sum(o.units for o in traced):
            errors.append(f"{submits} ledger submits traced for "
                          f"{sum(o.units for o in traced)} generated transactions")

    metrics = {}
    for name in tracer.SPAN_NAMES:
        calls, busy, own, failed = spans.stats[name]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.busy_share"] = busy / traced_wall
        metrics[f"{name}.self_share"] = own / traced_wall
        if name in tracer.FAILING_SPANS:
            metrics[f"{name}.failed"] = failed
    counters = spans.counters
    decrypts, decrypt_failures = spans.stats["crypto.hybrid_decrypt"][0::3]
    closures = spans.stats["channels.derive_closure"][0]
    rejected = sum((o.rejected for o in traced), Counter())
    rejected.update({k.removeprefix("rejected."): v for k, v in counters.items()
                     if k.startswith("rejected.")})
    attempted = sum(o.attempted for o in traced)
    metrics.update({
        "crypto.hybrid_decrypt.useful_ratio":
            (decrypts - decrypt_failures) / decrypts if decrypts else 0.0,
        "payloads.encode_payload.per_tx":
            spans.stats["payloads.encode_payload"][0] / counters["ledger.block_txs"]
            if counters["ledger.block_txs"] else 0.0,
        "ledger.blocks_cut": counters["ledger.blocks_cut"],
        "ledger.txs_per_block": counters["ledger.block_txs"] / counters["ledger.blocks_cut"]
            if counters["ledger.blocks_cut"] else 0.0,
        "ledger.sim_s_per_wall_s": sum(o.sim_s for o in plain) / plain_wall,
        "risk.alerts": counters["risk.alerts"],
        "channels.derive_closure.terms":
            counters["channels.derive_closure.terms"] / closures if closures else 0.0,
    })
    for code in ROLE_CODES:
        metrics[f"roles.rejected.{code}"] = rejected.pop(code, 0)
    metrics["roles.rejected.other"] += sum(rejected.values())
    metrics.update({
        "failed_ratio": sum(o.failed for o in traced) / attempted,
        "trace.overhead_ratio": traced_wall / plain_wall,
        "trace.wall_s": traced_wall,
    })
    return traced, errors, metrics, spans


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def machine_meta(load_start: tuple[float, ...]) -> dict:
    import cryptography
    try:
        from cryptography.hazmat.backends.openssl.backend import backend
        openssl = backend.openssl_version_text()
    except ImportError:
        openssl = None
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "openssl": openssl,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, looking no further up than the checkout itself."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def named_metrics(w: workloads.Workload, outcomes, e2e: dict) -> list[tuple]:
    """The workload's metrics under their own names, for the report lines."""
    throughput, p50, tail = (e2e["throughput_per_s"], e2e["latency_p50_ms"],
                             e2e["latency_tail_ms"])
    if w.name == "campaign":
        return [("campaign.runs_per_s", throughput, "1/s"),
                ("campaign.run_p50_ms", p50, "ms"),
                (f"campaign.run_p{w.tail_pct}_ms", tail, "ms")]
    if w.name == "ledger-mix":
        wall = sum(median_each(o.parts_s for o in outcomes))
        return [("ledger.tx_per_s", throughput, "1/s"),
                ("ledger.row_tx_cost_median_ms", p50, "ms"),
                ("ledger.row_tx_cost_max_ms", tail, "ms"),
                ("ledger.sim_s_per_wall_s", outcomes[0].sim_s / wall, "ratio")]
    reports = median_each(o.report_ms for o in outcomes)
    return [(f"{w.name}.devices_per_s", throughput, "1/s"),
            (f"{w.name}.onboard_p50_ms", p50, "ms"),
            (f"{w.name}.onboard_p{w.tail_pct}_ms", tail, "ms"),
            (f"{w.name}.report_p50_ms", percentile(reports, 50), "ms"),
            (f"{w.name}.report_p95_ms", percentile(reports, 95), "ms")]


def run(name: str, seed: int, seconds: float, trace: bool,
        params: dict | None = None):
    """Measure one workload; prints the report lines and returns the result
    object, the failed gates and the outcome of each repeat."""
    w = workloads.WORKLOADS[name]
    params = params or w.params
    load_start = os.getloadavg()
    WORKDIR.mkdir(exist_ok=True)
    if trace:
        outcomes, errors, metrics, spans = traced_run(w, seed, params)
        units = layer_units()
        for span in tracer.SPAN_NAMES:
            calls, busy, own, failed = spans.stats[span]
            print(f"span {span}: calls={calls} busy_s={busy!r} self_s={own!r} failed={failed}")
    else:
        probes: list[tuple[float, float]] = []
        pacers: list[calibrate.Pacer] = []

        def probe() -> None:
            probes.extend(setup_probe(name, seed) for _ in range(PROBES_PER_REPEAT))

        outcomes, wall_s = run_repeats(w, seed, params, repeat_count(w, seconds),
                                       between=probe, pacers=pacers)
        setup_s = statistics.median(scaled for scaled, _ in probes)
        reference = [r for p in pacers for r in p.reference]
        speed = {"wall_s": wall_s,
                 "setup_measured_s": statistics.median(m for _, m in probes),
                 "reference_s": statistics.median(reference),
                 "speed_vs_reference": calibrate.REFERENCE_S / statistics.median(reference),
                 "reference_timings": len(reference)}
        errors = gate_errors(w, seed, params, outcomes)
        units = E2E_UNITS
        metrics = {}
        if all(o.latency_ms for o in outcomes):   # else a gate has failed
            metrics = end_to_end(w, outcomes, setup_s)
            attempted = sum(o.attempted for o in outcomes)
            failed = sum(o.failed for o in outcomes)
            for label, value, unit in named_metrics(w, outcomes, metrics) + [
                    ("failed_ratio", failed / attempted, "ratio"),
                    ("setup_s", setup_s, "s")]:
                print(f"{label} = {value!r} {unit}")
    for row in outcomes[0].model or ():
        print("model row " + json.dumps(row, sort_keys=True))
    meta = machine_meta(load_start)
    meta.update(workload=name, seed=seed, repeats=len(outcomes),
                samples=sum(len(o.latency_ms) for o in outcomes))
    if not trace:
        meta.update(speed)
    print("meta " + json.dumps(meta, sort_keys=True))
    for label, value in metrics.items():
        print(f"metric {label} = {value!r} {units[label]}")
    result = {
        "correct": not errors,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if trace:
        spans.write(WORKDIR / f"spans-{name}-seed{seed}.tsv.gz")
        (WORKDIR / f"layers-{name}-seed{seed}.json").write_text(json.dumps(
            {"meta": meta, "result": result, "spans": spans.stats}, indent=1))
    return result, errors, outcomes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result, errors, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in errors:
        print(f"perfbench: correctness gate failed: {error}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
