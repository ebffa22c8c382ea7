"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, twice with one seed.
Checks that every gate holds, that each run reports every metric that
BENCHMARK.json declares for its mode with the declared unit, that the report
lines name each workload's own metrics, and that the two runs give identical
model outputs and trace digests. Then checks that a campaign run reported as
violating a lemma fails the gate. Exits 1 on the first check that fails.
"""

import contextlib
import dataclasses
import io
import json
import sys

import run

SEED = 3


def check_workload(name: str, declared: dict) -> list[str]:
    w = run.workloads.WORKLOADS[name]
    problems = []
    for trace in (False, True):
        mode = "per_layer" if trace else "end_to_end"
        runs = []
        for _ in range(2):
            lines = io.StringIO()
            with contextlib.redirect_stdout(lines):
                result, errors, outcomes = run.run(name, SEED, 0.0, trace, params=w.tiny)
            runs.append(outcomes)
            problems += [f"{name} {mode}: gate failed: {e}" for e in errors]
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[mode]:
                problems.append(f"{name} {mode}: metrics or units differ from "
                                f"BENCHMARK.json: {sorted(set(units) ^ set(declared[mode]))}")
            if not trace:
                named = run.named_metrics(w, outcomes, run.end_to_end(w, outcomes, 1.0))
                printed = lines.getvalue()
                problems += [f"{name}: no report line for {label}"
                             for label, _, unit in named
                             if f"{label} = " not in printed or not unit]
        first, second = runs
        if ([o.digest for o in first] != [o.digest for o in second]
                or [o.model for o in first] != [o.model for o in second]):
            problems.append(f"{name} {mode}: two runs with seed {SEED} differ")
    return problems


def check_violation_fails() -> list[str]:
    """A campaign whose first run violates a lemma must fail the gate."""
    harness = run.workloads.harness
    real = harness.run_campaign

    def violating(runs, base_seed=1, **kwargs):
        result = real(runs, base_seed, **kwargs)
        verdict = harness.LemmaVerdict("Authentication", False, "injected by selftest")
        return dataclasses.replace(result, violations=[(base_seed, verdict)])

    harness.run_campaign = violating
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            _, errors, _ = run.run("campaign", SEED, 0.0, False, params={"runs": 2})
    finally:
        harness.run_campaign = real
    if not any("Authentication violated" in e for e in errors):
        return [f"campaign: a lemma violation did not fail the gate: {errors}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {mode: {m["name"]: m["unit"] for m in spec[mode]}
                for mode in ("end_to_end", "per_layer")}
    if [w["name"] for w in spec["workloads"]] != list(run.workloads.WORKLOADS):
        print("selftest: BENCHMARK.json workloads differ from the benchmark's")
        return 1
    for name in run.workloads.WORKLOADS:
        problems = check_workload(name, declared)
        for problem in problems:
            print(f"selftest: {problem}")
        if problems:
            return 1
        print(f"selftest: {name} ok")
    problems = check_violation_fails()
    for problem in problems:
        print(f"selftest: {problem}")
    if problems:
        return 1
    print("selftest: campaign violation gate ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
