#!/usr/bin/env python3
"""Scenario wall time at scale: one honest onboarding at N = 1/10/100/200.

Run from the repo root: python3 tools/bench_scenario.py

For each KEM backend (``x25519``, ``ml-kem-512``) and each N it runs
``harness.run_scenario`` REPEATS times under DeliverAll at a fixed seed: N
devices onboard in TOTP-step waves and send one data report each. It prints
registered/total devices and the median wall time per scenario and per
device, and writes them, each row naming its ``kem``, with the machine's Python,
``cryptography``, OpenSSL and libsodium versions, its usable CPU count and
the git commit (``-dirty`` when the tree has uncommitted changes) to
``BENCH_scenario.json``. Times are raw wall clock on this
machine, not scaled to a reference speed, so they move with its load.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hearthgate import channels, crypto, harness  # noqa: E402

SEED = 7
SIZES = (1, 10, 100, 200)
BACKENDS = ("x25519", "ml-kem-512")
REPEATS = 3
REPORTS = (("temperature_c", 21.5, "C"),)
OUT = ROOT / "BENCH_scenario.json"


def machine_meta() -> dict:
    import cryptography
    from cryptography.hazmat.backends.openssl.backend import backend
    commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                            cwd=ROOT, capture_output=True, text=True)
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "openssl": backend.openssl_version_text(),
        "libsodium": crypto.sodium_version(),  # Ed25519; OpenSSL does the rest
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit.stdout.strip() if commit.returncode == 0 else None,
    }


def bench(kem: str, devices: int) -> dict:
    spec = harness.ScenarioSpec(devices=devices, reports=REPORTS, kem_algo=kem)
    walls, registered = [], set()
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = harness.run_scenario(spec, channels.DeliverAll(), SEED)
        walls.append(time.perf_counter() - start)
        registered.add(len(result.trace.by_kind(channels.REGISTRATION_SUCCESS)))
    if len(registered) != 1:
        raise SystemExit(f"{kem} N={devices}: repeats registered {sorted(registered)}")
    wall_ms = statistics.median(walls) * 1e3
    return {"kem": kem, "devices": devices, "registered": registered.pop(),
            "wall_ms": round(wall_ms, 1),
            "wall_ms_per_device": round(wall_ms / devices, 2)}


def main() -> None:
    rows = []
    for kem in BACKENDS:
        bench(kem, 1)  # let one-time imports and lazy set-up finish before timing
        rows += [bench(kem, n) for n in SIZES]
    print(f"# seed {SEED}, DeliverAll, {len(REPORTS)} report per device, "
          f"median of {REPEATS} runs")
    print(f"{'kem':<11} {'devices':>8} {'registered':>11} {'wall_ms':>9} {'ms/device':>10}")
    for row in rows:
        print(f"{row['kem']:<11} {row['devices']:>8} {row['registered']:>7}/{row['devices']:<3} "
              f"{row['wall_ms']:>9.1f} {row['wall_ms_per_device']:>10.2f}")
    meta = machine_meta()
    meta.update(seed=SEED, repeats=REPEATS, adversary="DeliverAll",
                reports_per_device=len(REPORTS))
    OUT.write_text(json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n")
    print(f"wrote {OUT.name}")


if __name__ == "__main__":
    main()
