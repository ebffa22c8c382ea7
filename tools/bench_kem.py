#!/usr/bin/env python3
"""Per-backend KEM micro-benchmark: median microseconds per operation.

Run from the repo root: python3 tools/bench_kem.py

For each KEM backend (``x25519``, ``ml-kem-512``) it makes REPEATS fresh
keys from a fixed seed and, for each key, times keygen, one encapsulation to
the new key, a second encapsulation to the same key, and the decapsulation
of the first ciphertext. The ``encaps (same key)`` row shows the cost once
data derived from the public key has been computed before. Each row is the
median over the repeats, in microseconds of wall time on this machine.
"""

from __future__ import annotations

import pathlib
import platform
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hearthgate import crypto  # noqa: E402
from hearthgate.runtime import seeded_rng  # noqa: E402

SEED = 20_261_018
REPEATS = 200
BACKENDS = ("x25519", "ml-kem-512")
OPS = ("keygen", "encaps", "encaps (same key)", "decaps")


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - start) * 1e6


def bench_backend(name: str) -> dict[str, float]:
    backend = crypto.kem_backend(name)
    rng = seeded_rng(SEED)
    samples: dict[str, list[float]] = {op: [] for op in OPS}
    for _ in range(REPEATS):
        (public, secret), t_keygen = _timed(backend.keygen, rng)
        (encapsulation, shared), t_encaps = _timed(backend.encaps, public, rng)
        _, t_again = _timed(backend.encaps, public, rng)
        recovered, t_decaps = _timed(backend.decaps, secret, encapsulation, public)
        if recovered != shared:
            raise SystemExit(f"{name}: decapsulation did not recover the secret")
        for op, t in zip(OPS, (t_keygen, t_encaps, t_again, t_decaps)):
            samples[op].append(t)
    return {op: statistics.median(ts) for op, ts in samples.items()}


def main() -> None:
    print(f"# python {platform.python_version()} on {platform.machine()}, "
          f"seed {SEED}, {REPEATS} repeats, median us per operation")
    print(f"{'backend':<12}" + "".join(f"{op:>20}" for op in OPS))
    for name in BACKENDS:
        medians = bench_backend(name)
        print(f"{name:<12}" + "".join(f"{medians[op]:>20.1f}" for op in OPS))


if __name__ == "__main__":
    main()
