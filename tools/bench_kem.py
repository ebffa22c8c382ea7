#!/usr/bin/env python3
"""Per-operation micro-benchmark: median microseconds per KEM and signature
operation, and per ledger transaction.

Run from the repo root: python3 tools/bench_kem.py

For each KEM backend (``x25519``, ``ml-kem-512``) it makes REPEATS fresh
keys from a fixed seed and, for each key, times keygen, one encapsulation to
the new key, a second encapsulation to the same key, and the decapsulation
of the first ciphertext. The ``encaps (same key)`` row shows the cost once
data derived from the public key has been computed before. For Ed25519 it
times keygen, one signature with the new key and the check of that signature
against a public key decoded from its wire bytes, as a ledger peer or a
device receives it. The ledger row times ``make_transaction`` plus
``LedgerNetwork.submit`` (sign, encode, verify, policy and payload checks)
for REPEATS data-channel transactions. Each row is the median over the
repeats, in microseconds of wall time on this machine.

The ``first use`` rows time a fresh interpreter, FRESH_RUNS times per
backend: importing hearthgate, then the process's first keygen. The ML-KEM
module, and numpy with it, is imported on an ML-KEM key's first use, so that
one-time cost shows in the ml-kem-512 first keygen.
"""

from __future__ import annotations

import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hearthgate import crypto, ledger, wire  # noqa: E402
from hearthgate.payloads import DataEntry  # noqa: E402
from hearthgate.runtime import seeded_rng  # noqa: E402

SEED = 20_261_018
REPEATS = 200
NOW = 1_700_000_010.0
BACKENDS = ("x25519", "ml-kem-512")
KEM_OPS = ("keygen", "encaps", "encaps (same key)", "decaps")
SIG_OPS = ("keygen", "sign", "verify")
FRESH_RUNS = 5
FIRST_USE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
from hearthgate import crypto
from hearthgate.runtime import seeded_rng
imported = time.perf_counter()
crypto.kem_keygen(crypto.RoleTag.DEVICE_FOR_SERVER, 3600.0, seeded_rng({seed}), {now}, {name!r})
print((imported - start) * 1e6, (time.perf_counter() - imported) * 1e6)
"""


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - start) * 1e6


def _medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {op: statistics.median(ts) for op, ts in samples.items()}


def bench_backend(name: str) -> dict[str, float]:
    backend = crypto.kem_backend(name)
    rng = seeded_rng(SEED)
    samples: dict[str, list[float]] = {op: [] for op in KEM_OPS}
    for _ in range(REPEATS):
        pair, t_keygen = _timed(crypto.kem_keygen, crypto.RoleTag.DEVICE_FOR_SERVER,
                                3600.0, rng, NOW, name)
        public = pair.public
        (encapsulation, shared), t_encaps = _timed(backend.encaps, public, rng)
        _, t_again = _timed(backend.encaps, public, rng)
        recovered, t_decaps = _timed(backend.decaps, pair, encapsulation)
        if recovered != shared:
            raise SystemExit(f"{name}: decapsulation did not recover the secret")
        for op, t in zip(KEM_OPS, (t_keygen, t_encaps, t_again, t_decaps)):
            samples[op].append(t)
    return _medians(samples)


def bench_first_use(name: str) -> tuple[float, float]:
    """Median µs to import hearthgate, and for the first keygen after it."""
    code = FIRST_USE.format(src=str(ROOT / "src"), seed=SEED, now=NOW, name=name)
    imports, firsts = [], []
    for _ in range(FRESH_RUNS):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        imported, first = map(float, out.split())
        imports.append(imported)
        firsts.append(first)
    return statistics.median(imports), statistics.median(firsts)


def bench_signatures() -> dict[str, float]:
    rng = seeded_rng(SEED)
    samples: dict[str, list[float]] = {op: [] for op in SIG_OPS}
    for _ in range(REPEATS):
        pair, t_keygen = _timed(crypto.sig_keygen, crypto.RoleTag.ORG_CREDENTIAL,
                                3600.0, rng, NOW)
        message = rng.bytes(160)
        signature, t_sign = _timed(crypto.sign, pair, message, NOW)
        public = wire.decode_public_key(wire.encode_public_key(pair.public))
        valid, t_verify = _timed(crypto.verify, public, message, signature, NOW)
        if not valid:
            raise SystemExit("ed25519: signature did not verify")
        for op, t in zip(SIG_OPS, (t_keygen, t_sign, t_verify)):
            samples[op].append(t)
    return _medians(samples)


def bench_ledger() -> float:
    rng = seeded_rng(SEED)
    network, orgs = ledger.build_consortium(ledger.CORE_ORGS, rng, NOW)
    server = orgs["server-org"]
    samples = []
    for i in range(REPEATS):
        now = NOW + i * 0.01
        entry = DataEntry(rng.bytes(16), "temperature_c", 21.5, "C", now,
                          rng.bytes(32))
        start = time.perf_counter()
        tx = ledger.make_transaction(ledger.ChannelName.DATA, entry, server, now)
        network.submit(tx, now)
        samples.append((time.perf_counter() - start) * 1e6)
    network.settle()
    return statistics.median(samples)


def main() -> None:
    print(f"# python {platform.python_version()} on {platform.machine()}, "
          f"seed {SEED}, {REPEATS} repeats, median us per operation")
    print(f"{'backend':<12}" + "".join(f"{op:>20}" for op in KEM_OPS))
    for name in BACKENDS:
        medians = bench_backend(name)
        print(f"{name:<12}" + "".join(f"{medians[op]:>20.1f}" for op in KEM_OPS))
    print()
    print(f"{'first use':<12}{'import hearthgate':>20}{'first keygen':>20}")
    for name in BACKENDS:
        imported, first = bench_first_use(name)
        print(f"{name:<12}{imported:>20.1f}{first:>20.1f}")
    print()
    print(f"{'signature':<12}" + "".join(f"{op:>20}" for op in SIG_OPS))
    medians = bench_signatures()
    print(f"{crypto.SIG_ALGO:<12}" + "".join(f"{medians[op]:>20.1f}" for op in SIG_OPS))
    print()
    print(f"{'ledger':<12}{'make_transaction + submit':>32}")
    print(f"{'data tx':<12}{bench_ledger():>32.1f}")


if __name__ == "__main__":
    main()
