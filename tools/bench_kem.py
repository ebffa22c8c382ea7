#!/usr/bin/env python3
"""Per-operation micro-benchmark: median microseconds per KEM and signature
operation, and per ledger transaction.

Run from the repo root: python3 tools/bench_kem.py [--against REV]

For each KEM backend (``x25519``, ``ml-kem-512``) it makes REPEATS fresh
keys from a fixed seed and, for each key, times keygen, one encapsulation to
the new key, a second encapsulation to the same key, the decapsulation of
the first ciphertext, and the decapsulation of a foreign ciphertext: the
first one with the top bit of its last byte flipped. The ``encaps (same
key)`` row shows the cost once data derived from the public key has been
computed before. ML-KEM decapsulation of a ciphertext this process
encapsulated, with a key it generated, looks up the shared secret
``encaps`` recorded; the flipped ciphertext misses that memo, and the
flipped bit changes ML-KEM's decrypted message (it is the top bit of v's
last compressed coefficient), so the ``decaps (foreign ciphertext)`` row
times the full re-encryption check and its implicit rejection. X25519
decapsulation of an encapsulation this process made looks up the AEAD key
``encaps`` recorded; for X25519 the flipped bit is bit 255 of the
encapsulation, which X25519 itself ignores, but the memo is keyed by the
exact bytes, so the foreign row still misses and times a full exchange (with
a key unlike the one encapsulated, as the KDF reads those bytes). For Ed25519 it
times keygen, one signature with the new key, and two checks against a public
key decoded from its wire bytes, as a ledger peer or a device receives it:
``verify_own`` checks the signature just made, which ``crypto``'s memo of
signatures made answers without libsodium, and ``verify`` checks one the
reference signer (``cryptography``) made over another message, which
libsodium verifies. The ledger row times ``make_transaction`` plus
``LedgerNetwork.submit`` (sign, encode, a ``verify_own``-style check, policy
and payload checks) for REPEATS data-channel transactions. Each row is the
median over the repeats, in microseconds of wall time on this machine.

The ``first use`` rows time a fresh interpreter, FRESH_RUNS times per
backend: importing hearthgate, then the process's first keygen. The ML-KEM
module, and numpy with it, is imported on an ML-KEM key's first use, so that
one-time cost shows in the ml-kem-512 first keygen.

The kernel rows time three ML-KEM-512 building blocks on the two
polynomials of a vector, as the module calls them: ByteEncode_12 of t-hat
(768 bytes out), ByteDecode_10 of a ciphertext's u (640 bytes in) and
SamplePolyCBD_3 of two PRF outputs, the SHAKE-256 calls included. Each
sample is a loop of KERNEL_LOOP calls.

With ``--against REV`` it also compares ML-KEM-512 with the ``mlkem.py`` of
git revision REV in this one process, so machine drift between two runs
cannot pass for a difference. REV's file is read with ``git show`` into a
module of its own (it has no relative imports), and both modules run the
``kem`` rows' operations on the same inputs, REPEATS pairs, taking turns at
going first. Every pair must give the same bytes. Each operation's row gives
both medians, the median of the per-pair ratio (this tree / REV) and the
pairs this tree won.

Results go to ``BENCH_kem.json`` with the machine's Python, ``cryptography``,
OpenSSL, libsodium and numpy versions, its usable CPU count and the git commit
(``-dirty`` when a tracked file other than the ``BENCH_*.json`` results has
uncommitted changes). The file keeps one run per commit: a run replaces an
earlier run of the same commit and keeps the others, so a change can commit
its parent's numbers next to its own.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench_scenario import machine_meta  # noqa: E402
from cryptography.hazmat.primitives.asymmetric.ed25519 import (  # noqa: E402
    Ed25519PrivateKey,
)
from hearthgate import crypto, ledger, wire  # noqa: E402
from hearthgate.payloads import DataEntry  # noqa: E402
from hearthgate.runtime import seeded_rng  # noqa: E402

SEED = 20_261_018
REPEATS = 200
NOW = 1_700_000_010.0
BACKENDS = ("x25519", "ml-kem-512")
KEM_OPS = ("keygen", "encaps", "encaps (same key)", "decaps",
           "decaps (foreign ciphertext)")
SIG_OPS = ("keygen", "sign", "verify", "verify_own")
FRESH_RUNS = 5
KERNEL_LOOP = 100
OUT = ROOT / "BENCH_kem.json"
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
        foreign = encapsulation[:-1] + bytes([encapsulation[-1] ^ 0x80])
        rejected, t_foreign = _timed(backend.decaps, pair, foreign)
        if rejected == shared:
            raise SystemExit(f"{name}: a foreign ciphertext gave the secret")
        for op, t in zip(KEM_OPS, (t_keygen, t_encaps, t_again, t_decaps, t_foreign)):
            samples[op].append(t)
    return _medians(samples)


def load_revision(rev: str) -> types.ModuleType:
    """``src/hearthgate/mlkem.py`` at git revision ``rev``, as a module of its own."""
    source = subprocess.run(["git", "show", f"{rev}:src/hearthgate/mlkem.py"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout
    module = types.ModuleType(f"mlkem_at_{rev}")
    sys.modules[module.__name__] = module   # what dataclasses and pickling look up
    exec(compile(source, f"{rev}:src/hearthgate/mlkem.py", "exec"), module.__dict__)
    return module


def _mlkem_ops(module, seed: bytes, m: bytes, m_again: bytes):
    """The ``kem`` rows' operations on ``module``: (their outputs, µs for each)."""
    (ek, dk), t_keygen = _timed(module.keygen, seed)
    (ct, shared), t_encaps = _timed(module.encaps, ek, m)
    again, t_again = _timed(module.encaps, ek, m_again)
    recovered, t_decaps = _timed(module.decaps, dk, ct)
    foreign = ct[:-1] + bytes([ct[-1] ^ 0x80])
    rejected, t_foreign = _timed(module.decaps, dk, foreign)
    return ((ek, dk, ct, shared, again, recovered, rejected),
            (t_keygen, t_encaps, t_again, t_decaps, t_foreign))


def compare_against(rev: str) -> dict[str, dict[str, float]]:
    """Each ML-KEM-512 operation of this tree against ``rev``'s, timed in turns."""
    from hearthgate import mlkem
    modules = {"this": mlkem, "rev": load_revision(rev)}
    rng = seeded_rng(SEED)
    times: dict[str, dict[str, list[float]]] = {op: {"rev": [], "this": []} for op in KEM_OPS}
    for i in range(REPEATS):
        inputs = rng.bytes(64), rng.bytes(32), rng.bytes(32)
        order = ("this", "rev") if i % 2 else ("rev", "this")
        outputs = {}
        for side in order:
            outputs[side], elapsed = _mlkem_ops(modules[side], *inputs)
            for op, t in zip(KEM_OPS, elapsed):
                times[op][side].append(t)
        if outputs["this"] != outputs["rev"]:
            raise SystemExit(f"ml-kem-512: this tree and {rev} gave different bytes")
    rows = {}
    for op, sides in times.items():
        ratios = [t / r for t, r in zip(sides["this"], sides["rev"])]
        rows[op] = {"rev": statistics.median(sides["rev"]),
                    "this": statistics.median(sides["this"]),
                    "median ratio": statistics.median(ratios),
                    "wins": sum(ratio < 1 for ratio in ratios)}
    return rows


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
        message, foreign_message = rng.bytes(160), rng.bytes(160)
        signature, t_sign = _timed(crypto.sign, pair, message, NOW)
        foreign = crypto.Signature(pair.role_tag, Ed25519PrivateKey.from_private_bytes(
            pair.secret_key).sign(foreign_message))
        public = wire.PUBLIC_KEY.decode(wire.PUBLIC_KEY.encode(pair.public))
        valid, t_verify = _timed(crypto.verify, public, foreign_message, foreign, NOW)
        valid_own, t_own = _timed(crypto.verify, public, message, signature, NOW)
        if not (valid and valid_own):
            raise SystemExit("ed25519: signature did not verify")
        for op, t in zip(SIG_OPS, (t_keygen, t_sign, t_verify, t_own)):
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


def bench_kernels() -> dict[str, float]:
    from hearthgate import mlkem
    k = mlkem.ML_KEM_512.k
    rng = seeded_rng(SEED)
    ek, _ = mlkem.keygen(rng.bytes(64))
    ct, _ = mlkem.encaps(ek, rng.bytes(32))
    t_hat = mlkem._unpack(ek[:384 * k], 12).reshape(k, mlkem.N)
    u = ct[:32 * mlkem.ML_KEM_512.du * k]
    sigma = rng.bytes(32)
    kernels = {
        "ByteEncode_12": lambda: mlkem._pack(t_hat, 12),
        "ByteDecode_10": lambda: mlkem._unpack(u, 10),
        "SamplePolyCBD_3": lambda: mlkem._noise(3, sigma, 0, k),
    }
    samples: dict[str, list[float]] = {name: [] for name in kernels}
    for _ in range(REPEATS):
        for name, kernel in kernels.items():
            start = time.perf_counter()
            for _ in range(KERNEL_LOOP):
                kernel()
            samples[name].append((time.perf_counter() - start) * 1e6 / KERNEL_LOOP)
    return _medians(samples)


def _rounded(values: dict[str, float]) -> dict[str, float]:
    return {name: round(value, 1) for name, value in values.items()}


def write_run(run: dict) -> None:
    """Store ``run`` in OUT, replacing an earlier run of the same commit."""
    runs = json.loads(OUT.read_text())["runs"] if OUT.exists() else []
    commit = run["meta"]["git_commit"]
    runs = [r for r in runs if r["meta"]["git_commit"] != commit] + [run]
    OUT.write_text(json.dumps({"runs": runs}, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="also time ML-KEM-512 against this git revision's mlkem.py")
    args = parser.parse_args()
    print(f"# python {platform.python_version()} on {platform.machine()}, "
          f"seed {SEED}, {REPEATS} repeats, median us per operation")
    widths = {op: max(20, len(op) + 2) for op in KEM_OPS}
    print(f"{'backend':<12}" + "".join(f"{op:>{widths[op]}}" for op in KEM_OPS))
    kem = {}
    for name in BACKENDS:
        medians = kem[name] = bench_backend(name)
        print(f"{name:<12}" + "".join(f"{medians[op]:>{widths[op]}.1f}" for op in KEM_OPS))
    print()
    print(f"{'first use':<12}{'import hearthgate':>20}{'first keygen':>20}")
    first_use = {}
    for name in BACKENDS:
        imported, first = bench_first_use(name)
        first_use[name] = {"import hearthgate": imported, "first keygen": first}
        print(f"{name:<12}{imported:>20.1f}{first:>20.1f}")
    print()
    print(f"{'signature':<12}" + "".join(f"{op:>20}" for op in SIG_OPS))
    signature = bench_signatures()
    print(f"{crypto.SIG_ALGO:<12}" + "".join(f"{signature[op]:>20.1f}" for op in SIG_OPS))
    print()
    print(f"{'ledger':<12}{'make_transaction + submit':>32}")
    data_tx = bench_ledger()
    print(f"{'data tx':<12}{data_tx:>32.1f}")
    print()
    kernels = bench_kernels()
    print(f"{'kernel':<12}" + "".join(f"{name:>20}" for name in kernels))
    print(f"{'ml-kem-512':<12}" + "".join(f"{us:>20.1f}" for us in kernels.values()))
    import numpy   # after mlkem has imported it, as in a real first use
    meta = machine_meta()
    meta.update(numpy=numpy.__version__, machine=platform.machine(), seed=SEED,
                repeats=REPEATS, kernel_loop=KERNEL_LOOP, unit="median us")
    run = {"meta": meta,
           "kem": {name: _rounded(rows) for name, rows in kem.items()},
           "first_use": {name: _rounded(rows) for name, rows in first_use.items()},
           "signature": {crypto.SIG_ALGO: _rounded(signature)},
           "ledger": {"data tx": round(data_tx, 1)},
           "kernels": {"ml-kem-512": _rounded(kernels)}}
    if args.against:
        rev = subprocess.run(["git", "rev-parse", "--short", args.against], cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout.strip()
        print()
        print(f"# ml-kem-512 against {rev}: {REPEATS} pairs in turns, "
              f"ratio = this tree / {rev}")
        print(f"{'operation':<30}{rev:>12}{'this':>12}{'median ratio':>14}{'wins':>10}")
        rows = compare_against(rev)
        for op, row in rows.items():
            print(f"{op:<30}{row['rev']:>12.1f}{row['this']:>12.1f}"
                  f"{row['median ratio']:>14.3f}{row['wins']:>6}/{REPEATS}")
        run["against"] = {"rev": rev, "pairs": REPEATS, "ml-kem-512": {
            op: {rev: round(row["rev"], 1), "this": round(row["this"], 1),
                 "median ratio": round(row["median ratio"], 3), "wins": row["wins"]}
            for op, row in rows.items()}}
    write_run(run)
    print(f"wrote {OUT.name}")


if __name__ == "__main__":
    main()
