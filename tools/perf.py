#!/usr/bin/env python3
"""Per-layer wall times of hearthgate, every row paired with a git revision.

Run from the repo root: python3 tools/perf.py [--against REV]

One persistent worker process runs each tree: this checkout's ``src/`` and,
with ``--against REV``, REV's ``src/`` exported by ``git archive`` into a
temporary directory. Both run this file's sample code, so REV must have the
functions it calls. The driver sends one sample request at a time to each
worker in turn and stops when a sample's outputs differ between the sides.
Each two adjacent samples form a pair, so the side that ran first flips from
one pair to the next. A row gives each side's median, the median of the
per-pair ratio (this tree / REV) and the pairs this tree won: this VM's
speed drifts by up to 2x between phases, so two commits compare by paired
ratios, never by medians of separate runs. A worker runs one sample per
request; every count is the driver's, and no sample is discarded (a median
leaves out the one-time costs of a worker's first samples). Without
``--against`` the same loop runs this tree alone.

Rows, in µs unless named otherwise: ``kem``, per backend, on a fresh key
from the sample's seed: keygen, two encapsulations to it (the second finds
data derived from the key cached), the decapsulation of the first (a memo
lookup) and of the first with the top bit of its last byte flipped, which
misses the memo. ``first_use``: in a fresh interpreter, importing
hearthgate and the first keygen (for ML-KEM, with numpy's import).
``signature``: Ed25519 keygen, sign, ``verify`` of the reference signer's
signature over another message (libsodium checks it) and ``verify_own`` of
the one just made (``crypto``'s memo answers). ``ledger``:
``make_transaction`` plus ``LedgerNetwork.submit`` of a data transaction,
``commit``: ``settle`` of a block of 50 submitted data transactions, per
transaction, and ``mixed load row``: one 10-second Poisson ``generate_load``
row at 150 tx/s in ``ledger-mix``'s channel mix, per committed transaction
(about 1,500 of them, so it takes LOAD_SAMPLES samples a side). ``wire``:
encode and decode of a registration request, of the registration payload it
seals (nested records: a key bundle of two public keys, a hybrid ciphertext
and a signature) and of a data transaction's signed body. ``kernels``:
ML-KEM-512's ByteEncode_12, ByteDecode_10 and SamplePolyCBD_3 on a vector.
The ``wire``, ``kernels`` and ``commit`` rows time each sample over
KERNEL_LOOP calls: a single call is too short to read next to the difference
between two worker processes.
Scenario: ``run_scenario`` under DeliverAll, N devices onboarding and
reporting once each, in ms.

Runs go to ``BENCH_kem.json`` and ``BENCH_scenario.json`` with the machine's
library versions, its usable CPU count, the git commit (``-dirty`` when a
tracked file other than the ``BENCH_*.json`` results differs from it) and
``src_lines``, the line count of ``src/hearthgate/*.py``. Each
file keeps one run per commit, replacing an earlier run of the same commit.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 20_261_018
SCENARIO_SEED = 7
NOW = 1_700_000_010.0
BACKENDS = ("x25519", "ml-kem-512")
SAMPLES = 200
FRESH_SAMPLES = 5
SCENARIO_SAMPLES = 5
LOAD_SAMPLES = 40
LOAD_MIX = (("data", 0.8), ("identity", 0.15), ("risk_management", 0.05))
SIZES = (1, 10, 100, 200)
KERNEL_LOOP = 100
BLOCK_TXS = 50
WORKER = "import sys; sys.path.insert(0, sys.argv[1]); import perf; perf.serve(sys.argv[2])"
FIRST_USE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from hearthgate import crypto
from hearthgate.runtime import seeded_rng
imported = time.perf_counter()
pair = crypto.kem_keygen(crypto.RoleTag.DEVICE_FOR_SERVER, 3600.0, seeded_rng({seed}),
                         {now}, sys.argv[2])
print((imported - start) * 1e6, (time.perf_counter() - imported) * 1e6, pair.public.key.hex())
"""


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - start) * 1e6


def _digest(*outputs: bytes) -> str:
    digest = hashlib.sha256()
    for out in outputs:
        digest.update(len(out).to_bytes(4, "big") + out)
    return digest.hexdigest()[:16]


def sample_kem(i: int, kem: str):
    from hearthgate import crypto
    from hearthgate.runtime import seeded_rng
    backend, rng = crypto.kem_backend(kem), seeded_rng(SEED + i)
    pair, t_keygen = _timed(crypto.kem_keygen, crypto.RoleTag.DEVICE_FOR_SERVER,
                            3600.0, rng, NOW, kem)
    (encapsulation, shared), t_encaps = _timed(backend.encaps, pair.public, rng)
    again, t_again = _timed(backend.encaps, pair.public, rng)
    recovered, t_decaps = _timed(backend.decaps, pair, encapsulation)
    foreign = encapsulation[:-1] + bytes([encapsulation[-1] ^ 0x80])
    rejected, t_foreign = _timed(backend.decaps, pair, foreign)
    if recovered != shared or rejected == shared:
        raise SystemExit(f"{kem}: decapsulation returned the wrong secret")
    return ({"keygen": t_keygen, "encaps": t_encaps, "encaps (same key)": t_again,
             "decaps": t_decaps, "decaps (foreign ciphertext)": t_foreign},
            _digest(pair.public.key, encapsulation, shared, *again, rejected))


def sample_first_use(i: int, kem: str):
    import hearthgate
    code = FIRST_USE.format(seed=SEED, now=NOW)
    src = pathlib.Path(hearthgate.__file__).parents[1]
    imported, first, public = subprocess.run(
        [sys.executable, "-c", code, str(src), kem], check=True,
        stdout=subprocess.PIPE, text=True).stdout.split()
    return {"import hearthgate": float(imported), "first keygen": float(first)}, public


def sample_signature(i: int):
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
    from hearthgate import crypto, wire
    from hearthgate.runtime import seeded_rng
    rng = seeded_rng(SEED + i)
    pair, t_keygen = _timed(crypto.sig_keygen, crypto.RoleTag.ORG_CREDENTIAL, 3600.0, rng, NOW)
    message, other = rng.bytes(160), rng.bytes(160)
    signature, t_sign = _timed(crypto.sign, pair, message, NOW)
    foreign = crypto.Signature(pair.role_tag, Ed25519PrivateKey.from_private_bytes(
        pair.secret_key).sign(other))
    public = wire.PUBLIC_KEY.decode(wire.PUBLIC_KEY.encode(pair.public))
    valid, t_verify = _timed(crypto.verify, public, other, foreign, NOW)
    valid_own, t_own = _timed(crypto.verify, public, message, signature, NOW)
    if not (valid and valid_own):
        raise SystemExit(f"{crypto.SIG_ALGO}: a signature did not verify")
    return ({"keygen": t_keygen, "sign": t_sign, "verify": t_verify, "verify_own": t_own},
            _digest(pair.public.key, signature.value, foreign.value))


@functools.cache
def _consortium():
    from hearthgate import ledger
    from hearthgate.runtime import seeded_rng
    network, orgs = ledger.build_consortium(ledger.CORE_ORGS, seeded_rng(SEED), NOW)
    return network, orgs["server-org"]


def sample_ledger(i: int):
    from hearthgate import ledger
    from hearthgate.payloads import DataEntry
    from hearthgate.runtime import seeded_rng
    network, server = _consortium()
    rng, now = seeded_rng(SEED + i), NOW + i * 0.01
    entry = DataEntry(rng.bytes(16), "temperature_c", 21.5, "C", now, rng.bytes(32))
    start = time.perf_counter()
    tx = ledger.make_transaction(ledger.ChannelName.DATA, entry, server, now)
    network.submit(tx, now)
    return {"data tx": (time.perf_counter() - start) * 1e6}, _digest(tx.canonical_bytes)


@functools.cache
def _block():
    from hearthgate import ledger
    from hearthgate.payloads import DataEntry
    from hearthgate.runtime import seeded_rng
    network, server = _consortium()
    rng = seeded_rng(SEED)
    return network.membership, [ledger.make_transaction(
        ledger.ChannelName.DATA, DataEntry(rng.bytes(16), "temperature_c", 21.5, "C",
                                           NOW, rng.bytes(32)), server, NOW)
        for _ in range(BLOCK_TXS)]


def sample_commit(i: int, loop: int):
    from hearthgate import ledger
    membership, txs = _block()
    # Rounds are a second apart, and one round's transactions fit in the
    # one-second block interval, so each settle cuts one full block.
    network = ledger.LedgerNetwork(membership, max_block_txs=BLOCK_TXS, block_interval=1.0)
    elapsed = 0.0
    for k in range(loop):
        for tx in txs:
            network.submit(tx, NOW + k)
        start = time.perf_counter()
        network.settle()
        elapsed += time.perf_counter() - start
    chain = network.chains[ledger.ChannelName.DATA]
    return ({"commit": elapsed * 1e6 / (loop * len(txs))},
            [len(chain), len(chain[-1].txs), chain[-1].block_hash.hex()])


def sample_load(i: int):
    from hearthgate import bench, ledger
    networks = []
    build = ledger.build_consortium

    def capture(*args, **kwargs):
        network, orgs = build(*args, **kwargs)
        networks.append(network)
        return network, orgs

    profile = bench.LoadProfile(arrival_rate=150.0, duration=10.0, process="poisson",
                                tx_mix=LOAD_MIX)
    ledger.build_consortium = capture   # to read the committed blocks back
    try:
        _, t = _timed(bench.generate_load, profile, SEED + i)
    finally:
        ledger.build_consortium = build
    blocks = [block for chain in networks[0].chains.values() for block in chain]
    return ({"mixed load row": t / sum(len(block.txs) for block in blocks)},
            _digest(*(block.canonical_bytes() for block in blocks)))


@functools.cache
def _wire_ops():
    from hearthgate import crypto, ledger, wire
    from hearthgate.payloads import DataEntry
    from hearthgate.runtime import seeded_rng
    rng = seeded_rng(SEED)
    server = crypto.generate_role_keys(crypto.RoleTag.SERVER_FOR_AUTH, 3600.0, rng, NOW)
    device = crypto.generate_role_keys(crypto.RoleTag.DEVICE_FOR_SERVER, 3600.0, rng, NOW)
    token = crypto.hybrid_encrypt(server.kem.public, b"12345678", rng, NOW)
    signature = crypto.sign(device.sig, wire.encode_hybrid(token), NOW)
    payload = (device.public, rng.bytes(16), token, signature)
    payload_bytes = wire.REGISTRATION_PAYLOAD.encode(payload)
    sealed = crypto.hybrid_encrypt(server.kem.public, payload_bytes, rng, NOW)
    # Framed by hand (tag 0x06, then the key id and the ciphertext's four
    # fields) and decoded, so that any tree's own message type holds it.
    request = wire.decode(wire.pack_fields([b"\x06" + wire.pack_fields([
        sealed.key_id, sealed.encapsulation, sealed.aead_nonce, sealed.body,
        sealed.auth_tag])]))
    body = (ledger.ChannelName.DATA, DataEntry(rng.bytes(16), "temperature_c", 21.5, "C",
                                               NOW, rng.bytes(32)), "server-org", NOW)
    request_bytes, body_bytes = wire.encode(request), ledger._TX_BODY.encode(body)
    return {"RegistrationRequest encode": lambda: wire.encode(request),
            "RegistrationRequest decode": lambda: wire.decode(request_bytes),
            "registration payload encode": lambda: wire.REGISTRATION_PAYLOAD.encode(payload),
            "registration payload decode": lambda: wire.REGISTRATION_PAYLOAD.decode(
                payload_bytes),
            "data tx body encode": lambda: ledger._TX_BODY.encode(body),
            "data tx body decode": lambda: ledger._TX_BODY.decode(body_bytes)}


@functools.cache
def _kernels():
    from hearthgate import mlkem
    from hearthgate.runtime import seeded_rng
    k, rng = mlkem.ML_KEM_512.k, seeded_rng(SEED)
    ek, _ = mlkem.keygen(rng.bytes(64))
    ct, _ = mlkem.encaps(ek, rng.bytes(32))
    t_hat = mlkem._unpack(ek[:384 * k], 12).reshape(k, mlkem.N)
    u, sigma = ct[:32 * mlkem.ML_KEM_512.du * k], rng.bytes(32)
    return {"ByteEncode_12": lambda: mlkem._pack(t_hat, 12),
            "ByteDecode_10": lambda: mlkem._unpack(u, 10),
            "SamplePolyCBD_3": lambda: mlkem._noise(3, sigma, 0, k)}


def _per_call(ops: dict, loop: int) -> tuple[dict, dict]:
    """Each operation's time per call over ``loop`` calls, and its last output."""
    times, outputs = {}, {}
    for name, op in ops.items():
        start = time.perf_counter()
        for _ in range(loop):
            out = op()
        times[name] = (time.perf_counter() - start) * 1e6 / loop
        outputs[name] = out
    return times, outputs


def sample_kernels(i: int, loop: int):
    times, out = _per_call(_kernels(), loop)
    return times, _digest(*(o if isinstance(o, bytes) else o.tobytes() for o in out.values()))


def sample_wire(i: int, loop: int):
    from hearthgate import ledger, wire
    times, out = _per_call(_wire_ops(), loop)
    # Each decoded value re-encoded with the codec that decoded it: the two
    # trees compare bytes, not how their objects print.
    return times, _digest(out["RegistrationRequest encode"],
                          wire.encode(out["RegistrationRequest decode"]),
                          out["registration payload encode"],
                          wire.REGISTRATION_PAYLOAD.encode(out["registration payload decode"]),
                          out["data tx body encode"],
                          ledger._TX_BODY.encode(out["data tx body decode"]))


def sample_scenario(i: int, kem: str, devices: int):
    from hearthgate import channels, harness
    spec = harness.ScenarioSpec(devices=devices, reports=(("temperature_c", 21.5, "C"),),
                                kem_algo=kem)
    result, t = _timed(harness.run_scenario, spec, channels.DeliverAll(), SCENARIO_SEED)
    registered = len(result.trace.by_kind(channels.REGISTRATION_SUCCESS))
    return {"wall_ms": t / 1e3}, [registered, result.trace.digest()]


SAMPLERS = {"kem": sample_kem, "first_use": sample_first_use, "signature": sample_signature,
            "ledger": sample_ledger, "commit": sample_commit, "load": sample_load,
            "wire": sample_wire,
            "kernels": sample_kernels, "scenario": sample_scenario}


def serve(src: str) -> None:
    """Load the hearthgate under ``src``, name its file, then answer each
    JSON request line on stdin with one line ``{"times", "check"}``."""
    sys.path.insert(0, src)
    import hearthgate
    replies, sys.stdout = sys.stdout, sys.stderr   # the pipe carries replies only
    print(json.dumps(hearthgate.__file__), file=replies, flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        times, check = SAMPLERS[request.pop("group")](**request)
        print(json.dumps({"times": times, "check": check}), file=replies, flush=True)


class Worker:
    """A persistent worker process running the hearthgate under ``src``."""

    def __init__(self, src: pathlib.Path):
        self.src = src.resolve()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(ROOT / "tools"), str(self.src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        loaded = pathlib.Path(self._reply()).resolve()
        if not loaded.is_relative_to(self.src):
            raise SystemExit(f"the worker for {self.src} loaded {loaded}")

    def ask(self, request: dict):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"the worker for {self.src} stopped")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def paired(workers: dict, request: dict, samples: int) -> tuple[dict, object]:
    """Run ``request`` for samples 0..samples-1 on each side in turn; return
    each row's medians, with two sides also the median ratio this/rev over
    the pairs of adjacent samples and the pairs ``this`` won, and the last
    sample's outputs check, equal on both sides."""
    times: dict = {side: {} for side in workers}
    for i in range(samples):
        checks = {}
        for side, worker in workers.items():
            reply = worker.ask({**request, "i": i})
            checks[side] = reply["check"]
            for row, t in reply["times"].items():
                times[side].setdefault(row, []).append(t)
        if checks.get("rev", checks["this"]) != checks["this"]:
            raise SystemExit(f"{request} sample {i}: the trees' outputs differ: {checks}")
    rows = {}
    for row, this in times["this"].items():
        rows[row] = {side: round(statistics.median(t[row]), 1) for side, t in times.items()}
        if "rev" in times:
            rev = times["rev"][row]   # rev_0 this_0 rev_1 this_1 ...
            ratios = [t / r for t, r in zip(this + this, rev + rev[1:])]
            rows[row].update({"median ratio": round(statistics.median(ratios), 3),
                              "wins": sum(ratio < 1 for ratio in ratios)})
    return rows, checks["this"]


def show(title: str, rows: dict) -> None:
    columns = list(next(iter(rows.values())))
    print(f"{title:<50}" + "".join(f"{column:>14}" for column in columns))
    for row, stats in rows.items():
        print(f"  {row:<48}" + "".join(f"{value:>14}" for value in stats.values()))


def measure(sources: dict[str, pathlib.Path]) -> tuple[dict, list]:
    """Every row, on ``{"this": src}`` or ``{"rev": src, "this": src}``: the
    ``BENCH_kem.json`` sections and the ``BENCH_scenario.json`` rows."""
    groups = ([("kem", kem, {"group": "kem", "kem": kem}, SAMPLES) for kem in BACKENDS]
              + [("first_use", kem, {"group": "first_use", "kem": kem}, FRESH_SAMPLES)
                 for kem in BACKENDS]
              + [("signature", "ed25519", {"group": "signature"}, SAMPLES),
                 ("wire", "", {"group": "wire", "loop": KERNEL_LOOP}, SAMPLES),
                 ("ledger", "", {"group": "ledger"}, SAMPLES),
                 ("ledger", "", {"group": "commit", "loop": KERNEL_LOOP}, SAMPLES),
                 ("ledger", "", {"group": "load"}, LOAD_SAMPLES),
                 ("kernels", "ml-kem-512", {"group": "kernels", "loop": KERNEL_LOOP}, SAMPLES)])
    workers = {}
    try:
        for side, src in sources.items():
            workers[side] = Worker(src)
        sections: dict = {}
        for section, label, request, samples in groups:
            rows, _ = paired(workers, request, samples)
            show(f"{section} {label}", rows)
            target = sections.setdefault(section, {})
            (target.setdefault(label, {}) if label else target).update(rows)
        scenario = []
        for kem in BACKENDS:
            for n in SIZES:
                request = {"group": "scenario", "kem": kem, "devices": n}
                rows, (registered, _) = paired(workers, request, SCENARIO_SAMPLES)
                show(f"scenario {kem} N={n}, {registered}/{n} registered", rows)
                scenario.append({"kem": kem, "devices": n, "registered": registered,
                                 "wall_ms": rows["wall_ms"], "wall_ms_per_device": {
                                     side: round(rows["wall_ms"][side] / n, 2)
                                     for side in sources}})
    finally:
        for worker in workers.values():
            worker.close()
    return sections, scenario


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True)


def git_commit() -> str | None:
    """The checked-out commit, ``-dirty`` when a tracked file differs from it.
    The ``BENCH_*.json`` results are left out of that check: this tool
    writes them, so a second run in a clean checkout keeps its clean label."""
    commit = git("describe", "--always")
    if commit.returncode != 0:
        return None
    changed = git("diff", "--quiet", "HEAD", "--", ".", ":(exclude)BENCH_*.json")
    return commit.stdout.decode().strip() + ("-dirty" if changed.returncode else "")


def machine_meta() -> dict:
    import cryptography
    import numpy
    from cryptography.hazmat.backends.openssl.backend import backend
    sys.path.insert(0, str(ROOT / "src"))
    from hearthgate import crypto
    return {"python": platform.python_version(), "machine": platform.machine(),
            "cryptography": cryptography.__version__,
            "openssl": backend.openssl_version_text(),
            "libsodium": crypto.sodium_version(),   # Ed25519; OpenSSL does the rest
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "src_lines": src_lines()}


def src_lines() -> int:
    """Lines of ``src/hearthgate/*.py``, summed as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (ROOT / "src" / "hearthgate").glob("*.py"))


def write_run(path: pathlib.Path, run: dict) -> None:
    """Store ``run`` in ``path``, replacing an earlier run of the same commit."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    commit = run["meta"]["git_commit"]
    runs = [r for r in runs if r["meta"]["git_commit"] != commit] + [run]
    path.write_text(json.dumps({"runs": runs}, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="pair every row with this git revision's src/")
    args = parser.parse_args()
    meta = machine_meta()
    print(f"# python {meta['python']} on {meta['machine']}; median us (scenario: ms) of "
          f"{SAMPLES} samples a side ({FRESH_SAMPLES} for first_use, {LOAD_SAMPLES} for the "
          f"load row and {SCENARIO_SAMPLES} for scenario); ratio = this / rev, wins of "
          f"{2 * SAMPLES - 1} pairs ({2 * FRESH_SAMPLES - 1}, {2 * LOAD_SAMPLES - 1}, "
          f"{2 * SCENARIO_SAMPLES - 1})")
    with tempfile.TemporaryDirectory() as tmp:
        sources = {"this": ROOT / "src"}
        if args.against:
            rev = git("rev-parse", "--short", args.against)
            archive = git("archive", args.against, "src")
            if rev.returncode or archive.returncode:
                raise SystemExit(f"perf: cannot export src/ at {args.against}")
            meta["rev"] = rev.stdout.decode().strip()
            with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
                tar.extractall(tmp, filter="data")
            sources = {"rev": pathlib.Path(tmp, "src"), **sources}
        sections, scenario = measure(sources)
    write_run(ROOT / "BENCH_kem.json", {
        "meta": {**meta, "seed": SEED, "samples": SAMPLES, "fresh_samples": FRESH_SAMPLES,
                 "load_samples": LOAD_SAMPLES,
                 "kernel_loop": KERNEL_LOOP, "unit": "median us"}, **sections})
    write_run(ROOT / "BENCH_scenario.json", {
        "meta": {**meta, "seed": SCENARIO_SEED, "samples": SCENARIO_SAMPLES,
                 "adversary": "DeliverAll", "reports_per_device": 1, "unit": "median ms"},
        "rows": scenario})
    print("wrote BENCH_kem.json and BENCH_scenario.json")


if __name__ == "__main__":
    main()
