"""Machine-speed calibration for timings taken on a shared host.

The host this benchmark is meant for runs identical code up to twice as slow
for stretches of a fraction of a second to many minutes, invisibly to the
guest: no steal time, and the lost time shows as the process's own user CPU
time. A fixed reference workload timed next to the program's work slows by
the same factor, so each timed chunk of program work is scaled by

    REFERENCE_S / (time the reference workload took around the chunk)

which gives its time at a fixed reference speed. The reference workload is
three small kernels that together resemble what the program does: OpenSSL
calls through ``cryptography``, list arithmetic like the ML-KEM transforms,
and building, serialising and hashing small records. Their geometric mean
tracks each workload's slow-down within a few per cent. A fourth candidate,
a bare dictionary-and-integer loop, slowed more than every workload and was
left out. Nothing here calls into hearthgate, so a change to the program
cannot change the reference.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import struct
from time import perf_counter

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

# Geometric mean of the three kernel times, in seconds, on the machine the
# benchmark was tuned on (2-core Intel Xeon VM, CPython 3.11) when it ran at
# full speed. It only fixes the scale: reported times are what the work
# would take when the kernels take this long.
REFERENCE_S = 0.0033

_SIGNER = Ed25519PrivateKey.from_private_bytes(bytes(32))
_VERIFIER = _SIGNER.public_key()
_EXCHANGER = X25519PrivateKey.from_private_bytes(bytes(range(32)))
_PEER = X25519PrivateKey.from_private_bytes(bytes(range(1, 33))).public_key()
_AEAD = AESGCM(bytes(32))
_NONCE = bytes(12)


def _list_arith() -> list[int]:
    f = list(range(256))
    for _ in range(12):
        for length in (128, 64, 32, 16, 8, 4, 2):
            for start in range(0, 256, 2 * length):
                for j in range(start, start + length):
                    t = 17 * f[j + length] % 3329
                    f[j + length] = (f[j] - t) % 3329
                    f[j] = (f[j] + t) % 3329
    return f


def _openssl() -> None:
    for i in range(25):
        message = i.to_bytes(4, "big") * 16
        _VERIFIER.verify(_SIGNER.sign(message), message)
        _EXCHANGER.exchange(_PEER)
        _AEAD.decrypt(_NONCE, _AEAD.encrypt(_NONCE, message, b""), b"")


def _records() -> list[bytes]:
    out = []
    for i in range(1_000):
        record = {"i": i, "name": f"dev-{i}", "v": [i, i * 2, i * 3]}
        encoded = json.dumps(record, sort_keys=True).encode()
        out.append(hashlib.sha256(encoded + struct.pack(">Q", i)).digest())
    return out


KERNELS = (_openssl, _list_arith, _records)


def reference_s() -> float:
    """Time the reference workload once: the geometric mean of the kernel
    times. The garbage collector is held off so that the program's heap
    cannot slow the kernels."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        logs = []
        for kernel in KERNELS:
            t0 = perf_counter()
            kernel()
            logs.append(math.log(perf_counter() - t0))
    finally:
        if enabled:
            gc.enable()
    return math.exp(sum(logs) / len(logs))


class Pacer:
    """Times the reference workload between stretches of program work.

    The workload calls ``pace()`` between timed parts, or from inside a long
    part; it measures the reference when ``INTERVAL_S`` has passed since the
    last measurement, and always when ``force`` is set. ``scale(start, end)``
    turns a part timed from ``start`` to ``end`` into reference-speed
    seconds: each stretch of it between two measurements is scaled by the
    mean of those two, and the measurements themselves are not counted.
    """

    # The machine's speed can change within a fraction of a second, so the
    # reference is timed next to every part longer than this, and about
    # every tenth campaign run (5 ms each).
    INTERVAL_S = 0.05

    def __init__(self):
        self.paused_from: list[float] = []
        self.paused_to: list[float] = []
        self.reference: list[float] = []

    def pace(self, force: bool = False) -> None:
        now = perf_counter()
        if force or not self.paused_to or now - self.paused_to[-1] >= self.INTERVAL_S:
            self.paused_from.append(now)
            self.reference.append(reference_s())
            self.paused_to.append(perf_counter())

    def scale(self, start: float, end: float) -> float:
        first = bisect.bisect_left(self.paused_from, start)
        last = bisect.bisect_left(self.paused_from, end)   # pauses inside: first..last-1
        total, resume = 0.0, start
        for k in range(first, last + 1):
            stop = self.paused_from[k] if k < last else end
            local = self.reference[max(0, k - 1):k + 1]
            total += (stop - resume) * REFERENCE_S / (sum(local) / len(local))
            if k < last:
                resume = self.paused_to[k]
        return total


class NoPacer:
    """Stand-in for traced runs and the self-test: no reference timing, and
    parts are reported as measured."""

    def pace(self, force: bool = False) -> None:
        pass

    def scale(self, start: float, end: float) -> float:
        return end - start
