"""ML-KEM key encapsulation (FIPS 203) in pure Python.

Optional post-quantum backend for the crypto suite; the backend uses the
ML-KEM-512 parameter set, and the kernels also take ML-KEM-768 and
ML-KEM-1024 (:class:`ParamSet`). Side channels are out of scope for a
simulator, so nothing here is constant-time. For throughput-sensitive runs
use the default X25519 backend instead.

Validation: ``tests/test_mlkem_vectors.py`` pins known-answer vectors (keys,
ciphertexts, shared secrets and implicit-rejection outputs) written by the
plain reference version of this module, and ``tests/test_mlkem_native.py``
checks ML-KEM-768 and ML-KEM-1024 against OpenSSL's native implementation
through ``cryptography``: equal encapsulation keys from one seed, and
shared secrets agreeing in both directions.

Speed comes from moving per-coefficient work into C. Byte codecs and noise
sampling split packed fields with a few whole-integer mask-and-shift steps,
and noise is one table lookup per 2*eta-bit chunk. The NTT, still used by
keygen and decryption, is constant-geometry (every layer is three list
passes over halves) with lazy reduction. Encryption skips the NTT: it
multiplies A^T and t, held in the polynomial domain, by the small noise
vector as big integers with one 24-bit field per coefficient (``_fold``),
which equals FIPS 203's NTT-domain arithmetic in R_q.

Caches: the matrix A-hat expanded from ``rho``, and each encapsulation
key's A^T and t in the polynomial domain (after the FIPS 203 modulus
check), are kept in LRU caches of ``_CACHE_ENTRIES`` entries. Both are
functions of the public key alone, so a cache hit returns what
recomputation would and reveals nothing secret; entries are tuples of ints,
so no caller can alter a shared one. A key that fails the modulus check
raises and is never cached. Secret-derived values (s-hat, z, the message)
are never cached.

Sizes for ML-KEM-512: encapsulation key 800 B, decapsulation key 1632 B,
ciphertext 768 B, shared secret 32 B.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from array import array
from operator import add, itemgetter, mul, sub
from typing import NamedTuple

N = 256
Q = 3329


class ParamSet(NamedTuple):
    """One FIPS 203 parameter set: module rank, noise and compression widths."""

    k: int
    eta1: int
    eta2: int
    du: int
    dv: int

    @property
    def ek_bytes(self) -> int:
        return 384 * self.k + 32

    @property
    def dk_bytes(self) -> int:
        return 768 * self.k + 96

    @property
    def ct_bytes(self) -> int:
        return 32 * (self.du * self.k + self.dv)


ML_KEM_512 = ParamSet(k=2, eta1=3, eta2=2, du=10, dv=4)
ML_KEM_768 = ParamSet(k=3, eta1=2, eta2=2, du=10, dv=4)
ML_KEM_1024 = ParamSet(k=4, eta1=2, eta2=2, du=11, dv=5)

EK_BYTES = ML_KEM_512.ek_bytes   # 800
DK_BYTES = ML_KEM_512.dk_bytes   # 1632
CT_BYTES = ML_KEM_512.ct_bytes   # 768

#: Entries in each public-key cache. The bound is fixed so memory stays bounded
#: (about 45 KiB per ML-KEM-512 key, mostly A-hat) however many keys pass through.
_CACHE_ENTRIES = 64


def _bitrev7(n: int) -> int:
    r = 0
    for _ in range(7):
        r = (r << 1) | (n & 1)
        n >>= 1
    return r


# 17 is a primitive 256th root of unity mod Q.
_ZETAS = [pow(17, _bitrev7(i), Q) for i in range(128)]
_N_INV = pow(128, -1, Q)
# MultiplyNTTs works mod X^2 - gamma: coefficient pairs 2i and 2i + 1 use
# gamma = zeta[64 + i] and -zeta[64 + i].
_GAMMAS = tuple(g for i in range(64) for g in (_ZETAS[64 + i], Q - _ZETAS[64 + i]))


def _h(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


def _g(data: bytes) -> bytes:
    return hashlib.sha3_512(data).digest()


def _j(data: bytes) -> bytes:
    return hashlib.shake_256(data).digest(32)


def _prf(eta: int, seed: bytes, n: int) -> bytes:
    return hashlib.shake_256(seed + bytes([n])).digest(64 * eta)


# -- polynomial ring -------------------------------------------------------

def _ntt_schedule():
    """Twiddles of a constant-geometry NTT equal to FIPS 203's.

    Each layer pairs position i with i + 128 and writes the butterfly's two
    outputs to 2i and 2i + 1, so a layer is three passes over list halves
    instead of 128 indexed butterflies. ``held[p]`` tracks which FIPS index
    sits at position p; from it come each layer's per-position zetas
    (forward ``zeta[128/span + block]``, inverse ``zeta[256/span - 1 -
    block]``) and the final order.
    """
    held = list(range(N))
    forward, inverse = [], []
    span = 128
    while span >= 2:
        blocks = [held[i] // (2 * span) for i in range(128)]
        forward.append(tuple(_ZETAS[128 // span + b] for b in blocks))
        inverse.append(tuple(_ZETAS[256 // span - 1 - b] for b in blocks))
        held[0::2], held[1::2] = held[:128], held[128:]
        span >>= 1
    inverse.reverse()
    # The inverse's last layer also applies the 1/128 scaling.
    inverse[-1] = tuple(z * _N_INV % Q for z in inverse[-1])
    position = [0] * N
    for p, index in enumerate(held):
        position[index] = p
    return tuple(forward), tuple(inverse), itemgetter(*position), itemgetter(*held)


_NTT_ZETAS, _INTT_ZETAS, _TO_FIPS_ORDER, _FROM_FIPS_ORDER = _ntt_schedule()


def _ntt(f) -> list[int]:
    # Sums stay unreduced (below 8Q in size); products reduce at once.
    a = f
    for zetas in _NTT_ZETAS:
        lo = a[:128]
        t = [z * x % Q for z, x in zip(zetas, a[128:])]
        a = [0] * N
        a[0::2] = map(add, lo, t)
        a[1::2] = map(sub, lo, t)
    return [x % Q for x in _TO_FIPS_ORDER(a)]


def _ntt_inv(f) -> list[int]:
    # Sums stay unreduced (below 128Q in size); products reduce at once.
    a = _FROM_FIPS_ORDER(f)
    for zetas in _INTT_ZETAS[:-1]:
        lo, hi = a[0::2], a[1::2]
        a = list(map(add, lo, hi))
        a += [z * (y - x) % Q for z, x, y in zip(zetas, lo, hi)]
    lo, hi = a[0::2], a[1::2]
    return ([(x + y) * _N_INV % Q for x, y in zip(lo, hi)]
            + [z * (y - x) % Q for z, x, y in zip(_INTT_ZETAS[-1], lo, hi)])


def _dot(fs, gs) -> list[int]:
    """Sum of MultiplyNTTs(f, g) over the pairs, reduced mod Q."""
    evens, odds = [], []
    for f, g in zip(fs, gs):
        a0, a1, b0, b1 = f[0::2], f[1::2], g[0::2], g[1::2]
        evens.append([x0 * y0 + x1 * y1 % Q * gm
                      for x0, x1, y0, y1, gm in zip(a0, a1, b0, b1, _GAMMAS)])
        odds.append([x0 * y1 + x1 * y0 for x0, x1, y0, y1 in zip(a0, a1, b0, b1)])
    out = [0] * N
    out[0::2] = [x % Q for x in map(sum, zip(*evens))]
    out[1::2] = [x % Q for x in map(sum, zip(*odds))]
    return out


# Encryption multiplies public polynomials by small noise polynomials as
# integers: a polynomial becomes one integer with a 24-bit field per
# coefficient, so one big-integer product computes every coefficient product
# at once. A field holds a sum of at most 256 * k products of a coefficient
# below Q and a noise value of size at most eta1: below 2**23 in size for
# every parameter set (6,815,744 for ML-KEM-1024), so signed fields never
# overlap once 2**23 is added to each.
_ONES = int.from_bytes(b"\1\0\0" * N, "little")                   # 1 per field
_BIAS = (1 << 23) * int.from_bytes(b"\1\0\0" * 2 * N, "little")  # 2**23 per field
_U32 = next(code for code in "IL" if array(code).itemsize == 4)


def _as_integer(f) -> int:
    """Coefficients in [0, Q) as one integer with a 24-bit field each."""
    raw = bytearray(3 * N)
    raw[0::3] = bytes([x & 0xFF for x in f])
    raw[1::3] = bytes([x >> 8 for x in f])
    return int.from_bytes(raw, "little")


def _fold(product: int, addend) -> list[int]:
    """``product``, a sum of products of field-packed polynomials, reduced
    mod X^256 + 1 and Q, plus ``addend``."""
    raw = (product + _BIAS).to_bytes(3 * 2 * N, "little")
    wide = bytearray(4 * 2 * N)
    wide[0::4], wide[1::4], wide[2::4] = raw[0::3], raw[1::3], raw[2::3]
    f = _words(wide, _U32)
    # The 2**23 added to both halves cancels in the difference.
    return [(x - y + e) % Q for x, y, e in zip(f[:N], f[N:], addend)]


# -- encodings and sampling ------------------------------------------------

@functools.cache
def _spread_steps(d: int, w: int, n: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Masks that move n packed d-bit fields to w-bit slots, n a power of two.

    Step t splits every block of 2^(t+1) fields in half and shifts the upper
    half up by 2^t * (w - d) bits; run in reverse, the same steps pack the
    fields again. Also returns the mask of every field's low d bits in the
    w-bit layout.
    """
    steps = []
    half = n // 2
    while half:
        block = 2 * half * w
        repeat = ((1 << (n * w)) - 1) // ((1 << block) - 1)
        ones = (1 << (half * d)) - 1
        steps.append((ones * repeat, (ones << (half * d)) * repeat, half * (w - d)))
        half //= 2
    field = ((1 << (n * w)) - 1) // ((1 << w) - 1) * ((1 << d) - 1)
    return field, tuple(steps)


def _words(raw: bytes, code: str) -> list[int]:
    """The little-endian unsigned words of ``raw``, ``code`` naming their size."""
    words = array(code, raw)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


def _unpack(data: bytes, d: int) -> bytes | list[int]:
    """Little-endian d-bit fields of ``data``: bytes for d <= 8, else a list."""
    n = len(data) * 8 // d
    w = 8 if d <= 8 else 16
    x = int.from_bytes(data, "little")
    for low, high, shift in _spread_steps(d, w, n)[1]:
        x = x & low | (x & high) << shift
    raw = x.to_bytes(n * w // 8, "little")
    return raw if w == 8 else _words(raw, "H")


def _pack(f, d: int) -> bytes:
    """ByteEncode_d: the low d bits of each of the 256 values, little-endian."""
    if d <= 8:
        w, raw = 8, bytes(f)
    else:
        words = array("H", f)
        if sys.byteorder == "big":
            words.byteswap()
        w, raw = 16, words.tobytes()
    field, steps = _spread_steps(d, w, N)
    x = int.from_bytes(raw, "little") & field
    for low, high, shift in reversed(steps):
        x = x & low | x >> shift & high
    return x.to_bytes(32 * d, "little")


def _decode12(data: bytes) -> list[int]:
    """ByteDecode_12: 12-bit fields reduced mod Q."""
    f = _unpack(data, 12)
    return f if max(f) < Q else [x % Q for x in f]


def _sample_ntt(seed: bytes) -> list[int]:
    # Rejection sampling from a SHAKE-128 stream; every 3 bytes are two
    # 12-bit candidates. Operates on public data.
    xof = hashlib.shake_128(seed)
    length = 768
    while True:
        accepted = [c for c in _unpack(xof.digest(length), 12) if c < Q]
        if len(accepted) >= N:
            return accepted[:N]
        length *= 2


def _cbd_table(eta: int) -> bytes:
    """bytes.translate table: each 2*eta-bit chunk to eta + popcount(low) - popcount(high)."""
    mask = (1 << eta) - 1
    return bytes(eta + bin(c & mask).count("1") - bin(c >> eta).count("1")
                 for c in range(1 << (2 * eta))).ljust(256, b"\0")


_CBD_TABLES = {eta: _cbd_table(eta) for eta in (2, 3)}


def _cbd_offset(data: bytes, eta: int) -> bytes:
    """SamplePolyCBD_eta(data) plus eta, one byte per coefficient."""
    return _unpack(data, 2 * eta).translate(_CBD_TABLES[eta])


def _sample_cbd(data: bytes, eta: int) -> list[int]:
    # Coefficients in [-eta, eta]; every consumer reduces mod Q.
    return [x - eta for x in _cbd_offset(data, eta)]


def _noise_integer(data: bytes, eta: int) -> int:
    """SamplePolyCBD_eta(data) as one integer with a signed 24-bit field each."""
    raw = bytearray(3 * N)
    raw[0::3] = _cbd_offset(data, eta)
    return int.from_bytes(raw, "little") - eta * _ONES


@functools.cache
def _compress_table(d: int) -> tuple[int, ...]:
    return tuple((((x << (d + 1)) + Q) // (2 * Q)) & ((1 << d) - 1) for x in range(Q))


@functools.cache
def _decompress_table(d: int) -> tuple[int, ...]:
    return tuple((y * Q + (1 << (d - 1))) >> d for y in range(1 << d))


def _compress(f: list[int], d: int) -> bytes:
    """ByteEncode_d(Compress_d(f)) for coefficients in [0, Q)."""
    return _pack(list(map(_compress_table(d).__getitem__, f)), d)


def _decompress(data: bytes, d: int) -> list[int]:
    """Decompress_d(ByteDecode_d(data))."""
    return list(map(_decompress_table(d).__getitem__, _unpack(data, d)))


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _matrix(rho: bytes, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """A-hat expanded from rho: row i, column j is SampleNTT(rho || j || i)."""
    return tuple(tuple(tuple(_sample_ntt(rho + bytes([j, i]))) for j in range(k))
                 for i in range(k))


def _encryption_key(t_hat, rho: bytes, k: int):
    """A^T and t in the polynomial domain, each polynomial as one integer.

    NTT^-1(A-hat^T o NTT(y)) equals A^T y in R_q, so encryption multiplies by
    the noise y directly; A-hat and t-hat go through the inverse NTT once.
    """
    a_hat = _matrix(rho, k)
    a_t = tuple(tuple(_as_integer(_ntt_inv(a_hat[j][i])) for j in range(k)) for i in range(k))
    return a_t, tuple(_as_integer(_ntt_inv(t)) for t in t_hat)


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _checked_encryption_key(ek: bytes, k: int):
    """_encryption_key of an ek that passes the FIPS 203 modulus check.

    Raises ValueError for a coefficient >= Q; nothing is cached then.
    """
    t_hat = [_unpack(ek[384 * i:384 * (i + 1)], 12) for i in range(k)]
    if max(map(max, t_hat)) >= Q:
        raise ValueError("encapsulation key failed modulus check")
    return _encryption_key(t_hat, ek[384 * k:], k)


# -- K-PKE core ------------------------------------------------------------

def _pke_keygen(d: bytes, p: ParamSet) -> tuple[bytes, bytes]:
    expanded = _g(d + bytes([p.k]))
    rho, sigma = expanded[:32], expanded[32:]
    a_hat = _matrix(rho, p.k)
    s_hat = [_ntt(_sample_cbd(_prf(p.eta1, sigma, n), p.eta1)) for n in range(p.k)]
    e_hat = [_ntt(_sample_cbd(_prf(p.eta1, sigma, p.k + n), p.eta1)) for n in range(p.k)]
    t_hat = [[(x + y) % Q for x, y in zip(_dot(a_hat[i], s_hat), e_hat[i])]
             for i in range(p.k)]
    ek = b"".join(_pack(t, 12) for t in t_hat) + rho
    dk = b"".join(_pack(s, 12) for s in s_hat)
    return ek, dk


def _pke_encrypt(key, m: bytes, r: bytes, p: ParamSet) -> bytes:
    a_t, t = key
    k = p.k
    y = [_noise_integer(_prf(p.eta1, r, n), p.eta1) for n in range(k)]
    e1 = [_sample_cbd(_prf(p.eta2, r, k + n), p.eta2) for n in range(k)]
    e2 = _sample_cbd(_prf(p.eta2, r, 2 * k), p.eta2)
    c1 = b"".join(_compress(_fold(sum(map(mul, row, y)), e1[i]), p.du)
                  for i, row in enumerate(a_t))
    v = _fold(sum(map(mul, t, y)), map(add, e2, _decompress(m, 1)))
    return c1 + _compress(v, p.dv)


def _pke_decrypt(dk: bytes, ct: bytes, p: ParamSet) -> bytes:
    per_u = 32 * p.du
    u_hat = [_ntt(_decompress(ct[per_u * i:per_u * (i + 1)], p.du)) for i in range(p.k)]
    v = _decompress(ct[per_u * p.k:], p.dv)
    s_hat = [_decode12(dk[384 * i:384 * (i + 1)]) for i in range(p.k)]
    w = [(x - y) % Q for x, y in zip(v, _ntt_inv(_dot(s_hat, u_hat)))]
    return _compress(w, 1)


# -- public API ------------------------------------------------------------

def keygen(seed: bytes, params: ParamSet = ML_KEM_512) -> tuple[bytes, bytes]:
    """Derive an (encapsulation key, decapsulation key) pair from a 64-byte seed d || z."""
    if len(seed) != 64:
        raise ValueError(f"keygen needs a 64-byte seed, got {len(seed)}")
    d, z = seed[:32], seed[32:]
    ek, dk_pke = _pke_keygen(d, params)
    return ek, dk_pke + ek + _h(ek) + z


def encaps(ek: bytes, randomness: bytes,
           params: ParamSet = ML_KEM_512) -> tuple[bytes, bytes]:
    """Encapsulate to ``ek``: returns (ciphertext, 32-byte shared secret)."""
    if len(ek) != params.ek_bytes:
        raise ValueError(f"encapsulation key must be {params.ek_bytes} bytes, got {len(ek)}")
    key = _checked_encryption_key(bytes(ek), params.k)
    if len(randomness) != 32:
        raise ValueError("encapsulation randomness must be 32 bytes")
    expanded = _g(randomness + _h(ek))
    shared, r = expanded[:32], expanded[32:]
    ct = _pke_encrypt(key, randomness, r, params)
    return ct, shared


def decaps(dk: bytes, ct: bytes, params: ParamSet = ML_KEM_512) -> bytes:
    """Recover the shared secret; implicit rejection on mismatched ciphertexts."""
    k = params.k
    if len(dk) != params.dk_bytes:
        raise ValueError(f"decapsulation key must be {params.dk_bytes} bytes, got {len(dk)}")
    if len(ct) != params.ct_bytes:
        raise ValueError(f"ciphertext must be {params.ct_bytes} bytes, got {len(ct)}")
    dk = bytes(dk)  # cache keys must be hashable
    dk_pke = dk[:384 * k]
    ek = dk[384 * k:768 * k + 32]
    h_stored = dk[768 * k + 32:768 * k + 64]
    z = dk[768 * k + 64:]
    if _h(ek) != h_stored:
        raise ValueError("decapsulation key failed hash check")
    m = _pke_decrypt(dk_pke, ct, params)
    expanded = _g(m + h_stored)
    shared, r = expanded[:32], expanded[32:]
    rejected = _j(z + ct)
    try:
        key = _checked_encryption_key(ek, k)
    except ValueError:
        # Decaps does not check the embedded key; ByteDecode_12 reduces it.
        key = _encryption_key([_decode12(ek[384 * i:384 * (i + 1)]) for i in range(k)],
                              ek[384 * k:], k)
    return shared if _pke_encrypt(key, m, r, params) == ct else rejected
