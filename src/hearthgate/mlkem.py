"""ML-KEM key encapsulation (FIPS 203) on numpy arrays.

Optional post-quantum backend: the backend uses ML-KEM-512, and the kernels
also take ML-KEM-768 and ML-KEM-1024 (:class:`ParamSet`). Nothing here is
constant-time; side channels are out of scope for a simulator. ``crypto``
imports this module, and numpy with it, only when an ML-KEM key is used.
Numpy is imported with ``OPENBLAS_NUM_THREADS=1`` set for that import
alone (unless the caller set it): otherwise OpenBLAS starts a thread pool,
about half the import's time, that products of at most 128 x 128 never use.
The variable is deleted again, so child processes inherit nothing from here.
``tests/test_mlkem_vectors.py`` pins known answers of the plain reference
version, and ``tests/test_mlkem_native.py`` checks ML-KEM-768/1024 against
OpenSSL's native implementation.

A polynomial is an int64 array of 256 coefficients in FIPS 203 order, a
vector one array with a row per polynomial, so each K-PKE step is one NTT
over all rows, MultiplyNTTs summed along an axis, and one inverse NTT.

The NTT is one matrix product. NTT(f) holds f mod (X^2 - gamma_i) for the
roots gamma_i = zeta^(2 BitRev7(i) + 1) of X^128 + 1, so its even and odd
outputs are f's even and odd halves evaluated at gamma_i: V @
f.reshape(128, 2) with V[i][j] = gamma_i^j; the inverse is
VI[j][i] = 128^-1 gamma_i^-j (mod q). Both run in float64 on coefficients
of size below q: every product and every sum of 128 is an integer below
128 q^2 < 2^31, exact (float64 holds 2^53) in whatever order BLAS adds.
Encryption and decryption add their other terms to the unreduced inverse
NTT and reduce once.

The byte codecs (ByteDecode_d, ByteEncode_d) work on little-endian 64-bit
words, never on single bits. A group of whole d-bit fields in whole bytes
(4 x 12 bits in 6 bytes, 4 x 10 in 5, 16 x 4 in 8, 8 x 6 in 6) is read in
place as one unaligned word and split by a shift and a mask, and packed by
one int64 product of the fields with powers of two; at d = 11 a group is 8
fields in 11 bytes, two words from bytes 0 and 5. SamplePolyCBD_eta is
ByteDecode_(2 eta) and a 2^(2 eta)-entry table.

SampleNTT decodes all k^2 streams of A-hat at once, and a running count
of the accepted candidates along each row keeps its first 256; while some
row has fewer, every stream is read again at twice the length (real SHAKE
output practically never needs it).

Two LRU caches of read-only arrays (``_CACHE_ENTRIES`` entries each) hold
A-hat by ``rho`` and, per encapsulation key passing the modulus check, the
rows encryption multiplies by and H(ek); a key failing the check raises and
is never cached.

Decapsulating a ciphertext this process encapsulated, with a key this
process generated, is a lookup. ``keygen`` records SHA3-256(dk) of each key
it returns (``_GENERATED_ENTRIES``, oldest dropped first), and ``encaps``
records the shared secret K it returns under the exact (ciphertext, ek)
bytes (``_ENCAPSULATED_ENTRIES``, oldest dropped first). ``decaps``, after
its length and hash checks, returns the recorded K when the memo holds
(c, the ek embedded in dk) and H(dk) is recorded. A hit equals
recomputation: a dk that keygen made embeds the ek it was made with, and
FIPS 203 decapsulation of a ciphertext that encaps(ek, m) made returns K
unless K-PKE.Decrypt fails to recover m, with probability delta of about
2^-139 for ML-KEM-512 (2^-165 for ML-KEM-768, 2^-175 for ML-KEM-1024), in
which case it would return J(z || c). Anything else misses and runs the
full path (decrypt, encrypt again, compare, implicit rejection): a flipped
bit, another key's ciphertext, a dk that keygen did not make (an altered
s-hat, say, or a non-canonical embedded ek) or an evicted entry. Unlike the
array caches, the memo holds secrets, the shared secrets K, and the record
holds digests of decapsulation keys. Both are bounded, in memory only and
never serialized; both endpoints' keys already live in this process, and
where they run in different processes the memo never hits.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from typing import NamedTuple

# One OpenBLAS thread, for this import only (see the module docstring).
_BLAS_THREADS = "OPENBLAS_NUM_THREADS"
_chosen = _BLAS_THREADS in os.environ
os.environ.setdefault(_BLAS_THREADS, "1")
try:
    import numpy as np
finally:
    if not _chosen:
        del os.environ[_BLAS_THREADS]

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

#: Entries in each LRU array cache: about 20 KiB per ML-KEM-512 key.
_CACHE_ENTRIES = 64
#: Digests of decapsulation keys keygen made, 32 bytes each; a 200-device
#: ML-KEM onboarding makes 800 key pairs.
_GENERATED_ENTRIES = 1024
#: Shared secrets encaps returned, keyed by about 1.6 KiB of ciphertext and
#: ek for ML-KEM-512. A scenario encapsulates every device's report before
#: the server decapsulates any, so a 200-device onboarding needs 200 of them.
_ENCAPSULATED_ENTRIES = 256


def _roots():
    """V and VI as float64, and [1, gamma_i] for each i, from the powers of zeta = 17."""
    zeta_powers = np.array([pow(17, e, Q) for e in range(256)])
    i = np.arange(128)
    bitrev7 = sum(((i >> b) & 1) << (6 - b) for b in range(7))
    exponents = np.outer(2 * bitrev7 + 1, i)   # gamma_i^j = zeta^exponents[i][j]
    v = zeta_powers[exponents % 256]
    vi = zeta_powers[-exponents.T % 256] * pow(128, -1, Q) % Q
    return v.astype(np.float64), vi.astype(np.float64), v[:, :2].copy()


_V, _VI, _ONE_GAMMA = _roots()
#: Decompress_1 of a set bit, as int64 so uint8 bits widen when multiplied by it.
_HALF_Q = np.int64((Q + 1) // 2)
# CBD_eta of a 2 eta-bit field v: popcount(low eta bits) - popcount(high eta bits).
_CBD = {eta: np.array([bin(v % (1 << eta)).count("1") - bin(v >> eta).count("1")
                      for v in range(1 << 2 * eta)]) for eta in (2, 3)}


def _h(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


def _g(data: bytes) -> bytes:
    return hashlib.sha3_512(data).digest()


def _transform(f, matrix):
    """``matrix`` times each row's even and odd halves, unreduced: integers
    below 128 q^2."""
    halves = f.reshape(-1, 128, 2).astype(np.float64)
    return np.matmul(matrix, halves).astype(np.int64).reshape(f.shape)


def _ntt(f, matrix=_V):
    """NTT of each row of f; with ``matrix=_VI``, the inverse NTT."""
    return _transform(f, matrix) % Q


def _mul_sum(a, b):
    """MultiplyNTTs(a, b) summed over the last-but-one axis, reduced mod q."""
    # Each of the at most 8 summed terms is below q^3, far inside int64.
    a, b = a.reshape(*a.shape[:-1], 128, 2), b.reshape(-1, 128, 2)
    out = np.empty((*a.shape[:-3], 128, 2), np.int64)
    np.einsum("...jis,jis->...i", a, b * _ONE_GAMMA, out=out[..., 0])   # a0 b0 + a1 b1 gamma
    np.einsum("...jis,jis->...i", a, b[..., ::-1], out=out[..., 1])     # a0 b1 + a1 b0
    return out.reshape(*out.shape[:-2], N) % Q


@functools.cache
def _layout(d: int):
    """A d-bit codec's group: its bytes, its last word's byte offset, each
    field's shift in the word it is read from (a row per word), the weights
    packing fields into words (2^bit mod 2^64 in each word a field starts
    in), and the packed words' bytes that make the group (each byte from
    the first word ending after it)."""
    group = math.lcm(d, 8) // 8   # the fewest whole bytes of whole fields,
    group *= max(1, 8 // group)   # repeated while they fit one word
    fields = 8 * group // d
    words = -(-group // 8)
    per_word = fields // words
    offsets = np.arange(words) * per_word * d // 8
    bits = np.arange(fields) * d - 8 * offsets[:, None]   # field j's bit in word w
    shifts = np.array([bits[w, w * per_word:(w + 1) * per_word] for w in range(words)])
    weights = np.where((bits >= 0) & (bits < 64), np.left_shift(1, bits % 64), 0).T
    octet = np.arange(group)
    owner = np.searchsorted(offsets + 8, octet, side="right")
    return group, int(offsets[-1]), shifts, weights, 8 * owner + octet - offsets[owner]


def _unpack(data: bytes, d: int):
    """The little-endian d-bit fields of ``data`` (ByteDecode_d, unreduced)."""
    group, last, shifts, _, _ = _layout(d)
    # Each group's words, read in place: unaligned, and overlapping at d = 11.
    words = np.ndarray((len(data) // group, len(shifts), 1), "<i8", data + bytes(8),
                       strides=(group, last, 0))
    return ((words >> shifts) & ((1 << d) - 1)).reshape(-1)


def _pack(f, d: int) -> bytes:
    """ByteEncode_d of each row of f in turn, for values in [0, 2^d)."""
    _, _, _, weights, picks = _layout(d)
    words = f.reshape(-1, len(weights)) @ weights   # fields share no bit; int64 wraps
    return words.view(np.uint8).reshape(len(words), -1)[:, picks].tobytes()


def _cbd(data: bytes, eta: int):
    """SamplePolyCBD_eta of each 64 eta bytes of ``data``, as signed values."""
    return _CBD[eta][_unpack(data, 2 * eta)].reshape(-1, N)


def _noise(eta: int, seed: bytes, first: int, count: int):
    """SamplePolyCBD_eta(PRF_eta(seed, n)) for ``count`` values of n from ``first``."""
    return _cbd(b"".join(hashlib.shake_256(seed + bytes([n])).digest(64 * eta)
                         for n in range(first, first + count)), eta)


def _compress(f, d: int):
    """Compress_d of coefficients in [0, q)."""
    return ((f << (d + 1)) + Q) // (2 * Q) & ((1 << d) - 1)


def _decompress(y, d: int):
    """Decompress_d of d-bit values."""
    return (y * Q + (1 << (d - 1))) >> d


def _read_only(a):
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _matrix(rho: bytes, k: int):
    """A-hat expanded from rho: row i, column j is SampleNTT(rho || j || i),
    the first 256 of the 12-bit candidates below q in a SHAKE-128 stream."""
    seeds = [rho + bytes([j, i]) for i in range(k) for j in range(k)]
    length = 768   # 512 candidates: about 416 are accepted on average
    while True:
        streams = b"".join(hashlib.shake_128(seed).digest(length) for seed in seeds)
        candidates = _unpack(streams, 12).reshape(k * k, -1)
        accepted = candidates < Q
        rank = accepted.cumsum(1)   # accepted candidates up to each one, per row
        if rank[:, -1].min() >= N:
            return _read_only(candidates[accepted & (rank <= N)].reshape(k, k, N))
        length *= 2


def _encryption_key(t_hat, rho: bytes, k: int):
    """The k + 1 rows encryption multiplies by NTT(y): A-hat^T's, then t-hat."""
    return _read_only(np.concatenate((_matrix(rho, k).transpose(1, 0, 2), t_hat[None])))


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _checked_encryption_key(ek: bytes, k: int):
    """_encryption_key of ek, and H(ek); a coefficient >= q raises ValueError, uncached."""
    t_hat = _unpack(ek[:384 * k], 12).reshape(k, N)
    if t_hat.max() >= Q:
        raise ValueError("encapsulation key failed modulus check")
    return _encryption_key(t_hat, ek[384 * k:], k), _h(ek)


def _pke_keygen(d: bytes, p: ParamSet) -> tuple[bytes, bytes]:
    expanded = _g(d + bytes([p.k]))
    rho, sigma = expanded[:32], expanded[32:]
    s_hat, e_hat = np.split(_ntt(_noise(p.eta1, sigma, 0, 2 * p.k)), 2)
    t_hat = (_mul_sum(_matrix(rho, p.k), s_hat) + e_hat) % Q
    return _pack(t_hat, 12) + rho, _pack(s_hat, 12)


def _pke_encrypt(key, m: bytes, r: bytes, p: ParamSet) -> bytes:
    k = p.k
    y_hat = _ntt(_noise(p.eta1, r, 0, k))
    e = _noise(p.eta2, r, k, k + 1)   # e1, then e2 as the last row
    e[k] += np.unpackbits(np.frombuffer(m, np.uint8), bitorder="little") * _HALF_Q
    uv = (_transform(_mul_sum(key, y_hat), _VI) + e) % Q
    return _pack(_compress(uv[:k], p.du), p.du) + _pack(_compress(uv[k], p.dv), p.dv)


def _pke_decrypt(dk: bytes, ct: bytes, p: ParamSet) -> bytes:
    """The 32-byte message."""
    k = p.k
    split = 32 * p.du * k
    u_hat = _ntt(_decompress(_unpack(ct[:split], p.du), p.du).reshape(k, N))
    s_hat = _unpack(dk, 12).reshape(k, N) % Q
    v = _decompress(_unpack(ct[split:], p.dv), p.dv)
    return _pack(_compress((v - _transform(_mul_sum(s_hat, u_hat), _VI)) % Q, 1), 1)


#: SHA3-256(dk) of each decapsulation key ``keygen`` returned, oldest first.
_generated: dict[bytes, None] = {}
#: K ``encaps`` returned, by its exact (ciphertext, ek) bytes, oldest first.
_encapsulated: dict[tuple[bytes, bytes], bytes] = {}


def _remember(memo: dict, key, value, bound: int) -> None:
    """Store ``memo[key] = value`` as the newest entry, dropping the oldest past ``bound``."""
    memo.pop(key, None)
    memo[key] = value
    if len(memo) > bound:
        del memo[next(iter(memo))]


def _encrypt(key, m: bytes, h_ek: bytes, p: ParamSet) -> tuple[bytes, bytes]:
    """(c, K): K-PKE.Encrypt(ek, m, r) with ek's rows ``key``, and K, for
    (K, r) = G(m || H(ek))."""
    expanded = _g(m + h_ek)
    return _pke_encrypt(key, m, expanded[32:], p), expanded[:32]


def keygen(seed: bytes, params: ParamSet = ML_KEM_512) -> tuple[bytes, bytes]:
    """Derive an (encapsulation key, decapsulation key) pair from a 64-byte seed d || z."""
    if len(seed) != 64:
        raise ValueError(f"keygen needs a 64-byte seed, got {len(seed)}")
    ek, dk_pke = _pke_keygen(seed[:32], params)
    dk = dk_pke + ek + _h(ek) + seed[32:]
    _remember(_generated, _h(dk), None, _GENERATED_ENTRIES)
    return ek, dk


def check_encapsulation_key(ek: bytes, params: ParamSet = ML_KEM_512):
    """FIPS 203's input checks on ``ek``, its length and then the modulus
    check, raising ValueError; returns its cached rows and H(ek)."""
    if len(ek) != params.ek_bytes:
        raise ValueError(f"encapsulation key must be {params.ek_bytes} bytes, got {len(ek)}")
    return _checked_encryption_key(bytes(ek), params.k)


def encaps(ek: bytes, randomness: bytes,
           params: ParamSet = ML_KEM_512) -> tuple[bytes, bytes]:
    """Encapsulate to ``ek``: returns (ciphertext, 32-byte shared secret)."""
    key, h_ek = check_encapsulation_key(ek, params)
    if len(randomness) != 32:
        raise ValueError("encapsulation randomness must be 32 bytes")
    ct, shared = _encrypt(key, randomness, h_ek, params)
    _remember(_encapsulated, (ct, bytes(ek)), shared, _ENCAPSULATED_ENTRIES)
    return ct, shared


def decaps(dk: bytes, ct: bytes, params: ParamSet = ML_KEM_512) -> bytes:
    """Recover the shared secret; implicit rejection on mismatched ciphertexts."""
    k = params.k
    if len(dk) != params.dk_bytes:
        raise ValueError(f"decapsulation key must be {params.dk_bytes} bytes, got {len(dk)}")
    if len(ct) != params.ct_bytes:
        raise ValueError(f"ciphertext must be {params.ct_bytes} bytes, got {len(ct)}")
    dk, ct = bytes(dk), bytes(ct)  # cache keys must be hashable
    ek = dk[384 * k:768 * k + 32]
    h_stored = dk[768 * k + 32:768 * k + 64]
    if _h(ek) != h_stored:
        raise ValueError("decapsulation key failed hash check")
    shared = _encapsulated.get((ct, ek))
    if shared is not None and _h(dk) in _generated:
        return shared   # the full path's K unless K-PKE fails to decrypt (delta)
    m = _pke_decrypt(dk[:384 * k], ct, params)
    rejected = hashlib.shake_256(dk[768 * k + 64:] + ct).digest(32)   # J(z || c)
    try:
        key = _checked_encryption_key(ek, k)[0]
    except ValueError:
        # Decaps does not check the embedded key; ByteDecode_12 reduces it.
        key = _encryption_key(_unpack(ek[:384 * k], 12).reshape(k, N) % Q, ek[384 * k:], k)
    ct_again, shared = _encrypt(key, m, h_stored, params)
    return shared if ct_again == ct else rejected
