"""Input validation of the ML-KEM module, its public-key caches, and its
array kernels against a plain FIPS 203 reference.

FIPS 203 checks inputs before use: lengths of every key, seed, randomness
and ciphertext, the modulus check on an encapsulation key (every 12-bit
coefficient below q) and the hash check on a decapsulation key. The
module caches data derived from valid encapsulation keys, so the tests
also check that a rejected key is rejected again on every call and never
enters a cache. Through ``crypto`` the same failures surface as
``MalformedKey`` (encapsulation) and ``DecryptionFailure`` (decryption).
Decapsulation returns the secret ``encaps`` recorded when it made the
ciphertext for the key embedded in a decapsulation key that ``keygen`` made;
the tests check, for all three parameter sets, that such a hit runs neither
K-PKE.Decrypt nor K-PKE.Encrypt and gives the full FIPS 203 result, and that
tampered, foreign, crafted and evicted inputs miss and give it too.

The NTT, inverse NTT and MultiplyNTTs run as numpy array operations (the
NTTs as float64 matrix products); the tests compare them with FIPS 203
Algorithms 9, 10 and 11 written out coefficient by coefficient below, on
random inputs and on the inputs with the largest products and sums. The
byte codecs (word-packed), noise sampling (a CBD lookup table) and
Compress/Decompress are compared with Algorithms 5, 6 and 8 and
equations (4.7) and (4.8), written out bit by bit, on random bytes, on
all-0x00 and all-0xFF bytes and on the largest values.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hearthgate import crypto, mlkem
from hearthgate.crypto import DecryptionFailure, MalformedKey, RoleTag
from hearthgate.runtime import seeded_rng

NOW = 1_700_000_010.0
DAY = 86_400.0


def _keys(label: bytes) -> tuple[bytes, bytes]:
    return mlkem.keygen(hashlib.sha512(label).digest())


def _with_first_coefficient(ek: bytes, value: int) -> bytes:
    """``ek`` with t-hat's first 12-bit coefficient set to ``value``."""
    out = bytearray(ek)
    out[0] = value & 0xFF
    out[1] = (out[1] & 0xF0) | (value >> 8)
    return bytes(out)


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.mark.parametrize("value", [mlkem.Q, 0xFFF])
def test_non_canonical_ek_rejected_on_every_call_and_never_cached(value):
    ek, _ = _keys(b"canonical")
    bad = _with_first_coefficient(ek, value)
    mlkem.encaps(ek, bytes(32))          # the valid key is now cached
    before = mlkem._checked_encryption_key.cache_info()
    for _ in range(3):
        with pytest.raises(ValueError, match="modulus check"):
            mlkem.encaps(bad, bytes(32))
    # Every call was a miss that checked the key again; none was a hit.
    after = mlkem._checked_encryption_key.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 3)
    ct, shared = mlkem.encaps(ek, bytes(32))
    assert len(ct) == mlkem.CT_BYTES and len(shared) == 32
    assert mlkem._checked_encryption_key.cache_info().hits == after.hits + 1


def test_largest_canonical_coefficient_accepted():
    ek, dk = _keys(b"edge")
    edge = _with_first_coefficient(ek, mlkem.Q - 1)
    ct, shared = mlkem.encaps(edge, bytes(32))
    assert len(ct) == mlkem.CT_BYTES and len(shared) == 32


def test_cached_entries_are_immutable():
    ek, _ = _keys(b"immutable")
    k = mlkem.ML_KEM_512.k
    mlkem.encaps(ek, bytes(32))
    key, h_ek = mlkem._checked_encryption_key(ek, k)   # A-hat^T's rows, then t-hat
    assert h_ek == hashlib.sha3_256(ek).digest()        # H(ek), immutable bytes
    a_hat = mlkem._matrix(ek[384 * k:], k)
    assert key.shape == (k + 1, k, 256) and a_hat.shape == (k, k, 256)
    for cached in (key, a_hat, key[k], key[:k], a_hat.transpose(1, 0, 2)):
        assert not cached.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            cached += 1
    assert mlkem.encaps(ek, bytes(32)) == mlkem.encaps(ek, bytes(32))


@pytest.mark.parametrize("region", ["stored hash", "embedded ek"])
def test_dk_failing_hash_check_rejected(region):
    ek, dk = _keys(b"hash-check")
    ct, _ = mlkem.encaps(ek, bytes(32))
    bit = (768 * 2 + 32) * 8 + 5 if region == "stored hash" else 384 * 2 * 8 + 3
    with pytest.raises(ValueError, match="hash check"):
        mlkem.decaps(_flip(dk, bit), ct)


@pytest.mark.parametrize("call", [
    lambda ek, dk, ct: mlkem.keygen(bytes(63)),
    lambda ek, dk, ct: mlkem.keygen(bytes(65)),
    lambda ek, dk, ct: mlkem.encaps(ek[:-1], bytes(32)),
    lambda ek, dk, ct: mlkem.encaps(ek + b"\0", bytes(32)),
    lambda ek, dk, ct: mlkem.encaps(ek, bytes(31)),
    lambda ek, dk, ct: mlkem.encaps(ek, bytes(33)),
    lambda ek, dk, ct: mlkem.decaps(dk, ct[:-1]),
    lambda ek, dk, ct: mlkem.decaps(dk, ct + b"\0"),
    lambda ek, dk, ct: mlkem.decaps(dk[:-1], ct),
    lambda ek, dk, ct: mlkem.decaps(dk + b"\0", ct),
], ids=["seed-63", "seed-65", "ek-short", "ek-long", "randomness-31",
        "randomness-33", "ct-short", "ct-long", "dk-short", "dk-long"])
def test_wrong_lengths_raise_value_error(call):
    ek, dk = _keys(b"lengths")
    ct, _ = mlkem.encaps(ek, bytes(32))
    with pytest.raises(ValueError):
        call(ek, dk, ct)


def _pair():
    return crypto.kem_keygen(RoleTag.DEVICE_FOR_SERVER, DAY, seeded_rng(3), NOW,
                             algo="ml-kem-512")


def test_crypto_non_canonical_ek_is_malformed_key():
    pair = _pair()
    bad = crypto.PublicKey(pair.role_tag, pair.algo,
                           _with_first_coefficient(pair.public_key, 0xFFF),
                           pair.created_at, pair.ttl)
    with pytest.raises(MalformedKey, match="modulus check"):
        crypto.hybrid_encrypt(bad, b"payload", seeded_rng(4), NOW)


def test_crypto_wrong_length_encapsulation_is_decryption_failure():
    pair = _pair()
    ct = crypto.hybrid_encrypt(pair.public, b"payload", seeded_rng(4), NOW)
    short = crypto.HybridCiphertext(ct.encapsulation[:-1], ct.aead_nonce,
                                    ct.body, ct.auth_tag)
    with pytest.raises(DecryptionFailure, match="ciphertext must be"):
        crypto.hybrid_decrypt(pair, short, NOW)


def test_crypto_dk_failing_hash_check_is_decryption_failure():
    pair = _pair()
    ct = crypto.hybrid_encrypt(pair.public, b"payload", seeded_rng(4), NOW)
    broken = crypto.KeyPair(pair.role_tag, pair.algo, pair.public_key,
                            _flip(pair.secret_key, (768 * 2 + 32) * 8),
                            pair.created_at, pair.ttl)
    with pytest.raises(DecryptionFailure, match="hash check"):
        crypto.hybrid_decrypt(broken, ct, NOW)


def test_decaps_reduces_a_non_canonical_embedded_ek():
    # Decaps checks only the hash of the embedded key, as FIPS 203 does; a
    # coefficient >= q is reduced by ByteDecode_12, never cached, and the
    # re-encryption mismatch gives the implicit-rejection secret J(z || c).
    ek, dk = _keys(b"embedded")
    ct, shared = mlkem.encaps(ek, bytes(32))
    bad = _with_first_coefficient(ek, 0xFFF)
    k = mlkem.ML_KEM_512.k
    z = dk[768 * k + 64:]
    crafted = dk[:384 * k] + bad + hashlib.sha3_256(bad).digest() + z
    before = mlkem._checked_encryption_key.cache_info()
    for _ in range(2):
        assert mlkem.decaps(crafted, ct) == hashlib.shake_256(z + ct).digest(32)
    after = mlkem._checked_encryption_key.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)
    assert mlkem.decaps(dk, ct) == shared


# -- decapsulation of this process's own encapsulations -----------------------

K512 = mlkem.ML_KEM_512.k
PARAM_SETS = {"512": mlkem.ML_KEM_512, "768": mlkem.ML_KEM_768,
              "1024": mlkem.ML_KEM_1024}
SEEDS = st.binary(min_size=64, max_size=64)
MESSAGES = st.binary(min_size=32, max_size=32)


def _rejection(dk: bytes, ct: bytes, p=mlkem.ML_KEM_512) -> bytes:
    """J(z || c), the implicit-rejection secret."""
    return hashlib.shake_256(dk[768 * p.k + 64:] + ct).digest(32)


def _message(dk: bytes, ct: bytes, p=mlkem.ML_KEM_512) -> bytes:
    return mlkem._pke_decrypt(dk[:384 * p.k], ct, p)


def _same_message_flip(dk: bytes, ct: bytes, p=mlkem.ML_KEM_512) -> bytes:
    """``ct`` with its first one-bit flip that still decrypts to ct's message."""
    m = _message(dk, ct, p)
    for bit in range(8 * len(ct)):
        tampered = _flip(ct, bit)
        if _message(dk, tampered, p) == m:
            return tampered
    raise AssertionError("no one-bit flip keeps the message")


def _fips(dk: bytes, ct: bytes, p=mlkem.ML_KEM_512) -> bytes:
    """decaps with the memo and the record empty: the full FIPS 203 path."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(mlkem, "_generated", OrderedDict())
        patched.setattr(mlkem, "_encapsulated", OrderedDict())
        return mlkem.decaps(dk, ct, p)


def _without_kernels(dk: bytes, ct: bytes, p=mlkem.ML_KEM_512) -> bytes:
    """decaps with K-PKE.Decrypt and K-PKE.Encrypt unavailable, so only a hit returns."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(mlkem, "_pke_decrypt", None)
        patched.setattr(mlkem, "_pke_encrypt", None)
        return mlkem.decaps(dk, ct, p)


def _counted(dk: bytes, ct: bytes, p=mlkem.ML_KEM_512) -> tuple[bytes, int]:
    """decaps's secret, and how many times it ran K-PKE.Decrypt."""
    calls = []
    decrypt = mlkem._pke_decrypt

    def spy(*args):
        calls.append(args)
        return decrypt(*args)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(mlkem, "_pke_decrypt", spy)
        shared = mlkem.decaps(dk, ct, p)
    return shared, len(calls)


def _within_bounds() -> bool:
    return (len(mlkem._generated) <= mlkem._GENERATED_ENTRIES
            and len(mlkem._encapsulated) <= mlkem._ENCAPSULATED_ENTRIES)


def _memo_cases(p=mlkem.ML_KEM_512) -> dict[str, tuple[bytes, bytes, bytes]]:
    """dk, ct and the secret decaps must give, by case. Every key is made by
    keygen and every ciphertext but "random" by encaps in this process, so
    only "valid" is a hit: the others differ from it in ct or in dk."""
    k = p.k
    ek, dk = mlkem.keygen(hashlib.sha512(b"memo|%d" % k).digest(), p)
    other_ek, _ = mlkem.keygen(hashlib.sha512(b"memo-other|%d" % k).digest(), p)
    ct, shared = mlkem.encaps(ek, bytes(range(32)), p)
    foreign, _ = mlkem.encaps(other_ek, bytes(range(1, 33)), p)
    random_ct = hashlib.shake_256(b"random ct").digest(p.ct_bytes)
    tampered = _same_message_flip(dk, ct, p)
    bad = _with_first_coefficient(ek, 0xFFF)
    crafted = dk[:384 * k] + bad + hashlib.sha3_256(bad).digest() + dk[768 * k + 64:]
    # One s-hat byte changed, the embedded ek and H(ek) kept: decaps finds
    # (ct, ek) in the memo but not the key among those keygen made. The
    # message it decrypts decides FIPS 203's answer.
    altered = _flip(dk, 8 * 7 + 3)
    same_m = _message(altered, ct, p) == _message(dk, ct, p)
    return {"valid": (dk, ct, shared),
            "tampered-same-m": (dk, tampered, _rejection(dk, tampered, p)),
            "random": (dk, random_ct, _rejection(dk, random_ct, p)),
            "other-key": (dk, foreign, _rejection(dk, foreign, p)),
            "non-canonical-dk": (crafted, ct, _rejection(crafted, ct, p)),
            "altered-s-hat": (altered, ct, shared if same_m else _rejection(altered, ct, p))}


MEMO_CASE_NAMES = ["valid", "tampered-same-m", "random", "other-key", "non-canonical-dk",
                   "altered-s-hat"]


# ML-KEM-512's cases carry the bare case name.
@pytest.mark.parametrize("name, label", [
    pytest.param(name, label, id=name if label == "512" else f"{name}-{label}")
    for label in PARAM_SETS for name in MEMO_CASE_NAMES])
def test_decaps_same_with_memo_filled_and_emptied(name, label):
    p = PARAM_SETS[label]
    dk, ct, expected = _memo_cases(p)[name]
    memo = (dict(mlkem._generated), dict(mlkem._encapsulated))
    if name == "valid":
        assert _without_kernels(dk, ct, p) == expected
    filled, decrypts = _counted(dk, ct, p)
    assert decrypts == (name != "valid")   # every other case misses
    assert (mlkem._generated, mlkem._encapsulated) == memo   # decaps adds nothing
    mlkem._generated.clear()
    mlkem._encapsulated.clear()
    assert filled == mlkem.decaps(dk, ct, p) == expected
    assert mlkem._generated == mlkem._encapsulated == {}


@pytest.mark.parametrize("label", PARAM_SETS)
@given(seed=SEEDS, m=MESSAGES)
@settings(max_examples=10, deadline=None)
def test_own_encapsulation_is_a_hit_equal_to_the_fips_result(label, seed, m):
    p = PARAM_SETS[label]
    ek, dk = mlkem.keygen(seed, p)
    ct, shared = mlkem.encaps(ek, m, p)
    assert _without_kernels(dk, ct, p) == shared == _fips(dk, ct, p)
    assert _within_bounds()


@pytest.mark.parametrize("label", PARAM_SETS)
@given(seed=SEEDS, other_seed=SEEDS, m=MESSAGES, bit=st.integers(min_value=0))
@settings(max_examples=10, deadline=None)
def test_flipped_or_foreign_ciphertext_misses_with_the_fips_result(label, seed,
                                                                    other_seed, m, bit):
    p = PARAM_SETS[label]
    ek, dk = mlkem.keygen(seed, p)
    other_ek, _ = mlkem.keygen(other_seed, p)
    assume(other_ek != ek)   # ek depends on the seed's first half only
    ct, _ = mlkem.encaps(ek, m, p)
    foreign, _ = mlkem.encaps(other_ek, m, p)
    for miss in (_flip(ct, bit % (8 * p.ct_bytes)), foreign):
        shared, decrypts = _counted(dk, miss, p)
        assert (shared, decrypts) == (_fips(dk, miss, p), 1)
    assert _within_bounds()


@pytest.mark.parametrize("label", PARAM_SETS)
def test_evicted_entries_miss_with_the_fips_result(label, monkeypatch):
    p = PARAM_SETS[label]
    monkeypatch.setattr(mlkem, "_GENERATED_ENTRIES", 2)
    monkeypatch.setattr(mlkem, "_ENCAPSULATED_ENTRIES", 3)
    monkeypatch.setattr(mlkem, "_generated", OrderedDict())
    monkeypatch.setattr(mlkem, "_encapsulated", OrderedDict())
    pairs = []
    for i in range(3):   # the first key's digest is dropped by the third keygen
        pairs.append(mlkem.keygen(hashlib.sha512(b"evict|%d" % i).digest(), p))
        assert len(mlkem._generated) == min(i + 1, 2)
    made = {}
    # The fourth encapsulation drops the first, key 1's; key 0's is kept.
    for n, i in enumerate((1, 0, 2, 2)):
        made.setdefault(i, []).append(mlkem.encaps(pairs[i][0], bytes([n]) * 32, p))
        assert len(mlkem._encapsulated) == min(n + 1, 3)
    assert list(mlkem._generated) == [mlkem._h(dk) for _, dk in pairs[1:]]
    assert [ct for ct, _ in mlkem._encapsulated] == [made[0][0][0], *(c for c, _ in made[2])]
    for i, (_, dk) in enumerate(pairs):
        for ct, shared in made[i]:
            got, decrypts = _counted(dk, ct, p)
            assert (got, decrypts) == (shared, int(i < 2))   # key 0: no record; key 1: no K
            assert got == _fips(dk, ct, p)


def test_same_randomness_to_two_keys_decapsulates_under_both():
    randomness = bytes(range(100, 132))
    pairs = [_keys(b"twin-1"), _keys(b"twin-2")]
    made = [mlkem.encaps(ek, randomness) for ek, _ in pairs]
    assert made[0][0] != made[1][0]
    for (_, dk), (ct, shared) in zip(pairs, made):
        assert mlkem.decaps(dk, ct) == shared
    assert mlkem.decaps(pairs[0][1], made[1][0]) == _rejection(pairs[0][1], made[1][0])


def test_memo_bounded_oldest_evicted_and_holds_only_shared_secrets():
    ek, dk = _keys(b"bounded")
    h_ek = hashlib.sha3_256(ek).digest()
    assert mlkem._generated[hashlib.sha3_256(dk).digest()] is None
    mlkem._encapsulated.clear()
    made = []
    for i in range(mlkem._ENCAPSULATED_ENTRIES + 10):
        m = hashlib.sha256(b"m%d" % i).digest()
        ct, shared = mlkem.encaps(ek, m)
        made.append((m, ct, shared))
        assert len(mlkem._encapsulated) == min(i + 1, mlkem._ENCAPSULATED_ENTRIES)
    kept = made[-mlkem._ENCAPSULATED_ENTRIES:]
    assert mlkem._encapsulated == {(ct, ek): shared for _, ct, shared in kept}
    # Neither m, nor r, nor any part of dk but its ek is kept.
    secrets = {dk[:384 * K512], dk[-32:]}
    for m, _, _ in made:
        secrets |= {m, hashlib.sha3_512(m + h_ek).digest()[32:]}
    for (ct, key), shared in mlkem._encapsulated.items():
        assert len(shared) == 32 and len(ct) == mlkem.CT_BYTES and key == ek
        assert all(s != shared and s not in ct for s in secrets)
    # Each ciphertext, kept or evicted, still decapsulates to its secret.
    for m, ct, shared in made:
        assert mlkem.decaps(dk, ct) == shared


def test_two_hundred_device_onboarding_decapsulates_from_the_memo(monkeypatch):
    """A scenario encapsulates every device's report before the server
    decapsulates any; at 200 devices (800 ML-KEM key pairs) no decapsulation
    runs K-PKE.Decrypt, and neither memo grows past its bound."""
    from hearthgate import channels, harness
    decapsulated, decrypted = [], []
    decaps, decrypt = mlkem.decaps, mlkem._pke_decrypt

    def decaps_spy(*args):
        decapsulated.append(_within_bounds())
        return decaps(*args)

    def decrypt_spy(*args):
        decrypted.append(args)
        return decrypt(*args)

    monkeypatch.setattr(mlkem, "decaps", decaps_spy)
    monkeypatch.setattr(mlkem, "_pke_decrypt", decrypt_spy)
    spec = harness.ScenarioSpec(devices=200, reports=(("temperature_c", 21.5, "C"),),
                                kem_algo="ml-kem-512")
    harness.run_scenario(spec, channels.DeliverAll(), 7)
    assert (len(decapsulated), len(decrypted)) == (1600, 0)
    assert all(decapsulated) and _within_bounds()


def _bitrev7(n: int) -> int:
    return int(f"{n:07b}"[::-1], 2)


def _ref_ntt(f: list[int]) -> list[int]:
    """FIPS 203 Algorithm 9."""
    f, i, length = list(f), 1, 128
    while length >= 2:
        for start in range(0, 256, 2 * length):
            zeta = pow(17, _bitrev7(i), mlkem.Q)
            i += 1
            for j in range(start, start + length):
                t = zeta * f[j + length] % mlkem.Q
                f[j + length] = (f[j] - t) % mlkem.Q
                f[j] = (f[j] + t) % mlkem.Q
        length //= 2
    return f


def _ref_ntt_inv(f: list[int]) -> list[int]:
    """FIPS 203 Algorithm 10."""
    f, i, length = list(f), 127, 2
    while length <= 128:
        for start in range(0, 256, 2 * length):
            zeta = pow(17, _bitrev7(i), mlkem.Q)
            i -= 1
            for j in range(start, start + length):
                t = f[j]
                f[j] = (t + f[j + length]) % mlkem.Q
                f[j + length] = zeta * (f[j + length] - t) % mlkem.Q
        length *= 2
    return [x * 3303 % mlkem.Q for x in f]


def _ref_multiply_ntts(f: list[int], g: list[int]) -> list[int]:
    """FIPS 203 Algorithm 11, with BaseCaseMultiply (Algorithm 12) inlined."""
    h = []
    for i in range(128):
        gamma = pow(17, 2 * _bitrev7(i) + 1, mlkem.Q)
        a0, a1, b0, b1 = f[2 * i], f[2 * i + 1], g[2 * i], g[2 * i + 1]
        h += [(a0 * b0 + a1 * b1 * gamma) % mlkem.Q, (a0 * b1 + a1 * b0) % mlkem.Q]
    return h


def _ref_sum(products) -> list[int]:
    return [sum(column) % mlkem.Q for column in zip(*products)]


def _check_kernels(polys: list[list[int]], k: int) -> None:
    """_ntt and its inverse on all of ``polys``, then _mul_sum on them (mod q)
    as k + 1 rows of k polynomials, as encryption multiplies, by a k-vector,
    and as a k-vector by a k-vector, as decryption multiplies."""
    got = mlkem._ntt(np.array(polys))
    want = [_ref_ntt(f) for f in polys]
    assert got.tolist() == want
    reduced = [[x % mlkem.Q for x in f] for f in polys]
    assert mlkem._ntt(np.array(reduced), mlkem._VI).tolist() == list(map(_ref_ntt_inv, reduced))
    assert mlkem._ntt(got, mlkem._VI).tolist() == reduced
    matrix, vector = reduced[:k * (k + 1)], reduced[-k:]
    rows = [matrix[k * r:k * (r + 1)] for r in range(k + 1)]
    got = mlkem._mul_sum(np.array(rows), np.array(vector))
    assert got.tolist() == [_ref_sum(map(_ref_multiply_ntts, row, vector)) for row in rows]
    got = mlkem._mul_sum(np.array(vector), np.array(rows[0]))
    assert got.tolist() == _ref_sum(map(_ref_multiply_ntts, vector, rows[0]))


@pytest.mark.parametrize("params", [mlkem.ML_KEM_512, mlkem.ML_KEM_1024])
@pytest.mark.parametrize("sign", [1, -1])
def test_kernels_match_fips_reference_at_extremes(params, sign):
    # Every coefficient Q - 1 gives the largest products and sums in every
    # kernel, with k = 4 for ML-KEM-1024; noise at +eta1 or -eta1 is the
    # largest signed input the forward NTT takes.
    k, eta = params.k, params.eta1
    polys = [[mlkem.Q - 1] * 256] * (k * (k + 2) - 1) + [[sign * eta] * 256]
    _check_kernels(polys, k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_kernels_match_fips_reference_on_random_inputs(k):
    stream = hashlib.shake_256(b"kernels|%d" % k).digest(4 * 256 * k * (k + 2))
    values = [int.from_bytes(stream[i:i + 4], "little") for i in range(0, len(stream), 4)]
    polys = [[v % mlkem.Q for v in values[256 * p:256 * (p + 1)]] for p in range(k * (k + 2))]
    # The last polynomial is noise: signed values in [-3, 3], as sampled.
    polys[-1] = [v % 7 - 3 for v in values[-256:]]
    _check_kernels(polys, k)


def _bytes_to_bits(data: bytes) -> list[int]:
    """FIPS 203 Algorithm 4."""
    bits = []
    for byte in data:
        for _ in range(8):
            bits.append(byte % 2)
            byte //= 2
    return bits


def _bits_to_bytes(bits: list[int]) -> bytes:
    """FIPS 203 Algorithm 3."""
    out = bytearray(len(bits) // 8)
    for i, bit in enumerate(bits):
        out[i // 8] += bit * 2 ** (i % 8)
    return bytes(out)


def _ref_byte_encode(f: list[int], d: int) -> bytes:
    """FIPS 203 Algorithm 5, on one polynomial."""
    bits = [0] * (256 * d)
    for i in range(256):
        a = f[i]
        for j in range(d):
            bits[i * d + j] = a % 2
            a = (a - bits[i * d + j]) // 2
    return _bits_to_bytes(bits)


def _ref_byte_decode(data: bytes, d: int) -> list[int]:
    """FIPS 203 Algorithm 6, on one polynomial."""
    m = 2 ** d if d < 12 else mlkem.Q
    bits = _bytes_to_bits(data)
    return [sum(bits[i * d + j] * 2 ** j for j in range(d)) % m for i in range(256)]


def _ref_cbd(data: bytes, eta: int) -> list[int]:
    """FIPS 203 Algorithm 8."""
    bits = _bytes_to_bits(data)
    f = []
    for i in range(256):
        x = sum(bits[2 * i * eta + j] for j in range(eta))
        y = sum(bits[2 * i * eta + eta + j] for j in range(eta))
        f.append((x - y) % mlkem.Q)
    return f


def _ref_compress(x: int, d: int) -> int:
    """FIPS 203 (4.7): round(2^d / q * x) mod 2^d, halves rounded up."""
    return math.floor(Fraction(2 ** d * x, mlkem.Q) + Fraction(1, 2)) % 2 ** d


def _ref_decompress(y: int, d: int) -> int:
    """FIPS 203 (4.8): round(q / 2^d * y), halves rounded up."""
    return math.floor(Fraction(mlkem.Q * y, 2 ** d) + Fraction(1, 2))


def _byte_inputs(length: int, label: bytes) -> dict[str, bytes]:
    return {"random": hashlib.shake_256(label).digest(length),
            "all-0x00": bytes(length), "all-0xff": b"\xff" * length}


@pytest.mark.parametrize("d", [1, 4, 5, 10, 11, 12])
def test_byte_codecs_match_fips_reference(d):
    # Three polynomials in turn, as the codecs see a vector.
    inputs = _byte_inputs(3 * 32 * d, b"codec|%d" % d)
    for name, data in inputs.items():
        got = mlkem._unpack(data, d)
        assert got.shape == (3 * 256,), name
        assert got.max() < 2 ** d, name   # unreduced, even at d = 12
        m = 2 ** d if d < 12 else mlkem.Q
        polys = [data[32 * d * p:32 * d * (p + 1)] for p in range(3)]
        assert (got % m).tolist() == sum((_ref_byte_decode(b, d) for b in polys), []), name
        assert mlkem._pack(got.reshape(3, 256), d) == data, name
    values = {"random": list(map(int, mlkem._unpack(inputs["random"], d))),
              "zeros": [0] * 768, "2^d - 1": [2 ** d - 1] * 768}
    if d == 12:
        values["q - 1"] = [mlkem.Q - 1] * 768
    for name, f in values.items():
        want = b"".join(_ref_byte_encode(f[256 * p:256 * (p + 1)], d) for p in range(3))
        assert mlkem._pack(np.array(f).reshape(3, 256), d) == want, name


@pytest.mark.parametrize("eta", [2, 3])
def test_noise_sampling_matches_fips_reference(eta):
    for name, data in _byte_inputs(2 * 64 * eta, b"cbd|%d" % eta).items():
        got = mlkem._cbd(data, eta)
        assert got.shape == (2, 256) and abs(got).max() <= eta, name
        want = [_ref_cbd(data[64 * eta * p:64 * eta * (p + 1)], eta) for p in range(2)]
        assert (got % mlkem.Q).tolist() == want, name
    seed = hashlib.sha256(b"noise|%d" % eta).digest()
    got = mlkem._noise(eta, seed, 3, 2)
    want = [_ref_cbd(hashlib.shake_256(seed + bytes([n])).digest(64 * eta), eta)
            for n in (3, 4)]   # PRF_eta(seed, n) = SHAKE-256(seed || n)
    assert (got % mlkem.Q).tolist() == want


@pytest.mark.parametrize("d", [1, 4, 5, 10, 11])
def test_compress_and_decompress_match_fips_reference(d):
    # Every coefficient, 0 and q - 1 among them, and every d-bit value.
    x = np.arange(mlkem.Q)
    assert mlkem._compress(x, d).tolist() == [_ref_compress(v, d) for v in range(mlkem.Q)]
    y = np.arange(2 ** d)
    assert mlkem._decompress(y, d).tolist() == [_ref_decompress(v, d) for v in range(2 ** d)]
