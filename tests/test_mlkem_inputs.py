"""Input validation of the ML-KEM module, its public-key caches, and the
extreme inputs of its integer polynomial product.

FIPS 203 checks inputs before use: lengths of every key, seed, randomness
and ciphertext, the modulus check on an encapsulation key (every 12-bit
coefficient below q) and the hash check on a decapsulation key. The
module caches data derived from valid encapsulation keys, so the tests
also check that a rejected key is rejected again on every call and never
enters a cache. Through ``crypto`` the same failures surface as
``MalformedKey`` (encapsulation) and ``DecryptionFailure`` (decryption).
"""

from __future__ import annotations

import hashlib

import pytest

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
    a_t, t = mlkem._checked_encryption_key(ek, k)
    assert isinstance(t, tuple) and all(isinstance(x, int) for x in t)
    assert isinstance(a_t, tuple)
    assert all(isinstance(row, tuple) and all(isinstance(x, int) for x in row) for row in a_t)
    a_hat = mlkem._matrix(ek[384 * k:], k)
    assert isinstance(a_hat, tuple)
    assert all(isinstance(p, tuple) for row in a_hat for p in row)


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


def _negacyclic(a: list[int], b: list[int]) -> list[int]:
    out = [0] * 256
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < 256:
                out[i + j] += x * y
            else:
                out[i + j - 256] -= x * y
    return out


@pytest.mark.parametrize("params", [mlkem.ML_KEM_512, mlkem.ML_KEM_1024])
@pytest.mark.parametrize("sign", [1, -1])
def test_integer_product_at_its_largest_sums(params, sign):
    # Every coefficient Q - 1 and every noise value +-eta1 gives the largest
    # field sums the 24-bit fields must hold.
    eta, k = params.eta1, params.k
    chunk = (1 << eta) - 1 if sign > 0 else ((1 << eta) - 1) << eta
    noise = mlkem._pack([chunk] * 256, 2 * eta)
    y = mlkem._noise_integer(noise, eta)
    row = [mlkem._as_integer([mlkem.Q - 1] * 256)] * k
    got = mlkem._fold(sum(a * y for a in row), [0] * 256)
    one = _negacyclic([mlkem.Q - 1] * 256, [sign * eta] * 256)
    assert got == [k * x % mlkem.Q for x in one]
