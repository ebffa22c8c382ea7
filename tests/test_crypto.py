"""Crypto suite tests.

The TOTP tests are anchored to an independent oracle implementing the
published HOTP/TOTP construction (written before the implementation, kept
separate from it), cross-checked against the public 8-digit SHA-1 reference
vectors. Ed25519, which runs on libsodium, is checked against
``cryptography``'s OpenSSL implementation as the reference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac as hmac_mod
import json
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path
from unittest import mock

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey
from hypothesis import given, settings, strategies as st

from hearthgate import crypto, mlkem, wire
from hearthgate.crypto import (
    DecryptionFailure,
    HybridCiphertext,
    KeyExpired,
    MalformedKey,
    RoleTag,
)
from hearthgate.runtime import seeded_rng

NOW = 1_700_000_010.0
DAY = 86_400.0


def rng7():
    return seeded_rng(7)


# ---------------------------------------------------------------------------
# TOTP oracle (independent of hearthgate.crypto)
# ---------------------------------------------------------------------------

def oracle_totp(secret: bytes, unix_time: int, digits: int = 8, step: int = 30) -> str:
    """Straight-line HOTP-at-time-step, written without struct for independence."""
    counter = unix_time // step
    counter_bytes = bytes((counter >> (8 * (7 - i))) & 0xFF for i in range(8))
    mac = hmac_mod.new(secret, counter_bytes, hashlib.sha1).digest()
    offset = mac[19] & 0x0F
    code = (
        ((mac[offset] & 0x7F) << 24)
        | (mac[offset + 1] << 16)
        | (mac[offset + 2] << 8)
        | mac[offset + 3]
    )
    return str(code)[-digits:].rjust(digits, "0")


RFC_SECRET = b"12345678901234567890"
# Published 8-digit SHA-1 vectors: (unix time, expected token).
RFC_VECTORS = [
    (59, "94287082"),
    (1111111109, "07081804"),
    (1111111111, "14050471"),
    (1234567890, "89005924"),
    (2000000000, "69279037"),
    (20000000000, "65353130"),
]


def test_oracle_matches_reference_vectors():
    for t, expected in RFC_VECTORS:
        assert oracle_totp(RFC_SECRET, t) == expected


def test_totp_generate_matches_oracle_on_vectors():
    for t, expected in RFC_VECTORS:
        assert crypto.totp_generate(RFC_SECRET, float(t)) == expected


def test_totp_same_step_same_token():
    assert crypto.totp_generate(RFC_SECRET, 0.0) == crypto.totp_generate(RFC_SECRET, 29.0)


def test_totp_next_step_differs_on_vectors():
    # t=29 and t=30 fall into adjacent steps; assert against the oracle.
    assert crypto.totp_generate(RFC_SECRET, 29.0) == oracle_totp(RFC_SECRET, 29)
    assert crypto.totp_generate(RFC_SECRET, 30.0) == oracle_totp(RFC_SECRET, 30)
    assert oracle_totp(RFC_SECRET, 29) != oracle_totp(RFC_SECRET, 30)


def test_totp_verify_window():
    issued = 60.0  # step-aligned
    digits = crypto.totp_generate(RFC_SECRET, issued)
    assert crypto.totp_verify(RFC_SECRET, digits, issued + 29.0)
    assert not crypto.totp_verify(RFC_SECRET, digits, issued + 31.0)


def test_totp_verify_rejects_malformed():
    assert not crypto.totp_verify(RFC_SECRET, "", NOW)
    assert not crypto.totp_verify(RFC_SECRET, "1234567", NOW)
    assert not crypto.totp_verify(RFC_SECRET, "1234567x", NOW)
    # str.isdigit() accepts these eight Arabic-Indic digits, and
    # hmac.compare_digest raises TypeError on a non-ASCII str.
    assert not crypto.totp_verify(RFC_SECRET, "١٢٣٤٥٦٧٨", NOW)


@given(t=st.integers(0, 10**10), t2=st.integers(0, 10**10))
@settings(max_examples=200)
def test_totp_verify_iff_same_step(t, t2):
    digits = crypto.totp_generate(RFC_SECRET, float(t))
    ok = crypto.totp_verify(RFC_SECRET, digits, float(t2))
    if t // 30 == t2 // 30:
        assert ok
    elif ok:
        # Cross-step acceptance is only possible on an outright token collision.
        assert crypto.totp_generate(RFC_SECRET, float(t2)) == digits


# ---------------------------------------------------------------------------
# Key generation
# ---------------------------------------------------------------------------

def test_kem_keygen_contract():
    pair = crypto.kem_keygen(RoleTag.SERVER_FOR_AUTH, DAY, rng7(), NOW)
    assert pair.created_at == NOW
    assert pair.ttl == DAY
    assert pair.public_key and pair.secret_key
    assert pair.public_key != pair.secret_key


def test_kem_keygen_deterministic_under_seed():
    a = crypto.kem_keygen(RoleTag.SERVER_FOR_AUTH, DAY, seeded_rng(5), NOW)
    b = crypto.kem_keygen(RoleTag.SERVER_FOR_AUTH, DAY, seeded_rng(5), NOW)
    assert a == b


def test_kem_keygen_distinct_under_different_seeds():
    a = crypto.kem_keygen(RoleTag.SERVER_FOR_AUTH, DAY, seeded_rng(5), NOW)
    b = crypto.kem_keygen(RoleTag.SERVER_FOR_AUTH, DAY, seeded_rng(6), NOW)
    assert a.public_key != b.public_key


def test_keygen_rejects_nonpositive_ttl():
    with pytest.raises(ValueError):
        crypto.kem_keygen(RoleTag.SERVER_FOR_AUTH, 0, rng7(), NOW)
    with pytest.raises(ValueError):
        crypto.sig_keygen(RoleTag.SERVER_FOR_AUTH, -1, rng7(), NOW)
    for keygen in (crypto.kem_keygen, crypto.sig_keygen):
        for ttl in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                keygen(RoleTag.SERVER_FOR_AUTH, ttl, rng7(), NOW)


# ---------------------------------------------------------------------------
# Hybrid encryption
# ---------------------------------------------------------------------------

def test_hybrid_round_trip_single_byte():
    rng = rng7()
    pair = crypto.kem_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    ct = crypto.hybrid_encrypt(pair.public, b"x", rng, NOW)
    assert crypto.hybrid_decrypt(pair, ct, NOW) == b"x"


def test_hybrid_round_trip_many():
    rng = rng7()
    pair = crypto.kem_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    for _ in range(1000):
        pt = rng.bytes(1 + rng.randrange(64))
        ct = crypto.hybrid_encrypt(pair.public, pt, rng, NOW)
        assert crypto.hybrid_decrypt(pair, ct, NOW) == pt


def test_hybrid_wrong_key_fails():
    rng = rng7()
    pair = crypto.kem_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    other = crypto.kem_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    ct = crypto.hybrid_encrypt(pair.public, b"secret payload", rng, NOW)
    with pytest.raises(DecryptionFailure):
        crypto.hybrid_decrypt(other, ct, NOW)


def _flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@given(data=st.data())
@settings(max_examples=150)
def test_hybrid_single_bit_tamper_detected(data):
    rng = rng7()
    pair = crypto.kem_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    ct = crypto.hybrid_encrypt(pair.public, b"tamper me please", rng, NOW)
    field = data.draw(st.sampled_from(["encapsulation", "aead_nonce", "body", "auth_tag"]))
    value = getattr(ct, field)
    bit = data.draw(st.integers(0, len(value) * 8 - 1))
    mutated = HybridCiphertext(**{**ct.__dict__, field: _flip_bit(value, bit)})
    with pytest.raises(DecryptionFailure):
        crypto.hybrid_decrypt(pair, mutated, NOW)


def test_hybrid_rejects_empty_plaintext():
    rng = rng7()
    pair = crypto.kem_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    with pytest.raises(ValueError):
        crypto.hybrid_encrypt(pair.public, b"", rng, NOW)


def test_hybrid_malformed_public_key():
    rng = rng7()
    bad = crypto.PublicKey(RoleTag.AUTH_FOR_SERVER, "x25519", b"short", NOW, DAY)
    with pytest.raises(MalformedKey):
        crypto.hybrid_encrypt(bad, b"hello", rng, NOW)


@pytest.mark.parametrize("algo,key", [
    ("x25519", b"short"),
    ("ml-kem-512", b"short"),
    ("ml-kem-512", b"\xff" * 800),  # right length, coefficients not below q
])
def test_hybrid_encrypt_to_bad_key_draws_no_randomness(algo, key):
    rng = rng7()
    bad = crypto.PublicKey(RoleTag.AUTH_FOR_SERVER, algo, key, NOW, DAY)
    with pytest.raises(MalformedKey):
        crypto.hybrid_encrypt(bad, b"hello", rng, NOW)
    assert rng.bytes(32) == rng7().bytes(32)


def test_hybrid_ml_kem_backend_round_trip():
    rng = rng7()
    pair = crypto.kem_keygen(RoleTag.DEVICE_FOR_SERVER, DAY, rng, NOW,
                             algo="ml-kem-512")
    assert len(pair.public_key) == mlkem.EK_BYTES
    ct = crypto.hybrid_encrypt(pair.public, b"post-quantum payload", rng, NOW)
    assert len(ct.encapsulation) == mlkem.CT_BYTES
    assert crypto.hybrid_decrypt(pair, ct, NOW) == b"post-quantum payload"
    mutated = HybridCiphertext(_flip_bit(ct.encapsulation, 100), ct.aead_nonce,
                               ct.body, ct.auth_tag)
    with pytest.raises(DecryptionFailure):
        crypto.hybrid_decrypt(pair, mutated, NOW)


def test_ml_kem_implicit_rejection_differs():
    rng = rng7()
    ek, dk = mlkem.keygen(rng.bytes(64))
    ct, shared = mlkem.encaps(ek, rng.bytes(32))
    assert mlkem.decaps(dk, ct) == shared
    assert mlkem.decaps(dk, _flip_bit(ct, 17)) != shared


# ---------------------------------------------------------------------------
# Memo of X25519 encapsulations made
# ---------------------------------------------------------------------------

X25519 = crypto.kem_backend("x25519")
_P25519 = 2**255 - 19
# The u-coordinates of the points of order 1, 2, 4 and 8 (RFC 7748 section 6.1
# says to check for the all-zero value they give), two of them non-canonical.
LOW_ORDER = [u.to_bytes(32, "little") for u in (
    0, 1, _P25519 - 1, _P25519, _P25519 + 1,
    0xb8495f16056286fdb1329ceb8d09da6ac49ff1fae35616aeb8413b7c7aebe0,
    0x57119fd0dd4e22d8868e1c58c45c44045bef839c55b1d0b1248c50a3bc959c5f)]


def _decaps(pair, encapsulation):
    """x25519 ``decaps``: (the key, how many exchanges it ran)."""
    with mock.patch.object(crypto, "X25519PublicKey", wraps=X25519PublicKey) as spy:
        key = X25519.decaps(pair, encapsulation)
    return key, spy.from_public_bytes.call_count


def _recomputed(pair, encapsulation):
    """What x25519 ``decaps`` returns with the memo of encapsulations cleared."""
    kept = crypto._encapsulated.copy()
    crypto._encapsulated.clear()
    try:
        return X25519.decaps(pair, encapsulation)
    finally:
        crypto._encapsulated.update(kept)


@given(seed=st.integers(0, 2**32 - 1), bit=st.integers(0, 255),
       bound=st.integers(1, 4), low_order=st.sampled_from(LOW_ORDER))
@settings(max_examples=60, deadline=None)
def test_x25519_memo_hits_equal_recomputation_and_near_misses_recompute(
        seed, bit, bound, low_order):
    rng = seeded_rng(seed)
    pair, other = (crypto.kem_keygen(RoleTag.DEVICE_FOR_SERVER, DAY, rng, NOW)
                   for _ in range(2))
    twin = crypto.KeyPair(pair.role_tag, "x25519", pair.public_key,
                          pair.secret_key, NOW, DAY)  # parses its secret anew
    mismatched = crypto.KeyPair(pair.role_tag, "x25519", other.public_key,
                                pair.secret_key, NOW, DAY)
    with mock.patch.object(crypto, "_encapsulated", OrderedDict()), \
            mock.patch.object(crypto, "_ENCAPSULATED_ENTRIES", bound):
        encapsulation, shared = X25519.encaps(pair.public, rng)
        for hit in (pair, twin):
            assert _decaps(hit, encapsulation) == (shared, 0)
            assert _recomputed(hit, encapsulation) == shared
        # X25519 ignores bit 255: only the exact-bytes key tells that flip apart.
        flips = [(pair, _flip_bit(encapsulation, b)) for b in (bit, 255)]
        to_other, _ = X25519.encaps(other.public, rng)
        for miss, miss_encapsulation in flips + [(other, encapsulation),
                                                 (mismatched, to_other)]:
            recomputed = _recomputed(miss, miss_encapsulation)
            assert recomputed != shared
            assert _decaps(miss, miss_encapsulation) == (recomputed, 1)
        assert len(crypto._encapsulated) == min(bound, 2)
        for _ in range(bound):
            X25519.encaps(other.public, rng)
        assert len(crypto._encapsulated) == bound
        assert (encapsulation, pair.public_key) not in crypto._encapsulated
        assert _decaps(pair, encapsulation) == (shared, 1)  # evicted
        before = list(crypto._encapsulated.items())
        low = crypto.PublicKey(RoleTag.DEVICE_FOR_SERVER, "x25519", low_order,
                               NOW, DAY)
        with pytest.raises(ValueError):
            X25519.encaps(low, rng)
        assert list(crypto._encapsulated.items()) == before


_IMPORT_PROBE = """
import json, os, sys
import hearthgate
from hearthgate import crypto, harness
from hearthgate.channels import DeliverAll
from hearthgate.runtime import seeded_rng

def loaded():
    return sorted(m for m in ("numpy", "hearthgate.mlkem") if m in sys.modules)

result = harness.run_scenario(harness.ScenarioSpec(), DeliverAll(), seed=7)
assert result.trace.events, "the scenario ran"
after_x25519 = loaded()
harness.World(harness.ScenarioSpec(kem_algo="ml-kem-512"), 7)
after_world = loaded()
crypto.kem_keygen(crypto.RoleTag.DEVICE_FOR_SERVER, 60.0, seeded_rng(1), 0.0, "ml-kem-512")
threads = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
print(json.dumps({"x25519 run": after_x25519, "ml-kem world": after_world,
                  "ml-kem keygen": loaded(), "threads": threads,
                  "blas threads": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def _import_probe(**env: str) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env={**base, **env},
                         check=True, capture_output=True, text=True, timeout=120).stdout
    return json.loads(out)


def test_x25519_run_never_imports_numpy():
    # Importing numpy costs about as much as all of hearthgate; only an
    # ML-KEM key may pull it in, so x25519 runs and every set-up stay clear,
    # an ML-KEM world's included. mlkem imports numpy with OpenBLAS held to
    # one thread, and leaves no variable behind for child processes.
    probe = _import_probe()
    assert probe["x25519 run"] == probe["ml-kem world"] == []
    assert probe["ml-kem keygen"] == ["hearthgate.mlkem", "numpy"]
    assert probe["blas threads"] is None
    if sys.platform == "linux":
        assert probe["threads"] == 1


def test_caller_set_blas_threads_kept():
    assert _import_probe(OPENBLAS_NUM_THREADS="3")["blas threads"] == "3"


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

def test_sign_verify_round_trip():
    rng = rng7()
    pair = crypto.sig_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    sig = crypto.sign(pair, b"message bytes", NOW)
    assert crypto.verify(pair.public, b"message bytes", sig, NOW)


def test_verify_rejects_flipped_message_bit():
    rng = rng7()
    pair = crypto.sig_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    msg = b"message bytes"
    sig = crypto.sign(pair, msg, NOW)
    for bit in range(len(msg) * 8):
        assert not crypto.verify(pair.public, _flip_bit(msg, bit), sig, NOW)


@given(bit=st.integers(0, 64 * 8 - 1))
@settings(max_examples=120)
def test_verify_rejects_flipped_signature_bit(bit):
    rng = rng7()
    pair = crypto.sig_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    sig = crypto.sign(pair, b"message bytes", NOW)
    mutated = crypto.Signature(sig.signer_tag, _flip_bit(sig.value, bit))
    assert not crypto.verify(pair.public, b"message bytes", mutated, NOW)


def test_verify_rejects_mismatched_public_key():
    rng = rng7()
    pair = crypto.sig_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    other = crypto.sig_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    sig = crypto.sign(pair, b"message", NOW)
    assert not crypto.verify(other.public, b"message", sig, NOW)


def test_verify_many_random_messages():
    rng = rng7()
    pair = crypto.sig_keygen(RoleTag.SERVER_FOR_AUTH, DAY, rng, NOW)
    for _ in range(1000):
        msg = rng.bytes(1 + rng.randrange(48))
        sig = crypto.sign(pair, msg, NOW)
        assert crypto.verify(pair.public, msg, sig, NOW)


def test_sign_requires_signing_key():
    rng = rng7()
    kem_pair = crypto.kem_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    with pytest.raises(MalformedKey):
        crypto.sign(kem_pair, b"m", NOW)


def test_verify_rejects_wrong_role_tag():
    rng = rng7()
    pair = crypto.sig_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    sig = crypto.sign(pair, b"m", NOW)
    forged = crypto.Signature(signer_tag=RoleTag.SERVER_FOR_AUTH, value=sig.value)
    assert not crypto.verify(pair.public, b"m", forged, NOW)


def test_sign_rejects_malformed_secret():
    rng = rng7()
    pair = crypto.sig_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW)
    short = crypto.KeyPair(pair.role_tag, pair.algo, pair.public_key,
                           pair.secret_key[:31], NOW, DAY)
    with pytest.raises(MalformedKey):
        crypto.sign(short, b"m", NOW)


# ---------------------------------------------------------------------------
# Ed25519 on libsodium, against OpenSSL as the reference
# ---------------------------------------------------------------------------

def _reference_verifies(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        return True
    except InvalidSignature:
        return False


def test_keys_and_signatures_equal_the_reference():
    rng = seeded_rng(1401)
    for i in range(60):
        pair = crypto.sig_keygen(RoleTag.ORG_CREDENTIAL, DAY, rng, NOW)
        reference = Ed25519PrivateKey.from_private_bytes(pair.secret_key)
        assert pair.public_key == reference.public_key().public_bytes_raw()
        message = rng.bytes(rng.randrange(300)) if i else b""
        assert crypto.sign(pair, message, NOW).value == reference.sign(message)


class _SodiumSpy:
    """Stands in for the loaded libsodium and records each function looked up."""

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.lib, name)


_VERIFY = "crypto_sign_ed25519_verify_detached"


def _libsodium_verifies(public: bytes, message: bytes, signature: bytes) -> bool:
    return crypto._sodium.crypto_sign_ed25519_verify_detached(
        signature, message, len(message), public) == 0


def test_verifying_own_signatures_equals_recomputation(monkeypatch):
    rng = seeded_rng(1404)
    pairs = [crypto.sig_keygen(RoleTag.ORG_CREDENTIAL, DAY, rng, NOW) for _ in range(8)]
    signed = []
    for i in range(120):
        pair = pairs[i % len(pairs)]
        message = rng.bytes(rng.randrange(300)) if i else b""
        signed.append((pair, message, crypto.sign(pair, message, NOW)))
    libsodium = [_libsodium_verifies(pair.public_key, message, sig.value)
                 for pair, message, sig in signed]
    reference = [_reference_verifies(pair.public_key, message, sig.value)
                 for pair, message, sig in signed]
    spy = _SodiumSpy(crypto._sodium)
    monkeypatch.setattr(crypto, "_sodium", spy)
    ours = [crypto.verify(pair.public, message, sig, NOW) for pair, message, sig in signed]
    assert ours == libsodium == reference == [True] * 120
    assert spy.calls == []


def test_verdicts_on_one_bit_flips_agree_with_the_reference(monkeypatch):
    spy = _SodiumSpy(crypto._sodium)
    monkeypatch.setattr(crypto, "_sodium", spy)
    rng = seeded_rng(1402)
    flips = disagreements = 0
    for _ in range(100):
        pair = crypto.sig_keygen(RoleTag.ORG_CREDENTIAL, DAY, rng, NOW)
        message = rng.bytes(1 + rng.randrange(200))
        value = crypto.sign(pair, message, NOW).value
        for _ in range(10):
            for field in ("signature", "message", "public"):
                fields = {"signature": value, "message": message,
                          "public": pair.public_key}
                data = fields[field]
                fields[field] = _flip_bit(data, rng.randrange(len(data) * 8))
                public = crypto.PublicKey(RoleTag.ORG_CREDENTIAL, crypto.SIG_ALGO,
                                          fields["public"], NOW, DAY)
                ours = crypto.verify(public, fields["message"], crypto.Signature(
                    RoleTag.ORG_CREDENTIAL, fields["signature"]), NOW)
                disagreements += ours != _reference_verifies(
                    fields["public"], fields["message"], fields["signature"])
                flips += 1
    # Every flip misses the memo of signatures made and reaches libsodium once.
    assert (flips, disagreements, spy.calls.count(_VERIFY)) == (3000, 0, 3000)


def test_lengths_are_checked_before_any_libsodium_call(monkeypatch):
    rng = seeded_rng(1403)
    pair = crypto.sig_keygen(RoleTag.ORG_CREDENTIAL, DAY, rng, NOW)
    value = crypto.sign(pair, b"m", NOW).value
    spy = _SodiumSpy(crypto._sodium)
    monkeypatch.setattr(crypto, "_sodium", spy)
    public = crypto.PublicKey(RoleTag.ORG_CREDENTIAL, crypto.SIG_ALGO,
                              pair.public_key, NOW, DAY)
    for length in (0, 63, 65):
        bad = crypto.Signature(RoleTag.ORG_CREDENTIAL, (value * 2)[:length])
        assert crypto.verify(public, b"m", bad, NOW) is False
    for length in (31, 33):
        short = crypto.PublicKey(RoleTag.ORG_CREDENTIAL, crypto.SIG_ALGO,
                                 (pair.public_key * 2)[:length], NOW, DAY)
        with pytest.raises(MalformedKey):
            crypto.verify(short, b"m", crypto.Signature(RoleTag.ORG_CREDENTIAL, value),
                          NOW)
    seed = crypto.KeyPair(RoleTag.ORG_CREDENTIAL, crypto.SIG_ALGO, pair.public_key,
                          pair.secret_key[:31], NOW, DAY)
    with pytest.raises(MalformedKey):
        crypto.sign(seed, b"m", NOW)
    assert spy.calls == []
    # The spy sees the calls a well-formed check makes. The reference signer
    # makes this signature, over a message crypto.sign never signed, so the
    # memo of signatures made cannot answer for libsodium.
    message = b"signed by the reference only"
    reference = Ed25519PrivateKey.from_private_bytes(pair.secret_key).sign(message)
    assert crypto.verify(public, message,
                         crypto.Signature(RoleTag.ORG_CREDENTIAL, reference), NOW)
    assert spy.calls == ["crypto_sign_ed25519_verify_detached"]


def test_memo_drops_the_least_recently_signed(monkeypatch):
    rng = seeded_rng(1405)
    pair = crypto.sig_keygen(RoleTag.ORG_CREDENTIAL, DAY, rng, NOW)
    first, refreshed = b"first", b"refreshed"
    first_sig = crypto.sign(pair, first, NOW)
    refreshed_sig = crypto.sign(pair, refreshed, NOW)
    for i in range(crypto._SIGNED_ENTRIES - 1):
        crypto.sign(pair, b"newer %d" % i, NOW)
    assert crypto.sign(pair, refreshed, NOW) == refreshed_sig  # signed again: newest
    crypto.sign(pair, b"one more", NOW)
    assert len(crypto._signed) == crypto._SIGNED_ENTRIES
    spy = _SodiumSpy(crypto._sodium)
    monkeypatch.setattr(crypto, "_sodium", spy)
    assert crypto.verify(pair.public, refreshed, refreshed_sig, NOW)
    assert spy.calls == []
    assert crypto.verify(pair.public, first, first_sig, NOW)
    assert spy.calls == [_VERIFY]


def test_pair_with_a_foreign_public_key_misses_the_memo(monkeypatch):
    rng = seeded_rng(1406)
    pair = crypto.sig_keygen(RoleTag.ORG_CREDENTIAL, DAY, rng, NOW)
    other = crypto.sig_keygen(RoleTag.ORG_CREDENTIAL, DAY, rng, NOW)
    mismatched = crypto.KeyPair(RoleTag.ORG_CREDENTIAL, crypto.SIG_ALGO,
                                other.public_key, pair.secret_key, NOW, DAY)
    sig = crypto.sign(mismatched, b"m", NOW)
    assert sig == crypto.sign(pair, b"m", NOW)  # signed with the seed's own key
    spy = _SodiumSpy(crypto._sodium)
    monkeypatch.setattr(crypto, "_sodium", spy)
    assert crypto.verify(mismatched.public, b"m", sig, NOW) is False
    assert spy.calls == [_VERIFY]


# The identity point (y = 1) as the public key, and R = identity, S = 0 as the
# signature: [S]B == R + [h]A holds for every message h. OpenSSL accepts the
# pair; libsodium rejects small-order public keys and R points.
IDENTITY_POINT = b"\x01" + bytes(31)
SMALL_ORDER_FORGERY = IDENTITY_POINT + bytes(32)


@pytest.mark.parametrize("message", [b"", b"m", bytes(range(256))],
                         ids=["empty", "one-byte", "256-bytes"])
def test_small_order_forgery_is_rejected(message):
    public = crypto.PublicKey(RoleTag.ORG_CREDENTIAL, crypto.SIG_ALGO,
                              IDENTITY_POINT, NOW, DAY)
    forged = crypto.Signature(RoleTag.ORG_CREDENTIAL, SMALL_ORDER_FORGERY)
    assert crypto.verify(public, message, forged, NOW) is False


_NO_SODIUM_PROBE = """
import ctypes, ctypes.util

def missing(name, *args, **kwargs):
    raise OSError(f"{name}: cannot open shared object file")

ctypes.CDLL = missing
ctypes.util.find_library = lambda name: None
try:
    from hearthgate import crypto
except ImportError as exc:
    print(exc)
"""


def test_import_without_libsodium_is_one_import_error():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _NO_SODIUM_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.startswith("hearthgate needs libsodium for Ed25519")
    assert "libsodium23" in out and "brew install libsodium" in out


# ---------------------------------------------------------------------------
# Parsed-key caches
# ---------------------------------------------------------------------------

def test_cached_signing_key_signs_like_a_fresh_parse():
    rng = rng7()
    pair = crypto.sig_keygen(RoleTag.SERVER_FOR_AUTH, DAY, rng, NOW)
    fresh = Ed25519PrivateKey.from_private_bytes(pair.secret_key)
    for _ in range(20):
        msg = rng.bytes(1 + rng.randrange(200))
        assert crypto.sign(pair, msg, NOW).value == fresh.sign(msg)


def _fill_caches(pair: crypto.KeyPair) -> None:
    assert pair.key_id == pair.public.key_id
    if pair.algo == crypto.SIG_ALGO:
        crypto.verify(pair.public, b"m", crypto.sign(pair, b"m", NOW), NOW)
    else:
        ct = crypto.hybrid_encrypt(pair.public, b"m", rng7(), NOW)
        crypto.hybrid_decrypt(pair, ct, NOW)


@pytest.mark.parametrize("make", [crypto.sig_keygen, crypto.kem_keygen])
def test_key_caches_leave_dataclass_views_unchanged(make):
    pair = make(RoleTag.DEVICE_FOR_SERVER, DAY, rng7(), NOW)
    twin = crypto.KeyPair(*(getattr(pair, f.name) for f in dataclasses.fields(pair)))
    before = (repr(pair), hash(pair), dataclasses.asdict(pair),
              repr(pair.public), hash(pair.public), dataclasses.asdict(pair.public))
    _fill_caches(pair)
    assert {"parsed", "public", "key_id"} <= set(vars(pair))
    assert {"parsed", "key_id"} <= set(vars(pair.public))
    assert (repr(pair), hash(pair), dataclasses.asdict(pair),
            repr(pair.public), hash(pair.public),
            dataclasses.asdict(pair.public)) == before
    assert pair == twin and pair.public == twin.public
    assert [f.name for f in dataclasses.fields(pair)] == [
        "role_tag", "algo", "public_key", "secret_key", "created_at", "ttl"]
    assert [f.name for f in dataclasses.fields(pair.public)] == [
        "role_tag", "algo", "key", "created_at", "ttl"]
    assert wire.PUBLIC_KEY.encode(pair.public) == wire.PUBLIC_KEY.encode(twin.public)


@pytest.mark.parametrize("make", [crypto.sig_keygen, crypto.kem_keygen])
def test_key_pair_repr_shows_no_secret_key(make):
    pair = make(RoleTag.DEVICE_FOR_SERVER, DAY, rng7(), NOW)
    shown = repr(pair)
    assert pair.secret_key.hex() not in shown and repr(pair.secret_key) not in shown
    assert repr(pair.public_key) in shown


def test_key_pair_built_from_bytes_signs_and_decrypts():
    rng = rng7()
    sig_pair = crypto.sig_keygen(RoleTag.SERVER_FOR_AUTH, DAY, rng, NOW)
    kem_pair = crypto.kem_keygen(RoleTag.SERVER_FOR_AUTH, DAY, rng, NOW)
    sig_bytes = crypto.KeyPair(RoleTag.SERVER_FOR_AUTH, crypto.SIG_ALGO,
                               sig_pair.public_key, sig_pair.secret_key, NOW, DAY)
    kem_bytes = crypto.KeyPair(RoleTag.SERVER_FOR_AUTH, "x25519",
                               kem_pair.public_key, kem_pair.secret_key, NOW, DAY)
    assert "parsed" not in vars(sig_bytes) and "parsed" not in vars(kem_bytes)
    sig = crypto.sign(sig_bytes, b"m", NOW)
    assert sig == crypto.sign(sig_pair, b"m", NOW)
    assert crypto.verify(sig_bytes.public, b"m", sig, NOW)
    ct = crypto.hybrid_encrypt(kem_pair.public, b"payload", rng, NOW)
    assert crypto.hybrid_decrypt(kem_bytes, ct, NOW) == b"payload"


def test_ml_kem_pair_never_parsed_as_x25519():
    rng = rng7()
    pair = crypto.kem_keygen(RoleTag.DEVICE_FOR_SERVER, DAY, rng, NOW,
                             algo="ml-kem-512")
    ct = crypto.hybrid_encrypt(pair.public, b"pq payload", rng, NOW)
    assert crypto.hybrid_decrypt(pair, ct, NOW) == b"pq payload"
    assert "parsed" not in vars(pair) and "parsed" not in vars(pair.public)


@pytest.mark.parametrize("algo", ["ml-kem-512", "rot13"])
def test_parsing_a_key_without_a_parser_is_malformed_key(algo):
    pair = crypto.KeyPair(RoleTag.DEVICE_FOR_SERVER, algo, b"\x01" * 32,
                          b"\x02" * 32, NOW, DAY)
    for key in (pair, pair.public):
        with pytest.raises(MalformedKey, match=f"no {algo} key parser"):
            key.parsed
        assert "parsed" not in vars(key)


# ---------------------------------------------------------------------------
# Expiry
# ---------------------------------------------------------------------------

def test_expired_keys_rejected_everywhere():
    rng = rng7()
    kem_pair = crypto.kem_keygen(RoleTag.AUTH_FOR_SERVER, 10.0, rng, NOW)
    sig_pair = crypto.sig_keygen(RoleTag.AUTH_FOR_SERVER, 10.0, rng, NOW)
    ct = crypto.hybrid_encrypt(kem_pair.public, b"pt", rng, NOW)
    sig = crypto.sign(sig_pair, b"m", NOW)
    late = NOW + 11.0
    with pytest.raises(KeyExpired):
        crypto.hybrid_encrypt(kem_pair.public, b"pt", rng, late)
    with pytest.raises(KeyExpired):
        crypto.hybrid_decrypt(kem_pair, ct, late)
    with pytest.raises(KeyExpired):
        crypto.sign(sig_pair, b"m", late)
    with pytest.raises(KeyExpired):
        crypto.verify(sig_pair.public, b"m", sig, late)


@pytest.mark.parametrize("window", [
    {"ttl": float("inf")}, {"ttl": float("nan")},
    {"created_at": float("nan")}, {"created_at": float("inf")},
], ids=lambda w: "-".join(f"{k}={v}" for k, v in w.items()))
def test_peer_key_with_non_finite_window_is_malformed(window):
    # ``now > created_at + ttl`` is False for each of these, so such a key
    # would never expire.
    for algo, pair in (
            ("x25519", crypto.kem_keygen(RoleTag.SERVER_FOR_AUTH, DAY, rng7(), NOW)),
            (crypto.SIG_ALGO, crypto.sig_keygen(RoleTag.SERVER_FOR_AUTH, DAY, rng7(), NOW))):
        key = dataclasses.replace(pair.public, **window)
        with pytest.raises(MalformedKey, match="not finite"):
            crypto.check_public_key(key, algo, now=1e12)


def test_key_valid_at_exact_ttl_boundary():
    rng = rng7()
    pair = crypto.kem_keygen(RoleTag.AUTH_FOR_SERVER, 10.0, rng, NOW)
    crypto.hybrid_encrypt(pair.public, b"pt", rng, NOW + 10.0)  # no raise


# ---------------------------------------------------------------------------
# Random values, hashing, secrecy hygiene
# ---------------------------------------------------------------------------

def test_sha256_empty_vector():
    assert crypto.sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_nonces_unique_under_seed():
    rng = rng7()
    seen = {crypto.gen_nonce(rng) for _ in range(10_000)}
    assert len(seen) == 10_000


def test_pseudo_uuid_reproducible_under_seed():
    assert crypto.gen_pseudo_uuid(seeded_rng(3)) == crypto.gen_pseudo_uuid(seeded_rng(3))
    assert crypto.gen_pseudo_uuid(seeded_rng(3)) != crypto.gen_pseudo_uuid(seeded_rng(4))


def test_long_lived_tokens_unique():
    rng = rng7()
    seen = {crypto.gen_long_lived_token(rng) for _ in range(10_000)}
    assert len(seen) == 10_000


def test_ciphertext_never_contains_secret_key():
    rng = rng7()
    for algo in ("x25519", "ml-kem-512"):
        pair = crypto.kem_keygen(RoleTag.AUTH_FOR_SERVER, DAY, rng, NOW, algo=algo)
        ct = crypto.hybrid_encrypt(pair.public, b"some wire payload", rng, NOW)
        blob = ct.encapsulation + ct.aead_nonce + ct.body + ct.auth_tag
        assert pair.secret_key not in blob


def test_aead_round_trip_and_tamper():
    rng = rng7()
    key = crypto.gen_link_key(rng)
    box = crypto.aead_seal(key, b"provisioning payload", rng)
    assert crypto.aead_open(key, box) == b"provisioning payload"
    wrong = crypto.gen_link_key(rng)
    with pytest.raises(DecryptionFailure):
        crypto.aead_open(wrong, box)
    bad = crypto.AeadBox(box.nonce, _flip_bit(box.body, 3), box.tag)
    with pytest.raises(DecryptionFailure):
        crypto.aead_open(key, bad)
