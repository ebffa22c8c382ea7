"""Differential test: the pure-Python ML-KEM against OpenSSL's native one.

``cryptography`` exposes ML-KEM-768 and ML-KEM-1024 (not 512). The kernels
are shared by all three parameter sets, so these checks also cover the code
the ML-KEM-512 backend runs; its own widths are pinned by the known-answer
vectors in ``test_mlkem_vectors.py``. For each seed:

* keygen from one 64-byte seed gives the native encapsulation key;
* a native encapsulation decapsulates to the same secret here;
* an encapsulation made here decapsulates natively to the same secret;
* a ciphertext with one bit flipped gives the same implicit-rejection
  secret on both sides.
"""

from __future__ import annotations

import hashlib

import pytest

from hearthgate import mlkem

native = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.mlkem")

SEEDS = range(20)
PARAM_SETS = {
    "768": (mlkem.ML_KEM_768, native.MLKEM768PrivateKey),
    "1024": (mlkem.ML_KEM_1024, native.MLKEM1024PrivateKey),
}


def _inputs(name: str, index: int) -> tuple[bytes, bytes]:
    stream = hashlib.shake_256(b"hearthgate-mlkem-native|%s|%d"
                               % (name.encode(), index)).digest(96)
    return stream[:64], stream[64:]


@pytest.mark.parametrize("index", SEEDS)
@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_agrees_with_native(name, index):
    params, native_key = PARAM_SETS[name]
    seed, randomness = _inputs(name, index)
    ek, dk = mlkem.keygen(seed, params)
    private = native_key.from_seed_bytes(seed)
    public = private.public_key()
    assert len(ek) == params.ek_bytes and len(dk) == params.dk_bytes
    assert public.public_bytes_raw() == ek

    shared, ct = public.encapsulate()
    assert mlkem.decaps(dk, ct, params) == shared

    ct, shared = mlkem.encaps(ek, randomness, params)
    assert len(ct) == params.ct_bytes
    assert private.decapsulate(ct) == shared

    bit = (index * 977) % (len(ct) * 8)
    tampered = bytearray(ct)
    tampered[bit // 8] ^= 1 << (bit % 8)
    rejected = mlkem.decaps(dk, bytes(tampered), params)
    assert rejected != shared
    assert private.decapsulate(bytes(tampered)) == rejected
