"""Known-answer vectors for the ML-KEM-512 module (``hearthgate.mlkem``).

``tests/data/mlkem_vectors.json`` pins, for 24 seeded cases, the
encapsulation key, decapsulation key, ciphertext, shared secret and the
implicit-rejection output of decaps on the ciphertext with one bit flipped.
Three cases are stored in full hex; every case has its own SHA-256, and one
SHA-256 covers all of them. The vectors were written by the straightforward
reference implementation, so any rewrite of the kernels must reproduce them
byte for byte.

Regenerate only for a deliberate change of output bytes:
``PYTHONPATH=src python tests/test_mlkem_vectors.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from hearthgate import mlkem

VECTORS = Path(__file__).parent / "data" / "mlkem_vectors.json"
CASES = 24
FULL_HEX_CASES = 3


def case_inputs(index: int) -> tuple[bytes, bytes, int]:
    """(64-byte keygen seed, 32-byte encaps randomness, tamper bit) of a case."""
    stream = hashlib.shake_256(b"hearthgate-mlkem-kat|%d" % index).digest(96)
    tamper_bit = (index * 1231 + 5) % (mlkem.CT_BYTES * 8)
    return stream[:64], stream[64:], tamper_bit


def run_case(index: int) -> dict:
    seed, randomness, bit = case_inputs(index)
    ek, dk = mlkem.keygen(seed)
    ct, shared = mlkem.encaps(ek, randomness)
    tampered = bytearray(ct)
    tampered[bit // 8] ^= 1 << (bit % 8)
    return {
        "seed": seed.hex(), "randomness": randomness.hex(), "tamper_bit": bit,
        "ek": ek.hex(), "dk": dk.hex(), "ct": ct.hex(), "shared": shared.hex(),
        "decaps": mlkem.decaps(dk, ct).hex(),
        "rejected": mlkem.decaps(dk, bytes(tampered)).hex(),
    }


def case_digest(case: dict) -> str:
    return hashlib.sha256(json.dumps(case, sort_keys=True).encode()).hexdigest()


def generate() -> dict:
    cases = [run_case(i) for i in range(CASES)]
    digests = [case_digest(c) for c in cases]
    return {
        "param_set": "ML-KEM-512",
        "cases": CASES,
        "sha256_all": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "case_sha256": digests,
        "full": cases[:FULL_HEX_CASES],
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(VECTORS.read_text())


@pytest.fixture(scope="module")
def computed() -> dict:
    return generate()


@pytest.mark.parametrize("index", range(FULL_HEX_CASES))
def test_full_hex_case_matches(pinned, computed, index):
    expected, got = pinned["full"][index], computed["full"][index]
    for field in ("ek", "dk", "ct", "shared", "decaps", "rejected"):
        assert got[field] == expected[field], field


def test_every_case_matches(pinned, computed):
    assert pinned["cases"] == CASES
    mismatched = [i for i, (a, b) in enumerate(zip(pinned["case_sha256"],
                                                     computed["case_sha256"]))
                  if a != b]
    assert mismatched == []
    assert computed["sha256_all"] == pinned["sha256_all"]


def test_vectors_are_consistent(pinned):
    # Decaps recovers the shared secret; implicit rejection yields another value.
    for case in pinned["full"]:
        assert case["decaps"] == case["shared"]
        assert case["rejected"] != case["shared"]
        assert len(bytes.fromhex(case["ek"])) == mlkem.EK_BYTES
        assert len(bytes.fromhex(case["dk"])) == mlkem.DK_BYTES
        assert len(bytes.fromhex(case["ct"])) == mlkem.CT_BYTES


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_mlkem_vectors.py --write")
    VECTORS.write_text(json.dumps(generate(), indent=2) + "\n")
    print(f"wrote {CASES} cases to {VECTORS}")
