from __future__ import annotations

import importlib.util
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from hearthgate import crypto, wire
from hearthgate.crypto import RoleTag
from hearthgate.runtime import seeded_rng

from wire_fixtures import build_fixture_messages

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "wire_golden.txt"


def test_round_trip_all_variants():
    for name, msg in build_fixture_messages().items():
        encoded = wire.encode(msg)
        assert wire.decode(encoded) == msg, name
        assert wire.encode(wire.decode(encoded)) == encoded, name


def test_encoding_is_canonical():
    a = build_fixture_messages()
    b = build_fixture_messages()
    for name in a:
        assert wire.encode(a[name]) == wire.encode(b[name]), name


def test_golden_bytes():
    # Committed after the first verified generation; catches any silent
    # change to the byte layout.
    golden = {}
    for line in GOLDEN_PATH.read_text().splitlines():
        name, hexdata = line.split(" ", 1)
        golden[name] = bytes.fromhex(hexdata)
    messages = build_fixture_messages()
    assert set(golden) == set(messages)
    for name, msg in messages.items():
        assert wire.encode(msg) == golden[name], name


def test_wire_doc_is_current():
    # docs/wire_format.md is generated; a format change that skips
    # regenerating it fails here.
    tool = pathlib.Path(__file__).parent.parent / "tools" / "gen_wire_docs.py"
    spec = importlib.util.spec_from_file_location("gen_wire_docs", tool)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.OUT.read_text() == gen.render()


def test_decode_empty_is_truncated():
    with pytest.raises(wire.Truncated):
        wire.decode(b"")


def test_decode_trailing_byte():
    msg = build_fixture_messages()["nonce_challenge"]
    with pytest.raises(wire.TrailingBytes):
        wire.decode(wire.encode(msg) + b"\x00")


def test_decode_truncated_body():
    encoded = wire.encode(build_fixture_messages()["registration_request"])
    with pytest.raises(wire.Truncated):
        wire.decode(encoded[:-3])


def test_decode_unknown_tag():
    body = bytes([0x7F])
    framed = len(body).to_bytes(4, "big") + body
    with pytest.raises(wire.UnknownTag):
        wire.decode(framed)


def _with_key_id_field(encoded: bytes, field: bytes) -> bytes:
    """Re-frame a hybrid-carrying message with ``field`` in place of its
    length-prefixed key id field."""
    body = encoded[4:5] + field + encoded[5 + 4 + crypto.KEY_ID_LEN:]
    return len(body).to_bytes(4, "big") + body


@pytest.mark.parametrize("key_id", [b"", bytes(7), bytes(9)])
def test_decode_rejects_key_id_not_8_bytes(key_id):
    encoded = wire.encode(build_fixture_messages()["data_report"])
    assert wire.decode(_with_key_id_field(
        encoded, wire.pack_fields([bytes(8)]))).ciphertext.key_id == bytes(8)
    with pytest.raises(wire.WireError):
        wire.decode(_with_key_id_field(encoded, wire.pack_fields([key_id])))


def test_decode_truncated_key_id():
    encoded = wire.encode(build_fixture_messages()["registration_request"])
    for cut in (5 + 2, 5 + 4 + 3):  # inside the length prefix, inside the id
        body = encoded[4:cut]
        with pytest.raises(wire.Truncated):
            wire.decode(len(body).to_bytes(4, "big") + body)


def test_key_id_names_the_recipient_key():
    rng = seeded_rng(5)
    now = 1_700_000_010.0
    pair = crypto.kem_keygen(RoleTag.SERVER_FOR_DEVICE, 86_400.0, rng, now)
    ct = crypto.hybrid_encrypt(pair.public, b"reading", rng, now)
    assert ct.key_id == bytes.fromhex(pair.key_id)
    decoded = wire.decode(wire.encode(wire.DataReport(ct))).ciphertext
    assert decoded.key_id == ct.key_id
    # The signed nested encoding carries no key id.
    assert wire.decode_hybrid(wire.encode_hybrid(ct)).key_id == b""
    with pytest.raises(ValueError):
        wire.encode(wire.DataReport(wire.decode_hybrid(wire.encode_hybrid(ct))))


def test_fuzz_decode_never_crashes():
    rng = seeded_rng(1234)
    outcomes = {"ok": 0, "error": 0}
    for _ in range(100_000):
        blob = rng.bytes(rng.randrange(40))
        try:
            wire.decode(blob)
            outcomes["ok"] += 1
        except wire.WireError:
            outcomes["error"] += 1
    assert outcomes["error"] > 0  # sanity: the corpus exercised failures


@given(data=st.binary(max_size=200))
@settings(max_examples=300)
def test_decode_total_over_arbitrary_input(data):
    try:
        msg = wire.decode(data)
    except wire.WireError:
        return
    assert wire.encode(msg) == data


def test_mutated_valid_encoding_is_structured():
    # Every single-byte corruption of a valid encoding either still decodes
    # or raises a WireError; nothing else escapes.
    encoded = wire.encode(build_fixture_messages()["data_report"])
    for i in range(len(encoded)):
        mutated = bytearray(encoded)
        mutated[i] ^= 0x01
        try:
            wire.decode(bytes(mutated))
        except wire.WireError:
            pass


def test_inner_payload_round_trips():
    rng = seeded_rng(9)
    now, ttl = 1_700_000_010.0, 86_400.0
    server = crypto.generate_role_keys(RoleTag.SERVER_FOR_AUTH, ttl, rng, now)
    device = crypto.generate_role_keys(RoleTag.DEVICE_FOR_SERVER, ttl, rng, now)
    uid = crypto.gen_pseudo_uuid(rng).value
    token32 = crypto.gen_long_lived_token(rng)
    enc = crypto.hybrid_encrypt(server.kem.public, b"12345678", rng, now)
    sig = crypto.sign(
        crypto.sig_keygen(RoleTag.AUTH_FOR_SERVER, ttl, rng, now),
        wire.encode_hybrid(enc), now)

    assert wire.decode_token_payload(
        wire.encode_token_payload("00112233", "http://s")) == ("00112233", "http://s")

    api, pub, enc2, sig2 = wire.decode_provision_payload(
        wire.encode_provision_payload("http://s", server.public, enc, sig))
    assert (api, pub, enc2, sig2) == ("http://s", server.public, enc, sig)

    dev_pub, uid2, enc3, sig3 = wire.decode_registration_payload(
        wire.encode_registration_payload(device.public, uid, enc, sig))
    assert (dev_pub, uid2, enc3, sig3) == (device.public, uid, enc, sig)

    token2, pub2 = wire.decode_activation_payload(
        wire.encode_activation_payload(token32, server.public))
    assert (token2, pub2) == (token32, server.public)

    assert wire.decode_connected_payload(wire.encode_connected_payload(uid)) == uid

    fields = wire.decode_data_payload(
        wire.encode_data_payload(uid, "temperature_c", 21.5, "C", token32))
    assert fields == (uid, "temperature_c", 21.5, "C", token32)

    assert wire.decode_revocation_payload(
        wire.encode_revocation_payload(uid)) == uid


def test_signature_covers_ciphertext_bytes():
    # Sign-after-encrypt: the signing base is the canonical ciphertext
    # encoding, so any ciphertext change invalidates the signature.
    rng = seeded_rng(11)
    now, ttl = 1_700_000_010.0, 86_400.0
    server = crypto.generate_role_keys(RoleTag.SERVER_FOR_AUTH, ttl, rng, now)
    signer = crypto.sig_keygen(RoleTag.AUTH_FOR_SERVER, ttl, rng, now)
    enc = crypto.hybrid_encrypt(server.kem.public, b"12345678", rng, now)
    sig = crypto.sign(signer, wire.encode_hybrid(enc), now)
    assert crypto.verify(signer.public, wire.encode_hybrid(enc), sig, now)
    other = crypto.HybridCiphertext(enc.encapsulation, enc.aead_nonce,
                                    enc.body + b"", bytes(16))
    assert not crypto.verify(signer.public, wire.encode_hybrid(other), sig, now)
