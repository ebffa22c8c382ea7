from __future__ import annotations

import importlib.util
import pathlib
from functools import partial
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from hearthgate import crypto, ledger, payloads, wire
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
        encoded, wire.pack_fields([bytes(8)]))).value.key_id == bytes(8)
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
    decoded = wire.decode(wire.encode(wire.Message(wire.Kind.DataReport, ct))).value
    assert decoded.key_id == ct.key_id
    # The signed nested encoding carries no key id.
    assert wire.HYBRID.decode(wire.encode_hybrid(ct)).key_id == b""
    with pytest.raises(ValueError):
        wire.encode(wire.Message(wire.Kind.DataReport,
                                 wire.HYBRID.decode(wire.encode_hybrid(ct))))


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


# Replacement values with the sizes and words that fixed-size, text and
# enum fields accept, and framed lists of them.
_LEAF = st.one_of(
    st.binary(max_size=24),
    st.sampled_from([1, 4, 8, 16, 32]).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)),
    st.sampled_from([b"data", b"identity", b"active", b"server", b"revoke"]))
_FRAMED = st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=9).map(
    wire.pack_fields), max_leaves=12)


def _record_samples() -> dict[str, tuple]:
    """Each record decoder, with valid encodings for it."""
    rng = seeded_rng(13)
    now, ttl = 1_700_000_010.0, 86_400.0
    keys = crypto.generate_role_keys(RoleTag.SERVER_FOR_AUTH, ttl, rng, now)
    enc = crypto.hybrid_encrypt(keys.kem.public, b"12345678", rng, now)
    sig = crypto.sign(keys.sig, wire.encode_hybrid(enc), now)
    uid, token = bytes(range(16)), bytes(range(32))
    values = {
        "PUBLIC_KEY": keys.kem.public, "ROLE_PUBLIC": keys.public,
        "HYBRID": enc, "SIGNATURE": sig,
        "TOKEN_PAYLOAD": ("00112233", "http://s"),
        "PROVISION_PAYLOAD": ("http://s", keys.public, enc, sig),
        "REGISTRATION_PAYLOAD": (keys.public, uid, enc, sig),
        "ACTIVATION_PAYLOAD": (token, keys.public),
        "DATA_PAYLOAD": (uid, "temperature_c", 21.5, "C", token),
        "REVOCATION_PAYLOAD": (wire.REVOKE_VERB, uid),
    }
    samples = {name: (getattr(wire, name).decode,
                      [getattr(wire, name).encode(value)])
               for name, value in values.items()}
    entry = payloads.DataEntry(uid, "temperature_c", 21.5, "C", now, bytes(32))
    device = payloads.DeviceRecord(token, b"s", b"d", b"a", uid,
                                   payloads.DeviceStatus.ACTIVE, now)
    alert = payloads.RiskAlert(uid, "temperature_c", 80.0, 60.0, "high",
                               ("insurer", "emergency_service"), 1, 0)
    org = ledger.OrgIdentity("server-org", ledger.OrgRole.SERVER,
                             crypto.sig_keygen(RoleTag.ORG_CREDENTIAL, ttl, rng, now))
    samples.update(
        connected_payload=(wire.decode_connected_payload,
                           [wire.encode_connected_payload(uid)]),
        decode_payload=(payloads.decode_payload, [
            payloads.encode_payload(p) for p in (entry, device, alert)]),
        decode_transaction=(ledger.decode_transaction, [ledger.make_transaction(
            ledger.ChannelName.DATA, entry, org, now).canonical_bytes]))
    return samples


_RECORD_SAMPLES = _record_samples()


@st.composite
def _mutated(draw, data: bytes, depth: int = 0) -> bytes:
    """``data`` with one framed field, at some nesting depth, replaced (or
    the whole of it, when it is not framed or the draw says so)."""
    for skip in (0, 1):  # payloads start with a one-byte type tag
        try:
            fields = wire.unpack_fields(data[skip:])
        except wire.WireError:
            continue
        if fields and depth < 4 and draw(st.booleans()):
            i = draw(st.integers(0, len(fields) - 1))
            fields[i] = draw(_mutated(fields[i], depth + 1))
            return data[:skip] + wire.pack_fields(fields)
    return draw(st.one_of(_LEAF, _FRAMED))


@pytest.mark.parametrize("name", sorted(_RECORD_SAMPLES))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_record_decode_is_total(name, data):
    decode, valid = _RECORD_SAMPLES[name]
    blob = data.draw(st.one_of(st.binary(max_size=200),
                               st.sampled_from(valid).flatmap(_mutated)))
    try:
        decode(blob)
    except wire.WireError:
        pass


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

    assert wire.TOKEN_PAYLOAD.decode(wire.TOKEN_PAYLOAD.encode(
        ("00112233", "http://s"))) == ("00112233", "http://s")

    api, pub, enc2, sig2 = wire.PROVISION_PAYLOAD.decode(
        wire.PROVISION_PAYLOAD.encode(("http://s", server.public, enc, sig)))
    assert (api, pub, enc2, sig2) == ("http://s", server.public, enc, sig)

    dev_pub, uid2, enc3, sig3 = wire.REGISTRATION_PAYLOAD.decode(
        wire.REGISTRATION_PAYLOAD.encode((device.public, uid, enc, sig)))
    assert (dev_pub, uid2, enc3, sig3) == (device.public, uid, enc, sig)

    token2, pub2 = wire.ACTIVATION_PAYLOAD.decode(
        wire.ACTIVATION_PAYLOAD.encode((token32, server.public)))
    assert (token2, pub2) == (token32, server.public)

    assert wire.decode_connected_payload(wire.encode_connected_payload(uid)) == uid

    fields = wire.DATA_PAYLOAD.decode(
        wire.DATA_PAYLOAD.encode((uid, "temperature_c", 21.5, "C", token32)))
    assert fields == (uid, "temperature_c", 21.5, "C", token32)

    assert wire.REVOCATION_PAYLOAD.decode(wire.REVOCATION_PAYLOAD.encode(
        (wire.REVOKE_VERB, uid))) == (wire.REVOKE_VERB, uid)


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


# -- the framed encoder against the plain one ---------------------------------

# Every record there is: message bodies, nested structures, the payload
# tuples, the ledger payloads, and the ledger's transaction body and org line.
_RECORDS = {
    **{f"message {kind.name}": record for kind, record in wire.BODIES.items()},
    **{name: getattr(wire, name) for name in (
        "PUBLIC_KEY", "ROLE_PUBLIC", "HYBRID", "SIGNATURE", "TOKEN_PAYLOAD",
        "PROVISION_PAYLOAD", "REGISTRATION_PAYLOAD", "ACTIVATION_PAYLOAD",
        "DATA_PAYLOAD", "REVOCATION_PAYLOAD")},
    **{f"payload {cls.__name__}": record
       for cls, (_, record) in payloads._RECORDS.items()},
    "ledger._TX_BODY": ledger._TX_BODY,
    "ledger._ORG": ledger._ORG,
}
# The enum each enum-valued field holds, by field name.
_ENUMS = {"role_tag": RoleTag, "signer_tag": RoleTag,
          "status": payloads.DeviceStatus, "channel": ledger.ChannelName,
          "role": ledger.OrgRole}
_TEXT = st.one_of(st.text(max_size=12),
                  st.sampled_from(["", "°C", "température", "温度", "\U0001F321"]))


def _reference(record: wire.Record, value) -> bytes:
    """``record``'s bytes the plain way: each field encoded on its own (a
    nested record by this same function), then all framed together."""
    values = (value if record.make is None
              else (value,) if record.make is wire._same  # a one-field record's value
              else [attrgetter(name)(value) for name in record.names])
    return wire.pack_fields([
        _reference(codec, v) if isinstance(codec, wire.Record) else codec.encode(v)
        for codec, v in zip(record.codecs, values)])


def _values(record: wire.Record) -> st.SearchStrategy:
    fields = st.tuples(*(_field(name, codec)
                         for name, codec in zip(record.names, record.codecs)))
    return fields if record.make is None else fields.map(lambda v: record.make(*v))


def _field(name: str, codec) -> st.SearchStrategy:
    if isinstance(codec, wire.Record):
        return _values(codec)
    if name in _ENUMS:
        return st.sampled_from(_ENUMS[name])
    if name == "payload":
        return st.one_of([_values(record) for _, record in payloads._RECORDS.values()])
    if name == "verb":
        return st.just(wire.REVOKE_VERB)
    if codec is wire.TEXT:
        return _TEXT
    if codec is wire.TEXT_LIST:
        return st.lists(_TEXT, max_size=4).map(tuple)
    if codec.encode is wire.F64.encode:
        return st.floats(allow_nan=False)
    if codec is wire.U32:
        return st.integers(0, 2**32 - 1)
    return st.binary(min_size=codec.size or 0, max_size=codec.size or 40)


@pytest.mark.parametrize("name", sorted(_RECORDS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_framed_encode_equals_the_per_field_one(name, data):
    record = _RECORDS[name]
    value = data.draw(_values(record))
    encoded = record.encode(value)
    assert encoded == _reference(record, value)
    assert record.frame(value) == wire.pack_fields([encoded])
    decoded = record.decode(encoded)
    assert decoded == value
    assert record.encode(decoded) == encoded


@given(message=st.sampled_from(wire.Kind).flatmap(
    lambda kind: _values(wire.BODIES[kind]).map(partial(wire.Message, kind))))
@settings(max_examples=100, deadline=None)
def test_message_is_its_tag_and_body_framed(message):
    body = bytes([message.kind]) + _reference(wire.BODIES[message.kind], message.value)
    assert wire.encode(message) == wire.pack_fields([body])
    assert wire.decode(wire.encode(message)) == message


@given(payload=st.one_of([_values(record) for _, record in payloads._RECORDS.values()]))
@settings(max_examples=100, deadline=None)
def test_payload_is_its_tag_and_record(payload):
    tag, record = payloads._RECORDS[type(payload)]
    assert payloads.encode_payload(payload) == tag + _reference(record, payload)
    assert payloads.decode_payload(payloads.encode_payload(payload)) == payload


@pytest.mark.parametrize("name, field", [
    (name, field) for name, record in sorted(_RECORDS.items())
    for field in record.names if field in _ENUMS])
def test_every_enum_member_frames_as_its_value(name, field):
    codec = _RECORDS[name].codecs[_RECORDS[name].names.index(field)]
    for member in _ENUMS[field]:
        assert codec.frame(member) == wire.pack_fields([codec.encode(member)])
        assert codec.decode(codec.encode(member)) is member
