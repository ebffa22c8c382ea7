"""Canonical binary encoding of every protocol message.

Signatures are computed over exact byte strings, so the encoding must be
deterministic: equal messages encode to identical bytes on any platform.
The format is plain tag-length-value with big-endian length prefixes:

    message   := u32 body_len || body
    body      := u8 tag || field*
    field     := u32 len || bytes

Every layout is one :class:`Record`, an ordered list of fields with a
:class:`Codec` each, that both encoding and decoding read; records nest as
fields of records (public-key bundles, hybrid ciphertexts, the payload
tuples that get encrypted). A top-level message carrying a hybrid
ciphertext puts the recipient's 8-byte KEM key id in its first field, so the
receiver decrypts with the one key it names; nested ciphertexts (the signed
encrypted token) carry none. Every decoder is total over arbitrary input:
it returns a value or raises a structured ``WireError``, never anything else.
"""

from __future__ import annotations

import struct
from enum import Enum, IntEnum
from functools import partial
from operator import attrgetter
from typing import Any, Callable, NamedTuple

from .crypto import (
    AEAD_NONCE_LEN,
    AEAD_TAG_LEN,
    DEVICE_TOKEN_LEN,
    KEY_ID_LEN,
    NONCE_LEN,
    UUID_LEN,
    AeadBox,
    HybridCiphertext,
    PublicKey,
    RolePublic,
    RoleTag,
    Signature,
)


class WireError(Exception):
    pass


class Truncated(WireError):
    pass


class UnknownTag(WireError):
    pass


class TrailingBytes(WireError):
    pass


#: The ``u32 len`` prefix of a field ``len`` bytes long, and reading one back.
LENGTH = struct.Struct(">I").pack
_LENGTH_AT = struct.Struct(">I").unpack_from


def pack_fields(fields: list[bytes]) -> bytes:
    out = []
    for f in fields:
        out.append(LENGTH(len(f)))
        out.append(f)
    return b"".join(out)


def unpack_fields(data: bytes, expect: int | None = None) -> list[bytes]:
    fields = []
    pos = 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise Truncated("field length prefix cut short")
        (length,) = _LENGTH_AT(data, pos)
        pos += 4
        if pos + length > len(data):
            raise Truncated("field body cut short")
        fields.append(data[pos:pos + length])
        pos += length
        if expect is not None and len(fields) > expect:
            raise TrailingBytes(f"expected {expect} fields")
    if expect is not None and len(fields) != expect:
        raise Truncated(f"expected {expect} fields, got {len(fields)}")
    return fields


class Codec(NamedTuple):
    """How one field's value becomes its bytes and back; ``decode`` raises
    only ``WireError``. A record checks that each field with a ``size`` is
    that long before it decodes any field. ``frame``, where a codec has one,
    returns the whole field, ``u32 len || encode(value)``, in one C call (a
    struct or a table of framed members); for any other codec the record
    frames ``encode(value)`` inline, and ``RAW``'s value is its own bytes."""

    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]
    size: int | None = None
    frame: Callable[[Any], bytes] | None = None


class Record:
    """One byte layout: ``fields`` maps each field's name to its codec in
    wire order, each field framed as ``u32 len || bytes``. With a ``make``,
    the fields are attributes of the value (a dotted name reaches into one)
    and ``decode`` returns ``make(*values)``; without one, the value is the
    tuple of field values, or a one-field record's one value. ``encode``
    frames each field in one pass and joins them once. A record is a codec
    itself, so records nest."""

    size = None

    def __init__(self, make: Callable | None, fields: dict[str, Codec]):
        self.names = tuple(fields)
        self.codecs = codecs = tuple(fields.values())
        self._sizes = [(i, c.size) for i, c in enumerate(codecs)
                       if c.size is not None]
        self._framers = tuple(c.frame for c in codecs)
        self._encoders = tuple(None if c.encode is _same else c.encode for c in codecs)
        self._decoders = [(i, c.decode) for i, c in enumerate(codecs)
                          if c.decode is not _same]
        get = attrgetter(*self.names)
        self._split = (None if make is None else get if len(self.names) > 1
                       else lambda value: (get(value),))
        if make is None and len(self.names) == 1:  # the value is the field's own
            make, self._split = _same, lambda value: (value,)
        self.make = make

    def encode(self, value) -> bytes:
        out = []
        for frame, encode, v in zip(self._framers, self._encoders,
                                    value if self._split is None else self._split(value)):
            if frame is not None:
                out.append(frame(v))
            else:
                if encode is not None:
                    v = encode(v)
                out.append(LENGTH(len(v)) + v)
        return b"".join(out)

    def frame(self, value) -> bytes:
        data = self.encode(value)
        return LENGTH(len(data)) + data

    def decode(self, data: bytes):
        values = unpack_fields(data, expect=len(self.names))
        for i, size in self._sizes:
            if len(values[i]) != size:
                raise Truncated(f"{self.names[i]} must be {size} bytes")
        for i, dec in self._decoders:
            values[i] = dec(values[i])
        return tuple(values) if self.make is None else self.make(*values)


def _same(value):
    return value


def _text(data: bytes) -> str:
    """The one place wire, payload and ledger fields are read as UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise Truncated(f"invalid UTF-8 in text field: {exc}") from None


def _number(fmt: str) -> Codec:
    """One big-endian ``struct`` number, such as ``">d"`` or ``">I"``."""
    packer = struct.Struct(fmt)

    def decode(data: bytes):
        if len(data) != packer.size:
            raise Truncated(f"expected {packer.size}-byte number")
        return packer.unpack(data)[0]
    framed = struct.Struct(">I" + fmt.removeprefix(">"))
    return Codec(packer.pack, decode, frame=partial(framed.pack, packer.size))


def enum_of(cls: type[Enum], value: Codec, unknown=Truncated) -> Codec:
    """Members of ``cls``, each as ``value`` encodes the member's value; a
    value no member has raises ``unknown``."""
    def decode(data: bytes) -> Enum:
        raw = value.decode(data)
        try:
            return cls(raw)
        except ValueError:
            raise unknown(f"unknown {cls.__name__} {raw!r}") from None
    framed = {member: pack_fields([value.encode(member.value)]) for member in cls}
    return Codec(lambda member: value.encode(member.value), decode,
                 frame=framed.__getitem__)


def _key_id(key_id: bytes) -> bytes:
    if len(key_id) != KEY_ID_LEN:
        raise ValueError(f"hybrid ciphertext needs a {KEY_ID_LEN}-byte key id")
    return key_id


RAW = Codec(_same, _same)
TEXT = Codec(str.encode, _text)
F64 = _number(">d")
U32 = _number(">I")
TEXT_LIST = Codec(lambda items: pack_fields([s.encode() for s in items]),
                  lambda data: tuple(_text(s) for s in unpack_fields(data)))
_ROLE_TAG = enum_of(RoleTag, _number(">B"), UnknownTag)
_UID = Codec(_same, _same, UUID_LEN)
_DEVICE_TOKEN = Codec(_same, _same, DEVICE_TOKEN_LEN)
_AEAD_NONCE = Codec(_same, _same, AEAD_NONCE_LEN)
_AEAD_TAG = Codec(_same, _same, AEAD_TAG_LEN)


# -- nested structures -------------------------------------------------------

PUBLIC_KEY = Record(PublicKey, {"role_tag": _ROLE_TAG, "algo": TEXT, "key": RAW,
                                "created_at": F64, "ttl": F64})
ROLE_PUBLIC = Record(RolePublic, {"kem": PUBLIC_KEY, "sig": PUBLIC_KEY})
HYBRID = Record(HybridCiphertext, {"encapsulation": RAW, "aead_nonce": RAW,
                                   "body": RAW, "auth_tag": RAW})
SIGNATURE = Record(Signature, {"signer_tag": _ROLE_TAG, "value": RAW})


# Canonical ciphertext bytes; also the base that gets signed.
encode_hybrid = HYBRID.encode


# -- payload tuples (plaintext of the hybrid ciphertexts) --------------------

TOKEN_PAYLOAD = Record(None, {"digits": TEXT, "api_address": TEXT})
PROVISION_PAYLOAD = Record(None, {
    "api_address": TEXT, "server_public": ROLE_PUBLIC,
    "encrypted_token": HYBRID, "signature": SIGNATURE})
REGISTRATION_PAYLOAD = Record(None, {
    "device_public": ROLE_PUBLIC, "device_uid": _UID,
    "encrypted_token": HYBRID, "signature": SIGNATURE})
ACTIVATION_PAYLOAD = Record(None, {"device_token": _DEVICE_TOKEN,
                                   "server_device_public": ROLE_PUBLIC})
DATA_PAYLOAD = Record(None, {"device_uid": _UID, "metric": TEXT, "value": F64,
                             "unit": TEXT, "device_token": _DEVICE_TOKEN})

CONNECTED_SUFFIX = b"connected"


def encode_connected_payload(device_uid: bytes) -> bytes:
    return device_uid + CONNECTED_SUFFIX


def decode_connected_payload(data: bytes) -> bytes:
    if len(data) != 16 + len(CONNECTED_SUFFIX) or not data.endswith(CONNECTED_SUFFIX):
        raise Truncated("malformed connected notice payload")
    return data[:16]


REVOKE_VERB = b"revoke"


def _revoke_verb(data: bytes) -> bytes:
    if data != REVOKE_VERB:
        raise Truncated(f"verb must be {REVOKE_VERB!r}")
    return data


REVOCATION_PAYLOAD = Record(None, {
    "verb": Codec(_same, _revoke_verb, len(REVOKE_VERB)), "device_uid": _UID})


# -- top-level messages -------------------------------------------------------

class Kind(IntEnum):
    """Each message's tag byte, named after the message."""

    SessionHello = 0x01         # authenticator to server: its key bundle
    NonceChallenge = 0x02       # either side's 16-byte nonce for the peer to sign
    NonceResponse = 0x03        # the signature over the peer's nonce
    TokenDelivery = 0x04        # server to authenticator: token digits, api address
    DeviceProvision = 0x05      # authenticator to device, under the link key
    RegistrationRequest = 0x06  # device to server: keys, uid, signed encrypted token
    ActivationResponse = 0x07   # server to device: device token, dedicated server keys
    ConnectedNotice = 0x08      # server to authenticator: uid || "connected"
    DataReport = 0x09           # device to server: one reading under the device token
    RevocationRequest = 0x0A    # authenticator to server: ("revoke", uid)


class Message(NamedTuple):
    """One protocol message: its kind and its one value, which is a
    ``RolePublic`` (SessionHello), a nonce's bytes (NonceChallenge), an
    ``AeadBox`` (DeviceProvision) or, for every other kind, a
    ``HybridCiphertext`` whose key id names the recipient's key."""

    kind: Kind
    value: Any


# The body of every message whose value is a hybrid ciphertext: the
# recipient's key id, then the ciphertext's fields.
_KEYED_HYBRID = Record(
    lambda key_id, encap, nonce, body, tag: HybridCiphertext(
        encap, nonce, body, tag, key_id),
    {"key_id": Codec(_key_id, _same, KEY_ID_LEN), "encapsulation": RAW,
     "aead_nonce": _AEAD_NONCE, "body": RAW, "auth_tag": _AEAD_TAG})

# The record of each kind's body.
BODIES: dict[Kind, Record] = dict.fromkeys(Kind, _KEYED_HYBRID) | {
    Kind.SessionHello: Record(None, {"public": ROLE_PUBLIC}),
    Kind.NonceChallenge: Record(None, {"nonce": Codec(_same, _same, NONCE_LEN)}),
    Kind.DeviceProvision: Record(AeadBox, {"nonce": _AEAD_NONCE, "body": RAW,
                                           "tag": _AEAD_TAG}),
}
_BY_TAG = {kind.value: (kind, record.decode) for kind, record in BODIES.items()}


def encode(message: Message) -> bytes:
    kind, value = message
    framed = bytes((kind,)) + BODIES[kind].encode(value)
    return LENGTH(len(framed)) + framed


def decode(data: bytes) -> Message:
    if len(data) < 4:
        raise Truncated("missing message length prefix")
    (length,) = _LENGTH_AT(data, 0)
    if len(data) < 4 + length:
        raise Truncated("message body cut short")
    if len(data) > 4 + length:
        raise TrailingBytes(f"{len(data) - 4 - length} bytes after message end")
    if not length:
        raise Truncated("empty message body")
    found = _BY_TAG.get(data[4])
    if found is None:
        raise UnknownTag(f"unknown message tag 0x{data[4]:02x}")
    kind, decode_body = found
    # tuple.__new__ builds the Message without NamedTuple's Python-level __new__.
    return tuple.__new__(Message, (kind, decode_body(data[5:])))
