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
from dataclasses import dataclass
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Union

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


#: The ``u32 len`` prefix of a field ``len`` bytes long.
LENGTH = struct.Struct(">I").pack


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
        (length,) = struct.unpack_from(">I", data, pos)
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
    tuple of field values. ``encode`` frames each field in one pass and
    joins them once. A record is a codec itself, so records nest."""

    size = None

    def __init__(self, make: Callable | None, fields: dict[str, Codec]):
        self.make = make
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

@dataclass(repr=False)
class SessionHello:
    """Authenticator to server: opens a session with the role's public keys."""

    public: RolePublic


@dataclass(repr=False)
class NonceChallenge:
    """Either side's 16-byte nonce for the peer to sign."""

    nonce: bytes  # 16 bytes


@dataclass(repr=False)
class NonceResponse:
    """The encrypted signature over the peer's nonce."""

    ciphertext: HybridCiphertext  # encrypted signature over the peer's nonce


@dataclass(repr=False)
class TokenDelivery:
    """Server to authenticator: the transient token and API address."""

    ciphertext: HybridCiphertext  # (token digits, api address) for the authenticator


@dataclass(repr=False)
class DeviceProvision:
    """Authenticator to device, under the link key: what it needs to register."""

    box: AeadBox  # link-key AEAD of (api, server keys, encrypted token, signature)


@dataclass(repr=False)
class RegistrationRequest:
    """Device to server: its keys, uid and the signed encrypted token."""

    ciphertext: HybridCiphertext  # (device keys, uid, encrypted token, signature)


@dataclass(repr=False)
class ActivationResponse:
    """Server to device: the device token and the dedicated server keys."""

    ciphertext: HybridCiphertext  # (device token, dedicated server keys)


@dataclass(repr=False)
class ConnectedNotice:
    """Server to authenticator: the device with this uid is connected."""

    ciphertext: HybridCiphertext  # uid || "connected" for the authenticator


@dataclass(repr=False)
class DataReport:
    """Device to server: one reading under the device token."""

    ciphertext: HybridCiphertext  # (uid, metric, value, unit, device token)


@dataclass(repr=False)
class RevocationRequest:
    """Authenticator to server: revoke the device with this uid."""

    ciphertext: HybridCiphertext  # ("revoke", uid)


Message = Union[
    SessionHello, NonceChallenge, NonceResponse, TokenDelivery, DeviceProvision,
    RegistrationRequest, ActivationResponse, ConnectedNotice, DataReport,
    RevocationRequest,
]


def _keyed_hybrid(cls) -> Record:
    """The body of a message whose one field is a hybrid ciphertext: the
    recipient's key id, then the ciphertext's fields."""
    return Record(
        lambda key_id, encap, nonce, body, tag: cls(HybridCiphertext(
            encap, nonce, body, tag, key_id)),
        {"ciphertext.key_id": Codec(_key_id, _same, KEY_ID_LEN),
         "ciphertext.encapsulation": RAW,
         "ciphertext.aead_nonce": _AEAD_NONCE, "ciphertext.body": RAW,
         "ciphertext.auth_tag": _AEAD_TAG})


# Each message class's tag and the record of its body.
MESSAGES: dict[type, tuple[int, Record]] = {
    SessionHello: (0x01, Record(SessionHello, {"public": ROLE_PUBLIC})),
    NonceChallenge: (0x02, Record(NonceChallenge,
                                  {"nonce": Codec(_same, _same, NONCE_LEN)})),
    NonceResponse: (0x03, _keyed_hybrid(NonceResponse)),
    TokenDelivery: (0x04, _keyed_hybrid(TokenDelivery)),
    DeviceProvision: (0x05, Record(
        lambda *fields: DeviceProvision(AeadBox(*fields)),
        {"box.nonce": _AEAD_NONCE, "box.body": RAW, "box.tag": _AEAD_TAG})),
    RegistrationRequest: (0x06, _keyed_hybrid(RegistrationRequest)),
    ActivationResponse: (0x07, _keyed_hybrid(ActivationResponse)),
    ConnectedNotice: (0x08, _keyed_hybrid(ConnectedNotice)),
    DataReport: (0x09, _keyed_hybrid(DataReport)),
    RevocationRequest: (0x0A, _keyed_hybrid(RevocationRequest)),
}
_BODIES = dict(MESSAGES.values())


def encode(message: Message) -> bytes:
    tag, record = MESSAGES[type(message)]
    framed = bytes([tag]) + record.encode(message)
    return LENGTH(len(framed)) + framed


def decode(data: bytes) -> Message:
    if len(data) < 4:
        raise Truncated("missing message length prefix")
    (length,) = struct.unpack_from(">I", data, 0)
    if len(data) < 4 + length:
        raise Truncated("message body cut short")
    if len(data) > 4 + length:
        raise TrailingBytes(f"{len(data) - 4 - length} bytes after message end")
    if not length:
        raise Truncated("empty message body")
    record = _BODIES.get(data[4])
    if record is None:
        raise UnknownTag(f"unknown message tag 0x{data[4]:02x}")
    return record.decode(data[5:])
