"""Canonical binary encoding of every protocol message.

Signatures are computed over exact byte strings, so the encoding must be
deterministic: equal messages encode to identical bytes on any platform.
The format is plain tag-length-value with big-endian length prefixes:

    message   := u32 body_len || body
    body      := u8 tag || field*
    field     := u32 len || bytes

Nested structures (public-key bundles, hybrid ciphertexts, the payload
tuples that get encrypted) reuse the same field framing. A top-level message
carrying a hybrid ciphertext puts the recipient's 8-byte KEM key id in its
first field, so the receiver decrypts with the one key it names; nested
ciphertexts (the signed encrypted token) carry none. ``decode`` is total
over arbitrary input: it returns a message or raises a structured
``WireError``, never anything else.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Union

from .crypto import (
    KEY_ID_LEN,
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


def pack_fields(fields: list[bytes]) -> bytes:
    return b"".join(struct.pack(">I", len(f)) + f for f in fields)


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


def _u8(value: int) -> bytes:
    return bytes([value])


def _f64(value: float) -> bytes:
    return struct.pack(">d", value)


def _parse_f64(data: bytes) -> float:
    if len(data) != 8:
        raise Truncated("expected 8-byte float field")
    return struct.unpack(">d", data)[0]


def _parse_u8(data: bytes) -> int:
    if len(data) != 1:
        raise Truncated("expected 1-byte field")
    return data[0]


def _role_tag(index: int) -> RoleTag:
    try:
        return RoleTag(index)
    except ValueError:
        raise UnknownTag(f"unknown role tag {index}") from None


# -- nested structures -------------------------------------------------------

def encode_public_key(pk: PublicKey) -> bytes:
    return pack_fields([
        _u8(pk.role_tag.value),
        pk.algo.encode(),
        pk.key,
        _f64(pk.created_at),
        _f64(pk.ttl),
    ])


def decode_public_key(data: bytes) -> PublicKey:
    tag, algo, key, created, ttl = unpack_fields(data, expect=5)
    return PublicKey(
        role_tag=_role_tag(_parse_u8(tag)),
        algo=algo.decode("utf-8", errors="strict"),
        key=key,
        created_at=_parse_f64(created),
        ttl=_parse_f64(ttl),
    )


def encode_role_public(rp: RolePublic) -> bytes:
    return pack_fields([encode_public_key(rp.kem), encode_public_key(rp.sig)])


def decode_role_public(data: bytes) -> RolePublic:
    kem, sig = unpack_fields(data, expect=2)
    return RolePublic(kem=decode_public_key(kem), sig=decode_public_key(sig))


def encode_hybrid(ct: HybridCiphertext) -> bytes:
    """Canonical ciphertext bytes; also the base that gets signed."""
    return pack_fields([ct.encapsulation, ct.aead_nonce, ct.body, ct.auth_tag])


def decode_hybrid(data: bytes) -> HybridCiphertext:
    encap, nonce, body, tag = unpack_fields(data, expect=4)
    return HybridCiphertext(encap, nonce, body, tag)


def encode_signature(sig: Signature) -> bytes:
    return pack_fields([_u8(sig.signer_tag.value), sig.value])


def decode_signature(data: bytes) -> Signature:
    tag, value = unpack_fields(data, expect=2)
    return Signature(signer_tag=_role_tag(_parse_u8(tag)), value=value)


# -- payload tuples (plaintext of the hybrid ciphertexts) --------------------

def encode_token_payload(token_digits: str, api_address: str) -> bytes:
    return pack_fields([token_digits.encode(), api_address.encode()])


def decode_token_payload(data: bytes) -> tuple[str, str]:
    digits, api = unpack_fields(data, expect=2)
    return digits.decode("utf-8"), api.decode("utf-8")


def encode_provision_payload(api_address: str, server_public: RolePublic,
                             encrypted_token: HybridCiphertext,
                             signature: Signature) -> bytes:
    return pack_fields([
        api_address.encode(),
        encode_role_public(server_public),
        encode_hybrid(encrypted_token),
        encode_signature(signature),
    ])


def decode_provision_payload(data: bytes):
    api, server_pub, enc_token, sig = unpack_fields(data, expect=4)
    return (api.decode("utf-8"), decode_role_public(server_pub),
            decode_hybrid(enc_token), decode_signature(sig))


def encode_registration_payload(device_public: RolePublic, device_uid: bytes,
                                encrypted_token: HybridCiphertext,
                                signature: Signature) -> bytes:
    return pack_fields([
        encode_role_public(device_public),
        device_uid,
        encode_hybrid(encrypted_token),
        encode_signature(signature),
    ])


def decode_registration_payload(data: bytes):
    device_pub, uid, enc_token, sig = unpack_fields(data, expect=4)
    if len(uid) != 16:
        raise Truncated("device uid must be 16 bytes")
    return (decode_role_public(device_pub), uid,
            decode_hybrid(enc_token), decode_signature(sig))


def encode_activation_payload(device_token: bytes,
                              server_device_public: RolePublic) -> bytes:
    return pack_fields([device_token, encode_role_public(server_device_public)])


def decode_activation_payload(data: bytes):
    token, server_pub = unpack_fields(data, expect=2)
    if len(token) != 32:
        raise Truncated("device token must be 32 bytes")
    return token, decode_role_public(server_pub)


CONNECTED_SUFFIX = b"connected"


def encode_connected_payload(device_uid: bytes) -> bytes:
    return device_uid + CONNECTED_SUFFIX


def decode_connected_payload(data: bytes) -> bytes:
    if len(data) != 16 + len(CONNECTED_SUFFIX) or not data.endswith(CONNECTED_SUFFIX):
        raise Truncated("malformed connected notice payload")
    return data[:16]


def encode_data_payload(device_uid: bytes, metric: str, value: float,
                        unit: str, device_token: bytes) -> bytes:
    return pack_fields([
        device_uid,
        metric.encode(),
        _f64(value),
        unit.encode(),
        device_token,
    ])


def decode_data_payload(data: bytes):
    uid, metric, value, unit, token = unpack_fields(data, expect=5)
    if len(uid) != 16 or len(token) != 32:
        raise Truncated("malformed data report payload")
    return (uid, metric.decode("utf-8"), _parse_f64(value),
            unit.decode("utf-8"), token)


REVOKE_VERB = b"revoke"


def encode_revocation_payload(device_uid: bytes) -> bytes:
    return pack_fields([REVOKE_VERB, device_uid])


def decode_revocation_payload(data: bytes) -> bytes:
    verb, uid = unpack_fields(data, expect=2)
    if verb != REVOKE_VERB or len(uid) != 16:
        raise Truncated("malformed revocation payload")
    return uid


# -- top-level messages -------------------------------------------------------

@dataclass(frozen=True)
class SessionHello:
    """Authenticator to server: opens a session with the role's public keys."""

    public: RolePublic


@dataclass(frozen=True)
class NonceChallenge:
    """Either side's 16-byte nonce for the peer to sign."""

    nonce: bytes  # 16 bytes


@dataclass(frozen=True)
class NonceResponse:
    """The encrypted signature over the peer's nonce."""

    ciphertext: HybridCiphertext  # encrypted signature over the peer's nonce


@dataclass(frozen=True)
class TokenDelivery:
    """Server to authenticator: the transient token and API address."""

    ciphertext: HybridCiphertext  # (token digits, api address) for the authenticator


@dataclass(frozen=True)
class DeviceProvision:
    """Authenticator to device, under the link key: what it needs to register."""

    box: AeadBox  # link-key AEAD of (api, server keys, encrypted token, signature)


@dataclass(frozen=True)
class RegistrationRequest:
    """Device to server: its keys, uid and the signed encrypted token."""

    ciphertext: HybridCiphertext  # (device keys, uid, encrypted token, signature)


@dataclass(frozen=True)
class ActivationResponse:
    """Server to device: the device token and the dedicated server keys."""

    ciphertext: HybridCiphertext  # (device token, dedicated server keys)


@dataclass(frozen=True)
class ConnectedNotice:
    """Server to authenticator: the device with this uid is connected."""

    ciphertext: HybridCiphertext  # uid || "connected" for the authenticator


@dataclass(frozen=True)
class DataReport:
    """Device to server: one reading under the device token."""

    ciphertext: HybridCiphertext  # (uid, metric, value, unit, device token)


@dataclass(frozen=True)
class RevocationRequest:
    """Authenticator to server: revoke the device with this uid."""

    ciphertext: HybridCiphertext  # ("revoke", uid)


Message = Union[
    SessionHello, NonceChallenge, NonceResponse, TokenDelivery, DeviceProvision,
    RegistrationRequest, ActivationResponse, ConnectedNotice, DataReport,
    RevocationRequest,
]

_TAGS = {
    SessionHello: 0x01,
    NonceChallenge: 0x02,
    NonceResponse: 0x03,
    TokenDelivery: 0x04,
    DeviceProvision: 0x05,
    RegistrationRequest: 0x06,
    ActivationResponse: 0x07,
    ConnectedNotice: 0x08,
    DataReport: 0x09,
    RevocationRequest: 0x0A,
}

# The messages whose one field is a hybrid ciphertext, by tag.
_HYBRID_VARIANTS = {tag: cls for cls, tag in _TAGS.items()
                    if "ciphertext" in cls.__dataclass_fields__}


def encode(message: Message) -> bytes:
    tag = _TAGS[type(message)]
    if isinstance(message, SessionHello):
        body = pack_fields([encode_role_public(message.public)])
    elif isinstance(message, NonceChallenge):
        body = pack_fields([message.nonce])
    elif isinstance(message, DeviceProvision):
        box = message.box
        body = pack_fields([box.nonce, box.body, box.tag])
    else:
        ct = message.ciphertext
        if len(ct.key_id) != KEY_ID_LEN:
            raise ValueError(f"hybrid ciphertext needs a {KEY_ID_LEN}-byte key id")
        body = pack_fields([ct.key_id]) + encode_hybrid(ct)
    framed = _u8(tag) + body
    return struct.pack(">I", len(framed)) + framed


def decode(data: bytes) -> Message:
    if len(data) < 4:
        raise Truncated("missing message length prefix")
    (length,) = struct.unpack_from(">I", data, 0)
    if len(data) < 4 + length:
        raise Truncated("message body cut short")
    if len(data) > 4 + length:
        raise TrailingBytes(f"{len(data) - 4 - length} bytes after message end")
    body = data[4:]
    if not body:
        raise Truncated("empty message body")
    tag, rest = body[0], body[1:]
    try:
        if tag == _TAGS[SessionHello]:
            (public,) = unpack_fields(rest, expect=1)
            return SessionHello(decode_role_public(public))
        if tag == _TAGS[NonceChallenge]:
            (nonce,) = unpack_fields(rest, expect=1)
            if len(nonce) != 16:
                raise Truncated("nonce must be 16 bytes")
            return NonceChallenge(nonce)
        if tag == _TAGS[DeviceProvision]:
            nonce, box_body, box_tag = unpack_fields(rest, expect=3)
            if len(nonce) != 12 or len(box_tag) != 16:
                raise Truncated("malformed AEAD box framing")
            return DeviceProvision(AeadBox(nonce, box_body, box_tag))
        if tag in _HYBRID_VARIANTS:
            key_id, encap, aead_nonce, ct_body, auth_tag = \
                unpack_fields(rest, expect=5)
            if (len(key_id) != KEY_ID_LEN or len(aead_nonce) != 12
                    or len(auth_tag) != 16):
                raise Truncated("malformed hybrid ciphertext framing")
            ct = HybridCiphertext(encap, aead_nonce, ct_body, auth_tag,
                                  key_id=key_id)
            return _HYBRID_VARIANTS[tag](ct)
    except UnicodeDecodeError as exc:
        raise Truncated(f"invalid UTF-8 in message field: {exc}") from None
    raise UnknownTag(f"unknown message tag 0x{tag:02x}")
