#!/usr/bin/env python3
"""Regenerate docs/wire_format.md from the deterministic wire fixtures.

Run from the repo root: python3 tools/gen_wire_docs.py
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "docs" / "wire_format.md"
sys.path.insert(0, str(ROOT / "tests"))

from hearthgate import wire  # noqa: E402
from wire_fixtures import build_fixture_messages  # noqa: E402

KEY_ID = "recipient KEM key id (8 bytes, in the clear)"

FIELD_NAMES = {
    "session_hello": ["key bundle (nested: kem key + signing key)"],
    "nonce_challenge": ["nonce (16 bytes)"],
    "nonce_response": [KEY_ID, "KEM encapsulation", "AEAD nonce (12 bytes)",
                       "AEAD body: encoded signature over the peer nonce",
                       "AEAD tag (16 bytes)"],
    "token_delivery": [KEY_ID, "KEM encapsulation", "AEAD nonce",
                       "AEAD body: (token digits, api address)", "AEAD tag"],
    "device_provision": ["AEAD nonce (12 bytes, link key)",
                         "AEAD body: (api, server bundle, encrypted token, "
                         "signature)", "AEAD tag (16 bytes)"],
    "registration_request": [KEY_ID, "KEM encapsulation", "AEAD nonce",
                             "AEAD body: (device bundle, uid, encrypted "
                             "token, signature)", "AEAD tag"],
    "activation_response": [KEY_ID, "KEM encapsulation", "AEAD nonce",
                            "AEAD body: (device token, dedicated server "
                            "bundle)", "AEAD tag"],
    "connected_notice": [KEY_ID, "KEM encapsulation", "AEAD nonce",
                         "AEAD body: uid || \"connected\"", "AEAD tag"],
    "data_report": [KEY_ID, "KEM encapsulation", "AEAD nonce",
                    "AEAD body: (uid, metric, value, unit, device token)",
                    "AEAD tag"],
    "revocation_request": [KEY_ID, "KEM encapsulation", "AEAD nonce",
                           "AEAD body: (\"revoke\", uid)", "AEAD tag"],
}

HEADER = """\
# Wire format

Every protocol message is a single length-prefixed, tagged record with
length-prefixed fields, all integers big-endian:

    message   := u32 body_len || body
    body      := u8 tag || field*
    field     := u32 len || bytes

The encoding is canonical: equal messages produce byte-identical encodings
on every platform, so signatures can cover exact ciphertext bytes
(sign-after-encrypt: the signing base for the token signature is the encoded
hybrid ciphertext, never the plaintext). `decode` is total: any byte string
yields either a message or a structured error (`Truncated`, `UnknownTag`,
`TrailingBytes`).

Nested structures reuse the field framing:

* key bundle: two public keys (KEM + signing), each encoded as
  `(u8 role tag, algo string, key bytes, f64 created_at, f64 ttl)`;
* hybrid ciphertext: `(encapsulation, aead_nonce[12], body, tag[16])`;
* signature: `(u8 signer role tag, signature bytes)`.

A message that carries a hybrid ciphertext (tags 0x03, 0x04 and 0x06 to
0x0A) frames it as five fields: first the recipient's KEM key id (8 bytes:
the first 8 bytes of SHA-256 over `algo || "|" || public key`), then the
four ciphertext fields. The receiver looks the key up by that id and
decrypts once. The key id is not part of the nested ciphertext encoding, so
the signed encrypted token carries none.

Message tags:

| tag  | variant              | payload |
|------|----------------------|---------|
| 0x01 | SessionHello         | sender's public key bundle |
| 0x02 | NonceChallenge       | 16-byte nonce |
| 0x03 | NonceResponse        | hybrid ciphertext of a signature over the peer's nonce |
| 0x04 | TokenDelivery        | hybrid ciphertext of (token digits, api address) |
| 0x05 | DeviceProvision      | link-key AEAD of (api, server bundle, encrypted token, signature) |
| 0x06 | RegistrationRequest  | hybrid ciphertext of (device bundle, uid, encrypted token, signature) |
| 0x07 | ActivationResponse   | hybrid ciphertext of (long-lived token, dedicated server bundle) |
| 0x08 | ConnectedNotice      | hybrid ciphertext of uid \\|\\| "connected" |
| 0x09 | DataReport           | hybrid ciphertext of (uid, metric, value, unit, long-lived token) |
| 0x0A | RevocationRequest    | hybrid ciphertext of ("revoke", uid) |

The dumps below come from the seed-42 fixtures that also freeze the golden
bytes in `tests/data/wire_golden.txt`. Regenerate this file with
`python3 tools/gen_wire_docs.py` after any (deliberate) format change.
"""


def hex_preview(data: bytes, limit: int = 24) -> str:
    shown = data[:limit].hex(" ")
    return shown + (f" .. ({len(data)} bytes)" if len(data) > limit else "")


def annotate(name: str, msg: wire.Message) -> str:
    """The dump of one message, its body split by the message's record."""
    encoded = wire.encode(msg)
    record = wire.BODIES[msg.kind]
    lines = [f"{0:>6}  {encoded[:4].hex(' ')}        "
             f"u32 body length = {len(encoded) - 4}",
             f"{4:>6}  {encoded[4:5].hex()}                 tag = 0x{msg.kind:02x}"]
    pos = 5
    fields = wire.unpack_fields(encoded[pos:], expect=len(record.names))
    for i, (field_name, field) in enumerate(zip(FIELD_NAMES[name], fields,
                                                strict=True)):
        lines.append(f"{pos:>6}  {encoded[pos:pos+4].hex(' ')}        "
                     f"u32 field {i} length = {len(field)}")
        pos += 4
        lines.append(f"{pos:>6}  {hex_preview(field)}")
        lines.append(f"        ^ {field_name}")
        pos += len(field)
    return "\n".join(lines)


def render() -> str:
    """The whole of docs/wire_format.md, built from the fixtures."""
    parts = [HEADER]
    for name, msg in build_fixture_messages().items():
        encoded = wire.encode(msg)
        parts.append(f"\n## {name} (tag 0x{encoded[4]:02x}, "
                     f"{len(encoded)} bytes)\n")
        parts.append("```")
        parts.append(annotate(name, msg))
        parts.append("```")
    return "\n".join(parts) + "\n"


def main() -> None:
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(render())
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
