"""Cryptographic primitives for the onboarding protocol.

Public-key encryption is KEM-hybrid: a key encapsulation produces a shared
secret that keys an AEAD over the payload. The KEM is a pluggable backend;
the default is X25519 (fast, battle-tested), with an ML-KEM-512 backend on
numpy (imported on first use) for post-quantum runs. Because KEM keys cannot
sign, every role keypair is generated together with a companion Ed25519
signing pair bound to the same role tag, and the public halves travel
together.

X25519 and AES-GCM run on ``cryptography`` (OpenSSL). Ed25519 runs on the
system's libsodium through ctypes, loaded at import: it signs and verifies
in about half OpenSSL's time, with the same keys and signatures (RFC 8032
signing is deterministic), and its verification also rejects small-order
public keys and R points. A signing pair's secret key is the 32-byte RFC 8032
seed either way.

Verifying a signature this process made is a lookup. ``sign`` records each
signature in a bounded memo (``_SIGNED_ENTRIES``, oldest signing dropped
first) with the public key libsodium derived from the seed and the signed
message; ``verify`` answers ``True`` when the memo maps the signature to
exactly its public key and message, after every other check. A hit equals
recomputation: RFC 8032 signing is deterministic, and a signature
libsodium's signer made over a message, with the public key of its seed,
passes libsodium's verifier (up to the 2^-252 chance of R being the
identity). Anything else, a tampered byte or a key pair whose stated public
key is not its seed's, misses and is verified by libsodium. The memo holds
signatures, public keys and signed messages, no key material.

Decapsulating an X25519 ciphertext this process encapsulated is a lookup
too. ``encaps`` records the AEAD key it derives in a bounded memo
(``_ENCAPSULATED_ENTRIES``, oldest encapsulation dropped first), under the
exact encapsulation bytes and recipient public key bytes; ``decaps`` returns
it when both match and the pair's secret key derives its stated public key
(checked once per pair). A hit equals recomputation: both sides compute the
same Diffie-Hellman value (RFC 7748 section 6.1), and the KDF reads the
same encapsulation and public key bytes. Anything else, one flipped bit
(bit 255 included, which X25519 itself ignores), another recipient, or a
pair whose public key is not its secret's, misses and runs the exchange.
``hybrid_decrypt`` still checks freshness and opens the AEAD on a hit. Unlike
the signature memo, this one holds key material, the per-message AEAD keys:
both endpoints' secrets already live in this process (a world holds every
key pair), the memo is bounded and never serialized, and where the two
endpoints run in different processes it never hits.

All randomness comes from an injected :class:`~hearthgate.runtime.Rng` and
all expiry checks from an injected timestamp, so protocol runs replay
deterministically.
"""

from __future__ import annotations

import ctypes
import hashlib
import hmac
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .runtime import Rng, remember


class CryptoError(Exception):
    """Base class for failures raised by this module."""


class MalformedKey(CryptoError):
    pass


class DecryptionFailure(CryptoError):
    """Wrong key or tampered ciphertext. Decryption is atomic: no partial output."""


class KeyExpired(CryptoError):
    pass


class RoleTag(Enum):
    """Which relationship a keypair serves: the four protocol session pairs,
    plus ledger-side organization credentials."""

    SERVER_FOR_AUTH = 0
    AUTH_FOR_SERVER = 1
    DEVICE_FOR_SERVER = 2
    SERVER_FOR_DEVICE = 3
    ORG_CREDENTIAL = 4


AEAD_NONCE_LEN = 12
AEAD_TAG_LEN = 16
NONCE_LEN = 16
UUID_LEN = 16
LINK_KEY_LEN = 32
DEVICE_TOKEN_LEN = 32
TOTP_SECRET_LEN = 20
TOTP_DIGITS = 8
TOTP_STEP = 30
KEY_ID_LEN = 8

DEFAULT_KEM = "x25519"
SIG_ALGO = "ed25519"


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _key_id(algo: str, public: bytes) -> str:
    return sha256(algo.encode() + b"|" + public).hex()[:16]


# ---------------------------------------------------------------------------
# Ed25519 on libsodium
# ---------------------------------------------------------------------------

ED25519_KEY_LEN = 32  # both the public key and the RFC 8032 seed
ED25519_SIG_LEN = 64


def _load_sodium() -> ctypes.CDLL:
    """The system libsodium, initialised, with its Ed25519 calls declared."""
    try:
        lib = ctypes.CDLL("libsodium.so.23")
    except OSError:
        from ctypes.util import find_library  # slow; only off Debian and Ubuntu
        path = find_library("sodium")
        if path is None:
            raise OSError("no libsodium shared library found") from None
        lib = ctypes.CDLL(path)
    buf, size, status = ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_int
    for name, restype, argtypes in (
            ("sodium_init", status, ()),
            ("sodium_version_string", ctypes.c_char_p, ()),
            ("crypto_sign_ed25519_seed_keypair", status, (buf, buf, buf)),
            ("crypto_sign_ed25519_detached", status,
             (buf, ctypes.c_void_p, buf, size, buf)),
            ("crypto_sign_ed25519_verify_detached", status, (buf, buf, size, buf))):
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    if lib.sodium_init() < 0:
        raise OSError("sodium_init() failed")
    return lib


try:
    _sodium = _load_sodium()
except OSError as exc:
    raise ImportError(
        f"hearthgate needs libsodium for Ed25519 ({exc}); install it with "
        "apt install libsodium23 or brew install libsodium") from exc


def sodium_version() -> str:
    """The version of the libsodium that signs and verifies."""
    return _sodium.sodium_version_string().decode()


# Every length is checked here, before any C call, so libsodium never reads
# past a buffer that a decoded message or snapshot supplied. Output buffers
# are made by calling these array types, which costs less than
# ``ctypes.create_string_buffer``, a Python function.
_KEY_BUFFER = ctypes.c_char * ED25519_KEY_LEN
_SECRET_BUFFER = ctypes.c_char * (2 * ED25519_KEY_LEN)
_SIG_BUFFER = ctypes.c_char * ED25519_SIG_LEN


def _ed25519_secret(seed: bytes) -> bytes:
    """libsodium's 64-byte signing key (seed || public key) for ``seed``."""
    if len(seed) != ED25519_KEY_LEN:
        raise ValueError(f"an Ed25519 seed is {ED25519_KEY_LEN} bytes long")
    public = _KEY_BUFFER()
    secret = _SECRET_BUFFER()
    _sodium.crypto_sign_ed25519_seed_keypair(public, secret, bytes(seed))
    return secret.raw


def _ed25519_public(key: bytes) -> bytes:
    if len(key) != ED25519_KEY_LEN:
        raise ValueError(f"an Ed25519 public key is {ED25519_KEY_LEN} bytes long")
    return bytes(key)


#: Entries in the memo of signatures made: every signature of one ``fleet``
#: benchmark iteration (1,366) three times over, at about 250 bytes each
#: besides the signed message, which the signer usually keeps anyway.
_SIGNED_ENTRIES = 4096

#: The signatures ``_ed25519_sign`` made, each mapped to the (public key,
#: message) it signed, least recently signed first.
_signed: OrderedDict[bytes, tuple[bytes, bytes]] = OrderedDict()


def _ed25519_sign(secret: bytes, message: bytes) -> bytes:
    out = _SIG_BUFFER()
    _sodium.crypto_sign_ed25519_detached(out, None, message, len(message), secret)
    signature = out.raw
    # secret is _ed25519_secret's: the seed, then the public key libsodium
    # derived from it.
    remember(_signed, signature, (secret[ED25519_KEY_LEN:], bytes(message)), _SIGNED_ENTRIES)
    return signature


def _ed25519_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    if len(signature) != ED25519_SIG_LEN:
        return False
    if _signed.get(signature) == (public, message):
        return True
    return _sodium.crypto_sign_ed25519_verify_detached(
        signature, message, len(message), public) == 0


# Key parsers of the algorithms parsed here: X25519 keys become
# ``cryptography`` objects, Ed25519 keys the bytes libsodium takes. ML-KEM
# keys are bytes to the numpy ``mlkem`` module and are never parsed here.
_PRIVATE_PARSERS = {
    "x25519": X25519PrivateKey.from_private_bytes,
    SIG_ALGO: _ed25519_secret,
}
_PUBLIC_PARSERS = {
    "x25519": X25519PublicKey.from_public_bytes,
    SIG_ALGO: _ed25519_public,
}


def _parse_key(parsers: dict, algo: str, raw: bytes):
    parser = parsers.get(algo)
    if parser is None:
        raise MalformedKey(f"no {algo} key parser")
    try:
        return parser(raw)
    except ValueError as exc:
        raise MalformedKey(str(exc)) from exc


# The derived values below are cached_property entries in the instance
# __dict__, outside the dataclass fields: equality, hashing, repr, asdict and
# every wire encoding see only the fields. A frozen instance never changes,
# so its derived values cannot go stale.

@dataclass(frozen=True)
class PublicKey:
    """The public half of a role keypair, with its algorithm and validity window."""

    role_tag: RoleTag
    algo: str
    key: bytes
    created_at: float
    ttl: float

    @cached_property
    def key_id(self) -> str:
        return _key_id(self.algo, self.key)

    @cached_property
    def parsed(self):
        """The parsed key (see ``_PUBLIC_PARSERS``), made on first use."""
        return _parse_key(_PUBLIC_PARSERS, self.algo, self.key)

    def expired(self, now: float) -> bool:
        return now > self.created_at + self.ttl


@dataclass(frozen=True)
class KeyPair:
    """A role keypair: public and secret key bytes, with their validity window."""

    role_tag: RoleTag
    algo: str
    public_key: bytes
    secret_key: bytes
    created_at: float
    ttl: float

    @cached_property
    def public(self) -> PublicKey:
        return PublicKey(self.role_tag, self.algo, self.public_key,
                         self.created_at, self.ttl)

    @cached_property
    def key_id(self) -> str:
        return _key_id(self.algo, self.public_key)

    @cached_property
    def parsed(self):
        """The parsed secret key (see ``_PRIVATE_PARSERS``), made on first
        use unless keygen stored the one it made (see :func:`_new_pair`)."""
        return _parse_key(_PRIVATE_PARSERS, self.algo, self.secret_key)

    @cached_property
    def derives_public_key(self) -> bool:
        """Whether the X25519 secret key derives ``public_key``, byte for
        byte. Parsing the secret already derived that key, so this compares."""
        return self.parsed.public_key().public_bytes_raw() == self.public_key

    def expired(self, now: float) -> bool:
        return now > self.created_at + self.ttl


def _new_pair(role_tag: RoleTag, algo: str, public: bytes, secret: bytes,
              now: float, ttl: float, parsed) -> KeyPair:
    """A pair holding ``parsed``, the parsed secret key keygen already made."""
    pair = KeyPair(role_tag, algo, public, secret, now, ttl)
    if parsed is not None:
        pair.__dict__["parsed"] = parsed  # fills the cached_property
    return pair


def _ensure_fresh(key: KeyPair | PublicKey, now: float) -> None:
    if key.expired(now):
        raise KeyExpired(
            f"{key.algo} key for {key.role_tag.name} expired "
            f"(created {key.created_at}, ttl {key.ttl}, now {now})"
        )


# ---------------------------------------------------------------------------
# KEM backends
# ---------------------------------------------------------------------------

#: Entries in the memo of X25519 encapsulations made: every encapsulation of
#: one ``fleet`` benchmark iteration (1,766) twice over, at about 250 bytes
#: each with the encapsulation and the key.
_ENCAPSULATED_ENTRIES = 4096

#: The AEAD keys ``_X25519Backend.encaps`` derived, each under the
#: (encapsulation, recipient public key) it derived it for, least recently
#: encapsulated first. These are per-message keys, kept in memory only.
_encapsulated: OrderedDict[tuple[bytes, bytes], bytes] = OrderedDict()


class _X25519Backend:
    """ECIES-style KEM: ephemeral X25519 exchange, HKDF-free SHA-256 KDF."""

    name = "x25519"

    def keygen(self, rng: Rng) -> tuple[bytes, bytes, X25519PrivateKey]:
        secret = rng.bytes(32)
        sk = X25519PrivateKey.from_private_bytes(secret)
        pk = sk.public_key().public_bytes_raw()
        return pk, secret, sk

    def encaps(self, peer: PublicKey, rng: Rng) -> tuple[bytes, bytes]:
        peer_key = peer.parsed  # a malformed key fails before any RNG draw
        eph_secret = rng.bytes(32)
        eph = X25519PrivateKey.from_private_bytes(eph_secret)
        encapsulation = eph.public_key().public_bytes_raw()
        raw = eph.exchange(peer_key)  # a low-order peer raises: no entry
        shared = self._kdf(raw, encapsulation, peer.key)
        remember(_encapsulated, (encapsulation, peer.key), shared, _ENCAPSULATED_ENTRIES)
        return encapsulation, shared

    def decaps(self, pair: KeyPair, encapsulation: bytes) -> bytes:
        shared = _encapsulated.get((encapsulation, pair.public_key))
        if shared is not None and pair.derives_public_key:
            return shared
        try:
            eph_pub = X25519PublicKey.from_public_bytes(encapsulation)
        except ValueError as exc:
            raise MalformedKey(str(exc)) from exc
        raw = pair.parsed.exchange(eph_pub)
        return self._kdf(raw, encapsulation, pair.public_key)

    @staticmethod
    def _kdf(raw: bytes, encapsulation: bytes, recipient_public: bytes) -> bytes:
        # Bind the derived key to both the ephemeral and recipient keys.
        return sha256(b"hearthgate-kem-v1|" + raw + encapsulation + recipient_public)


def _mlkem():
    # Imported on first use: ``mlkem`` needs numpy, which costs about as much
    # to import as all of hearthgate, and only ML-KEM keys use it.
    from . import mlkem
    return mlkem


class _MlKem512Backend:
    name = "ml-kem-512"

    def keygen(self, rng: Rng) -> tuple[bytes, bytes, None]:
        return (*_mlkem().keygen(rng.bytes(64)), None)

    def encaps(self, peer: PublicKey, rng: Rng) -> tuple[bytes, bytes]:
        try:
            _mlkem().check_encapsulation_key(peer.key)  # fail before any RNG draw
            return _mlkem().encaps(peer.key, rng.bytes(32))
        except ValueError as exc:
            raise MalformedKey(str(exc)) from exc

    def decaps(self, pair: KeyPair, encapsulation: bytes) -> bytes:
        # The decapsulation key embeds the public key; no need to pass it.
        try:
            return _mlkem().decaps(pair.secret_key, encapsulation)
        except ValueError as exc:
            raise MalformedKey(str(exc)) from exc


_KEM_BACKENDS = {
    "x25519": _X25519Backend(),
    "ml-kem-512": _MlKem512Backend(),
}


def kem_backend(name: str):
    try:
        return _KEM_BACKENDS[name]
    except KeyError:
        raise MalformedKey(f"unknown KEM backend {name!r}") from None


def check_public_key(public: PublicKey, algo: str, now: float) -> None:
    """Recognise a peer's public key before any use: MalformedKey unless it is
    an ``algo`` key its parser accepts (for ML-KEM, one passing FIPS 203's
    length and modulus checks), KeyExpired if it expired at ``now``."""
    if public.algo != algo:
        raise MalformedKey(f"expected a {algo} key, got {public.algo!r}")
    _ensure_fresh(public, now)
    if algo in _PUBLIC_PARSERS:
        public.parsed  # raises MalformedKey unless the key parses
        return
    try:  # ML-KEM; fills the cache the key's encapsulations then read
        _mlkem().check_encapsulation_key(public.key)
    except ValueError as exc:
        raise MalformedKey(str(exc)) from exc


def kem_keygen(role_tag: RoleTag, ttl: float, rng: Rng, now: float,
               algo: str = DEFAULT_KEM) -> KeyPair:
    """Generate an ephemeral KEM pair for one role relationship."""
    if ttl <= 0:
        raise ValueError("ttl must be positive")
    public, secret, parsed = kem_backend(algo).keygen(rng)
    return _new_pair(role_tag, algo, public, secret, now, ttl, parsed)


def sig_keygen(role_tag: RoleTag, ttl: float, rng: Rng, now: float) -> KeyPair:
    """Generate the companion Ed25519 signing pair for a role."""
    if ttl <= 0:
        raise ValueError("ttl must be positive")
    seed = rng.bytes(ED25519_KEY_LEN)
    secret = _ed25519_secret(seed)
    return _new_pair(role_tag, SIG_ALGO, secret[ED25519_KEY_LEN:], seed, now,
                     ttl, secret)


@dataclass(frozen=True)
class RolePublic:
    """The public halves of a role's KEM and signing pairs, as exchanged."""

    kem: PublicKey
    sig: PublicKey


@dataclass(frozen=True)
class RoleKeys:
    """KEM pair plus companion signing pair, exchanged as one bundle."""

    kem: KeyPair
    sig: KeyPair

    @property
    def public(self) -> RolePublic:
        return RolePublic(self.kem.public, self.sig.public)


def generate_role_keys(role_tag: RoleTag, ttl: float, rng: Rng, now: float,
                       kem_algo: str = DEFAULT_KEM) -> RoleKeys:
    return RoleKeys(
        kem=kem_keygen(role_tag, ttl, rng, now, algo=kem_algo),
        sig=sig_keygen(role_tag, ttl, rng, now),
    )


# ---------------------------------------------------------------------------
# AEAD and hybrid encryption
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AeadBox:
    """An AES-GCM sealed payload: nonce, ciphertext body and tag."""

    nonce: bytes  # 12 bytes
    body: bytes
    tag: bytes    # 16 bytes


def aead_seal(key: bytes, plaintext: bytes, rng: Rng, aad: bytes = b"") -> AeadBox:
    if len(key) != 32:
        raise MalformedKey("AEAD key must be 32 bytes")
    nonce = rng.bytes(AEAD_NONCE_LEN)
    sealed = AESGCM(key).encrypt(nonce, plaintext, aad)
    return AeadBox(nonce=nonce, body=sealed[:-AEAD_TAG_LEN], tag=sealed[-AEAD_TAG_LEN:])


def aead_open(key: bytes, box: AeadBox, aad: bytes = b"") -> bytes:
    if len(key) != 32:
        raise MalformedKey("AEAD key must be 32 bytes")
    try:
        return AESGCM(key).decrypt(box.nonce, box.body + box.tag, aad)
    except InvalidTag as exc:
        raise DecryptionFailure("AEAD authentication failed") from exc


@dataclass(frozen=True)
class HybridCiphertext:
    """A KEM encapsulation plus the AEAD box keyed by its shared secret."""

    encapsulation: bytes
    aead_nonce: bytes
    body: bytes
    auth_tag: bytes
    # Recipient KEM key id (KEY_ID_LEN bytes), a routing hint in the clear.
    # Only top-level message frames carry it; the canonical ciphertext bytes
    # that get signed do not, so it takes no part in equality.
    key_id: bytes = field(default=b"", compare=False)


def hybrid_encrypt(public: PublicKey, plaintext: bytes, rng: Rng,
                   now: float) -> HybridCiphertext:
    """Encrypt to a KEM public key: encapsulate, then AEAD under the shared secret."""
    if not plaintext:
        raise ValueError("plaintext must be nonempty")
    _ensure_fresh(public, now)
    encapsulation, shared = kem_backend(public.algo).encaps(public, rng)
    box = aead_seal(shared, plaintext, rng, aad=encapsulation)
    return HybridCiphertext(encapsulation, box.nonce, box.body, box.tag,
                            key_id=bytes.fromhex(public.key_id))


def hybrid_decrypt(pair: KeyPair, ciphertext: HybridCiphertext,
                   now: float) -> bytes:
    _ensure_fresh(pair, now)
    try:
        shared = kem_backend(pair.algo).decaps(pair, ciphertext.encapsulation)
        box = AeadBox(ciphertext.aead_nonce, ciphertext.body, ciphertext.auth_tag)
        return aead_open(shared, box, aad=ciphertext.encapsulation)
    except (MalformedKey, DecryptionFailure, ValueError) as exc:
        raise DecryptionFailure(f"hybrid decryption failed: {exc}") from exc


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    """An Ed25519 signature tagged with the signer's role."""

    signer_tag: RoleTag
    value: bytes


def sign(pair: KeyPair, message: bytes, now: float) -> Signature:
    if pair.algo != SIG_ALGO:
        raise MalformedKey(f"cannot sign with a {pair.algo} key")
    _ensure_fresh(pair, now)
    return Signature(signer_tag=pair.role_tag,
                     value=_ed25519_sign(pair.parsed, message))


def verify(public: PublicKey, message: bytes, signature: Signature,
           now: float) -> bool:
    if public.algo != SIG_ALGO:
        raise MalformedKey(f"cannot verify with a {public.algo} key")
    _ensure_fresh(public, now)
    if signature.signer_tag != public.role_tag:
        return False
    return _ed25519_verify(public.parsed, message, signature.value)


# ---------------------------------------------------------------------------
# One-time tokens (HOTP/TOTP, 8 digits, SHA-1, 30 s step)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransientToken:
    """A TOTP code and the time step it was issued in."""

    digits: str
    issued_step: int


def hotp(secret: bytes, counter: int, digits: int = TOTP_DIGITS) -> str:
    mac = hmac.new(secret, struct.pack(">Q", counter), hashlib.sha1).digest()
    offset = mac[-1] & 0x0F
    code = struct.unpack(">I", mac[offset:offset + 4])[0] & 0x7FFFFFFF
    return str(code % 10 ** digits).zfill(digits)


def totp_generate(secret: bytes, now: float, step: int = TOTP_STEP) -> TransientToken:
    """One-time token for the 30-second step containing ``now``."""
    step_index = int(now // step)
    return TransientToken(digits=hotp(secret, step_index), issued_step=step_index)


def totp_verify(secret: bytes, digits: str, now: float, step: int = TOTP_STEP) -> bool:
    """Strict single-step check: valid only in the step containing ``now``.

    No step skew is allowed; a wider window would stretch the brute-force
    exposure the short validity is meant to bound.
    """
    if not isinstance(digits, str) or len(digits) != TOTP_DIGITS or not digits.isdigit():
        return False
    expected = totp_generate(secret, now, step).digits
    return hmac.compare_digest(expected, digits)


# ---------------------------------------------------------------------------
# Random values and identifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Nonce:
    """A random 16-byte protocol nonce."""

    value: bytes  # 16 bytes

    @property
    def hex(self) -> str:
        return self.value.hex()


@dataclass(frozen=True)
class PseudoUuid:
    """A device instance's random 16-byte identifier."""

    value: bytes  # 16 bytes, stable for a device instance

    @property
    def hex(self) -> str:
        return self.value.hex()


@dataclass(frozen=True)
class LinkKey:
    """Symmetric key pre-provisioned between authenticator and device."""

    value: bytes  # 32 bytes

    @property
    def key_id(self) -> str:
        return _key_id("link", self.value)


def gen_nonce(rng: Rng) -> Nonce:
    return Nonce(rng.bytes(NONCE_LEN))


def gen_pseudo_uuid(rng: Rng) -> PseudoUuid:
    return PseudoUuid(rng.bytes(UUID_LEN))


def gen_long_lived_token(rng: Rng) -> bytes:
    """The 32-byte device token issued at registration."""
    return rng.bytes(DEVICE_TOKEN_LEN)


def gen_link_key(rng: Rng) -> LinkKey:
    return LinkKey(rng.bytes(LINK_KEY_LEN))


def gen_totp_secret(rng: Rng) -> bytes:
    return rng.bytes(TOTP_SECRET_LEN)
