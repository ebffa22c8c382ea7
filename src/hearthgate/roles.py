"""Protocol state machines: authenticator, device, and server.

The flow follows the onboarding sequence end to end: mutual authentication
between authenticator and server over the secure path, transient-token
issue, device provisioning over the pre-shared link key, registration over
the public path, activation (ledger write first, then the key delivery),
data reporting, and revocation.

Handlers return :class:`Outgoing` messages for the runner to route instead
of touching channels directly, which keeps each role unit-testable. Message
handlers reject by raising: their :func:`_traced` decorator records each
``ProtocolError`` or ``CryptoError`` once, as one rejection event.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from . import channels as ch
from . import crypto, wire
from .channels import Atom, Enc, Secret, SigT, Term, Trace, Tup
from .crypto import (
    DecryptionFailure,
    KeyExpired,
    LinkKey,
    RoleKeys,
    RolePublic,
    RoleTag,
)
from .ledger import ChannelName, LedgerError, LedgerNetwork, OrgIdentity, make_transaction
from .payloads import DataEntry, DeviceRecord, DeviceStatus, Payload
from .runtime import Rng


class ProtocolError(Exception):
    """Protocol-level rejection; subclasses name the error codes. ``fields``
    fill its trace event, ``detail`` defaulting to the message (None omits it)."""

    def __init__(self, message: str | None = None, **fields: str | None):
        super().__init__(*(() if message is None else (message,)))
        fields.setdefault("detail", message)
        self.fields = {k: v for k, v in fields.items() if v is not None}


class SignatureInvalid(ProtocolError):
    pass


class NonceMismatch(ProtocolError):
    pass


class NoSession(ProtocolError):
    pass


class NotProvisioned(ProtocolError):
    pass


class LinkKeyMismatch(ProtocolError):
    pass


class TokenExpired(ProtocolError):
    pass


class TokenUnknown(ProtocolError):
    pass


class Malformed(ProtocolError):
    pass


class LedgerRejected(ProtocolError):
    pass


class UnknownDevice(ProtocolError):
    pass


class RevokedDevice(ProtocolError):
    pass


class TokenMismatch(ProtocolError):
    pass


class AlreadyRevoked(ProtocolError):
    pass


class AuthPhase(Enum):
    IDLE = "idle"
    SESSION_ESTABLISHED = "session_established"
    AWAITING_TOKEN = "awaiting_token"
    TOKEN_FORWARDED = "token_forwarded"
    DEVICE_CONNECTED = "device_connected"


class DevicePhase(Enum):
    UNPROVISIONED = "unprovisioned"
    PROVISIONED = "provisioned"
    REQUEST_SENT = "request_sent"
    ACTIVE = "active"


@dataclass(frozen=True)
class Outgoing:
    """A message a role sends: path, destination, wire message and symbolic term."""

    path: str  # "public" | "secure"
    dst: str
    message: wire.Message
    term: Term | None = None
    src: str = "server"


# -- symbolic term helpers ---------------------------------------------------

def bundle_atom(public: RolePublic) -> Atom:
    return Atom(f"bundle:{public.kem.key_id}")


def uid_atom(uid_hex: str) -> Atom:
    return Atom(f"uid:{uid_hex}")


def token_secret(session_id: str, digits: str) -> Secret:
    return Secret(f"token:{session_id}:{digits}")


def device_token_secret(token: bytes) -> Secret:
    return Secret(f"devtoken:{crypto.sha256(token).hex()[:16]}")


def activation_term(token: bytes, server_device_public: RolePublic) -> Tup:
    return Tup((device_token_secret(token), bundle_atom(server_device_public)))


def _digest8(data: bytes) -> str:
    return crypto.sha256(data).hex()[:16]


def _traced(kind: str):
    """Decorate a role's message handler: record a ProtocolError or CryptoError
    it raises once, as ``kind`` with ``error=<class name>``, and re-raise it."""
    def decorate(handler):
        @functools.wraps(handler)
        def traced(self, *args, **kwargs):
            try:
                return handler(self, *args, **kwargs)
            except (ProtocolError, crypto.CryptoError) as exc:
                self.trace.record(self.name, kind, error=type(exc).__name__,
                                  **getattr(exc, "fields", {"detail": str(exc)}))
                raise
        return traced
    return decorate


# ---------------------------------------------------------------------------
# Authenticator
# ---------------------------------------------------------------------------

class Authenticator:
    """The user's handheld device mediating between user, device, and server."""

    def __init__(self, rng: Rng, clock, trace: Trace, name: str = "authenticator",
                 kem_algo: str = crypto.DEFAULT_KEM, key_ttl: float = 86_400.0):
        self.rng = rng
        self.clock = clock
        self.trace = trace
        self.name = name
        self.kem_algo = kem_algo
        self.key_ttl = key_ttl
        self.phase = AuthPhase.IDLE
        self.keys: RoleKeys | None = None
        self.server_public: RolePublic | None = None
        self.link_keys: dict[str, LinkKey] = {}
        self._pending_nonce: bytes | None = None
        # Transient-token material held between delivery and provisioning.
        self._token_digits: str | None = None
        self._api_address: str | None = None
        self._session_id: str | None = None

    def provision_link_key(self, device_name: str, link_key: LinkKey) -> None:
        self.link_keys[device_name] = link_key

    def login(self) -> wire.SessionHello:
        """Fresh ephemeral keys at login; expired keys force a re-login."""
        now = self.clock.now()
        self.keys = crypto.generate_role_keys(RoleTag.AUTH_FOR_SERVER,
                                              self.key_ttl, self.rng, now,
                                              kem_algo=self.kem_algo)
        return wire.SessionHello(self.keys.public)

    def handle_session_hello(self, msg: wire.SessionHello) -> None:
        now = self.clock.now()
        if msg.public.kem.expired(now) or msg.public.sig.expired(now):
            raise KeyExpired("server presented an expired key bundle")
        self.server_public = msg.public

    def handle_nonce_challenge(self, msg: wire.NonceChallenge) -> wire.NonceResponse:
        """Sign the server's nonce, then encrypt the signature to the server."""
        now = self.clock.now()
        if self.keys is None or self.server_public is None:
            raise NoSession("login incomplete")
        signature = crypto.sign(self.keys.sig, msg.nonce, now)
        ct = crypto.hybrid_encrypt(self.server_public.kem,
                                   wire.SIGNATURE.encode(signature),
                                   self.rng, now)
        return wire.NonceResponse(ct)

    def challenge_server(self) -> wire.NonceChallenge:
        if self.keys is None or self.server_public is None:
            raise NoSession("login incomplete")
        nonce = crypto.gen_nonce(self.rng)
        self._pending_nonce = nonce.value
        return wire.NonceChallenge(nonce.value)

    def handle_server_nonce_response(self, msg: wire.NonceResponse,
                                     session_id: str) -> None:
        now = self.clock.now()
        if self._pending_nonce is None:
            raise NonceMismatch("no outstanding challenge")
        try:
            raw = crypto.hybrid_decrypt(self.keys.kem, msg.ciphertext, now)
            signature = wire.SIGNATURE.decode(raw)
        except (DecryptionFailure, wire.WireError) as exc:
            raise Malformed(f"unreadable nonce response: {exc}") from exc
        if not crypto.verify(self.server_public.sig, self._pending_nonce,
                             signature, now):
            raise NonceMismatch("server signature does not cover my nonce")
        self._pending_nonce = None
        self._session_id = session_id
        self.phase = AuthPhase.SESSION_ESTABLISHED

    def request_token(self) -> None:
        if self.phase not in (AuthPhase.SESSION_ESTABLISHED,
                              AuthPhase.DEVICE_CONNECTED):
            raise NoSession(f"cannot request a token in phase {self.phase.value}")
        self.phase = AuthPhase.AWAITING_TOKEN

    def handle_token_delivery(self, msg: wire.TokenDelivery) -> None:
        now = self.clock.now()
        if self.phase is not AuthPhase.AWAITING_TOKEN:
            raise NoSession(f"unexpected token delivery in phase {self.phase.value}")
        try:
            raw = crypto.hybrid_decrypt(self.keys.kem, msg.ciphertext, now)
            digits, api = wire.TOKEN_PAYLOAD.decode(raw)
        except (DecryptionFailure, wire.WireError) as exc:
            raise Malformed(f"unreadable token delivery: {exc}") from exc
        self._token_digits = digits
        self._api_address = api

    def build_provision(self, device_name: str) -> wire.DeviceProvision:
        """Package (api address, server keys, encrypted token, signature) for
        the device under the shared link key."""
        now = self.clock.now()
        if self.phase is not AuthPhase.AWAITING_TOKEN or self._token_digits is None:
            raise NoSession("no token in hand to forward")
        link = self.link_keys.get(device_name)
        if link is None:
            raise LinkKeyMismatch(f"no link key provisioned for {device_name}")
        encrypted_token = crypto.hybrid_encrypt(self.server_public.kem,
                                                self._token_digits.encode(),
                                                self.rng, now)
        signature = crypto.sign(self.keys.sig, wire.encode_hybrid(encrypted_token),
                                now)
        payload = wire.PROVISION_PAYLOAD.encode((
            self._api_address, self.server_public, encrypted_token, signature))
        box = crypto.aead_seal(link.value, payload, self.rng)
        self._token_digits = None
        self._api_address = None
        self.phase = AuthPhase.TOKEN_FORWARDED
        return wire.DeviceProvision(box)

    @_traced(ch.MESSAGE_REJECTED)
    def handle_connected_notice(self, msg: wire.ConnectedNotice) -> None:
        now = self.clock.now()
        try:
            raw = crypto.hybrid_decrypt(self.keys.kem, msg.ciphertext, now)
            uid = wire.decode_connected_payload(raw)
        except (DecryptionFailure, wire.WireError) as exc:
            raise Malformed(f"unreadable connected notice: {exc}") from exc
        if self.phase is not AuthPhase.TOKEN_FORWARDED:
            raise NoSession(f"unexpected notice in phase {self.phase.value}")
        self.phase = AuthPhase.DEVICE_CONNECTED
        self.trace.record(self.name, ch.CONNECTED_NOTICE, uid=uid.hex())

    def build_revocation(self, uid_hex: str) -> wire.RevocationRequest:
        now = self.clock.now()
        if self.phase is AuthPhase.IDLE or self.server_public is None:
            raise NoSession("no established session for revocation")
        payload = wire.REVOCATION_PAYLOAD.encode((wire.REVOKE_VERB,
                                                  bytes.fromhex(uid_hex)))
        ct = crypto.hybrid_encrypt(self.server_public.kem, payload, self.rng, now)
        return wire.RevocationRequest(ct)


# ---------------------------------------------------------------------------
# Device
# ---------------------------------------------------------------------------

class Device:
    """An IoT device: provisioned over the link key, registered over the
    public path, then reporting data under its long-lived token."""

    def __init__(self, rng: Rng, clock, trace: Trace, link_key: LinkKey,
                 name: str = "device-1", kem_algo: str = crypto.DEFAULT_KEM,
                 key_ttl: float = 86_400.0, max_retries: int = 1):
        self.rng = rng
        self.clock = clock
        self.trace = trace
        self.name = name
        self.link_key = link_key
        self.kem_algo = kem_algo
        self.key_ttl = key_ttl
        self.phase = DevicePhase.UNPROVISIONED
        self.uid = crypto.gen_pseudo_uuid(rng)  # stable for this instance
        self.keys: RoleKeys | None = None
        self.retries_left = max_retries
        # Provisioned material.
        self.api_address: str | None = None
        self.server_public: RolePublic | None = None
        self._encrypted_token: crypto.HybridCiphertext | None = None
        self._token_signature: crypto.Signature | None = None
        self._token_term: Term | None = None
        # Activation material.
        self.device_token: bytes | None = None
        self.server_device_public: RolePublic | None = None

    def receive_provision(self, msg: wire.DeviceProvision,
                          token_term: Term | None = None) -> None:
        now = self.clock.now()
        if self.phase is not DevicePhase.UNPROVISIONED:
            raise Malformed(f"provision in phase {self.phase.value}")
        try:
            raw = crypto.aead_open(self.link_key.value, msg.box)
        except DecryptionFailure as exc:
            raise LinkKeyMismatch(str(exc)) from exc
        try:
            api, server_public, encrypted_token, signature = \
                wire.PROVISION_PAYLOAD.decode(raw)
        except wire.WireError as exc:
            raise Malformed(f"bad provision payload: {exc}") from exc
        self.api_address = api
        self.server_public = server_public
        self._encrypted_token = encrypted_token
        self._token_signature = signature
        self._token_term = token_term
        self.keys = crypto.generate_role_keys(RoleTag.DEVICE_FOR_SERVER,
                                              self.key_ttl, self.rng, now,
                                              kem_algo=self.kem_algo)
        self.phase = DevicePhase.PROVISIONED
        self.trace.record(self.name, ch.DEVICE_PROVISIONED, uid=self.uid.hex)

    def _request_term(self) -> Term:
        server_kid = self.server_public.kem.key_id
        token_t = self._token_term if self._token_term is not None else \
            Secret(f"token:opaque:{_digest8(wire.encode_hybrid(self._encrypted_token))}")
        enc_token_t = Enc(server_kid, token_t)
        return Enc(server_kid, Tup((
            bundle_atom(self.keys.public),
            uid_atom(self.uid.hex),
            enc_token_t,
            SigT(self._token_signature.signer_tag.name, enc_token_t),
        )))

    def _registration_request(self, **trace_fields: str) -> Outgoing:
        payload = wire.REGISTRATION_PAYLOAD.encode((
            self.keys.public, self.uid.value, self._encrypted_token,
            self._token_signature))
        ct = crypto.hybrid_encrypt(self.server_public.kem, payload, self.rng,
                                   self.clock.now())
        self.phase = DevicePhase.REQUEST_SENT
        self.trace.record(self.name, ch.DEVICE_REQUEST_SENT, uid=self.uid.hex,
                          **trace_fields)
        return Outgoing("public", "server", wire.RegistrationRequest(ct),
                        self._request_term(), src=self.name)

    def build_registration_request(self) -> Outgoing:
        if self.phase is not DevicePhase.PROVISIONED:
            raise NotProvisioned(f"cannot register in phase {self.phase.value}")
        return self._registration_request()

    def wants_retry(self) -> bool:
        return self.phase is DevicePhase.REQUEST_SENT and self.retries_left > 0

    def retry_request(self) -> Outgoing:
        """Re-send the registration request after silence; extension beyond the
        base flow, bounded by the configured retry budget."""
        if not self.wants_retry():
            raise NotProvisioned("no retry budget or wrong phase")
        self.retries_left -= 1
        return self._registration_request(retry=str(self.retries_left))

    @_traced(ch.ACTIVATION_REJECTED)
    def handle_activation(self, msg: wire.ActivationResponse) -> None:
        now = self.clock.now()
        if self.phase is not DevicePhase.REQUEST_SENT:
            raise Malformed(f"activation in phase {self.phase.value}",
                            detail=f"phase {self.phase.value}")
        try:
            raw = crypto.hybrid_decrypt(self.keys.kem, msg.ciphertext, now)
            token, server_device_public = wire.ACTIVATION_PAYLOAD.decode(raw)
        except (DecryptionFailure, wire.WireError) as exc:
            raise Malformed(f"unreadable activation: {exc}",
                            detail="undecryptable") from exc
        try:
            crypto.check_public_key(server_device_public.kem, self.kem_algo, now)
            crypto.check_public_key(server_device_public.sig, crypto.SIG_ALGO, now)
        except crypto.CryptoError as exc:
            raise Malformed(f"unusable server keys: {exc}") from exc
        self.device_token = token
        self.server_device_public = server_device_public
        self.phase = DevicePhase.ACTIVE
        self.trace.record(self.name, ch.DEVICE_ACTIVATED, uid=self.uid.hex)

    def build_data_report(self, metric: str, value: float, unit: str) -> Outgoing:
        now = self.clock.now()
        if self.phase is not DevicePhase.ACTIVE:
            raise NotProvisioned(f"cannot report data in phase {self.phase.value}")
        payload = wire.DATA_PAYLOAD.encode((self.uid.value, metric, value, unit,
                                            self.device_token))
        ct = crypto.hybrid_encrypt(self.server_device_public.kem, payload,
                                   self.rng, now)
        term = Enc(self.server_device_public.kem.key_id, Tup((
            uid_atom(self.uid.hex),
            Atom(f"reading:{metric}={value!r}"),
            device_token_secret(self.device_token),
        )))
        return Outgoing("public", "server", wire.DataReport(ct), term,
                        src=self.name)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

@dataclass
class Session:
    """The server's state for one authenticator session: keys, peer keys and nonce."""

    session_id: str
    keys: RoleKeys
    auth_public: RolePublic
    nonce_hex: str                  # the nonce that named this session
    pending_nonce: bytes | None
    established: bool = False


@dataclass
class PendingRegistration:
    """A transient token the server issued to a session, and whether it was used."""

    secret: bytes
    session_id: str
    issued_digits: str
    issued_step: int
    consumed: bool = False


@dataclass
class RegistryEntry:
    """A device the server registered: its keys, device token and status."""

    uid_hex: str
    device_public: RolePublic
    server_keys: RoleKeys
    device_token: bytes | None
    status: DeviceStatus
    activation_term: Term


# The API address a server hands out with each transient token.
API_ADDRESS = "https://home.example/api"


class Server:
    """Analytics-provider backend: sessions, registrations, registry, CRL,
    and the gateway to the ledger."""

    def __init__(self, rng: Rng, clock, trace: Trace, network: LedgerNetwork,
                 identity: OrgIdentity, kem_algo: str = crypto.DEFAULT_KEM,
                 key_ttl: float = 86_400.0, totp_step: int = crypto.TOTP_STEP):
        self.rng = rng
        self.clock = clock
        self.trace = trace
        self.network = network
        self.identity = identity
        self.api_address = API_ADDRESS
        self.kem_algo = kem_algo
        self.key_ttl = key_ttl
        self.totp_step = totp_step
        self.name = "server"
        self.sessions: dict[str, Session] = {}
        self.pending: list[PendingRegistration] = []
        self.registry: dict[str, RegistryEntry] = {}
        # Recipient KEM key id -> the established session or registry entry
        # holding that key. A ciphertext names its key, so it is decrypted
        # once, with that key alone.
        self.routes: dict[bytes, Session | RegistryEntry] = {}
        self.crl: set[bytes] = set()
        self.used_nonces: set[str] = set()
        self._session_counter = 0

    # -- session establishment -------------------------------------------------

    def accept_session(self, hello: wire.SessionHello) -> tuple[str, list[wire.Message]]:
        now = self.clock.now()
        if hello.public.kem.expired(now) or hello.public.sig.expired(now):
            raise KeyExpired("authenticator presented an expired key bundle")
        keys = crypto.generate_role_keys(RoleTag.SERVER_FOR_AUTH, self.key_ttl,
                                         self.rng, now, kem_algo=self.kem_algo)
        nonce = crypto.gen_nonce(self.rng)
        if nonce.hex in self.used_nonces:
            raise NonceMismatch("nonce reuse detected at issue time")
        self.used_nonces.add(nonce.hex)
        session_id = f"session-{self._session_counter}"
        self._session_counter += 1
        self.sessions[session_id] = Session(
            session_id=session_id, keys=keys, auth_public=hello.public,
            nonce_hex=nonce.hex, pending_nonce=nonce.value)
        return session_id, [wire.SessionHello(keys.public),
                            wire.NonceChallenge(nonce.value)]

    def handle_nonce_response(self, session_id: str, msg: wire.NonceResponse) -> None:
        now = self.clock.now()
        session = self.sessions.get(session_id)
        if session is None:
            raise NoSession(f"unknown session {session_id}")
        if session.pending_nonce is None:
            raise NonceMismatch("no outstanding nonce for this session")
        try:
            raw = crypto.hybrid_decrypt(session.keys.kem, msg.ciphertext, now)
            signature = wire.SIGNATURE.decode(raw)
        except (DecryptionFailure, wire.WireError) as exc:
            raise Malformed(f"unreadable nonce response: {exc}") from exc
        if signature.signer_tag is not RoleTag.AUTH_FOR_SERVER:
            raise SignatureInvalid("nonce response signed by the wrong role")
        if not crypto.verify(session.auth_public.sig, session.pending_nonce,
                             signature, now):
            raise NonceMismatch("signature does not cover the outstanding nonce")
        session.pending_nonce = None

    def handle_auth_challenge(self, session_id: str,
                              msg: wire.NonceChallenge) -> wire.NonceResponse:
        now = self.clock.now()
        session = self.sessions.get(session_id)
        if session is None:
            raise NoSession(f"unknown session {session_id}")
        signature = crypto.sign(session.keys.sig, msg.nonce, now)
        ct = crypto.hybrid_encrypt(session.auth_public.kem,
                                   wire.SIGNATURE.encode(signature),
                                   self.rng, now)
        return wire.NonceResponse(ct)

    def complete_session(self, session_id: str) -> None:
        session = self.sessions[session_id]
        session.established = True
        self.routes[bytes.fromhex(session.keys.kem.key_id)] = session
        self.trace.record(self.name, ch.SESSION_ESTABLISHED,
                          session=session_id, nonce=session.nonce_hex)

    # -- token issue -------------------------------------------------------------

    def issue_transient_token(self, session_id: str) -> wire.TokenDelivery:
        now = self.clock.now()
        session = self.sessions.get(session_id)
        if session is None or not session.established:
            raise NoSession(f"no established session {session_id}")
        secret = crypto.gen_totp_secret(self.rng)
        token = crypto.totp_generate(secret, now, self.totp_step)
        self.pending.append(PendingRegistration(
            secret=secret, session_id=session_id,
            issued_digits=token.digits, issued_step=token.issued_step))
        self.trace.record(self.name, ch.TOKEN_ISSUED, token=token.digits,
                          nonce=session.nonce_hex, session=session_id)
        payload = wire.TOKEN_PAYLOAD.encode((token.digits, self.api_address))
        ct = crypto.hybrid_encrypt(session.auth_public.kem, payload, self.rng, now)
        return wire.TokenDelivery(ct)

    # -- registration ----------------------------------------------------------

    @_traced(ch.DEVICE_REQUEST_REJECTED)
    def handle_registration(self, msg: wire.RegistrationRequest,
                            reply_to: str) -> list[Outgoing]:
        """Validate a device request; on success activate the device.

        Acceptance requires usable device keys, the authenticator's signature
        over the exact encrypted-token bytes, a token inside its validity
        step, and first use of that token.
        """
        now = self.clock.now()
        session, raw = self._route(msg.ciphertext, Session, now)
        if session is None:
            raise Malformed("request not decryptable by the session key it names",
                            detail="request not decryptable")
        try:
            device_public, uid, encrypted_token, signature = \
                wire.REGISTRATION_PAYLOAD.decode(raw)
        except wire.WireError as exc:
            raise Malformed(f"bad registration payload: {exc}",
                            detail=f"bad payload: {exc}") from exc
        uid_hex = uid.hex()
        try:
            crypto.check_public_key(device_public.kem, self.kem_algo, now)
            crypto.check_public_key(device_public.sig, crypto.SIG_ALGO, now)
        except crypto.CryptoError as exc:
            raise Malformed(f"unusable device keys: {exc}", uid=uid_hex) from exc

        if not crypto.verify(session.auth_public.sig,
                             wire.encode_hybrid(encrypted_token), signature, now):
            raise SignatureInvalid(
                "token signature invalid for this session",
                detail="token signature not from session authenticator",
                uid=uid_hex)

        try:
            digits = wire.TEXT.decode(crypto.hybrid_decrypt(
                session.keys.kem, encrypted_token, now))
        except (DecryptionFailure, wire.WireError) as exc:
            raise Malformed(f"encrypted token unreadable: {exc}",
                            detail="encrypted token unreadable",
                            uid=uid_hex) from exc

        candidates = [p for p in self.pending if p.session_id == session.session_id]
        live = [p for p in candidates
                if crypto.totp_verify(p.secret, digits, now, self.totp_step)]
        if not live:
            if any(p.issued_digits == digits for p in candidates):
                raise TokenExpired(f"token outside its {self.totp_step}-second step",
                                   detail="token outside its validity step",
                                   uid=uid_hex, token=digits)
            raise TokenUnknown("token matches no pending registration",
                               uid=uid_hex, token=digits)
        reg = live[0]
        if reg.consumed:
            raise TokenUnknown("token already consumed", uid=uid_hex, token=digits)
        # Consumed before the uid check on purpose: a validated token is
        # single use whatever follows, so a rejection cannot hand it back.
        reg.consumed = True

        entry = self.registry.get(uid_hex)
        if entry is not None and entry.status is DeviceStatus.ACTIVE:
            raise Malformed(f"device {uid_hex} already registered",
                            detail="uid already active", uid=uid_hex)

        self.trace.record(self.name, ch.DEVICE_REQUEST_ACCEPTED, uid=uid_hex,
                          token=digits, nonce=session.nonce_hex,
                          sig=_digest8(signature.value))
        return self._activate_device(session, device_public, uid_hex, digits,
                                     reply_to, now)

    def _route(self, ciphertext, kind, now):
        """Decrypt with the key the ciphertext's key id names, if a ``kind``
        (Session or RegistryEntry) holds it. Returns (holder, plaintext), or
        (None, None) when the key is unknown, of the other kind, expired, or
        does not open the ciphertext."""
        holder = self.routes.get(ciphertext.key_id)
        if not isinstance(holder, kind):
            return None, None
        keys = holder.keys if kind is Session else holder.server_keys
        try:
            return holder, crypto.hybrid_decrypt(keys.kem, ciphertext, now)
        except (DecryptionFailure, KeyExpired):
            return None, None

    def _activate_device(self, session: Session, device_public: RolePublic,
                         uid_hex: str, digits: str, reply_to: str,
                         now: float) -> list[Outgoing]:
        """Ledger write first; only a committed record activates the device."""
        device_token = crypto.gen_long_lived_token(self.rng)
        server_keys = crypto.generate_role_keys(RoleTag.SERVER_FOR_DEVICE,
                                                self.key_ttl, self.rng, now,
                                                kem_algo=self.kem_algo)
        term = activation_term(device_token, server_keys.public)
        entry = RegistryEntry(
            uid_hex=uid_hex, device_public=device_public,
            server_keys=server_keys, device_token=device_token,
            status=DeviceStatus.ACTIVE, activation_term=term)
        self._commit_record(entry, session.auth_public, DeviceStatus.ACTIVE, now)
        replaced = self.registry.get(uid_hex)
        if replaced is not None:  # a revoked uid registering again
            del self.routes[bytes.fromhex(replaced.server_keys.kem.key_id)]
        self.registry[uid_hex] = entry
        self.routes[bytes.fromhex(server_keys.kem.key_id)] = entry
        self.trace.record(self.name, ch.REGISTRATION_SUCCESS, uid=uid_hex,
                          token=digits, nonce=session.nonce_hex)
        self.trace.record(self.name, ch.KEYPAIR_DELIVERED, uid=uid_hex,
                          key=server_keys.kem.key_id)

        activation = wire.ActivationResponse(crypto.hybrid_encrypt(
            device_public.kem,
            wire.ACTIVATION_PAYLOAD.encode((device_token, server_keys.public)),
            self.rng, now))
        notice = wire.ConnectedNotice(crypto.hybrid_encrypt(
            session.auth_public.kem,
            wire.encode_connected_payload(bytes.fromhex(uid_hex)),
            self.rng, now))
        return [
            Outgoing("public", reply_to, activation,
                     Enc(device_public.kem.key_id, term)),
            Outgoing("secure", session.session_id, notice),
        ]

    def _commit_record(self, entry: RegistryEntry, auth_public: RolePublic,
                       status: DeviceStatus, now: float) -> None:
        """Record ``entry`` with ``status`` on the identity channel."""
        record = DeviceRecord(
            device_token=entry.device_token,
            server_device_public=wire.ROLE_PUBLIC.encode(entry.server_keys.public),
            device_public=wire.ROLE_PUBLIC.encode(entry.device_public),
            auth_public=wire.ROLE_PUBLIC.encode(auth_public),
            device_uid=bytes.fromhex(entry.uid_hex),
            status=status,
            timestamp=now,
        )
        self._submit(ChannelName.IDENTITY, record, now, entry.uid_hex,
                     status=status.value)

    def _submit(self, channel: ChannelName, payload: Payload, now: float,
                uid_hex: str, **commit_fields: str) -> None:
        """Commit one payload to the ledger; a refusal raises LedgerRejected.
        A risk hook that fails once the payload's block committed is recorded
        on the commit as ``hook_error``: the payload is on the chain."""
        try:
            tx = make_transaction(channel, payload, self.identity, now)
            seq = self.network.submit(tx, now)
        except LedgerError as exc:
            raise LedgerRejected(str(exc), uid=uid_hex) from exc
        try:
            self.network.settle()
        except Exception as exc:
            if self.network.receipt(seq) is not None:
                commit_fields["hook_error"] = f"{type(exc).__name__}: {exc}"
            elif isinstance(exc, LedgerError):
                raise LedgerRejected(str(exc), uid=uid_hex) from exc
            else:
                raise
        self.trace.record(self.name, ch.LEDGER_COMMIT, channel=channel.value,
                          height=str(self.network.receipt(seq).height),
                          uid=uid_hex, **commit_fields)

    # -- data ingestion -----------------------------------------------------------

    @_traced(ch.DATA_REJECTED)
    def handle_data_report(self, msg: wire.DataReport) -> None:
        now = self.clock.now()
        entry, raw = self._route(msg.ciphertext, RegistryEntry, now)
        if entry is None:
            raise Malformed("report not decryptable by the device key it names",
                            detail="report not decryptable")
        try:
            uid, metric, value, unit, token = wire.DATA_PAYLOAD.decode(raw)
        except wire.WireError as exc:
            raise Malformed(f"bad data payload: {exc}", detail="bad payload") from exc
        uid_hex = uid.hex()
        registered = self.registry.get(uid_hex)
        if registered is None:
            raise UnknownDevice(f"no registered device {uid_hex}", detail=None,
                                uid=uid_hex)
        if (registered.status is DeviceStatus.DEACTIVATED
                or registered.device_public.kem.key in self.crl):
            raise RevokedDevice(f"device {uid_hex} is revoked", detail=None,
                                uid=uid_hex)
        if registered.device_token != token:
            raise TokenMismatch("long-lived token does not match the registry",
                                detail=None, uid=uid_hex)

        payload = DataEntry(
            device_uid=uid, metric=metric, value=value, unit=unit, timestamp=now,
            device_public_ref=crypto.sha256(
                wire.ROLE_PUBLIC.encode(registered.device_public)),
        )
        self._submit(ChannelName.DATA, payload, now, uid_hex)
        self.trace.record(self.name, ch.DATA_ACCEPTED, uid=uid_hex,
                          metric=metric, value=str(value))

    # -- revocation ----------------------------------------------------------------

    @_traced(ch.REVOCATION_REJECTED)
    def handle_revocation(self, msg: wire.RevocationRequest) -> None:
        now = self.clock.now()
        session, raw = self._route(msg.ciphertext, Session, now)
        if session is None:
            raise Malformed("revocation not decryptable by the session key it names",
                            detail="request not decryptable")
        try:
            _, uid = wire.REVOCATION_PAYLOAD.decode(raw)
        except wire.WireError as exc:
            raise Malformed(f"bad revocation payload: {exc}",
                            detail="bad payload") from exc
        uid_hex = uid.hex()
        entry = self.registry.get(uid_hex)
        if entry is None:
            raise UnknownDevice(f"no registered device {uid_hex}", detail=None,
                                uid=uid_hex)
        if entry.status is DeviceStatus.DEACTIVATED:
            raise AlreadyRevoked(f"device {uid_hex} already revoked", detail=None,
                                 uid=uid_hex)

        self._commit_record(entry, session.auth_public, DeviceStatus.DEACTIVATED, now)
        entry.status = DeviceStatus.DEACTIVATED
        entry.device_token = None  # long-lived token invalidated
        self.crl.add(entry.device_public.kem.key)
        self.trace.record(self.name, ch.DEVICE_REVOKED, uid=uid_hex)


# ---------------------------------------------------------------------------
# Secure-path drivers
# ---------------------------------------------------------------------------

def establish_session(auth: Authenticator, server: Server,
                      h_s: ch.SecureChannel) -> str:
    """Mutual authentication over the secure path: both sides verify a
    signed, encrypted nonce. Returns the new session id."""
    h_s.send(auth.name, auth.login())
    session_id, replies = server.accept_session(h_s.recv(server.name))
    for reply in replies:
        h_s.send(server.name, reply)
    auth.handle_session_hello(h_s.recv(auth.name))
    response = auth.handle_nonce_challenge(h_s.recv(auth.name))
    h_s.send(auth.name, response)
    server.handle_nonce_response(session_id, h_s.recv(server.name))

    challenge = auth.challenge_server()
    h_s.send(auth.name, challenge)
    reply = server.handle_auth_challenge(session_id, h_s.recv(server.name))
    h_s.send(server.name, reply)
    auth.handle_server_nonce_response(h_s.recv(auth.name), session_id)
    server.complete_session(session_id)
    return session_id


def deliver_token(auth: Authenticator, server: Server, session_id: str,
                  h_s: ch.SecureChannel) -> None:
    """Token request and delivery over the secure path."""
    auth.request_token()
    h_s.send(server.name, server.issue_transient_token(session_id))
    auth.handle_token_delivery(h_s.recv(auth.name))


def provision_device(auth: Authenticator, device: Device,
                     token_term: Term | None = None) -> None:
    """Hand the provisioning package to the device over the shared link key."""
    msg = auth.build_provision(device.name)
    device.receive_provision(msg, token_term=token_term)
