"""Protocol state machines: authenticator, device, and server.

The flow follows the onboarding sequence end to end: mutual authentication
between authenticator and server over the secure path, transient-token
issue, device provisioning over the pre-shared link key, registration over
the public path, activation (ledger write first, then the key delivery),
data reporting, and revocation by the device's registering authenticator.

Both paths carry ``wire.encode`` bytes to one receive path: :func:`receive`
decodes them whole and calls the handler :data:`HANDLERS` names for (path,
receiving role, kind); anything else is one traced ``MessageRejected``.
Handlers return their replies instead of touching channels, which keeps each
role unit-testable: :func:`deliver` hands a secure-path message and each
reply straight across its channel, and the runner routes :class:`Outgoing`
messages. Every handler and message builder rejects by raising:
:func:`_traced` records each ``ProtocolError`` or ``CryptoError`` once, as
one rejection event.

Each received input is recognised whole, by one helper, before a handler
acts on it: :func:`_open` and ``Server._receive`` (routed by key id) decrypt
and decode, :func:`_check_bundle` checks a key bundle. A data report sealed
to one device's key but naming another device is refused.

Each public message carries the ``channels`` term of what its bytes hold,
built only from what its sender holds: a registration request names its
token by the digest of the encrypted token it carries, which the device
cannot open.
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


@dataclass(eq=False, repr=False)
class Outgoing:
    """A message a role sends: path, destination, wire message and symbolic
    term. The runner encodes it, and the receiver's :func:`receive` decodes
    it. A secure-path message travels on the channel of the authenticator at
    one of its ends."""

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


# Unused by the roles; perfbench's fleet driver still calls it (ROADMAP item 7).
def token_secret(session_id: str, digits: str) -> Secret:
    return Secret(f"token:{session_id}:{digits}")


def device_token_secret(token: bytes) -> Secret:
    return Secret(f"devtoken:{crypto.sha256(token).hex()[:16]}")


def activation_term(token: bytes, server_device_public: RolePublic) -> Tup:
    return Tup((device_token_secret(token), bundle_atom(server_device_public)))


def _digest8(data: bytes) -> str:
    return crypto.sha256(data).hex()[:16]


def _open(pair: crypto.KeyPair, ciphertext: crypto.HybridCiphertext, decode,
          now: float, what: str, **fields: str):
    """Decrypt a ``what`` sealed to ``pair`` and ``decode`` it; either failure
    is one Malformed with ``fields`` (an expired ``pair`` raises KeyExpired)."""
    try:
        return decode(crypto.hybrid_decrypt(pair, ciphertext, now))
    except (DecryptionFailure, wire.WireError) as exc:
        raise Malformed(f"unreadable {what}: {exc}", **fields) from exc


def _check_bundle(public: RolePublic, kem_algo: str, now: float, what: str,
                  **fields: str) -> None:
    """Malformed unless a peer's bundle holds a ``kem_algo`` key and an Ed25519
    key, each parsing and in force at ``now``."""
    try:
        crypto.check_public_key(public.kem, kem_algo, now)
        crypto.check_public_key(public.sig, crypto.SIG_ALGO, now)
    except crypto.CryptoError as exc:
        raise Malformed(f"unusable {what}: {exc}", **fields) from exc


def _traced(kind: str):
    """Decorate a role's message handler or message builder: record a
    ProtocolError or CryptoError it raises once, as ``kind`` with
    ``error=<class name>``, and re-raise it."""
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
        self.link_keys: dict[str, bytes] = {}
        self._pending_nonce: bytes | None = None
        # Transient-token material held between delivery and provisioning.
        self._token_digits: str | None = None
        self._api_address: str | None = None

    def provision_link_key(self, device_name: str, link_key: bytes) -> None:
        self.link_keys[device_name] = link_key

    def login(self) -> wire.Message:
        """Fresh ephemeral keys at login; expired keys force a re-login."""
        now = self.clock.now()
        self.keys = crypto.generate_role_keys(RoleTag.AUTH_FOR_SERVER,
                                              self.key_ttl, self.rng, now,
                                              kem_algo=self.kem_algo)
        return wire.Message(wire.Kind.SessionHello, self.keys.public)

    @_traced(ch.MESSAGE_REJECTED)
    def handle_session_hello(self, msg: wire.Message) -> None:
        now = self.clock.now()
        _check_bundle(msg.value, self.kem_algo, now, "server keys")
        self.server_public = msg.value

    @_traced(ch.MESSAGE_REJECTED)
    def handle_nonce_challenge(self, msg: wire.Message) -> list[wire.Message]:
        """Sign the server's nonce and encrypt the signature to the server,
        then challenge the server with a nonce of our own."""
        now = self.clock.now()
        if self.keys is None or self.server_public is None:
            raise NoSession("login incomplete")
        signature = crypto.sign(self.keys.sig, msg.value, now)
        ct = crypto.hybrid_encrypt(self.server_public.kem,
                                   wire.SIGNATURE.encode(signature),
                                   self.rng, now)
        self._pending_nonce = crypto.gen_nonce(self.rng)
        return [wire.Message(wire.Kind.NonceResponse, ct),
                wire.Message(wire.Kind.NonceChallenge, self._pending_nonce)]

    @_traced(ch.MESSAGE_REJECTED)
    def handle_server_nonce_response(self, msg: wire.Message) -> None:
        now = self.clock.now()
        if self._pending_nonce is None:
            raise NonceMismatch("no outstanding challenge")
        signature = _open(self.keys.kem, msg.value, wire.SIGNATURE.decode,
                          now, "nonce response")
        if not crypto.verify(self.server_public.sig, self._pending_nonce,
                             signature, now):
            raise NonceMismatch("server signature does not cover my nonce")
        self._pending_nonce = None
        self.phase = AuthPhase.SESSION_ESTABLISHED

    @_traced(ch.MESSAGE_REJECTED)
    def request_token(self) -> None:
        if self.phase not in (AuthPhase.SESSION_ESTABLISHED,
                              AuthPhase.DEVICE_CONNECTED):
            raise NoSession(f"cannot request a token in phase {self.phase.value}")
        self.phase = AuthPhase.AWAITING_TOKEN

    @_traced(ch.MESSAGE_REJECTED)
    def handle_token_delivery(self, msg: wire.Message) -> None:
        now = self.clock.now()
        if self.phase is not AuthPhase.AWAITING_TOKEN:
            raise NoSession(f"unexpected token delivery in phase {self.phase.value}")
        self._token_digits, self._api_address = _open(
            self.keys.kem, msg.value, wire.TOKEN_PAYLOAD.decode, now,
            "token delivery")

    @_traced(ch.MESSAGE_REJECTED)
    def build_provision(self, device_name: str) -> wire.Message:
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
        box = crypto.aead_seal(link, payload, self.rng)
        self._token_digits = None
        self._api_address = None
        self.phase = AuthPhase.TOKEN_FORWARDED
        return wire.Message(wire.Kind.DeviceProvision, box)

    @_traced(ch.MESSAGE_REJECTED)
    def handle_connected_notice(self, msg: wire.Message) -> None:
        now = self.clock.now()
        uid = _open(self.keys.kem, msg.value, wire.decode_connected_payload,
                    now, "connected notice")
        if self.phase is not AuthPhase.TOKEN_FORWARDED:
            raise NoSession(f"unexpected notice in phase {self.phase.value}")
        self.phase = AuthPhase.DEVICE_CONNECTED
        self.trace.record(self.name, ch.CONNECTED_NOTICE, uid=uid.hex())

    @_traced(ch.MESSAGE_REJECTED)
    def build_revocation(self, uid_hex: str) -> wire.Message:
        now = self.clock.now()
        if self.phase is AuthPhase.IDLE or self.server_public is None:
            raise NoSession("no established session for revocation")
        payload = wire.REVOCATION_PAYLOAD.encode((wire.REVOKE_VERB,
                                                  bytes.fromhex(uid_hex)))
        ct = crypto.hybrid_encrypt(self.server_public.kem, payload, self.rng, now)
        return wire.Message(wire.Kind.RevocationRequest, ct)


# ---------------------------------------------------------------------------
# Device
# ---------------------------------------------------------------------------

class Device:
    """An IoT device: provisioned over the link key, registered over the
    public path, then reporting data under its long-lived token."""

    def __init__(self, rng: Rng, clock, trace: Trace, link_key: bytes,
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
        # Activation material.
        self.device_token: bytes | None = None
        self.server_device_public: RolePublic | None = None

    @_traced(ch.MESSAGE_REJECTED)
    def receive_provision(self, msg: wire.Message) -> None:
        now = self.clock.now()
        if self.phase is not DevicePhase.UNPROVISIONED:
            raise Malformed(f"provision in phase {self.phase.value}")
        try:
            raw = crypto.aead_open(self.link_key, msg.value)
        except DecryptionFailure as exc:
            raise LinkKeyMismatch(str(exc)) from exc
        try:
            api, server_public, encrypted_token, signature = \
                wire.PROVISION_PAYLOAD.decode(raw)
        except wire.WireError as exc:
            raise Malformed(f"bad provision payload: {exc}") from exc
        _check_bundle(server_public, self.kem_algo, now, "server keys")
        self.api_address = api
        self.server_public = server_public
        self._encrypted_token = encrypted_token
        self._token_signature = signature
        self.keys = crypto.generate_role_keys(RoleTag.DEVICE_FOR_SERVER,
                                              self.key_ttl, self.rng, now,
                                              kem_algo=self.kem_algo)
        self.phase = DevicePhase.PROVISIONED
        self.trace.record(self.name, ch.DEVICE_PROVISIONED, uid=self.uid.hex)

    def _request_term(self) -> Term:
        server_kid = self.server_public.kem.key_id
        enc_token_t = Enc(server_kid, Secret(
            f"token:opaque:{_digest8(wire.encode_hybrid(self._encrypted_token))}"))
        return Enc(server_kid, Tup((
            bundle_atom(self.keys.public),
            uid_atom(self.uid.hex),
            enc_token_t,
            SigT(enc_token_t),
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
        return Outgoing("public", "server",
                        wire.Message(wire.Kind.RegistrationRequest, ct),
                        self._request_term(), src=self.name)

    @_traced(ch.MESSAGE_REJECTED)
    def build_registration_request(self) -> Outgoing:
        if self.phase is not DevicePhase.PROVISIONED:
            raise NotProvisioned(f"cannot register in phase {self.phase.value}")
        return self._registration_request()

    def wants_retry(self) -> bool:
        return self.phase is DevicePhase.REQUEST_SENT and self.retries_left > 0

    @_traced(ch.MESSAGE_REJECTED)
    def retry_request(self) -> Outgoing:
        """Re-send the registration request after silence; extension beyond the
        base flow, bounded by the configured retry budget."""
        if not self.wants_retry():
            raise NotProvisioned("no retry budget or wrong phase")
        self.retries_left -= 1
        return self._registration_request(retry=str(self.retries_left))

    @_traced(ch.ACTIVATION_REJECTED)
    def handle_activation(self, msg: wire.Message) -> None:
        now = self.clock.now()
        if self.phase is not DevicePhase.REQUEST_SENT:
            raise Malformed(f"activation in phase {self.phase.value}",
                            detail=f"phase {self.phase.value}")
        token, server_device_public = _open(
            self.keys.kem, msg.value, wire.ACTIVATION_PAYLOAD.decode, now,
            "activation", detail="undecryptable")
        _check_bundle(server_device_public, self.kem_algo, now, "server keys")
        self.device_token = token
        self.server_device_public = server_device_public
        self.phase = DevicePhase.ACTIVE
        self.trace.record(self.name, ch.DEVICE_ACTIVATED, uid=self.uid.hex)

    @_traced(ch.MESSAGE_REJECTED)
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
            Atom(f"reading:{metric}={value!r} {unit}"),
            device_token_secret(self.device_token),
        )))
        return Outgoing("public", "server", wire.Message(wire.Kind.DataReport, ct),
                        term, src=self.name)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

@dataclass(eq=False, repr=False)
class Session:
    """The server's state for one authenticator session: the peer whose secure
    channel it was opened on, keys, peer keys and nonce."""

    session_id: str
    peer: str
    keys: RoleKeys
    auth_public: RolePublic
    nonce_hex: str                  # the nonce that named this session
    pending_nonce: bytes | None
    established: bool = False


@dataclass(eq=False, repr=False)
class PendingRegistration:
    """A transient token the server issued to a session, and whether it was used."""

    secret: bytes
    session_id: str
    issued_digits: str
    issued_step: int
    consumed: bool = False


@dataclass(eq=False, repr=False)
class RegistryEntry:
    """A registered device: keys, token, status, and the authenticator (peer)
    whose session registered it, which alone may revoke it."""

    uid_hex: str
    peer: str
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
        # Peer name -> the session last opened on that peer's secure channel,
        # which the peer's later handshake messages belong to.
        self.session_on: dict[str, Session] = {}
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

    @_traced(ch.MESSAGE_REJECTED)
    def accept_session(self, hello: wire.Message, peer: str) -> list[wire.Message]:
        """Open a session on ``peer``'s channel: our keys and a nonce to sign."""
        now = self.clock.now()
        _check_bundle(hello.value, self.kem_algo, now, "authenticator keys")
        keys = crypto.generate_role_keys(RoleTag.SERVER_FOR_AUTH, self.key_ttl,
                                         self.rng, now, kem_algo=self.kem_algo)
        nonce = crypto.gen_nonce(self.rng)
        nonce_hex = nonce.hex()
        if nonce_hex in self.used_nonces:
            raise NonceMismatch("nonce reuse detected at issue time")
        self.used_nonces.add(nonce_hex)
        session_id = f"session-{self._session_counter}"
        self._session_counter += 1
        self.sessions[session_id] = self.session_on[peer] = Session(
            session_id=session_id, peer=peer, keys=keys, auth_public=hello.value,
            nonce_hex=nonce_hex, pending_nonce=nonce)
        return [wire.Message(wire.Kind.SessionHello, keys.public),
                wire.Message(wire.Kind.NonceChallenge, nonce)]

    def _channel_session(self, peer: str) -> Session:
        session = self.session_on.get(peer)
        if session is None:
            raise NoSession(f"no session opened on {peer}'s channel")
        return session

    @_traced(ch.MESSAGE_REJECTED)
    def handle_nonce_response(self, msg: wire.Message, peer: str) -> None:
        now = self.clock.now()
        session = self._channel_session(peer)
        if session.pending_nonce is None:
            raise NonceMismatch("no outstanding nonce for this session")
        signature = _open(session.keys.kem, msg.value, wire.SIGNATURE.decode,
                          now, "nonce response")
        if signature.signer_tag is not RoleTag.AUTH_FOR_SERVER:
            raise SignatureInvalid("nonce response signed by the wrong role")
        if not crypto.verify(session.auth_public.sig, session.pending_nonce,
                             signature, now):
            raise NonceMismatch("signature does not cover the outstanding nonce")
        session.pending_nonce = None

    @_traced(ch.MESSAGE_REJECTED)
    def handle_auth_challenge(self, msg: wire.Message,
                              peer: str) -> list[wire.Message]:
        """Sign the authenticator's nonce, which completes the session: the
        authenticator has already signed ours."""
        now = self.clock.now()
        session = self._channel_session(peer)
        if session.pending_nonce is not None:
            raise NonceMismatch("challenged before our nonce was answered")
        signature = crypto.sign(session.keys.sig, msg.value, now)
        ct = crypto.hybrid_encrypt(session.auth_public.kem,
                                   wire.SIGNATURE.encode(signature),
                                   self.rng, now)
        session.established = True
        self.routes[bytes.fromhex(session.keys.kem.key_id)] = session
        self.trace.record(self.name, ch.SESSION_ESTABLISHED,
                          session=session.session_id, nonce=session.nonce_hex)
        return [wire.Message(wire.Kind.NonceResponse, ct)]

    # -- token issue -------------------------------------------------------------

    @_traced(ch.MESSAGE_REJECTED)
    def issue_transient_token(self, session_id: str) -> wire.Message:
        now = self.clock.now()
        session = self.sessions.get(session_id)
        if session is None or not session.established:
            raise NoSession(f"no established session {session_id}")
        secret = crypto.gen_totp_secret(self.rng)
        digits = crypto.totp_generate(secret, now, self.totp_step)
        payload = wire.TOKEN_PAYLOAD.encode((digits, self.api_address))
        # Encrypted first: a token that cannot be delivered is not on record.
        ct = crypto.hybrid_encrypt(session.auth_public.kem, payload, self.rng, now)
        self.pending.append(PendingRegistration(
            secret=secret, session_id=session_id,
            issued_digits=digits, issued_step=int(now // self.totp_step)))
        self.trace.record(self.name, ch.TOKEN_ISSUED, token=digits,
                          nonce=session.nonce_hex, session=session_id)
        return wire.Message(wire.Kind.TokenDelivery, ct)

    # -- registration ----------------------------------------------------------

    @_traced(ch.DEVICE_REQUEST_REJECTED)
    def handle_registration(self, msg: wire.Message,
                            reply_to: str) -> list[Outgoing]:
        """Validate a device request; on success activate the device.

        Acceptance requires usable device keys, the authenticator's signature
        over the exact encrypted-token bytes, a token inside its validity
        step, and first use of that token.
        """
        now = self.clock.now()
        session, (device_public, uid, encrypted_token, signature) = self._receive(
            msg.value, Session, wire.REGISTRATION_PAYLOAD.decode, now,
            "registration")
        uid_hex = uid.hex()
        _check_bundle(device_public, self.kem_algo, now, "device keys", uid=uid_hex)

        if not crypto.verify(session.auth_public.sig,
                             wire.encode_hybrid(encrypted_token), signature, now):
            raise SignatureInvalid(
                "token signature invalid for this session",
                detail="token signature not from session authenticator",
                uid=uid_hex)

        digits = _open(session.keys.kem, encrypted_token, wire.TEXT.decode, now,
                       "encrypted token", detail="encrypted token unreadable",
                       uid=uid_hex)

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

    def _receive(self, ciphertext, kind, decode, now, what):
        """Decrypt a ``what`` with the key its key id names, held by a ``kind``
        (Session or RegistryEntry), and ``decode`` it: (holder, fields). Else
        Malformed "... not decryptable" or "bad payload" (why, for a registration)."""
        holder = self.routes.get(ciphertext.key_id)
        try:
            if not isinstance(holder, kind):
                raise DecryptionFailure(f"no {kind.__name__} holds that key id")
            keys = holder.keys if kind is Session else holder.server_keys
            raw = crypto.hybrid_decrypt(keys.kem, ciphertext, now)
        except (DecryptionFailure, KeyExpired) as exc:
            noun = "request" if kind is Session else "report"
            raise Malformed(f"{what} not decryptable by the key it names: {exc}",
                            detail=f"{noun} not decryptable") from exc
        try:
            return holder, decode(raw)
        except wire.WireError as exc:
            reason = f": {exc}" if what == "registration" else ""
            raise Malformed(f"bad {what} payload: {exc}",
                            detail="bad payload" + reason) from exc

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
            uid_hex=uid_hex, peer=session.peer, device_public=device_public,
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

        activation = wire.Message(wire.Kind.ActivationResponse, crypto.hybrid_encrypt(
            device_public.kem,
            wire.ACTIVATION_PAYLOAD.encode((device_token, server_keys.public)),
            self.rng, now))
        notice = wire.Message(wire.Kind.ConnectedNotice, crypto.hybrid_encrypt(
            session.auth_public.kem,
            wire.encode_connected_payload(bytes.fromhex(uid_hex)),
            self.rng, now))
        return [
            Outgoing("public", reply_to, activation,
                     Enc(device_public.kem.key_id, term)),
            Outgoing("secure", session.peer, notice),
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
        ``settle`` raises only a risk hook's error, once every cut block has
        committed, so it is recorded on the commit as ``hook_error``."""
        try:
            tx = make_transaction(channel, payload, self.identity, now)
            seq = self.network.submit(tx, now)
        except LedgerError as exc:
            raise LedgerRejected(str(exc), uid=uid_hex) from exc
        try:
            self.network.settle()
        except Exception as exc:
            commit_fields["hook_error"] = f"{type(exc).__name__}: {exc}"
        self.trace.record(self.name, ch.LEDGER_COMMIT, channel=channel.value,
                          height=str(self.network.receipt(seq).height),
                          uid=uid_hex, **commit_fields)

    # -- data ingestion -----------------------------------------------------------

    @_traced(ch.DATA_REJECTED)
    def handle_data_report(self, msg: wire.Message, src: str | None = None) -> None:
        """Commit a reading; ``src`` goes unused: the key names the device."""
        now = self.clock.now()
        entry, (uid, metric, value, unit, token) = self._receive(
            msg.value, RegistryEntry, wire.DATA_PAYLOAD.decode, now, "report")
        uid_hex = uid.hex()
        registered = self.registry.get(uid_hex)
        if registered is None:
            raise UnknownDevice(f"no registered device {uid_hex}", detail=None,
                                uid=uid_hex)
        # The key a report is sealed to identifies its device: another
        # device's reading under this key is refused, whatever it carries.
        if registered is not entry:
            raise Malformed(f"report sealed to device {entry.uid_hex}'s key",
                            detail="uid not the key's device", uid=uid_hex)
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
    def handle_revocation(self, msg: wire.Message, src: str | None = None) -> None:
        """Deactivate a device; ``src`` goes unused: the key names the session."""
        now = self.clock.now()
        session, (_, uid) = self._receive(msg.value, Session,
                                          wire.REVOCATION_PAYLOAD.decode, now,
                                          "revocation")
        uid_hex = uid.hex()
        entry = self.registry.get(uid_hex)
        if entry is None:
            raise UnknownDevice(f"no registered device {uid_hex}", detail=None,
                                uid=uid_hex)
        if session.peer != entry.peer:
            raise UnknownDevice(f"device {uid_hex} not registered by {session.peer}",
                                detail="registered by another authenticator", uid=uid_hex)
        if entry.status is DeviceStatus.DEACTIVATED:
            raise AlreadyRevoked(f"device {uid_hex} already revoked", detail=None,
                                 uid=uid_hex)

        self._commit_record(entry, session.auth_public, DeviceStatus.DEACTIVATED, now)
        entry.status = DeviceStatus.DEACTIVATED
        entry.device_token = None  # long-lived token invalidated
        self.crl.add(entry.device_public.kem.key)
        self.trace.record(self.name, ch.DEVICE_REVOKED, uid=uid_hex)


# ---------------------------------------------------------------------------
# The one receive path
# ---------------------------------------------------------------------------

# (path, receiving role, kind) -> the name of the role's handler, looked up at
# call time. A device's provision comes over its link key, a secure path.
HANDLERS: dict[tuple[str, type, wire.Kind], str] = {
    ("secure", Server, wire.Kind.SessionHello): "accept_session",
    ("secure", Server, wire.Kind.NonceResponse): "handle_nonce_response",
    ("secure", Server, wire.Kind.NonceChallenge): "handle_auth_challenge",
    ("secure", Server, wire.Kind.RevocationRequest): "handle_revocation",
    ("secure", Authenticator, wire.Kind.SessionHello): "handle_session_hello",
    ("secure", Authenticator, wire.Kind.NonceChallenge): "handle_nonce_challenge",
    ("secure", Authenticator, wire.Kind.NonceResponse): "handle_server_nonce_response",
    ("secure", Authenticator, wire.Kind.TokenDelivery): "handle_token_delivery",
    ("secure", Authenticator, wire.Kind.ConnectedNotice): "handle_connected_notice",
    ("secure", Device, wire.Kind.DeviceProvision): "receive_provision",
    ("public", Server, wire.Kind.RegistrationRequest): "handle_registration",
    ("public", Server, wire.Kind.DataReport): "handle_data_report",
    ("public", Device, wire.Kind.ActivationResponse): "handle_activation",
}


@_traced(ch.MESSAGE_REJECTED)
def _recognise(role, path: str, data: bytes) -> tuple[wire.Message, str]:
    """``data`` decoded whole, and the name of ``role``'s handler for its kind
    on ``path``; else Malformed naming the decode error or the kind."""
    try:
        message = wire.decode(data)
    except wire.WireError as exc:
        raise Malformed(f"undecodable: {exc}", detail=type(exc).__name__) from exc
    name = HANDLERS.get((path, type(role), message.kind))
    if name is None:
        raise Malformed(f"no {path} handler for {message.kind.name}",
                        detail=message.kind.name)
    return message, name


def receive(role, path: str, data: bytes, src: str):
    """Hand bytes from ``src`` to ``role``'s handler for their kind on ``path``
    and return its result; a rejection is traced once and raises. A server
    handler is also told ``src``: the device to answer, or the authenticator
    whose secure channel the message came on."""
    message, name = _recognise(role, path, data)
    if isinstance(role, Server):
        return getattr(role, name)(message, src)
    return getattr(role, name)(message)


def deliver(h_s: ch.SecureChannel, sender, receiver, message: wire.Message) -> None:
    """Hand ``message`` as bytes across ``h_s`` for ``receiver`` to :func:`receive`;
    each reply goes back the same way."""
    data = h_s.hand_off(sender.name, receiver.name, wire.encode(message))
    for reply in receive(receiver, "secure", data, sender.name) or ():
        deliver(h_s, receiver, sender, reply)


def establish_session(auth: Authenticator, server: Server,
                      h_s: ch.SecureChannel) -> str:
    """Mutual authentication over the secure path: both sides verify a
    signed, encrypted nonce. Returns the new session id."""
    deliver(h_s, auth, server, auth.login())
    return server.session_on[auth.name].session_id


def deliver_token(auth: Authenticator, server: Server, session_id: str,
                  h_s: ch.SecureChannel) -> None:
    """Token request and delivery over the secure path."""
    auth.request_token()
    deliver(h_s, server, auth, server.issue_transient_token(session_id))


def provision_device(auth: Authenticator, device: Device,
                     token_term: Term | None = None) -> None:
    """Hand the provisioning package to the device over the shared link key."""
    # ``token_term`` is ignored; perfbench's fleet driver still passes it.
    receive(device, "secure", wire.encode(auth.build_provision(device.name)),
            auth.name)
