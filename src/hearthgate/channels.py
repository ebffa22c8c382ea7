"""Transport paths, the network adversary, and protocol traces.

Two kinds of channel exist. The authenticator-to-server path is secure and
authenticated (its transport handshake is out of scope, so it is modeled as
a lossless FIFO queue the adversary cannot see). The device-to-server path
is public: every message enters adversary custody, and delivery happens only
when an adversary strategy decides it does.

The adversary is symbolic. For each observed message it records a term
describing the plaintext structure, so "what can the attacker derive" is
computed exactly by a closure over decomposition rules rather than guessed
from byte matching: tuples split, ciphertexts open only when the matching
secret key is known, signatures reveal what they sign but can never be
forged, hashes never invert. The concrete bytes stay in custody, where
replay and tampering take them from.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .runtime import Rng

# Trace event kinds. The protocol-level ones are what the lemma checkers
# quantify over; the rest make transcripts readable.
SESSION_ESTABLISHED = "SessionEstablished"
TOKEN_ISSUED = "TokenIssued"
DEVICE_PROVISIONED = "DeviceProvisioned"
DEVICE_REQUEST_SENT = "DeviceRequestSent"
DEVICE_REQUEST_ACCEPTED = "DeviceRequestAccepted"
DEVICE_REQUEST_REJECTED = "DeviceRequestRejected"
REGISTRATION_SUCCESS = "RegistrationSuccess"
KEYPAIR_DELIVERED = "KeypairDelivered"
DEVICE_ACTIVATED = "DeviceActivated"
ACTIVATION_REJECTED = "ActivationRejected"
CONNECTED_NOTICE = "ConnectedNotice"
DATA_ACCEPTED = "DataAccepted"
DATA_REJECTED = "DataRejected"
RISK_ALERT_RAISED = "RiskAlertRaised"
DEVICE_REVOKED = "DeviceRevoked"
REVOCATION_REJECTED = "RevocationRejected"
LEDGER_COMMIT = "LedgerCommit"
ADVERSARY_ACTION = "AdversaryAction"
MESSAGE_REJECTED = "MessageRejected"

# Every kind that records a rejected message, whichever role rejected it.
REJECTION_KINDS = (DEVICE_REQUEST_REJECTED, ACTIVATION_REJECTED, DATA_REJECTED,
                   REVOCATION_REJECTED, MESSAGE_REJECTED)


@dataclass(eq=False, repr=False)
class TraceEvent:
    """One traced event: logical time, role, kind and sorted key-value fields."""

    time: int  # logical, strictly increasing per trace
    role: str
    kind: str
    fields: tuple[tuple[str, str], ...]

    def get(self, key: str) -> str | None:
        for k, v in self.fields:
            if k == key:
                return v
        return None

    def render(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in self.fields)
        return f"{self.time:05d} {self.role:<12} {self.kind:<24} {kv}".rstrip()


class Trace:
    """Append-only event log with a global logical clock."""

    def __init__(self):
        self.events: list[TraceEvent] = []
        self._next_time = 1

    def record(self, role: str, kind: str, **fields: str) -> TraceEvent:
        event = TraceEvent(
            time=self._next_time,
            role=role,
            kind=kind,
            fields=tuple(sorted((k, str(v)) for k, v in fields.items())),
        )
        self._next_time += 1
        self.events.append(event)
        return event

    def by_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def render(self) -> str:
        return "\n".join(e.render() for e in self.events) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.render().encode()).hexdigest()


# ---------------------------------------------------------------------------
# Symbolic terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """A public or derivable constant (public keys, identifiers, labels)."""
    label: str


@dataclass(frozen=True)
class Secret:
    """A value the protocol must keep from the adversary."""
    label: str


@dataclass(frozen=True)
class Tup:
    """An ordered tuple of terms; the closure splits it into its items."""
    items: tuple["Term", ...]


@dataclass(frozen=True)
class Enc:
    """Hybrid encryption under the KEM keypair identified by ``key_id``."""
    key_id: str
    payload: "Term"


@dataclass(frozen=True)
class SymEnc:
    """AEAD under the symmetric key identified by ``key_id``."""
    key_id: str
    payload: "Term"


@dataclass(frozen=True)
class SigT:
    """Signature by the signing keypair ``key_id``; reveals but cannot be forged."""
    key_id: str
    payload: "Term"


@dataclass(frozen=True)
class HashT:
    """One-way digest; never inverted by the closure."""
    payload: "Term"


Term = Union[Atom, Secret, Tup, Enc, SymEnc, SigT, HashT]


def kem_secret(key_id: str) -> Secret:
    return Secret(f"sk:{key_id}")


def sig_secret(key_id: str) -> Secret:
    return Secret(f"sig-sk:{key_id}")


def sym_secret(key_id: str) -> Secret:
    return Secret(f"sym:{key_id}")


class AdversaryKnowledge:
    """The Dolev-Yao knowledge set: the terms the adversary has observed or
    been granted. Its bytes live elsewhere: replay re-sends a custody entry
    and injection builds its bytes with a strategy's ``forge``.
    """

    def __init__(self, terms: Iterable[Term] = ()):
        self.terms: set[Term] = set(terms)

    def observe(self, term: Term) -> None:
        self.terms.add(term)

    def grant(self, *terms: Term) -> None:
        """Hand the adversary knowledge by fiat (compromise fixtures)."""
        self.terms.update(terms)


def derive_closure(knowledge: AdversaryKnowledge) -> AdversaryKnowledge:
    """Fixpoint of the decomposition rules over the knowledge set.

    Rules: tuples split into components; an encryption opens iff the matching
    secret key is in the set; signatures reveal their payload; hashes do not
    invert. The result is monotone and idempotent.
    """
    terms = set(knowledge.terms)
    changed = True
    while changed:
        changed = False
        for term in list(terms):
            derived: list[Term] = []
            if isinstance(term, Tup):
                derived.extend(term.items)
            elif isinstance(term, Enc) and kem_secret(term.key_id) in terms:
                derived.append(term.payload)
            elif isinstance(term, SymEnc) and sym_secret(term.key_id) in terms:
                derived.append(term.payload)
            elif isinstance(term, SigT):
                derived.append(term.payload)
            for d in derived:
                if d not in terms:
                    terms.add(d)
                    changed = True
    return AdversaryKnowledge(terms)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

class ChannelClosed(Exception):
    pass


class SecureChannel:
    """Reliable, ordered, adversary-invisible path between two endpoints."""

    def __init__(self, endpoint_a: str, endpoint_b: str):
        self.endpoints = (endpoint_a, endpoint_b)
        self._queues: dict[str, list] = {endpoint_a: [], endpoint_b: []}

    def send(self, sender: str, message) -> None:
        receiver = self._other(sender)
        self._queues[receiver].append(message)

    def recv(self, receiver: str):
        queue = self._queues[receiver]
        if not queue:
            raise ChannelClosed(f"no message queued for {receiver}")
        return queue.pop(0)

    def _other(self, endpoint: str) -> str:
        a, b = self.endpoints
        if endpoint == a:
            return b
        if endpoint == b:
            return a
        raise ValueError(f"{endpoint} is not an endpoint of this channel")


@dataclass(eq=False, repr=False)
class CustodyEntry:
    """A public-channel message waiting for an adversary decision."""

    index: int
    src: str
    dst: str
    data: bytes
    term: Term
    replays_left: int = 1


class PublicChannel:
    """Hostile path: every message passes through adversary custody."""

    def __init__(self, knowledge: AdversaryKnowledge):
        self.knowledge = knowledge
        self.pending: list[CustodyEntry] = []
        self._next_index = 0

    def send(self, src: str, dst: str, data: bytes, term: Term) -> CustodyEntry:
        entry = CustodyEntry(self._next_index, src, dst, data, term)
        self._next_index += 1
        self.pending.append(entry)
        # Observation is immediate: custody means the adversary saw it.
        self.knowledge.observe(term)
        return entry

    def take(self, index: int) -> CustodyEntry:
        for i, entry in enumerate(self.pending):
            if entry.index == index:
                return self.pending.pop(i)
        raise KeyError(f"no pending message with index {index}")


# ---------------------------------------------------------------------------
# Adversary strategies
# ---------------------------------------------------------------------------

@dataclass(eq=False, repr=False)
class AdversaryAction:
    """One adversary move on the public channel, as a script names it."""

    action: str            # deliver | drop | replay | tamper | delay | inject
    index: int | None = None
    dst: str | None = None
    data: bytes | None = None
    bit: int | None = None

    def describe(self) -> str:
        parts = [self.action]
        if self.index is not None:
            parts.append(f"idx={self.index}")
        if self.bit is not None:
            parts.append(f"bit={self.bit}")
        if self.dst is not None:
            parts.append(f"dst={self.dst}")
        return " ".join(parts)


# The rule names a script may use, for ``Scripted`` and for script files.
SCRIPT_ACTIONS = ("deliver", "drop", "replay", "tamper", "delay", "inject", "stop")


class Scripted:
    """Plays a fixed list of rules keyed on public-channel message index.

    Each rule is ``{"on": <message index>, "action": <name>, ...params}``
    with a name from ``SCRIPT_ACTIONS``: ``tamper`` takes ``bit``, ``delay``
    takes ``seconds`` (default 40), ``inject`` takes ``dst`` and ``data``,
    and ``stop`` withholds message ``on`` and every later one (device
    retries still run). Messages without a rule are delivered in order. Two
    rules on one index are an error. Unconsumed rules simply never fire (the
    message they target may not exist in a given run).
    """

    def __init__(self, rules: list[dict]):
        self.rules: dict[int, dict] = {}
        for rule in rules:
            on = int(rule["on"])
            if rule["action"] not in SCRIPT_ACTIONS:
                raise ValueError(f"unknown scripted action {rule['action']!r}")
            if on in self.rules:
                raise ValueError(f"two rules on message {on}")
            self.rules[on] = dict(rule)
        self.stop = min((on for on, rule in self.rules.items()
                         if rule["action"] == "stop"), default=float("inf"))

    def decide(self, channel: PublicChannel, rng: Rng) -> AdversaryAction | None:
        if not channel.pending or channel.pending[0].index >= self.stop:
            return None
        entry = channel.pending[0]
        rule = self.rules.pop(entry.index, {"action": "deliver"})
        action = rule["action"]
        if action == "tamper":
            return AdversaryAction("tamper", index=entry.index,
                                   bit=int(rule.get("bit", 0)))
        if action == "delay":
            # The bit field carries the delay in seconds.
            return AdversaryAction("delay", index=entry.index,
                                   bit=int(rule.get("seconds", 40)))
        if action == "inject":
            return AdversaryAction("inject", dst=rule["dst"],
                                   data=rule["data"], index=entry.index)
        return AdversaryAction(action, index=entry.index)


class DeliverAll(Scripted):
    """Passive adversary: a script with no rules forwards everything, in order."""

    def __init__(self):
        super().__init__([])


DEFAULT_WEIGHTS = {
    "deliver": 6.0,
    "drop": 1.0,
    "replay": 1.0,
    "tamper": 1.0,
    "inject": 1.0,
}
RANDOMIZED_BUDGET = 48


class Randomized:
    """Seeded scheduler choosing weighted actions per custody message.

    ``forge`` builds the bytes of each injection (a forged registration).
    ``RANDOMIZED_BUDGET`` actions bound replays and injections so every run
    terminates.
    """

    def __init__(self, forge: Callable[[], bytes],
                 weights: dict[str, float] | None = None):
        merged = dict(DEFAULT_WEIGHTS)
        if weights:
            unknown = set(weights) - set(merged)
            if unknown:
                raise ValueError(f"unknown adversary actions: {sorted(unknown)}")
            merged.update(weights)
            values = merged.values()
            # All 0 would make every decision the last sorted action.
            if not (all(math.isfinite(w) and w >= 0 for w in values) and sum(values)):
                raise ValueError(f"adversary weights must be finite, >= 0 and not all 0: "
                                 f"{weights}")
        self.weights = merged
        self.budget = RANDOMIZED_BUDGET
        self.forge = forge

    def decide(self, channel: PublicChannel, rng: Rng) -> AdversaryAction | None:
        if not channel.pending or self.budget <= 0:
            return None
        self.budget -= 1
        entry = channel.pending[rng.randrange(len(channel.pending))]
        names = sorted(self.weights)
        action = rng.weighted_choice(names, [self.weights[n] for n in names])
        if action == "replay" and entry.replays_left <= 0:
            action = "deliver"
        if action == "tamper":
            return AdversaryAction("tamper", index=entry.index,
                                   bit=rng.randrange(len(entry.data) * 8))
        if action == "inject":
            dst = entry.dst if rng.random() < 0.8 else entry.src
            return AdversaryAction("inject", dst=dst, data=self.forge(),
                                   index=entry.index)
        return AdversaryAction(action, index=entry.index)
