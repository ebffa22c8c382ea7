"""Desk-scale consortium ledger: three isolated channels, chaincode-style
validation with per-channel access policies, hash-chained blocks, and
exactly-once event subscriptions.

Consensus is deliberately simulated: submitted transactions are validated,
then pass through a single rate-limited ordering service (service rate mu
transactions/second, blocks cut at ``max_block_txs`` or ``block_interval``
seconds, whichever first). Timing is virtual: callers submit with explicit
timestamps and pump commits forward with ``run_until``/``settle``, which
makes both protocol runs and the saturation benchmark deterministic.
"""

from __future__ import annotations

import base64
import struct
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import inf
from typing import Callable, Iterable

from . import crypto, wire
from .payloads import (
    DataEntry,
    DeviceRecord,
    Payload,
    RiskAlert,
    decode_payload,
    encode_payload,
)
from .runtime import Rng


class LedgerError(Exception):
    pass


class PolicyDenied(LedgerError):
    pass


class InvalidPayload(LedgerError):
    pass


class UnknownIdentity(LedgerError):
    pass


class BadSignature(LedgerError):
    pass


class BadTimestamp(LedgerError):
    pass


class SnapshotError(LedgerError):
    pass


# Every transaction looks its channel and its submitter's role up in several
# tables. Members equal only themselves, so they hash by identity, in C,
# rather than by name through ``Enum.__hash__``, a Python function.

class ChannelName(Enum):
    IDENTITY = "identity"
    DATA = "data"
    RISK_MANAGEMENT = "risk_management"

    __hash__ = object.__hash__


class OrgRole(Enum):
    SERVER = "server"
    MANUFACTURER = "manufacturer"
    INSURER = "insurer"
    EMERGENCY_SERVICE = "emergency_service"
    RISK_ENGINE = "risk_engine"

    __hash__ = object.__hash__


_CHANNEL_PAYLOADS = {
    ChannelName.IDENTITY: DeviceRecord,
    ChannelName.DATA: DataEntry,
    ChannelName.RISK_MANAGEMENT: RiskAlert,
}

# Read modes for the access matrix.
READ_NONE = "none"
READ_OWN = "own"
READ_ALL = "all"

# Who may read and write each channel. The identity channel is server-only;
# insurers see all readings, manufacturers only their own devices' readings;
# alerts go to the responder organizations. Overridable per network.
DEFAULT_ACCESS: dict[tuple[ChannelName, OrgRole], dict] = {
    (ChannelName.IDENTITY, OrgRole.SERVER): {"read": READ_ALL, "write": True},
    (ChannelName.DATA, OrgRole.SERVER): {"read": READ_ALL, "write": True},
    (ChannelName.DATA, OrgRole.INSURER): {"read": READ_ALL, "write": False},
    (ChannelName.DATA, OrgRole.MANUFACTURER): {"read": READ_OWN, "write": False},
    (ChannelName.RISK_MANAGEMENT, OrgRole.RISK_ENGINE): {"read": READ_NONE, "write": True},
    (ChannelName.RISK_MANAGEMENT, OrgRole.SERVER): {"read": READ_ALL, "write": False},
    (ChannelName.RISK_MANAGEMENT, OrgRole.EMERGENCY_SERVICE): {"read": READ_ALL, "write": False},
    (ChannelName.RISK_MANAGEMENT, OrgRole.INSURER): {"read": READ_ALL, "write": False},
}
_NO_ACCESS = {"read": READ_NONE, "write": False}


@dataclass(eq=False, repr=False)
class OrgIdentity:
    """A consortium organisation: id, role and signing credential."""

    org_id: str
    role: OrgRole
    credential: crypto.KeyPair  # signing pair registered with the membership service


class MembershipRegistry:
    """Stub membership service: maps org ids to roles and public credentials."""

    def __init__(self):
        self._orgs: dict[str, tuple[OrgRole, crypto.PublicKey]] = {}

    def register(self, org_id: str, role: OrgRole,
                 credential: crypto.PublicKey) -> None:
        self._orgs[org_id] = (role, credential)

    def lookup(self, org_id: str) -> tuple[OrgRole, crypto.PublicKey]:
        try:
            return self._orgs[org_id]
        except KeyError:
            raise UnknownIdentity(f"org {org_id!r} is not registered") from None

    def known(self) -> list[str]:
        return sorted(self._orgs)


# A transaction's signed body. The payload codec looks ``encode_payload`` up
# at each call, so perfbench's tracer, which rebinds this module's global,
# sees every call. The timestamp is checked before the other fields.
_TX_BODY = wire.Record(None, {
    "channel": wire.enum_of(ChannelName, wire.TEXT),
    "payload": wire.Codec(lambda payload: encode_payload(payload), decode_payload),
    "submitter": wire.TEXT,
    "timestamp": wire.F64._replace(size=8),
})


@dataclass(frozen=True, repr=False)
class LedgerTransaction:
    """A signed ledger transaction.

    Its encodings are computed once per object and kept in the instance
    ``__dict__`` (``cached_property``), outside the dataclass fields;
    ``make_transaction`` puts them there as it signs. A transaction decoded
    from bytes re-derives them from its decoded fields, so tampered bytes
    never vouch for themselves.
    """

    channel: ChannelName
    payload: Payload
    submitter: str
    signature: bytes
    timestamp: float

    @cached_property
    def signing_bytes(self) -> bytes:
        return _TX_BODY.encode((self.channel, self.payload, self.submitter,
                                self.timestamp))

    @cached_property
    def canonical_bytes(self) -> bytes:
        return wire.pack_fields([self.signing_bytes, self.signature])


def decode_transaction(data: bytes) -> LedgerTransaction:
    signing, signature = wire.unpack_fields(data, expect=2)
    channel, payload, submitter, timestamp = _TX_BODY.decode(signing)
    return LedgerTransaction(channel, payload, submitter, signature, timestamp)


def make_transaction(channel: ChannelName, payload: Payload,
                     identity: OrgIdentity, now: float) -> LedgerTransaction:
    signing = _TX_BODY.encode((channel, payload, identity.org_id, now))
    try:
        sig = crypto.sign(identity.credential, signing, now).value
    except (crypto.KeyExpired, crypto.MalformedKey) as exc:
        raise BadSignature(f"submitter {identity.org_id} cannot sign: {exc}") from exc
    # The fields, the exact bytes just signed and those framed with the
    # signature, in one write: the frozen __init__ sets each field through
    # object.__setattr__, and a cached_property takes a lock on its first read.
    tx = object.__new__(LedgerTransaction)
    tx.__dict__.update(
        channel=channel, payload=payload, submitter=identity.org_id,
        signature=sig, timestamp=now, signing_bytes=signing,
        canonical_bytes=b"".join((wire.LENGTH(len(signing)), signing,
                                  wire.LENGTH(len(sig)), sig)))
    return tx


def check_transaction(tx: LedgerTransaction, channel: ChannelName,
                      membership: MembershipRegistry, at: float) -> OrgRole:
    """The submitter's role, if it is registered, its credential in force at
    ``at`` verifies the signature and the payload is a valid ``channel`` type."""
    role, credential = membership.lookup(tx.submitter)
    try:
        valid = crypto.verify(credential, tx.signing_bytes, tx.signature, at)
    except crypto.CryptoError as exc:
        raise BadSignature(
            f"submitter {tx.submitter} signature not checkable: {exc}") from exc
    if not valid:
        raise BadSignature(f"submitter {tx.submitter} signature invalid")
    expected = _CHANNEL_PAYLOADS[channel]
    if not isinstance(tx.payload, expected):
        raise InvalidPayload(
            f"channel {channel.value} accepts {expected.__name__}, "
            f"got {type(tx.payload).__name__}")
    try:
        tx.payload.validate()
    except ValueError as exc:
        raise InvalidPayload(str(exc)) from exc
    return role


GENESIS_PREV = bytes(32)


@dataclass(eq=False, repr=False)
class Block:
    """A committed block: height, previous hash, transactions and its own hash."""

    height: int
    prev_hash: bytes
    txs: tuple[LedgerTransaction, ...]
    block_hash: bytes

    def body_bytes(self) -> bytes:
        return encode_block_body(self.height, self.prev_hash, self.txs)

    def canonical_bytes(self) -> bytes:
        return self.body_bytes() + self.block_hash


def encode_block_body(height: int, prev_hash: bytes,
                      txs: tuple[LedgerTransaction, ...]) -> bytes:
    """The bytes a block hash covers: height, previous hash, transactions."""
    return wire.pack_fields([struct.pack(">Q", height), prev_hash,
                             *[tx.canonical_bytes for tx in txs]])


def build_block(height: int, prev_hash: bytes,
                txs: Iterable[LedgerTransaction]) -> Block:
    txs = tuple(txs)
    return Block(height, prev_hash, txs,
                 crypto.sha256(encode_block_body(height, prev_hash, txs)))


def decode_block(data: bytes) -> Block:
    if len(data) < 32:
        raise wire.Truncated("block shorter than its hash")
    body, block_hash = data[:-32], data[-32:]
    fields = wire.unpack_fields(body)
    if len(fields) < 2 or len(fields[0]) != 8 or len(fields[1]) != 32:
        raise wire.Truncated("malformed block header")
    height = struct.unpack(">Q", fields[0])[0]
    prev_hash = fields[1]
    txs = tuple(decode_transaction(f) for f in fields[2:])
    return Block(height, prev_hash, txs, block_hash)


@dataclass(eq=False, repr=False)
class CommitReceipt:
    """Where and when a transaction committed: channel, height, index, time."""

    channel: ChannelName
    height: int
    tx_index: int
    commit_time: float


class _OrderingService:
    """Virtual-time FIFO orderer with service rate mu and batch cutting.

    The queue is three parallel lists: each transaction's ordered time, its
    submission number and the transaction. Ordered times strictly increase,
    so a block's batch is found by bisection."""

    def __init__(self, mu: float, max_block_txs: int, block_interval: float):
        # Each bound also fails for NaN, which no comparison satisfies.
        if not (0 < mu < inf and max_block_txs > 0 and 0 < block_interval < inf):
            raise ValueError("ordering parameters must be positive and finite")
        self.service = 1.0 / mu
        self.max_block_txs = max_block_txs
        self.block_interval = block_interval
        self._busy_until = self._last_submit = self._last_cut = -inf
        self._ends, self._seqs, self._txs = [], [], []

    def submit(self, seq: int, tx: LedgerTransaction, t: float) -> None:
        self._last_submit = t = max(t, self._last_submit)
        self._busy_until = end = max(t, self._busy_until, self._last_cut) + self.service
        self._ends.append(end)
        self._seqs.append(seq)
        self._txs.append(tx)

    def cut_ready(self, watermark: float) -> list[tuple[float, list, list]]:
        """Cut all blocks whose commit time is at or before ``watermark``:
        each is its commit time, submission numbers and transactions."""
        blocks = []
        ends, head = self._ends, 0
        while head < len(ends):
            # A full batch commits at its last ordered time, any other at
            # the deadline its first transaction set.
            deadline = ends[head] + self.block_interval
            full = head + self.max_block_txs
            stop = bisect_right(ends, deadline, head, min(full, len(ends)))
            commit = ends[stop - 1] if stop == full else deadline
            if commit > watermark:
                break
            self._last_cut = commit
            blocks.append((commit, self._seqs[head:stop], self._txs[head:stop]))
            head = stop
        if head:
            for queue in (ends, self._seqs, self._txs):
                del queue[:head]
        return blocks


class SubscriptionHandle:
    """Delivery queue for one subscriber; committed txs arrive exactly once."""

    def __init__(self, channel: ChannelName, org_id: str):
        self.channel = channel
        self.org_id = org_id
        self._queue: deque[tuple[CommitReceipt, Payload]] = deque()

    def poll(self) -> list[tuple[CommitReceipt, Payload]]:
        out = list(self._queue)
        self._queue.clear()
        return out


class LedgerNetwork:
    """Three channels, shared membership, one ordering service per channel."""

    def __init__(self, membership: MembershipRegistry, mu: float = 200.0,
                 max_block_txs: int = 50, block_interval: float = 0.1,
                 access_overrides: dict | None = None):
        self.membership = membership
        self.chains: dict[ChannelName, list[Block]] = {
            name: [build_block(0, GENESIS_PREV, ())] for name in ChannelName
        }
        self._orderers = {
            name: _OrderingService(mu, max_block_txs, block_interval)
            for name in ChannelName
        }
        self._access = dict(DEFAULT_ACCESS)
        if access_overrides:
            self._access.update(access_overrides)
        self._writers = {key for key, perm in self._access.items() if perm["write"]}
        self._receipts: dict[int, CommitReceipt] = {}
        self._next_seq = 0
        self._subs: list[SubscriptionHandle] = []
        self._risk_hook: Callable | None = None
        self.device_origins: dict[str, str] = {}  # uid hex -> manufacturer org

    # -- policy -------------------------------------------------------------

    def _perm(self, channel: ChannelName, role: OrgRole) -> dict:
        return self._access.get((channel, role), _NO_ACCESS)

    def check_write(self, channel: ChannelName, org_id: str) -> None:
        """Raise ``PolicyDenied`` unless ``org_id``'s role may write ``channel``."""
        self._check_write(channel, self.membership.lookup(org_id)[0])

    def _check_write(self, channel: ChannelName, role: OrgRole) -> None:
        if (channel, role) not in self._writers:
            raise PolicyDenied(
                f"role {role.value} may not write to channel {channel.value}")

    def _read_mode(self, channel: ChannelName, org_id: str) -> str:
        role, _ = self.membership.lookup(org_id)
        return self._perm(channel, role)["read"]

    # -- submission and commit ------------------------------------------------

    def submit(self, tx: LedgerTransaction, now: float) -> int:
        """Validate a transaction and queue it for ordering.

        Returns a submission sequence number; the commit receipt appears
        under that number once the ordering service cuts the block.
        A transaction stamped after ``now`` is refused, and so is one whose
        submitter's credential has expired by ``now``.
        """
        # At ``now``: with the stamp no later, a credential in force at
        # submission was in force at the stamp too.
        channel = tx.channel
        role = check_transaction(tx, channel, self.membership, now)
        if tx.timestamp > now:
            raise BadTimestamp(
                f"transaction stamped {tx.timestamp}, after its submission at {now}")
        self._check_write(channel, role)
        seq = self._next_seq
        self._next_seq = seq + 1
        self._orderers[channel].submit(seq, tx, now)
        return seq

    def run_until(self, watermark: float) -> list[CommitReceipt]:
        """Commit every block whose cut time is at or before ``watermark``.

        The blocks are already out of the orderers, so a risk hook that
        raises stops none of them: every block commits, in order, each data
        transaction is passed to the hook once its whole block is recorded,
        and the first hook error is raised after the last block."""
        new_receipts: list[CommitReceipt] = []
        hook_error = None
        progress = True
        while progress:
            progress = False
            cuts = []
            for channel, orderer in self._orderers.items():
                for commit_time, seqs, txs in orderer.cut_ready(watermark):
                    cuts.append((commit_time, channel, seqs, txs))
            cuts.sort(key=lambda c: (c[0], c[1].value))
            for commit_time, channel, seqs, txs in cuts:
                progress = True
                receipts = self._commit(channel, commit_time, seqs, txs)
                new_receipts.extend(receipts)
                if channel is ChannelName.DATA and self._risk_hook is not None:
                    for receipt, tx in zip(receipts, txs):
                        try:
                            self._risk_hook(tx.payload, receipt)
                        except Exception as exc:
                            hook_error = hook_error or exc
        if hook_error is not None:
            raise hook_error
        return new_receipts

    def settle(self) -> list[CommitReceipt]:
        """Drain the orderers: commit everything currently queued."""
        return self.run_until(inf)

    def _commit(self, channel: ChannelName, commit_time: float,
                seqs: list[int], txs: list[LedgerTransaction]) -> list[CommitReceipt]:
        chain = self.chains[channel]
        height = len(chain)
        chain.append(build_block(height, chain[-1].block_hash, txs))
        receipts = [CommitReceipt(channel, height, idx, commit_time)
                    for idx in range(len(txs))]
        self._receipts.update(zip(seqs, receipts))
        for sub in self._subs:
            if sub.channel is channel:
                mode = self._read_mode(channel, sub.org_id)
                if mode != READ_NONE:
                    sub._queue.extend(
                        (receipt, tx.payload) for receipt, tx in zip(receipts, txs)
                        if mode != READ_OWN or self._owns(sub.org_id, tx.payload))
        return receipts

    def receipt(self, seq: int) -> CommitReceipt | None:
        return self._receipts.get(seq)

    # -- reads ----------------------------------------------------------------

    def query(self, channel: ChannelName, org_id: str) -> list[Payload]:
        mode = self._read_mode(channel, org_id)
        if mode == READ_NONE:
            role, _ = self.membership.lookup(org_id)
            raise PolicyDenied(
                f"role {role.value} may not read channel {channel.value}")
        return [tx.payload for block in self.chains[channel] for tx in block.txs
                if mode != READ_OWN or self._owns(org_id, tx.payload)]

    def _owns(self, org_id: str, payload: Payload) -> bool:
        uid = getattr(payload, "device_uid", None)
        if uid is None:
            return False
        return self.device_origins.get(uid.hex()) == org_id

    def register_device_origin(self, device_uid_hex: str, org_id: str) -> None:
        self.membership.lookup(org_id)
        self.device_origins[device_uid_hex] = org_id

    def subscribe(self, channel: ChannelName, org_id: str) -> SubscriptionHandle:
        if self._read_mode(channel, org_id) == READ_NONE:
            role, _ = self.membership.lookup(org_id)
            raise PolicyDenied(
                f"role {role.value} may not subscribe to channel {channel.value}")
        handle = SubscriptionHandle(channel, org_id)
        self._subs.append(handle)
        return handle

    def attach_risk_hook(self, hook: Callable[[DataEntry, CommitReceipt], None]) -> None:
        self._risk_hook = hook


# The organizations every consortium holds: the server writes identity and
# data records, the risk engine writes alerts.
CORE_ORGS: tuple[tuple[str, OrgRole], ...] = (
    ("server-org", OrgRole.SERVER),
    ("risk-engine", OrgRole.RISK_ENGINE),
)
ORG_CREDENTIAL_TTL = 10 * 365 * 86_400.0


def build_consortium(orgs: Iterable[tuple[str, OrgRole]], rng: Rng, now: float,
                     **network_params) -> tuple[LedgerNetwork, dict[str, OrgIdentity]]:
    """Give each ``(org_id, role)`` in turn a credential drawn from ``rng``
    and open a :class:`LedgerNetwork` whose members are exactly those orgs."""
    membership = MembershipRegistry()
    identities = {}
    for org_id, role in orgs:
        credential = crypto.sig_keygen(crypto.RoleTag.ORG_CREDENTIAL,
                                       ORG_CREDENTIAL_TTL, rng, now)
        identities[org_id] = OrgIdentity(org_id, role, credential)
        membership.register(org_id, role, credential.public)
    return LedgerNetwork(membership, **network_params), identities


def verify_blocks(blocks: list[Block], channel: ChannelName,
                  membership: MembershipRegistry) -> tuple[bool, int, str]:
    """Check linkage and heights from genesis, and each tx by check_transaction."""
    prev_hash = GENESIS_PREV
    for expected_height, block in enumerate(blocks):
        if block.height != expected_height:
            return False, expected_height, "height discontinuity"
        if block.prev_hash != prev_hash:
            return False, block.height, "previous-hash linkage broken"
        if crypto.sha256(block.body_bytes()) != block.block_hash:
            return False, block.height, "block hash mismatch"
        for idx, tx in enumerate(block.txs):
            if tx.channel is not channel:
                return False, block.height, f"tx {idx} on wrong channel"
            try:
                check_transaction(tx, channel, membership, tx.timestamp)
            except LedgerError as exc:
                return False, block.height, f"tx {idx}: {exc}"
        prev_hash = block.block_hash
    return True, len(blocks) - 1, "ok"


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

SNAPSHOT_HEADER = "#hearthgate-ledger-snapshot v1"


_ORG = wire.Record(None, {"org_id": wire.TEXT, "role": wire.enum_of(OrgRole, wire.TEXT),
                          "credential": wire.PUBLIC_KEY})


def write_snapshot(network: LedgerNetwork, path: str) -> None:
    lines = [SNAPSHOT_HEADER]
    for org_id in network.membership.known():
        role, credential = network.membership.lookup(org_id)
        record = _ORG.encode((org_id, role, credential))
        lines.append("O " + base64.b64encode(record).decode())
    for channel in ChannelName:
        for block in network.chains[channel]:
            raw = block.canonical_bytes()
            lines.append(
                f"B {channel.value} {block.height} {block.block_hash.hex()} "
                + base64.b64encode(raw).decode()
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_snapshot(path: str) -> tuple[MembershipRegistry, dict[ChannelName, list[Block]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise SnapshotError("missing or unrecognized snapshot header")
    membership = MembershipRegistry()
    chains: dict[ChannelName, list[Block]] = {name: [] for name in ChannelName}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        kind, _, rest = line.partition(" ")
        try:
            if kind == "O":
                org_id, role, credential = _ORG.decode(base64.b64decode(rest, validate=True))
                membership.register(org_id, role, credential)
            elif kind == "B":
                channel_s, height_s, hash_hex, blob = rest.split(" ", 3)
                block = decode_block(base64.b64decode(blob, validate=True))
                if block.height != int(height_s) or block.block_hash.hex() != hash_hex:
                    raise SnapshotError(
                        f"line {lineno}: block framing disagrees with content")
                chains[ChannelName(channel_s)].append(block)
            else:
                raise SnapshotError(f"line {lineno}: unknown record kind {kind!r}")
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(f"line {lineno}: {exc}") from exc
    return membership, chains


def verify_snapshot(path: str) -> tuple[bool, str]:
    """Full verification of a snapshot file; returns (ok, human-readable detail)."""
    try:
        membership, chains = load_snapshot(path)
    except SnapshotError as exc:
        return False, f"unreadable snapshot: {exc}"
    for channel in ChannelName:
        blocks = chains[channel]
        if not blocks:
            return False, f"channel {channel.value}: missing genesis block"
        ok, height, reason = verify_blocks(blocks, channel, membership)
        if not ok:
            return False, f"channel {channel.value}: block {height}: {reason}"
    return True, "ok"
