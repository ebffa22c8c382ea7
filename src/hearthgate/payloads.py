"""Payload records committed to the ledger channels.

Three payload types, one per channel: device lifecycle records on the
identity channel, sensor readings on the data channel, and alerts on the
risk management channel. Each has a canonical byte encoding, one
``wire.Record`` per type behind a one-byte type tag, because transaction
signatures and block hashes are computed over exact bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .wire import F64, RAW, TEXT, TEXT_LIST, U32, Record, Truncated, enum_of


class DeviceStatus(Enum):
    ACTIVE = "active"
    DEACTIVATED = "deactivated"


@dataclass(repr=False)
class DeviceRecord:
    """Identity-channel record: exactly the fields of the activation transaction."""

    device_token: bytes          # long-lived token, 32 bytes
    server_device_public: bytes  # encoded key bundle dedicated to this device
    device_public: bytes         # encoded device key bundle
    auth_public: bytes           # encoded authenticator session bundle
    device_uid: bytes            # 16 bytes
    status: DeviceStatus
    timestamp: float

    def validate(self) -> None:
        if len(self.device_token) != 32:
            raise ValueError("device token must be 32 bytes")
        if len(self.device_uid) != 16:
            raise ValueError("device uid must be 16 bytes")
        for name in ("server_device_public", "device_public", "auth_public"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")


@dataclass(repr=False)
class DataEntry:
    """Data-channel record: one reading from an active device."""

    device_uid: bytes
    metric: str
    value: float
    unit: str
    timestamp: float
    device_public_ref: bytes  # 32-byte digest of the reporting device's bundle

    def validate(self) -> None:
        if len(self.device_uid) != 16:
            raise ValueError("device uid must be 16 bytes")
        if not self.metric:
            raise ValueError("metric must be nonempty")
        if not self.unit:
            raise ValueError("unit must be nonempty")
        if not math.isfinite(self.value):
            raise ValueError("value must be finite")
        if len(self.device_public_ref) != 32:
            raise ValueError("device public ref must be a 32-byte digest")


@dataclass(repr=False)
class RiskAlert:
    """Risk-channel record raised by a threshold rule over one data entry."""

    device_uid: bytes
    metric: str
    observed: float
    threshold: float
    severity: str
    notified_roles: tuple[str, ...]
    entry_height: int  # data-channel block of the triggering entry
    entry_index: int   # transaction index inside that block

    def validate(self) -> None:
        if len(self.device_uid) != 16:
            raise ValueError("device uid must be 16 bytes")
        if not self.metric or not self.severity:
            raise ValueError("metric and severity must be nonempty")
        if not self.notified_roles:
            raise ValueError("at least one notified role required")
        if not (math.isfinite(self.observed) and math.isfinite(self.threshold)):
            raise ValueError("observed and threshold must be finite")
        if self.entry_height < 0 or self.entry_index < 0:
            raise ValueError("entry reference must be nonnegative")


Payload = DeviceRecord | DataEntry | RiskAlert

# Each payload type's one-byte tag and record.
_RECORDS = {
    DeviceRecord: (b"\x01", Record(DeviceRecord, {
        "device_token": RAW, "server_device_public": RAW, "device_public": RAW,
        "auth_public": RAW, "device_uid": RAW, "status": enum_of(DeviceStatus, TEXT),
        "timestamp": F64})),
    DataEntry: (b"\x02", Record(DataEntry, {
        "device_uid": RAW, "metric": TEXT, "value": F64, "unit": TEXT,
        "timestamp": F64, "device_public_ref": RAW})),
    RiskAlert: (b"\x03", Record(RiskAlert, {
        "device_uid": RAW, "metric": TEXT, "observed": F64, "threshold": F64,
        "severity": TEXT, "notified_roles": TEXT_LIST, "entry_height": U32,
        "entry_index": U32})),
}
_BY_TAG = {tag[0]: record for tag, record in _RECORDS.values()}


def encode_payload(payload: Payload) -> bytes:
    tag, record = _RECORDS[type(payload)]
    return tag + record.encode(payload)


def decode_payload(data: bytes) -> Payload:
    if not data:
        raise Truncated("empty payload")
    record = _BY_TAG.get(data[0])
    if record is None:
        raise Truncated(f"unknown payload tag {data[0]}")
    return record.decode(data[1:])
