"""Payload records committed to the ledger channels.

Three payload types, one per channel: device lifecycle records on the
identity channel, sensor readings on the data channel, and alerts on the
risk management channel. Each has a canonical byte encoding (reusing the
wire field framing) because transaction signatures and block hashes are
computed over exact bytes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum

from .wire import Truncated, _f64, _parse_f64, pack_fields, unpack_fields


class DeviceStatus(Enum):
    ACTIVE = "active"
    DEACTIVATED = "deactivated"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

_TYPE_TAGS = {DeviceRecord: 1, DataEntry: 2, RiskAlert: 3}


def _u32(x: int) -> bytes:
    return struct.pack(">I", x)


def _parse_u32(b: bytes) -> int:
    if len(b) != 4:
        raise Truncated("expected 4-byte integer")
    return struct.unpack(">I", b)[0]


def encode_payload(payload: Payload) -> bytes:
    tag = _TYPE_TAGS[type(payload)]
    if isinstance(payload, DeviceRecord):
        fields = [
            payload.device_token, payload.server_device_public,
            payload.device_public, payload.auth_public, payload.device_uid,
            payload.status.value.encode(), _f64(payload.timestamp),
        ]
    elif isinstance(payload, DataEntry):
        fields = [
            payload.device_uid, payload.metric.encode(), _f64(payload.value),
            payload.unit.encode(), _f64(payload.timestamp),
            payload.device_public_ref,
        ]
    else:
        fields = [
            payload.device_uid, payload.metric.encode(), _f64(payload.observed),
            _f64(payload.threshold), payload.severity.encode(),
            pack_fields([r.encode() for r in payload.notified_roles]),
            _u32(payload.entry_height), _u32(payload.entry_index),
        ]
    return bytes([tag]) + pack_fields(fields)


def decode_payload(data: bytes) -> Payload:
    if not data:
        raise Truncated("empty payload")
    tag, body = data[0], data[1:]
    if tag == 1:
        token, sdp, dp, ap, uid, status, ts = unpack_fields(body, expect=7)
        return DeviceRecord(token, sdp, dp, ap, uid,
                            DeviceStatus(status.decode()), _parse_f64(ts))
    if tag == 2:
        uid, metric, value, unit, ts, ref = unpack_fields(body, expect=6)
        return DataEntry(uid, metric.decode(), _parse_f64(value), unit.decode(),
                         _parse_f64(ts), ref)
    if tag == 3:
        uid, metric, obs, thr, sev, roles, eb, ei = unpack_fields(body, expect=8)
        return RiskAlert(uid, metric.decode(), _parse_f64(obs), _parse_f64(thr),
                         sev.decode(),
                         tuple(r.decode() for r in unpack_fields(roles)),
                         _parse_u32(eb), _parse_u32(ei))
    raise Truncated(f"unknown payload tag {tag}")
