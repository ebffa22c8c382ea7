"""Threshold-based anomaly detection over data-channel commits.

Rules are static comparators loaded from configuration. The engine runs
synchronously when a data entry commits (invoked by the ledger's commit
hook under a dedicated risk-engine identity), so alert ordering is
deterministic given transaction order. Each rule names its notification
targets in the rule file (``[risk] rules``); alerts terminate at ledger
events.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .ledger import (
    ChannelName,
    CommitReceipt,
    LedgerNetwork,
    OrgIdentity,
    OrgRole,
    PolicyDenied,
    make_transaction,
)
from .payloads import DataEntry, RiskAlert
from .runtime import is_json_type


class Comparator(Enum):
    ABOVE = "above"
    BELOW = "below"


@dataclass(repr=False)
class ThresholdRule:
    """Alert when a metric crosses a threshold; names the severity and targets."""

    metric: str
    comparator: Comparator
    threshold: float
    unit: str
    severity: str
    targets: tuple[OrgRole, ...]

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        if not self.metric or not self.severity:
            raise ValueError("metric and severity must be nonempty")
        if not self.targets:
            raise ValueError("rule needs at least one notification target")

    def matches(self, entry: DataEntry) -> bool:
        if entry.metric != self.metric:
            return False
        if self.comparator is Comparator.ABOVE:
            return entry.value > self.threshold
        return entry.value < self.threshold


def evaluate(entry: DataEntry, rules: list[ThresholdRule],
             entry_ref: tuple[int, int] = (0, 0)) -> RiskAlert | None:
    """First matching rule (declaration order) wins; no match, no alert."""
    for rule in rules:
        if rule.matches(entry):
            return RiskAlert(
                device_uid=entry.device_uid,
                metric=entry.metric,
                observed=entry.value,
                threshold=rule.threshold,
                severity=rule.severity,
                notified_roles=tuple(t.value for t in rule.targets),
                entry_height=entry_ref[0],
                entry_index=entry_ref[1],
            )
    return None


def attach(network: LedgerNetwork, rules: list[ThresholdRule],
           identity: OrgIdentity) -> None:
    """Write ``rules``' alerts on each data commit as ``identity``, which must
    be a risk engine that the access map lets write them: else every alert
    would be refused at commit time."""
    if identity.role is not OrgRole.RISK_ENGINE:
        raise ValueError("risk engine needs a risk_engine identity")
    try:
        network.check_write(ChannelName.RISK_MANAGEMENT, identity.org_id)
    except PolicyDenied as exc:
        raise ValueError(f"risk engine cannot write alerts: {exc}") from None
    rules = list(rules)

    def hook(entry: DataEntry, receipt: CommitReceipt) -> None:
        alert = evaluate(entry, rules, entry_ref=(receipt.height, receipt.tx_index))
        if alert is not None:
            tx = make_transaction(ChannelName.RISK_MANAGEMENT, alert, identity,
                                  receipt.commit_time)
            network.submit(tx, receipt.commit_time)

    network.attach_risk_hook(hook)


_RULE_FIELDS = {"metric": "str", "comparator": "str", "threshold": "float",
                "unit": "str", "severity": "str", "targets": "list"}


def load_rules(path: str) -> list[ThresholdRule]:
    """Load rules from a JSON list of {metric, comparator, threshold, severity,
    unit, targets} objects; ``targets`` lists the role names to notify.
    An unknown key or a field of the wrong JSON type is a ``ValueError``
    naming its rule."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError("rule file must contain a JSON list")
    rules = []
    for i, item in enumerate(raw):
        try:
            if not isinstance(item, dict):
                raise ValueError(f"must be a JSON object, got {item!r}")
            unknown = sorted(set(item) - set(_RULE_FIELDS))
            if unknown:
                raise ValueError(f"unknown keys {unknown}")
            for key, kind in _RULE_FIELDS.items():
                if key in item and not is_json_type(item[key], kind):
                    raise ValueError(f"{key} must be of type {kind}, "
                                     f"got {item[key]!r}")
            rules.append(ThresholdRule(
                metric=item["metric"],
                comparator=Comparator(item["comparator"]),
                threshold=float(item["threshold"]),
                unit=item.get("unit", ""),
                severity=item["severity"],
                targets=tuple(OrgRole(t) for t in item["targets"]),
            ))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"rule {i}: {exc}") from exc
    return rules


DEFAULT_RULES = [
    ThresholdRule(
        metric="temperature_c",
        comparator=Comparator.ABOVE,
        threshold=60.0,
        unit="C",
        severity="high",
        targets=(OrgRole.EMERGENCY_SERVICE,),
    ),
]
