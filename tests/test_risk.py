from __future__ import annotations

import json

import pytest

from conftest import NOW, make_network, verify_chain
from hearthgate import risk
from hearthgate.ledger import ChannelName, OrgRole, make_transaction
from hearthgate.payloads import DataEntry, RiskAlert
from hearthgate.risk import Comparator, ThresholdRule, attach, evaluate
from hearthgate.runtime import seeded_rng


def entry(rng, value: float, metric: str = "temperature_c") -> DataEntry:
    return DataEntry(rng.bytes(16), metric, value, "C", NOW, rng.bytes(32))


HIGH_TEMP = ThresholdRule("temperature_c", Comparator.ABOVE, 60.0, "C", "high",
                          (OrgRole.EMERGENCY_SERVICE,))
LOW_TEMP = ThresholdRule("temperature_c", Comparator.BELOW, 5.0, "C", "medium",
                         (OrgRole.SERVER,))


def test_normal_reading_no_alert():
    rng = seeded_rng(1)
    assert evaluate(entry(rng, 22.0), [HIGH_TEMP]) is None


def test_high_reading_alerts_with_targets():
    rng = seeded_rng(2)
    alert = evaluate(entry(rng, 75.0), [HIGH_TEMP], entry_ref=(3, 1))
    assert alert is not None
    assert alert.severity == "high"
    assert alert.notified_roles == ("emergency_service",)
    assert alert.threshold == 60.0
    assert alert.observed == 75.0
    assert (alert.entry_height, alert.entry_index) == (3, 1)


def test_first_matching_rule_wins():
    rng = seeded_rng(3)
    duplicate = ThresholdRule("temperature_c", Comparator.ABOVE, 50.0, "C",
                              "critical", (OrgRole.INSURER,))
    alert = evaluate(entry(rng, 75.0), [HIGH_TEMP, duplicate])
    assert alert.severity == "high"
    alert = evaluate(entry(rng, 75.0), [duplicate, HIGH_TEMP])
    assert alert.severity == "critical"


def test_below_comparator():
    rng = seeded_rng(4)
    assert evaluate(entry(rng, 2.0), [LOW_TEMP]) is not None
    assert evaluate(entry(rng, 7.0), [LOW_TEMP]) is None


def test_rule_invariants():
    with pytest.raises(ValueError):
        ThresholdRule("m", Comparator.ABOVE, float("inf"), "C", "s",
                      (OrgRole.SERVER,))
    with pytest.raises(ValueError):
        ThresholdRule("m", Comparator.ABOVE, 1.0, "C", "s", ())
    # An alert with an empty severity would fail the risk channel's
    # validation in the middle of committing the data block that raised it.
    with pytest.raises(ValueError, match="nonempty"):
        ThresholdRule("m", Comparator.ABOVE, 1.0, "C", "", (OrgRole.SERVER,))


def _engine(rng, net, orgs) -> None:
    attach(net, [HIGH_TEMP], orgs["risk-engine"])


def test_commit_hook_writes_alert_to_risk_channel():
    rng = seeded_rng(7)
    net, orgs = make_network(rng)
    _engine(rng, net, orgs)
    watchers = net.subscribe(ChannelName.RISK_MANAGEMENT, "fire-dept")
    tx = make_transaction(ChannelName.DATA, entry(rng, 82.0),
                          orgs["server-org"], NOW)
    net.submit(tx, NOW)
    net.settle()
    alerts = net.query(ChannelName.RISK_MANAGEMENT, "fire-dept")
    assert len(alerts) == 1
    assert isinstance(alerts[0], RiskAlert)
    events = watchers.poll()
    assert len(events) == 1
    assert verify_chain(net, ChannelName.RISK_MANAGEMENT)[0]


def test_alert_traceable_to_exactly_one_entry():
    rng = seeded_rng(8)
    net, orgs = make_network(rng)
    _engine(rng, net, orgs)
    values = [20.0, 75.0, 30.0, 90.0]
    t = NOW
    for v in values:
        tx = make_transaction(ChannelName.DATA, entry(rng, v),
                              orgs["server-org"], t)
        net.submit(tx, t)
        t += 0.5
    net.settle()
    alerts = net.query(ChannelName.RISK_MANAGEMENT, "server-org")
    entries = net.query(ChannelName.DATA, "server-org")
    assert len(alerts) == 2
    data_chain = net.chains[ChannelName.DATA]
    referenced = []
    for alert in alerts:
        source = data_chain[alert.entry_height].txs[alert.entry_index].payload
        assert source.device_uid == alert.device_uid
        assert source.value == alert.observed
        referenced.append((alert.entry_height, alert.entry_index))
    assert len(set(referenced)) == len(referenced)
    assert len(entries) == len(values)


def test_soundness_and_completeness_sweep():
    # Every matching entry produces exactly one alert; no non-matching entry does.
    rng = seeded_rng(9)
    net, orgs = make_network(rng)
    _engine(rng, net, orgs)
    t = NOW
    expected_alerts = 0
    for i in range(60):
        value = float(rng.randrange(120))
        if value > 60.0:
            expected_alerts += 1
        tx = make_transaction(ChannelName.DATA, entry(rng, value),
                              orgs["server-org"], t)
        net.submit(tx, t)
        t += 0.2
    net.settle()
    alerts = net.query(ChannelName.RISK_MANAGEMENT, "server-org")
    assert len(alerts) == expected_alerts


def test_load_rules_from_json(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([
        {"metric": "temperature_c", "comparator": "above", "threshold": 60,
         "unit": "C", "severity": "high", "targets": ["emergency_service"]},
        {"metric": "humidity_pct", "comparator": "below", "threshold": 10,
         "unit": "%", "severity": "low", "targets": ["server", "insurer"]},
    ]))
    rules = risk.load_rules(str(path))
    assert len(rules) == 2
    assert rules[0] == HIGH_TEMP
    assert rules[1].targets == (OrgRole.SERVER, OrgRole.INSURER)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"metric": "m"}]))
    with pytest.raises(ValueError):
        risk.load_rules(str(bad))
