from __future__ import annotations

import json

import pytest

from hearthgate import cli, harness, ledger
from hearthgate.cli import EXIT_CORRUPT, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from hearthgate.config import load_config
from hearthgate.ledger import ChannelName
from hearthgate.payloads import DeviceStatus
from hearthgate.roles import DevicePhase, RevokedDevice


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demo_success_and_snapshot(tmp_path, capsys):
    snap = tmp_path / "demo.snapshot"
    code, out, _ = run_cli(capsys, ["demo", "--snapshot", str(snap)])
    assert code == EXIT_OK
    assert "demo complete: all steps ok" in out
    assert snap.exists()
    code, out, _ = run_cli(capsys, ["verify-ledger", str(snap)])
    assert code == EXIT_OK


def test_demo_deterministic_transcript_and_snapshot(tmp_path, capsys):
    snap_a = tmp_path / "a.snapshot"
    snap_b = tmp_path / "b.snapshot"
    code_a, out_a, _ = run_cli(capsys, ["demo", "--seed", "3",
                                        "--snapshot", str(snap_a)])
    code_b, out_b, _ = run_cli(capsys, ["demo", "--seed", "3",
                                        "--snapshot", str(snap_b)])
    assert code_a == code_b == EXIT_OK
    assert out_a.replace(str(snap_a), "S") == out_b.replace(str(snap_b), "S")
    assert snap_a.read_bytes() == snap_b.read_bytes()


def test_demo_seed_changes_transcript(tmp_path, capsys):
    _, out_a, _ = run_cli(capsys, ["demo", "--seed", "3",
                                   "--snapshot", str(tmp_path / "a")])
    _, out_b, _ = run_cli(capsys, ["demo", "--seed", "4",
                                   "--snapshot", str(tmp_path / "b")])
    assert out_a != out_b


def test_demo_clock_skew_fails_token_check(tmp_path, capsys):
    conf = tmp_path / "hg.conf"
    conf.write_text("[core]\ntotp_step = 1\n"
                    "[demo]\nprovisioning_delay = 2.0\n"
                    f"snapshot = {tmp_path / 'x.snapshot'}\n")
    code, out, _ = run_cli(capsys, ["demo", "--config", str(conf)])
    assert code == EXIT_FAILURE
    assert "TokenExpired" in out
    assert "1-second step" in out
    assert "demo failed at step" in out


def test_demo_lifecycle_state(tmp_path):
    cfg = load_config(None, env={})
    cfg.snapshot = str(tmp_path / "life.snapshot")
    code, _, world = cli.run_demo(cfg)
    assert code == EXIT_OK
    device = world.devices[0]
    records = world.network.query(ChannelName.IDENTITY, "server-org")
    uid_records = [r for r in records if r.device_uid.hex() == device.uid.hex]
    assert [r.status for r in uid_records] == [DeviceStatus.ACTIVE,
                                               DeviceStatus.DEACTIVATED]
    assert device.keys.kem.public_key in world.server.crl
    with pytest.raises(RevokedDevice):
        world.server.handle_data_report(
            device.build_data_report("temperature_c", 20.0, "C").message)


def test_demo_with_post_quantum_backend(tmp_path, capsys):
    conf = tmp_path / "hg.conf"
    conf.write_text(f"[core]\nkem = ml-kem-512\n"
                    f"[demo]\nsnapshot = {tmp_path / 'pq.snapshot'}\n")
    code, out, _ = run_cli(capsys, ["demo", "--config", str(conf)])
    assert code == EXIT_OK
    assert "kem ml-kem-512" in out
    assert "demo complete" in out


HOT_RULE = {"metric": "temperature_c", "comparator": "above", "threshold": 60,
            "unit": "C", "severity": "high", "targets": ["emergency_service"]}


@pytest.fixture
def ledger_submits(monkeypatch) -> list:
    """Every transaction submitted to any ledger network."""
    submits = []
    submit = ledger.LedgerNetwork.submit

    def recorded(network, tx, now):
        submits.append(tx)
        return submit(network, tx, now)

    monkeypatch.setattr(ledger.LedgerNetwork, "submit", recorded)
    return submits


@pytest.mark.parametrize("rules, message", [
    ([dict(HOT_RULE, severity=5)], "rule 0: severity must be of type str, got 5"),
    ([HOT_RULE, "hot"], "rule 1: must be a JSON object, got 'hot'"),
    ([dict(HOT_RULE, units="C")], "rule 0: unknown keys ['units']"),
])
def test_demo_refuses_mistyped_rules(tmp_path, capsys, ledger_submits, rules,
                                     message):
    (tmp_path / "rules.json").write_text(json.dumps(rules))
    conf = tmp_path / "hg.conf"
    conf.write_text(f"[risk]\nrules = {tmp_path / 'rules.json'}\n"
                    f"[demo]\nsnapshot = {tmp_path / 'x.snapshot'}\n")
    code, out, err = run_cli(capsys, ["demo", "--config", str(conf)])
    assert code == EXIT_USAGE
    assert err == f"error: {message}\n"
    assert out == "" and ledger_submits == []
    assert not (tmp_path / "x.snapshot").exists()


def test_demo_refuses_access_map_barring_risk_engine(tmp_path, capsys,
                                                     ledger_submits):
    conf = tmp_path / "hg.conf"
    conf.write_text("[access]\nrisk_management.risk_engine = none\n"
                    f"[demo]\nsnapshot = {tmp_path / 'x.snapshot'}\n")
    code, out, err = run_cli(capsys, ["demo", "--config", str(conf)])
    assert code == EXIT_USAGE
    assert err == ("error: risk engine cannot write alerts: role risk_engine "
                   "may not write to channel risk_management\n")
    assert out == "" and ledger_submits == []
    assert not (tmp_path / "x.snapshot").exists()


def test_verify_ledger_missing_file(capsys):
    code, _, err = run_cli(capsys, ["verify-ledger", "/nonexistent.snapshot"])
    assert code == EXIT_USAGE
    assert "cannot read" in err


def test_verify_ledger_corruption(tmp_path, capsys):
    snap = tmp_path / "demo.snapshot"
    run_cli(capsys, ["demo", "--snapshot", str(snap)])
    lines = snap.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("B identity 1 "))
    import base64
    prefix, blob = lines[idx].rsplit(" ", 1)
    raw = bytearray(base64.b64decode(blob))
    raw[len(raw) // 3] ^= 0x01
    lines[idx] = prefix + " " + base64.b64encode(bytes(raw)).decode()
    snap.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, ["verify-ledger", str(snap)])
    assert code == EXIT_CORRUPT
    assert "block 1" in out


def test_attack_command(tmp_path, capsys):
    out_file = tmp_path / "attack.json"
    code, out, _ = run_cli(capsys, ["attack", "--script",
                                    "replay-device-request",
                                    "--out", str(out_file)])
    assert code == EXIT_OK
    assert "rejected: token consumed" in out
    record = json.loads(out_file.read_text())
    assert record["defeated"] is True
    assert record["error"] == "TokenUnknown"


def test_attack_unknown_script(capsys):
    code, _, err = run_cli(capsys, ["attack", "--script", "quantum-leap"])
    assert code == EXIT_USAGE
    assert "unknown attack script" in err


def test_attack_list(capsys):
    code, out, _ = run_cli(capsys, ["attack", "--list"])
    assert code == EXIT_OK
    for name in ("replay-device-request", "drop-activation"):
        assert name in out


def test_campaign_command(tmp_path, capsys):
    out_file = tmp_path / "records.jsonl"
    code, out, _ = run_cli(capsys, ["campaign", "--runs", "25", "--seed", "90",
                                    "--weights", "deliver=5,drop=1,replay=1",
                                    "--out", str(out_file)])
    assert code == EXIT_OK
    assert "0 violations / 25 runs" in out
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 25
    assert json.loads(lines[0])["seed"] == 90


def test_attack_script_file(tmp_path, capsys):
    script = tmp_path / "replay.json"
    script.write_text('[{"on": 0, "action": "replay"}]')
    code, out, _ = run_cli(capsys, ["attack", "--script-file", str(script)])
    assert code == EXIT_OK
    assert "TokenUnknown" in out
    assert '"Authentication": true' in out


def test_attack_script_file_counts_every_rejection_kind(tmp_path, capsys):
    # Bit 900 lands in the activation response's ciphertext: the device, not
    # the server, rejects it.
    script = tmp_path / "tamper.json"
    script.write_text('[{"on": 1, "action": "tamper", "bit": 900}]')
    code, out, _ = run_cli(capsys, ["attack", "--script-file", str(script)])
    assert code == EXIT_OK
    assert "1 rejection(s): Malformed(undecryptable)" in out


def test_attack_script_file_stop_withholds_activation(tmp_path, capsys):
    script = tmp_path / "stop.json"
    script.write_text('[{"on": 1, "action": "stop"}]')
    code, out, _ = run_cli(capsys, ["attack", "--script-file", str(script)])
    assert code == EXIT_OK
    assert "0 rejection(s): none" in out
    assert ('properties: {"Authentication": true, "KeypairConfidentiality": '
            'true, "TokenIntegrity": true}') in out
    result, _ = harness.run_script_file(str(script))
    assert [e.index for e in result.world.h_p.pending] == [1]
    assert result.world.devices[0].phase is DevicePhase.REQUEST_SENT


def test_attack_script_file_two_rules_on_one_index(tmp_path, capsys):
    script = tmp_path / "twice.json"
    script.write_text('[{"on": 0, "action": "drop"}, '
                      '{"on": 0, "action": "replay"}]')
    code, _, err = run_cli(capsys, ["attack", "--script-file", str(script)])
    assert code == EXIT_USAGE
    assert err == "attack: two rules on message 0\n"


def test_attack_script_file_with_scenario(tmp_path, capsys):
    script = tmp_path / "drop.json"
    script.write_text('[{"on": 0, "action": "drop"}]')
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"devices": 1, "retries": 0, "reports": []}')
    code, out, _ = run_cli(capsys, ["attack", "--script-file", str(script),
                                    "--scenario", str(scenario)])
    assert code == EXIT_OK
    # Keys that expire before the run ends: one line, not a traceback.
    scenario.write_text('{"devices": 1, "key_ttl": 3.0, "revoke": true}')
    code, _, err = run_cli(capsys, ["attack", "--script-file", str(script),
                                    "--scenario", str(scenario)])
    assert code == EXIT_USAGE
    assert err.startswith("attack: ") and err.count("\n") == 1, err


def test_attack_script_file_malformed(tmp_path, capsys):
    script = tmp_path / "bad.json"
    for text in ('[{"action": "replay"}]',
                 '[{"on": null, "action": "drop"}]',
                 '[{"on": true, "action": "drop"}]',
                 '[{"on": 0, "action": "delay", "seconds": null}]',
                 '[{"on": 0, "action": "tamper", "bit": 1.5}]',
                 '[{"on": 0, "action": "inject", "dst": "server", '
                 '"data_hex": 5}]',
                 '[{"on": 0, "action": "inject", "dst": ["server"], '
                 '"data_hex": "00"}]'):
        script.write_text(text)
        code, _, err = run_cli(capsys, ["attack", "--script-file",
                                        str(script)])
        assert code == EXIT_USAGE, text
        assert err.startswith("attack: ") and err.count("\n") == 1, err


def test_campaign_scenario_file_malformed(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    for text in ('{"reports": 5}', '{"devices": "3"}', '{"totp_step": "30"}',
                 '{"kem_algo": "ml-kem-768"}', '{"revoke": 1}', '[]',
                 # keys that expire before the run ends
                 '{"key_ttl": 3.0, "revoke": true}'):
        scenario.write_text(text)
        code, _, err = run_cli(capsys, ["campaign", "--runs", "1",
                                        "--scenario", str(scenario)])
        assert code == EXIT_USAGE, text
        assert err.startswith("campaign: ") and err.count("\n") == 1, err


def test_campaign_with_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"devices": 1, "retries": 1}')
    code, out, _ = run_cli(capsys, ["campaign", "--runs", "5", "--seed", "3",
                                    "--scenario", str(scenario)])
    assert code == EXIT_OK
    assert "0 violations / 5 runs" in out


def test_campaign_bad_weights(capsys):
    # All-zero weights would make every decision the last sorted action.
    for weights in ("deliver", "deliver=-1", "drop=nan", "tamper=inf",
                    "deliver=0,drop=0,replay=0,tamper=0,inject=0"):
        code, _, err = run_cli(capsys, ["campaign", "--runs", "1",
                                        "--weights", weights])
        assert code == EXIT_USAGE, weights
        assert err.startswith("campaign: ") and err.count("\n") == 1, err


def test_campaign_needs_a_run(capsys):
    for runs in ("0", "-3"):
        code, out, err = run_cli(capsys, ["campaign", "--runs", runs])
        assert code == EXIT_USAGE and out == "", runs
        assert err.startswith("campaign: ") and err.count("\n") == 1, err


def test_bench_command(tmp_path, capsys):
    out_file = tmp_path / "results.csv"
    code, out, _ = run_cli(capsys, ["bench", "--rates", "30,60",
                                    "--duration", "10",
                                    "--out", str(out_file)])
    assert code == EXIT_OK
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "rate,throughput,mean_ms,p50,p95,p99"
    assert len(lines) == 3


def test_bench_bad_rates(capsys):
    for rates in ("300:30:10", ",", ""):
        code, _, err = run_cli(capsys, ["bench", "--rates", rates])
        assert code == EXIT_USAGE, rates
        assert err.startswith("bench: ") and err.count("\n") == 1, err
