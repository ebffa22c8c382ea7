from __future__ import annotations

import json

import pytest

from hearthgate import channels, cli, harness, ledger, risk
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
                    f"[demo]\nsnapshot = {tmp_path / 'x.snapshot'}\n")
    code, out, _ = run_cli(capsys, ["demo", "--config", str(conf)])
    assert code == EXIT_FAILURE
    assert ("[4] device registration: FAILED TokenExpired: token outside its "
            "validity step") in out
    assert "demo failed at step 4" in out


def test_demo_fails_on_a_raised_error(tmp_path, capsys, monkeypatch):
    # Keys that expire mid-run: the builder raises, and no handler traces it.
    monkeypatch.setenv("HEARTHGATE_CORE_KEY_TTL", "1.5")
    snap = tmp_path / "x.snapshot"
    code, out, _ = run_cli(capsys, ["demo", "--snapshot", str(snap)])
    assert code == EXIT_FAILURE
    assert "\n[4] device registration: FAILED KeyExpired" in out
    assert "demo failed at step 4" in out
    assert not snap.exists()


def test_demo_fails_on_a_risk_hook_error(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("rule engine down")

    monkeypatch.setattr(risk, "evaluate", broken)
    snap = tmp_path / "x.snapshot"
    code, out, _ = run_cli(capsys, ["demo", "--snapshot", str(snap)])
    assert code == EXIT_FAILURE
    assert ("[7] data report (normal): FAILED ValueError: rule engine down"
            in out)
    assert "demo failed at step 7" in out
    assert "all steps ok" not in out and not snap.exists()


def test_demo_fails_where_the_server_may_not_read(tmp_path, capsys):
    conf = tmp_path / "hg.conf"
    conf.write_text("[access]\nrisk_management.server = none\n"
                    f"[demo]\nsnapshot = {tmp_path / 'x.snapshot'}\n")
    code, out, _ = run_cli(capsys, ["demo", "--config", str(conf)])
    assert code == EXIT_FAILURE
    assert ("[7] data report (normal): FAILED PolicyDenied: role server may "
            "not read channel risk_management") in out
    assert not (tmp_path / "x.snapshot").exists()


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
    assert err == f"demo: {message}\n"
    assert out == "" and ledger_submits == []
    assert not (tmp_path / "x.snapshot").exists()


def test_demo_refuses_access_map_barring_risk_engine(tmp_path, capsys,
                                                     ledger_submits):
    conf = tmp_path / "hg.conf"
    conf.write_text("[access]\nrisk_management.risk_engine = none\n"
                    f"[demo]\nsnapshot = {tmp_path / 'x.snapshot'}\n")
    code, out, err = run_cli(capsys, ["demo", "--config", str(conf)])
    assert code == EXIT_USAGE
    assert err == ("demo: risk engine cannot write alerts: role risk_engine "
                   "may not write to channel risk_management\n")
    assert out == "" and ledger_submits == []
    assert not (tmp_path / "x.snapshot").exists()


def test_verify_ledger_missing_file(capsys):
    code, _, err = run_cli(capsys, ["verify-ledger", "/nonexistent.snapshot"])
    assert code == EXIT_USAGE
    assert err.startswith("verify-ledger: ") and err.count("\n") == 1, err
    assert "/nonexistent.snapshot" in err


def test_demo_missing_rules_file(tmp_path, capsys):
    conf = tmp_path / "hg.conf"
    conf.write_text(f"[risk]\nrules = {tmp_path / 'absent.json'}\n"
                    f"[demo]\nsnapshot = {tmp_path / 'x.snapshot'}\n")
    code, out, err = run_cli(capsys, ["demo", "--config", str(conf)])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("demo: ") and err.count("\n") == 1, err
    assert "absent.json" in err
    assert not (tmp_path / "x.snapshot").exists()


@pytest.mark.parametrize("argv", [
    ["attack", "--script", "replay-device-request"],
    ["campaign", "--runs", "2"],
    ["bench", "--rates", "30", "--duration", "10"],
], ids=lambda argv: argv[0])
def test_out_in_a_missing_directory_is_one_line(tmp_path, capsys, argv):
    out_file = tmp_path / "missing" / "out"
    code, _, err = run_cli(capsys, [*argv, "--out", str(out_file)])
    assert code == EXIT_USAGE
    assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and str(out_file) in err


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


def test_attack_list_refuses_other_options(tmp_path, capsys):
    out_path = tmp_path / "o.json"
    for argv in (["--out", str(out_path)], ["--script", "replay-device-request"],
                 ["--script-file", "s.json"], ["--scenario", "s.json"]):
        code, out, err = run_cli(capsys, ["attack", "--list", *argv])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("attack: --list takes no --script, --script-file, "
                       "--scenario or --out\n")
    assert not out_path.exists()


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


def test_attack_refuses_options_it_would_ignore(tmp_path, capsys):
    script = tmp_path / "drop.json"
    script.write_text('[{"on": 0, "action": "drop"}]')
    out_path = tmp_path / "o.json"
    for argv, reason in (
            (["--script-file", str(script), "--out", str(out_path)],
             "--out goes with --script, not --script-file"),
            # the scenario file need not exist: nothing reads it
            (["--script", "replay-device-request",
              "--scenario", str(tmp_path / "missing.json")],
             "--scenario goes with --script-file only")):
        code, out, err = run_cli(capsys, ["attack", *argv])
        assert (code, out, err) == (EXIT_USAGE, "", f"attack: {reason}\n")
    assert not out_path.exists()


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
                 '"data_hex": "00"}]',
                 # names no role that takes public messages: it would vanish
                 '[{"on": 0, "action": "inject", "dst": "servr", '
                 '"data_hex": "00"}]',
                 '[{"on": 0, "action": "inject", "dst": "auth-0", '
                 '"data_hex": "00"}]'):
        script.write_text(text)
        code, out, err = run_cli(capsys, ["attack", "--script-file",
                                          str(script)])
        assert code == EXIT_USAGE and out == "", text
        assert err.startswith("attack: rule 0: ") and err.count("\n") == 1, err


def test_campaign_scenario_file_malformed(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    for text in ('{"reports": 5}', '{"devices": "3"}', '{"totp_step": "30"}',
                 '{"kem_algo": "ml-kem-768"}', '{"revoke": 1}', '[]',
                 '{"key_ttl": NaN}',
                 # a reading and retries the run would refuse mid-run
                 '{"reports": [["temperature_c", NaN, "C"]], "retries": -3}',
                 # keys that expire before the run ends
                 '{"key_ttl": 3.0, "revoke": true}'):
        scenario.write_text(text)
        code, _, err = run_cli(capsys, ["campaign", "--runs", "1",
                                        "--scenario", str(scenario)])
        assert code == EXIT_USAGE, text
        assert err.startswith("campaign: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("section, key, field, raw, value, reason", [
    ("core", "totp_step", "totp_step", "0", 0,
     "totp_step must be positive and finite"),
    ("ledger", "mu", "mu", "0", 0, "mu must be positive and finite"),
    ("ledger", "max_block_txs", "max_block_txs", "0", 0,
     "max_block_txs must be positive and finite"),
    ("core", "kem", "kem_algo", "rot13", "rot13", "unknown KEM backend 'rot13'"),
], ids=["totp_step", "mu", "max_block_txs", "kem"])
def test_each_scenario_setting_has_one_rule(tmp_path, capsys, monkeypatch,
                                            section, key, field, raw, value,
                                            reason):
    """A config file, a ``HEARTHGATE_*`` override and a ``--scenario`` file
    refuse the same bad value with the same reason: ``ScenarioSpec``'s."""
    conf = tmp_path / "hg.conf"
    conf.write_text(f"[{section}]\n{key} = {raw}\n")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({field: value}))
    errs = [run_cli(capsys, ["demo", "--config", str(conf)])[2]]
    monkeypatch.setenv(f"HEARTHGATE_{section.upper()}_{key.upper()}", raw)
    errs.append(run_cli(capsys, ["demo"])[2])
    errs.append(run_cli(capsys, ["campaign", "--runs", "1",
                                 "--scenario", str(scenario)])[2])
    assert errs == [f"demo: {reason}\n", f"demo: {reason}\n",
                    f"campaign: {reason}\n"]


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


@pytest.mark.parametrize("argv", [
    ["--rates", "inf"], ["--rates", "30:inf:25"], ["--rates", "nan"],
    ["--duration", "nan"], ["--duration", "inf"], ["--mu", "nan"], ["--mu", "inf"],
    ["--block-interval", "nan"], ["--block-interval", "inf"],
], ids=" ".join)
def test_bench_refuses_non_finite_numbers(capsys, argv):
    # Each of these once kept the load generator's arrival loop running.
    code, out, err = run_cli(capsys, ["bench", "--rates", "30", "--duration", "10", *argv])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("bench: ") and err.count("\n") == 1, err


def test_bench_bad_rates(capsys):
    for rates in ("300:30:10", ",", "", "30:300:1e-20"):
        code, _, err = run_cli(capsys, ["bench", "--rates", rates])
        assert code == EXIT_USAGE, rates
        assert err.startswith("bench: ") and err.count("\n") == 1, err


def test_campaign_prints_rejection_counts_by_kind_and_code(capsys):
    code, out, _ = run_cli(capsys, ["campaign", "--runs", "12", "--seed", "3000"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[:2] == ["0 violations / 12 runs", "rejections:"]
    printed = {}
    for line in lines[2:]:
        label, n = line.split()
        kind, error = label.split("/")
        printed[kind, error] = int(n)
    # The same runs counted here, event by event.
    direct = {}
    for seed in range(3000, 3012):
        result = harness.run_scenario(
            harness.campaign_spec(),
            lambda world: channels.Randomized(lambda: harness.forge_registration(world)),
            seed)
        for event in result.trace.events:
            if event.kind in channels.REJECTION_KINDS:
                key = (event.kind, event.get("error"))
                direct[key] = direct.get(key, 0) + 1
    assert printed == direct and sum(direct.values()) > 0
    assert list(printed) == sorted(printed)
