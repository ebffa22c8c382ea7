from __future__ import annotations

import struct

import pytest

from conftest import registry_crl_disjoint
from hearthgate import channels as ch
from hearthgate import crypto, harness, wire
from hearthgate.channels import (
    AdversaryKnowledge,
    DeliverAll,
    PublicChannel,
    Trace,
    derive_closure,
    kem_secret,
)
from hearthgate.harness import (
    ATTACK_SCRIPTS,
    AUTHENTICATION,
    KEYPAIR_CONFIDENTIALITY,
    TOKEN_INTEGRITY,
    LemmaVerdict,
    ScenarioInvalid,
    ScenarioSpec,
    bounded_exhaustive,
    check_all,
    check_authentication,
    check_keypair_confidentiality,
    check_token_integrity,
    load_scenario,
    run_attack,
    run_campaign,
    run_scenario,
)
from hearthgate.roles import DevicePhase


@pytest.fixture
def public_sends(monkeypatch) -> list[tuple]:
    """Every ``(src, dst, data, term)`` sent on a public channel."""
    sends = []
    send = PublicChannel.send

    def recorded(channel, *args):
        sends.append(args)
        return send(channel, *args)

    monkeypatch.setattr(PublicChannel, "send", recorded)
    return sends


def honest_spec(**kw) -> ScenarioSpec:
    defaults = dict(devices=1, reports=(("temperature_c", 21.5, "C"),), retries=1)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


def test_honest_scenario_reaches_registration_success():
    result = run_scenario(honest_spec(), DeliverAll(), seed=7)
    assert result.trace.by_kind(ch.REGISTRATION_SUCCESS)
    assert result.world.devices[0].phase is DevicePhase.ACTIVE
    assert all(v.holds for v in check_all(result).values())


def test_same_seed_byte_identical_trace():
    a = run_scenario(honest_spec(), DeliverAll(), seed=7)
    b = run_scenario(honest_spec(), DeliverAll(), seed=7)
    assert a.trace.render() == b.trace.render()
    assert a.trace.digest() == b.trace.digest()
    c = run_scenario(honest_spec(), DeliverAll(), seed=8)
    assert c.trace.digest() != a.trace.digest()


def _protocol_projection(trace: Trace):
    return [(e.role, e.kind, e.fields) for e in trace.events
            if e.kind != ch.ADVERSARY_ACTION]


def test_deliver_all_transparent_versus_direct_wiring():
    mediated = run_scenario(honest_spec(), DeliverAll(), seed=21)
    direct = run_scenario(honest_spec(), None, seed=21)
    assert _protocol_projection(mediated.trace) == _protocol_projection(direct.trace)
    assert (mediated.world.devices[0].phase is direct.world.devices[0].phase
            is DevicePhase.ACTIVE)


def test_honest_closure_contains_no_protected_secret(public_sends):
    # Runtime form of the confidentiality property over a full public transcript.
    result = run_scenario(honest_spec(), DeliverAll(), seed=11)
    closure = derive_closure(result.knowledge)
    assert result.protected
    assert not (result.protected & closure.terms)
    # The adversary did observe traffic: every public message's term.
    assert public_sends
    assert {term for *_, term in public_sends} <= result.knowledge.terms


# ---------------------------------------------------------------------------
# Checker self-tests against hand-built counterexamples
# ---------------------------------------------------------------------------

def test_authentication_checker_rejects_unvalidated_success():
    trace = Trace()
    trace.record("server", ch.REGISTRATION_SUCCESS, uid="u1", token="11111111",
                 nonce="aa")
    verdict = check_authentication(trace)
    assert not verdict.holds
    assert "11111111" in verdict.witness


def test_authentication_checker_requires_strict_order():
    trace = Trace()
    trace.record("server", ch.REGISTRATION_SUCCESS, uid="u1", token="1", nonce="n")
    trace.record("server", ch.DEVICE_REQUEST_ACCEPTED, uid="u1", token="1",
                 nonce="n", sig="s")
    assert not check_authentication(trace).holds  # acceptance came after


def test_token_integrity_checker_rejects_two_uids_per_token():
    trace = Trace()
    trace.record("server", ch.DEVICE_REQUEST_ACCEPTED, uid="u1", token="1",
                 nonce="n", sig="s")
    trace.record("server", ch.DEVICE_REQUEST_ACCEPTED, uid="u2", token="1",
                 nonce="n", sig="s")
    verdict = check_token_integrity(trace)
    assert not verdict.holds
    assert "u1" in verdict.witness and "u2" in verdict.witness


def test_token_integrity_allows_distinct_tokens():
    trace = Trace()
    trace.record("server", ch.DEVICE_REQUEST_ACCEPTED, uid="u1", token="1",
                 nonce="n", sig="s1")
    trace.record("server", ch.DEVICE_REQUEST_ACCEPTED, uid="u2", token="2",
                 nonce="n", sig="s2")
    assert check_token_integrity(trace).holds


def test_confidentiality_checker_detects_granted_secret():
    result = run_scenario(honest_spec(), DeliverAll(), seed=13)
    device = result.world.devices[0]
    leaked = AdversaryKnowledge(result.knowledge.terms)
    leaked.grant(kem_secret(device.keys.kem.key_id))
    verdict = check_keypair_confidentiality(leaked, result.protected)
    assert not verdict.holds
    assert device.keys.kem.key_id in verdict.witness


def test_lemma_verdict_witness_invariant():
    with pytest.raises(ValueError):
        LemmaVerdict(AUTHENTICATION, True, witness="nope")
    with pytest.raises(ValueError):
        LemmaVerdict(AUTHENTICATION, False, witness=None)


# ---------------------------------------------------------------------------
# Attack scripts
# ---------------------------------------------------------------------------

REJECTION_SCRIPTS = [
    ("replay-device-request", "TokenUnknown"),
    ("replay-stale-token", "TokenExpired"),
    ("tamper-ciphertext-bit", "Malformed"),
    ("token-swap-across-devices", "TokenUnknown"),
    ("inject-forged-registration", "SignatureInvalid"),
]


@pytest.mark.parametrize("name,expected_error", REJECTION_SCRIPTS)
def test_attack_script_defeated(name, expected_error):
    outcome = run_attack(name, seed=7)
    assert outcome.defeated, outcome.detail
    assert outcome.error_seen == expected_error
    assert all(v.holds for v in outcome.verdicts.values())
    honest = {d.uid.hex for d in outcome.result.world.devices}
    for event in outcome.result.trace.by_kind(ch.REGISTRATION_SUCCESS):
        assert event.get("uid") in honest


def test_replay_attack_single_success():
    outcome = run_attack("replay-device-request", seed=7)
    assert len(outcome.result.trace.by_kind(ch.REGISTRATION_SUCCESS)) == 1
    rejected = outcome.result.trace.by_kind(ch.DEVICE_REQUEST_REJECTED)
    assert any("consumed" in (e.get("detail") or "") for e in rejected)


def test_drop_activation_documented_divergence():
    outcome = run_attack("drop-activation", seed=7)
    assert outcome.defeated
    device = outcome.result.world.devices[0]
    assert device.phase is DevicePhase.REQUEST_SENT
    assert device.uid.hex in outcome.result.world.server.registry
    assert "divergence" in outcome.detail


def _bundle_naming(algo: bytes) -> bytes:
    """A key bundle framed by hand: two keys whose algorithm field is ``algo``."""
    key = wire.pack_fields([b"\x02", algo, bytes(32), struct.pack(">d", 0.0),
                            struct.pack(">d", 1e9)])
    return wire.pack_fields([key, key])


@pytest.mark.parametrize("target", ["registration", "activation", "data"])
def test_non_utf8_payload_field_is_one_traced_rejection(target):
    # The keys these payloads are encrypted to are public, so any sender can
    # put bytes that are not UTF-8 in a text field of a well-framed payload.
    world = run_attack("drop-activation", seed=7).result.world
    device = world.devices[0]
    hybrid = wire.pack_fields([b"encap", bytes(12), b"body", bytes(16)])
    signature = wire.pack_fields([b"\x01", bytes(64)])
    if target == "registration":
        (session,) = world.server.sessions.values()
        dst, key, message, kind = ("server", session.keys.kem.public,
                                   wire.RegistrationRequest,
                                   ch.DEVICE_REQUEST_REJECTED)
        plaintext = wire.pack_fields([_bundle_naming(b"\xff\xfe"),
                                      device.uid.value, hybrid, signature])
    elif target == "activation":
        dst, key, message, kind = (device.name, device.keys.kem.public,
                                   wire.ActivationResponse, ch.ACTIVATION_REJECTED)
        plaintext = wire.pack_fields([bytes(32), _bundle_naming(b"\xff\xfe")])
    else:
        entry = world.server.registry[device.uid.hex]
        dst, key, message, kind = ("server", entry.server_keys.kem.public,
                                   wire.DataReport, ch.DATA_REJECTED)
        plaintext = wire.pack_fields([device.uid.value, b"\xff\xfe",
                                      struct.pack(">d", 1.0), b"C", bytes(32)])
    ct = crypto.hybrid_encrypt(key, plaintext, world.rng, world.clock.now())
    before = len(world.trace.events)
    world.dispatch(dst, wire.encode(message(ct)), "adversary")
    assert [(e.kind, e.get("error")) for e in world.trace.events[before:]] == [
        (kind, "Malformed")]


def test_unknown_attack_script():
    with pytest.raises(ScenarioInvalid):
        run_attack("no-such-script")


def test_callable_adversary_runs_once_before_any_registration(public_sends):
    script = ATTACK_SCRIPTS["token-swap-across-devices"]
    seen = []

    def adversary(world):
        strategy = script.adversary(world)
        seen.append({"provisioned": world.devices[0].server_public is not None,
                     "pending": list(world.h_p.pending),
                     "rules": dict(strategy.rules)})
        return strategy

    result = run_scenario(ScenarioSpec(devices=1, reports=(), retries=0),
                          adversary, seed=7)
    assert len(seen) == 1
    assert seen[0]["provisioned"]
    assert seen[0]["pending"] == []
    # The table's inject rule, with forged registration bytes as its data.
    rule = seen[0]["rules"][1]
    assert {k: rule[k] for k in ("on", "action", "dst")} == script.rules[0]
    assert isinstance(wire.decode(rule["data"]), wire.RegistrationRequest)
    # Forged, not replayed: no public-channel message carried these bytes.
    assert public_sends
    assert rule["data"] not in {data for _, _, data, _ in public_sends}


# ---------------------------------------------------------------------------
# Campaign and bounded exhaustive
# ---------------------------------------------------------------------------

def test_small_randomized_campaign_clean():
    result = run_campaign(300, base_seed=5000)
    assert result.runs == 300
    assert result.clean, result.violations[:3]
    assert len(result.records) == 300
    assert len({r.trace_digest for r in result.records}) > 1  # seeds matter
    record = result.records[0]
    assert set(record.holds) == {AUTHENTICATION, TOKEN_INTEGRITY,
                                 KEYPAIR_CONFIDENTIALITY}


def test_two_device_campaign_clean():
    spec = ScenarioSpec(devices=2, reports=(("temperature_c", 21.5, "C"),),
                        retries=1)
    result = run_campaign(100, base_seed=9_000, spec=spec)
    assert result.clean, result.violations[:3]


def test_campaign_records_are_json():
    import json
    result = run_campaign(3, base_seed=42)
    for record in result.records:
        parsed = json.loads(record.to_json())
        assert parsed["seed"] == record.seed


def test_bounded_exhaustive_small_scenario_clean():
    spec = ScenarioSpec(devices=1, reports=(), retries=0)
    results = bounded_exhaustive(spec, seed=7, actions=("deliver", "drop"))
    assert len(results) > 4  # enumerated a real tree, not one path
    for prefix, verdicts in results:
        for verdict in verdicts.values():
            assert verdict.holds, (prefix, verdict)
    # The all-deliver branch completes registration; all-drop cannot.
    assert any(set(p) == {"deliver"} for p, _ in results if p)


def test_bounded_exhaustive_run_cap(monkeypatch):
    monkeypatch.setattr(harness, "MAX_BOUNDED_RUNS", 5)
    spec = ScenarioSpec(devices=2, reports=(("m", 1.0, "u"),), retries=1)
    with pytest.raises(ScenarioInvalid):
        bounded_exhaustive(spec, seed=7)


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def test_scenario_loader(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('{"devices": 2, "retries": 0, '
                    '"reports": [["temperature_c", 30.0, "C"]]}')
    spec = load_scenario(str(path))
    assert spec.devices == 2
    assert spec.reports == (("temperature_c", 30.0, "C"),)
    bad = tmp_path / "bad.json"
    for text in ('{"devices": 1, "frobnicate": true}',
                 '{"reports": 5}',
                 '{"reports": [["temperature_c", "30", "C"]]}',
                 '{"reports": [["temperature_c", 30.0]]}',
                 '{"devices": "3"}',
                 '{"devices": true}',
                 '{"totp_step": "30"}',
                 '{"key_ttl": null}',
                 '{"revoke": 1}',
                 '{"api_address": 5}',
                 '{"kem_algo": "ml-kem-768"}',
                 '["devices"]'):
        bad.write_text(text)
        with pytest.raises(ScenarioInvalid):
            load_scenario(str(bad))


def test_multi_device_scenario_all_activate():
    result = run_scenario(honest_spec(devices=3), DeliverAll(), seed=9)
    assert all(d.phase is DevicePhase.ACTIVE for d in result.world.devices)
    assert len(result.trace.by_kind(ch.REGISTRATION_SUCCESS)) == 3
    assert all(v.holds for v in check_all(result).values())


@pytest.mark.parametrize("devices", [15, 50, 200])
def test_devices_onboard_in_step_aligned_waves(devices):
    # Tokens are only valid in their own 30 s step, and onboarding one device
    # takes over 2 s of simulated time, so a large fleet needs several waves.
    result = run_scenario(honest_spec(devices=devices), DeliverAll(), seed=7)
    assert len(result.trace.by_kind(ch.REGISTRATION_SUCCESS)) == devices
    rejected = result.trace.by_kind(ch.DEVICE_REQUEST_REJECTED)
    assert not [e for e in rejected if e.get("error") == "TokenExpired"]
    assert all(d.phase is DevicePhase.ACTIVE for d in result.world.devices)


def test_post_quantum_backend_end_to_end():
    # Same protocol, ML-KEM-512 keys: all properties must hold unchanged.
    result = run_scenario(honest_spec(kem_algo="ml-kem-512"), DeliverAll(),
                          seed=17)
    assert result.world.devices[0].phase is DevicePhase.ACTIVE
    assert all(v.holds for v in check_all(result).values())


def test_bounded_exhaustive_with_replay_terminates():
    spec = ScenarioSpec(devices=1, reports=(), retries=0)
    results = bounded_exhaustive(spec, seed=7,
                                 actions=("deliver", "drop", "replay"))
    assert len(results) > 8
    for prefix, verdicts in results:
        assert all(v.holds for v in verdicts.values()), prefix


def test_revocation_scenario():
    result = run_scenario(honest_spec(revoke=True), DeliverAll(), seed=10)
    server = result.world.server
    uid = result.world.devices[0].uid.hex
    assert server.registry[uid].status.value == "deactivated"
    assert result.trace.by_kind(ch.DEVICE_REVOKED)
    assert registry_crl_disjoint(server)
