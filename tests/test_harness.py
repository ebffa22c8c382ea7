from __future__ import annotations

import json
import struct
from collections import Counter

import pytest

from conftest import registry_crl_disjoint
from hearthgate import channels as ch
from hearthgate import crypto, harness, roles, wire
from hearthgate.channels import (
    AdversaryKnowledge,
    DeliverAll,
    PublicChannel,
    Scripted,
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
    load_attack_rules,
    load_scenario,
    run_attack,
    run_campaign,
    run_scenario,
)
from hearthgate.roles import DevicePhase
from wire_fixtures import build_fixture_messages


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
        dst, key, message_kind, kind = ("server", session.keys.kem.public,
                                   wire.Kind.RegistrationRequest,
                                   ch.DEVICE_REQUEST_REJECTED)
        plaintext = wire.pack_fields([_bundle_naming(b"\xff\xfe"),
                                      device.uid.value, hybrid, signature])
    elif target == "activation":
        dst, key, message_kind, kind = (device.name, device.keys.kem.public,
                                   wire.Kind.ActivationResponse, ch.ACTIVATION_REJECTED)
        plaintext = wire.pack_fields([bytes(32), _bundle_naming(b"\xff\xfe")])
    else:
        entry = world.server.registry[device.uid.hex]
        dst, key, message_kind, kind = ("server", entry.server_keys.kem.public,
                                   wire.Kind.DataReport, ch.DATA_REJECTED)
        plaintext = wire.pack_fields([device.uid.value, b"\xff\xfe",
                                      struct.pack(">d", 1.0), b"C", bytes(32)])
    ct = crypto.hybrid_encrypt(key, plaintext, world.rng, world.clock.now())
    before = len(world.trace.events)
    world.dispatch(dst, wire.encode(wire.Message(message_kind, ct)), "adversary")
    assert [(e.kind, e.get("error")) for e in world.trace.events[before:]] == [
        (kind, "Malformed")]


def _onboarded_world() -> harness.World:
    """A direct world whose one device is active: a session, a consumed token
    and a registry entry that a stray message must leave alone."""
    return run_scenario(ScenarioSpec(devices=1, reports=(), retries=0), None,
                        seed=7).world


def _state(world: harness.World) -> tuple:
    server = world.server
    return ([(sid, s.established, s.pending_nonce)
             for sid, s in server.sessions.items()],
            [(p, p.consumed) for p in server.pending],
            [(uid, e, e.status) for uid, e in server.registry.items()],
            [d.phase for d in world.devices], [a.phase for a in world.auths])


def _encoded(kind: wire.Kind) -> bytes:
    return wire.encode(next(m for m in build_fixture_messages().values()
                            if m.kind is kind))


# Every (path, role) a message can arrive at; an authenticator is not on the
# public path at all.
ENDPOINTS = [("public", roles.Server), ("public", roles.Device),
             ("secure", roles.Server), ("secure", roles.Authenticator),
             ("secure", roles.Device)]


@pytest.mark.parametrize("kind", list(wire.Kind), ids=lambda kind: kind.name)
def test_message_without_a_handler_is_one_rejection_naming_its_kind(kind):
    # Trace digests pin each kind's name as this event's detail.
    world = _onboarded_world()
    endpoints = [(path, cls) for path, cls in ENDPOINTS
                 if (path, cls, kind) not in roles.HANDLERS]
    assert endpoints
    data = _encoded(kind)
    for path, cls in endpoints:
        role = next(r for r in world.by_name.values() if type(r) is cls)
        before, state = len(world.trace.events), _state(world)
        if path == "public":
            world.dispatch(role.name, data, "adversary")
        else:
            with pytest.raises(roles.Malformed):
                roles.receive(role, path, data, "adversary")
        assert [(e.kind, e.role, e.get("error"), e.get("detail"))
                for e in world.trace.events[before:]] == [
            (ch.MESSAGE_REJECTED, role.name, "Malformed", kind.name)], (path, cls)
        assert _state(world) == state


def test_public_path_takes_registrations_reports_and_activations_only():
    assert {key for key in roles.HANDLERS if key[0] == "public"} == {
        ("public", roles.Server, wire.Kind.RegistrationRequest),
        ("public", roles.Server, wire.Kind.DataReport),
        ("public", roles.Device, wire.Kind.ActivationResponse)}


def test_session_hello_on_the_public_path_opens_no_session():
    world = harness.World(ScenarioSpec(devices=1, reports=()), seed=7)
    hello = wire.encode(world.auths[0].login())
    world.execute({"on": 0, "action": "inject", "dst": "server", "data": hello})
    assert world.server.sessions == {}
    assert [(e.kind, e.get("detail")) for e in world.trace.events
            if e.kind in ch.REJECTION_KINDS] == [(ch.MESSAGE_REJECTED, "SessionHello")]


def test_public_message_for_an_authenticator_vanishes():
    world = _onboarded_world()
    auth = world.auths[0]
    before, state = len(world.trace.events), _state(world)
    for kind in wire.Kind:
        world.dispatch(auth.name, _encoded(kind), "adversary")
    assert world.trace.events[before:] == []
    assert _state(world) == state


def test_every_message_of_a_run_is_decoded_once(monkeypatch):
    encoded, decoded = [], []
    encode, decode = wire.encode, wire.decode

    def encoding(message):
        encoded.append(encode(message))
        return encoded[-1]

    def decoding(data):
        decoded.append(data)
        return decode(data)

    monkeypatch.setattr(wire, "encode", encoding)
    monkeypatch.setattr(wire, "decode", decoding)
    result = run_scenario(honest_spec(revoke=True), None, seed=7)
    assert result.trace.by_kind(ch.DEVICE_REVOKED)
    assert sorted(decoded) == sorted(encoded)
    K = wire.Kind
    assert Counter(decode(data).kind for data in decoded) == Counter({
        K.SessionHello: 2, K.NonceChallenge: 2, K.NonceResponse: 2,
        K.TokenDelivery: 1, K.DeviceProvision: 1, K.ConnectedNotice: 1,
        K.RevocationRequest: 1, K.RegistrationRequest: 1,
        K.ActivationResponse: 1, K.DataReport: 1})


def test_undecodable_bytes_are_one_rejection_on_either_path():
    junk = wire.encode(wire.Message(wire.Kind.NonceChallenge, bytes(16)))[:-3]
    rejections = []
    for path in ("public", "secure"):
        world = harness.World(ScenarioSpec(devices=1, reports=()), seed=7)
        auth, server = world.auths[0], world.server
        if path == "public":
            world.dispatch(server.name, junk, auth.name)
        else:
            with pytest.raises(roles.Malformed):
                roles.receive(server, path, junk, auth.name)
        rejections.append([(e.kind, e.role, e.get("error"), e.get("detail"))
                           for e in world.trace.events])
    assert rejections[0] == rejections[1] == [
        (ch.MESSAGE_REJECTED, "server", "Malformed", "Truncated")]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: nothing authenticates an "
                   "activation, so a forged one binds the device to the adversary's key")
def test_forged_activation_does_not_bind_the_device():
    def forge(world):
        device, now = world.devices[0], world.clock.now()
        rng = world.adv_rng.child("forge-activation")
        keys = crypto.generate_role_keys(crypto.RoleTag.SERVER_FOR_DEVICE,
                                         world.spec.key_ttl, rng, now,
                                         kem_algo=world.spec.kem_algo)
        payload = wire.ACTIVATION_PAYLOAD.encode((rng.bytes(32), keys.public))
        sealed = crypto.hybrid_encrypt(device.keys.public.kem, payload, rng, now)
        data = wire.encode(wire.Message(wire.Kind.ActivationResponse, sealed))
        return Scripted([{"on": 0, "action": "inject", "dst": device.name,
                          "data": data}])

    result = run_scenario(ScenarioSpec(devices=1, reports=(), retries=0), forge, seed=7)
    assert all(v.holds for v in check_all(result).values())
    device = result.world.devices[0]
    registered = result.world.server.registry[device.uid.hex]
    assert device.server_device_public == registered.server_keys.public


def test_unknown_attack_script():
    with pytest.raises(ScenarioInvalid):
        run_attack("no-such-script")


# Rules as a script file writes them; ``Scripted`` gets ``data_hex`` as bytes.
MALFORMED_RULES = {
    "bool on": {"on": True, "action": "drop"},
    "string on": {"on": "0", "action": "drop"},
    "string bit": {"on": 0, "action": "tamper", "bit": "x"},
    "negative seconds": {"on": 0, "action": "delay", "seconds": -1},
    "misspelt seconds": {"on": 0, "action": "delay", "second": 5},
    "bit on a drop": {"on": 0, "action": "drop", "bit": 3},
    "unknown action": {"on": 0, "action": "vanish"},
    "inject without dst": {"on": 0, "action": "inject", "data_hex": "00"},
    "inject with list dst": {"on": 0, "action": "inject", "dst": ["server"],
                             "data_hex": "00"},
    "inject without data": {"on": 0, "action": "inject", "dst": "server"},
}


@pytest.mark.parametrize("rule", MALFORMED_RULES.values(), ids=MALFORMED_RULES)
def test_malformed_rule_refused_before_any_run(rule, tmp_path):
    scripted = dict(rule)
    if "data_hex" in scripted:
        scripted["data"] = bytes.fromhex(scripted.pop("data_hex"))
    with pytest.raises(ValueError):
        Scripted([{"on": 5, "action": "drop"}, scripted])
    path = tmp_path / "script.json"
    path.write_text(json.dumps([{"on": 5, "action": "drop"}, rule]))
    with pytest.raises(ScenarioInvalid, match="^rule 1: "):
        load_attack_rules(str(path))


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
    assert wire.decode(rule["data"]).kind is wire.Kind.RegistrationRequest
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
                 '{"key_ttl": NaN}',
                 '{"key_ttl": Infinity}',
                 '{"mu": NaN}',
                 '{"mu": Infinity}',
                 '{"mu": 0}',
                 '{"block_interval": NaN}',
                 '{"max_block_txs": 0}',
                 '{"block_interval": -0.1}',
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
