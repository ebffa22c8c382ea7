from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import pytest

from conftest import NOW, make_network, registry_crl_disjoint
from hearthgate import channels as ch
from hearthgate import crypto, harness, roles, wire
from hearthgate.channels import SecureChannel, Trace
from hearthgate.crypto import KeyExpired, RoleTag
from hearthgate.ledger import ORG_CREDENTIAL_TTL, ChannelName, InvalidPayload
from hearthgate.payloads import DeviceStatus
from hearthgate.roles import (
    AlreadyRevoked,
    AuthPhase,
    Authenticator,
    Device,
    DevicePhase,
    LedgerRejected,
    LinkKeyMismatch,
    Malformed,
    NonceMismatch,
    NoSession,
    NotProvisioned,
    RevokedDevice,
    Server,
    SignatureInvalid,
    TokenExpired,
    TokenMismatch,
    TokenUnknown,
    UnknownDevice,
    deliver_token,
    establish_session,
    provision_device,
)
from hearthgate.runtime import SimClock, seeded_rng


class World:
    def __init__(self, seed=7, server_org="server-org", totp_step=30,
                 key_ttl=86_400.0, retries=0):
        self.rng = seeded_rng(seed)
        self.clock = SimClock(NOW)
        self.trace = Trace()
        self.network, self.orgs = make_network(self.rng)
        self.h_s = SecureChannel("authenticator", "server")
        self.link = crypto.gen_link_key(self.rng)
        self.server = Server(self.rng.child("server"), self.clock, self.trace,
                             network=self.network,
                             identity=self.orgs[server_org],
                             totp_step=totp_step, key_ttl=key_ttl)
        self.auth = Authenticator(self.rng.child("auth"), self.clock, self.trace,
                                  key_ttl=key_ttl)
        self.auth.provision_link_key("device-1", self.link)
        self.device = Device(self.rng.child("device"), self.clock, self.trace,
                             self.link, name="device-1", key_ttl=key_ttl,
                             max_retries=retries)
        self.sent_wire: list[bytes] = []

    def session(self) -> str:
        self.session_id = establish_session(self.auth, self.server, self.h_s)
        return self.session_id

    def onboard(self) -> list:
        """Full honest flow up to device activation; returns server outgoing."""
        self.session()
        deliver_token(self.auth, self.server, self.session_id, self.h_s)
        provision_device(self.auth, self.device)
        request = self.device.build_registration_request()
        self.sent_wire.append(wire.encode(request.message))
        outgoing = self.server.handle_registration(request.message, "device-1")
        for out in outgoing:
            self.sent_wire.append(wire.encode(out.message))
            if out.message.kind is wire.Kind.ActivationResponse:
                self.device.handle_activation(out.message)
            elif out.message.kind is wire.Kind.ConnectedNotice:
                self.auth.handle_connected_notice(out.message)
        return outgoing


def test_happy_path_end_to_end():
    w = World()
    w.onboard()
    assert w.auth.phase is AuthPhase.DEVICE_CONNECTED
    assert w.device.phase is DevicePhase.ACTIVE
    assert w.device.device_token is not None
    entry = w.server.registry[w.device.uid.hex]
    assert entry.status is DeviceStatus.ACTIVE
    assert entry.device_token == w.device.device_token
    records = w.network.query(ChannelName.IDENTITY, "server-org")
    assert len(records) == 1 and records[0].status is DeviceStatus.ACTIVE
    kinds = [e.kind for e in w.trace.events]
    for expected in (ch.SESSION_ESTABLISHED, ch.TOKEN_ISSUED,
                     ch.DEVICE_PROVISIONED, ch.DEVICE_REQUEST_SENT,
                     ch.DEVICE_REQUEST_ACCEPTED, ch.REGISTRATION_SUCCESS,
                     ch.KEYPAIR_DELIVERED, ch.DEVICE_ACTIVATED,
                     ch.CONNECTED_NOTICE):
        assert expected in kinds


def test_mutual_auth_rejects_replayed_nonce_response():
    w = World()
    w.session()
    # Capture a legitimate response from a second login, then replay it
    # against a third session whose nonce differs.
    hello, challenge = w.server.accept_session(w.auth.login(), "authenticator")
    w.auth.handle_session_hello(hello)
    response2, _ = w.auth.handle_nonce_challenge(challenge)
    w.server.handle_nonce_response(response2, "authenticator")
    with pytest.raises(NonceMismatch):  # a replay: the nonce is cleared
        w.server.handle_nonce_response(response2, "authenticator")


def test_server_signs_no_challenge_before_its_own_nonce_is_answered():
    w = World()
    w.server.accept_session(w.auth.login(), "authenticator")
    with pytest.raises(NonceMismatch):
        w.server.handle_auth_challenge(
            wire.Message(wire.Kind.NonceChallenge, bytes(16)), "authenticator")
    assert not any(s.established for s in w.server.sessions.values())
    with pytest.raises(NoSession):  # no session was opened on this channel
        w.server.handle_auth_challenge(
            wire.Message(wire.Kind.NonceChallenge, bytes(16)), "stranger")
    assert [(e.kind, e.get("error")) for e in w.trace.events] == [
        (ch.MESSAGE_REJECTED, "NonceMismatch"), (ch.MESSAGE_REJECTED, "NoSession")]


def test_expired_authenticator_keys_force_relogin():
    w = World(key_ttl=100.0)
    hello = w.auth.login()
    w.clock.advance(101.0)
    with pytest.raises(Malformed, match="expired"):
        w.server.accept_session(hello, "authenticator")
    # Fresh login after the failure succeeds.
    w.session()
    assert w.auth.phase is AuthPhase.SESSION_ESTABLISHED


def _ed25519_as_kem(public: crypto.RolePublic) -> crypto.RolePublic:
    """``public`` with its Ed25519 key in the KEM key's place too."""
    return crypto.RolePublic(kem=public.sig, sig=public.sig)


def test_session_hello_with_an_ed25519_kem_key_opens_no_session():
    w = World()
    probe = wire.Message(wire.Kind.SessionHello, _ed25519_as_kem(w.auth.login().value))
    with pytest.raises(Malformed, match="unusable authenticator keys"):
        w.server.accept_session(probe, "authenticator")
    assert not w.server.sessions
    w.session()  # an honest login still works
    assert w.auth.phase is AuthPhase.SESSION_ESTABLISHED


def test_server_hello_with_an_ed25519_kem_key_is_refused():
    w = World()
    hello, _ = w.server.accept_session(w.auth.login(), "authenticator")
    with pytest.raises(Malformed, match="unusable server keys"):
        w.auth.handle_session_hello(
            wire.Message(wire.Kind.SessionHello, _ed25519_as_kem(hello.value)))
    assert w.auth.server_public is None


def test_provision_with_an_ed25519_kem_key_is_refused():
    w = World()
    deliver_token(w.auth, w.server, w.session(), w.h_s)
    box = w.auth.build_provision("device-1").value
    api, server_public, token, signature = wire.PROVISION_PAYLOAD.decode(
        crypto.aead_open(w.link, box))
    payload = wire.PROVISION_PAYLOAD.encode(
        (api, _ed25519_as_kem(server_public), token, signature))
    with pytest.raises(Malformed, match="unusable server keys"):
        w.device.receive_provision(wire.Message(
            wire.Kind.DeviceProvision, crypto.aead_seal(w.link, payload, w.rng)))
    assert w.device.phase is DevicePhase.UNPROVISIONED


def test_issue_token_requires_session():
    w = World()
    with pytest.raises(NoSession):
        w.server.issue_transient_token("session-99")


def test_two_token_requests_have_independent_secrets():
    w = World()
    sid = w.session()
    w.server.issue_transient_token(sid)
    w.server.issue_transient_token(sid)
    first, second = w.server.pending
    assert first.secret != second.secret


def test_provision_with_wrong_link_key_fails():
    w = World()
    sid = w.session()
    deliver_token(w.auth, w.server, sid, w.h_s)
    msg = w.auth.build_provision("device-1")
    stranger = Device(w.rng.child("stranger"), w.clock, w.trace,
                      crypto.gen_link_key(w.rng), name="device-x")
    with pytest.raises(LinkKeyMismatch):
        stranger.receive_provision(msg)
    assert stranger.phase is DevicePhase.UNPROVISIONED


def test_stale_provision_replay_fails_totp_check():
    w = World()
    sid = w.session()
    deliver_token(w.auth, w.server, sid, w.h_s)
    msg = w.auth.build_provision("device-1")
    w.clock.advance(40.0)  # past the 30 s validity step
    late_device = Device(w.rng.child("late"), w.clock, w.trace, w.link,
                         name="device-1")
    late_device.receive_provision(msg)  # provisioning itself still works
    assert late_device.phase is DevicePhase.PROVISIONED
    request = late_device.build_registration_request()
    with pytest.raises(TokenExpired):
        w.server.handle_registration(request.message, "device-1")


def test_registration_requires_provisioning():
    w = World()
    with pytest.raises(NotProvisioned):
        w.device.build_registration_request()


def test_replayed_registration_request_rejected():
    w = World()
    sid = w.session()
    deliver_token(w.auth, w.server, sid, w.h_s)
    provision_device(w.auth, w.device)
    request = w.device.build_registration_request()
    w.server.handle_registration(request.message, "device-1")
    with pytest.raises(TokenUnknown, match="consumed"):
        w.server.handle_registration(request.message, "device-1")
    accepted = w.trace.by_kind(ch.DEVICE_REQUEST_ACCEPTED)
    rejected = w.trace.by_kind(ch.DEVICE_REQUEST_REJECTED)
    assert len(accepted) == 1 and len(rejected) == 1
    assert len(w.trace.by_kind(ch.REGISTRATION_SUCCESS)) == 1


def test_forged_request_signed_by_adversary_key():
    w = World()
    sid = w.session()
    deliver_token(w.auth, w.server, sid, w.h_s)
    provision_device(w.auth, w.device)
    now = w.clock.now()
    # Adversary crafts a request with its own keys and its own signature.
    adv_rng = seeded_rng(666)
    adv_keys = crypto.generate_role_keys(RoleTag.DEVICE_FOR_SERVER, 86_400.0,
                                         adv_rng, now)
    adv_sig_keys = crypto.sig_keygen(RoleTag.AUTH_FOR_SERVER, 86_400.0,
                                     adv_rng, now)
    server_pub = w.device.server_public  # public by assumption
    fake_token = crypto.hybrid_encrypt(server_pub.kem, b"00000000", adv_rng, now)
    fake_sig = crypto.sign(adv_sig_keys, wire.encode_hybrid(fake_token), now)
    payload = wire.REGISTRATION_PAYLOAD.encode((
        adv_keys.public, adv_rng.bytes(16), fake_token, fake_sig))
    forged = wire.Message(wire.Kind.RegistrationRequest, crypto.hybrid_encrypt(
        server_pub.kem, payload, adv_rng, now))
    with pytest.raises(SignatureInvalid):
        w.server.handle_registration(forged, "device-1")
    assert not w.trace.by_kind(ch.REGISTRATION_SUCCESS)


def test_totp_boundary_through_protocol():
    # Accepted at +29 s inside the step, rejected at +31 s.
    for offset, ok in ((29.0, True), (31.0, False)):
        w = World()
        sid = w.session()
        # Align the clock to a step boundary before the token is issued.
        now = w.clock.now()
        w.clock.set((now // 30 + 1) * 30)
        deliver_token(w.auth, w.server, sid, w.h_s)
        provision_device(w.auth, w.device)
        request = w.device.build_registration_request()
        w.clock.advance(offset)
        if ok:
            w.server.handle_registration(request.message, "device-1")
            assert w.trace.by_kind(ch.REGISTRATION_SUCCESS)
        else:
            with pytest.raises(TokenExpired):
                w.server.handle_registration(request.message, "device-1")
        # The server records the step it issued the token in.
        assert w.server.pending[0].issued_step == (now // 30 + 1)


def test_non_ascii_digits_in_a_signed_registration_are_an_unknown_token():
    # str.isdigit() accepts Arabic-Indic digits; the token check must refuse
    # them as one traced rejection, not raise past the handler.
    w = World()
    w.session()
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    provision_device(w.auth, w.device)
    now = w.clock.now()
    digits = "١٢٣٤٥٦٧٨"
    enc_token = crypto.hybrid_encrypt(w.device.server_public.kem, digits.encode(),
                                      w.rng, now)
    signature = crypto.sign(w.auth.keys.sig, wire.encode_hybrid(enc_token), now)
    payload = wire.REGISTRATION_PAYLOAD.encode((
        w.device.keys.public, w.device.uid.value, enc_token, signature))
    request = wire.Message(wire.Kind.RegistrationRequest, crypto.hybrid_encrypt(
        w.device.server_public.kem, payload, w.rng, now))
    with pytest.raises(TokenUnknown):
        w.server.handle_registration(request, "device-1")
    rejected = w.trace.by_kind(ch.DEVICE_REQUEST_REJECTED)
    assert [(e.get("error"), e.get("token")) for e in rejected] == [
        ("TokenUnknown", digits)]


def test_ledger_policy_denial_aborts_activation():
    w = World(server_org="acme-devices")  # manufacturer may not write identity
    sid = w.session()
    deliver_token(w.auth, w.server, sid, w.h_s)
    provision_device(w.auth, w.device)
    request = w.device.build_registration_request()
    with pytest.raises(LedgerRejected):
        w.server.handle_registration(request.message, "device-1")
    assert w.device.phase is DevicePhase.REQUEST_SENT
    assert w.server.registry == {}
    assert not w.trace.by_kind(ch.REGISTRATION_SUCCESS)


def test_revocation_ledger_failure_traced_as_revocation_rejection():
    w = World()
    w.onboard()
    # Past registration, the server's ledger identity loses write access to
    # the identity channel: a manufacturer may not write it.
    w.server.identity = w.orgs["acme-devices"]
    with pytest.raises(LedgerRejected):
        w.server.handle_revocation(w.auth.build_revocation(w.device.uid.hex))
    rejected = w.trace.by_kind(ch.REVOCATION_REJECTED)
    assert [e.get("error") for e in rejected] == ["LedgerRejected"]
    assert not w.trace.by_kind(ch.DEVICE_REQUEST_REJECTED)
    assert w.server.registry[w.device.uid.hex].status is DeviceStatus.ACTIVE


def test_expired_earlier_session_skipped_by_trial_decryption():
    w = World(key_ttl=100.0)
    w.session()  # session-0: its keys expire at NOW + 100
    stale_key = w.server.sessions[w.session_id].keys.kem.public
    stale = wire.Message(wire.Kind.RegistrationRequest, crypto.hybrid_encrypt(
        stale_key, b"for the old session only", w.rng, w.clock.now()))
    w.clock.advance(90.0)
    w.session()  # session-1, same TOTP step as the request below
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    provision_device(w.auth, w.device)
    request = w.device.build_registration_request()
    w.clock.advance(20.0)

    w.server.handle_registration(request.message, "device-1")
    assert w.device.uid.hex in w.server.registry
    with pytest.raises(Malformed):
        w.server.handle_registration(stale, "device-1")
    rejected = w.trace.by_kind(ch.DEVICE_REQUEST_REJECTED)
    assert [e.get("error") for e in rejected] == ["Malformed"]
    assert rejected[0].get("detail") == "request not decryptable"


def test_data_report_lifecycle_and_revocation():
    w = World()
    w.onboard()
    report = w.device.build_data_report("temperature_c", 21.5, "C")
    w.server.handle_data_report(report.message)
    entries = w.network.query(ChannelName.DATA, "server-org")
    assert len(entries) == 1 and entries[0].value == 21.5

    revocation = w.auth.build_revocation(w.device.uid.hex)
    w.server.handle_revocation(revocation)
    entry = w.server.registry[w.device.uid.hex]
    assert entry.status is DeviceStatus.DEACTIVATED
    assert entry.device_token is None
    assert w.device.keys.kem.public_key in {k for k in w.server.crl}
    records = w.network.query(ChannelName.IDENTITY, "server-org")
    assert [r.status for r in records] == [DeviceStatus.ACTIVE,
                                           DeviceStatus.DEACTIVATED]
    assert registry_crl_disjoint(w.server)

    with pytest.raises(AlreadyRevoked):
        w.server.handle_revocation(w.auth.build_revocation(w.device.uid.hex))

    late_report = w.device.build_data_report("temperature_c", 22.0, "C")
    with pytest.raises(RevokedDevice):
        w.server.handle_data_report(late_report.message)


def test_data_report_after_org_credential_expiry_is_traced_rejection():
    # Device keys outlive the server's ledger credential, so the report
    # decrypts and only signing its ledger transaction fails.
    w = World(key_ttl=2 * ORG_CREDENTIAL_TTL)
    w.onboard()
    w.clock.advance(ORG_CREDENTIAL_TTL + 5)
    report = w.device.build_data_report("temperature_c", 21.5, "C")
    with pytest.raises(LedgerRejected, match="cannot sign"):
        w.server.handle_data_report(report.message)
    rejected = w.trace.by_kind(ch.DATA_REJECTED)
    assert [e.get("error") for e in rejected] == ["LedgerRejected"]
    assert "expired" in rejected[0].get("detail")
    assert w.network.query(ChannelName.DATA, "server-org") == []


def test_failed_risk_hook_after_commit_is_recorded_on_the_commit():
    w = World()
    w.onboard()

    def hook(entry, receipt):
        raise InvalidPayload("metric and severity must be nonempty")

    w.network.attach_risk_hook(hook)
    report = w.device.build_data_report("temperature_c", 21.5, "C")
    w.server.handle_data_report(report.message)
    assert len(w.trace.by_kind(ch.DATA_ACCEPTED)) == 1
    assert not w.trace.by_kind(ch.DATA_REJECTED)
    assert not any(e.get("error") == "LedgerRejected" for e in w.trace.events)
    commit = w.trace.by_kind(ch.LEDGER_COMMIT)[-1]
    assert commit.get("channel") == ChannelName.DATA.value
    assert commit.get("hook_error") == (
        "InvalidPayload: metric and severity must be nonempty")
    assert len(w.network.query(ChannelName.DATA, "server-org")) == 1


def test_revoke_unknown_device():
    w = World()
    w.session()
    with pytest.raises(UnknownDevice):
        w.server.handle_revocation(w.auth.build_revocation("00" * 16))


def test_data_report_token_mismatch():
    w = World()
    w.onboard()
    w.device.device_token = bytes(32)  # corrupt the stored token
    report = w.device.build_data_report("temperature_c", 21.5, "C")
    with pytest.raises(TokenMismatch):
        w.server.handle_data_report(report.message)


def test_data_report_unknown_device():
    w = World()
    w.onboard()
    # Forget the registration server-side but keep the keys for decryption.
    entry = w.server.registry.pop(w.device.uid.hex)
    w.server.registry["ff" * 16] = entry
    report = w.device.build_data_report("temperature_c", 21.5, "C")
    with pytest.raises(UnknownDevice):
        w.server.handle_data_report(report.message)


def test_phase_safety_no_out_of_phase_emission():
    w = World()
    # Authenticator before login/session:
    with pytest.raises(NoSession):
        w.auth.request_token()
    with pytest.raises(NoSession):
        w.auth.build_provision("device-1")
    with pytest.raises(NoSession):
        w.auth.build_revocation("00" * 16)
    # Device before provisioning / activation:
    with pytest.raises(NotProvisioned):
        w.device.build_registration_request()
    with pytest.raises(NotProvisioned):
        w.device.build_data_report("m", 1.0, "u")
    w.session()
    # Token flow out of order:
    with pytest.raises(NoSession):
        w.auth.build_provision("device-1")  # no token yet
    w.auth.request_token()
    with pytest.raises(NoSession):
        w.auth.request_token()  # already awaiting
    # Device double-provision:
    roles.deliver(w.h_s, w.server, w.auth, w.server.issue_transient_token(w.session_id))
    provision_device(w.auth, w.device)
    with pytest.raises(Malformed):
        w.device.receive_provision(wire.Message(
            wire.Kind.DeviceProvision, crypto.aead_seal(w.link, b"again", w.rng)))
    # Activation before request:
    fresh = Device(w.rng.child("fresh"), w.clock, w.trace, w.link, name="d2")
    with pytest.raises(Malformed):
        fresh.handle_activation(wire.Message(
            wire.Kind.ActivationResponse,
            crypto.hybrid_encrypt(w.auth.keys.kem.public, b"x", w.rng,
                                  w.clock.now())))


def test_no_secret_bytes_ever_on_the_wire():
    w = World()
    w.onboard()
    report = w.device.build_data_report("temperature_c", 21.5, "C")
    w.sent_wire.append(wire.encode(report.message))
    w.server.handle_data_report(report.message)
    blob = b"|".join(w.sent_wire)
    secrets = [
        w.device.keys.kem.secret_key, w.device.keys.sig.secret_key,
        w.auth.keys.kem.secret_key, w.auth.keys.sig.secret_key,
        w.link,
    ]
    for session in w.server.sessions.values():
        secrets.append(session.keys.kem.secret_key)
        secrets.append(session.keys.sig.secret_key)
    for entry in w.server.registry.values():
        secrets.append(entry.server_keys.kem.secret_key)
    for secret in secrets:
        assert secret not in blob


def test_reregistration_after_revocation_uses_fresh_uid():
    # A replaced device is a new instance with a new pseudo-identifier; the
    # old record history stays on the identity channel.
    w = World()
    w.onboard()
    old_uid = w.device.uid.hex
    w.server.handle_revocation(w.auth.build_revocation(old_uid))

    fresh = Device(w.rng.child("replacement"), w.clock, w.trace, w.link,
                   name="device-1")
    assert fresh.uid.hex != old_uid
    w.auth.phase = AuthPhase.DEVICE_CONNECTED  # previous flow finished
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    provision_device(w.auth, fresh)
    request = fresh.build_registration_request()
    for out in w.server.handle_registration(request.message, fresh.name):
        if out.message.kind is wire.Kind.ActivationResponse:
            fresh.handle_activation(out.message)
    assert fresh.phase is DevicePhase.ACTIVE
    records = w.network.query(ChannelName.IDENTITY, "server-org")
    by_uid = {}
    for r in records:
        by_uid.setdefault(r.device_uid.hex(), []).append(r.status)
    assert by_uid[old_uid] == [DeviceStatus.ACTIVE, DeviceStatus.DEACTIVATED]
    assert by_uid[fresh.uid.hex] == [DeviceStatus.ACTIVE]


def test_token_is_consumed_even_when_the_uid_is_already_active():
    w = World()
    w.onboard()
    w.auth.phase = AuthPhase.DEVICE_CONNECTED  # previous flow finished
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    twin = Device(w.rng.child("twin"), w.clock, w.trace, w.link, name="device-1")
    twin.uid = w.device.uid  # claims the identity that is already active
    provision_device(w.auth, twin)
    request = twin.build_registration_request()
    with pytest.raises(Malformed, match="already registered"):
        w.server.handle_registration(request.message, "device-1")
    assert w.server.pending[-1].consumed
    with pytest.raises(TokenUnknown, match="already consumed"):
        w.server.handle_registration(request.message, "device-1")
    assert [e.get("detail") for e in w.trace.by_kind(ch.DEVICE_REQUEST_REJECTED)] == [
        "uid already active", "token already consumed"]
    assert len(w.trace.by_kind(ch.REGISTRATION_SUCCESS)) == 1


def test_registration_success_reuses_issue_nonce_and_token():
    w = World()
    w.onboard()
    issued = w.trace.by_kind(ch.TOKEN_ISSUED)[0]
    accepted = w.trace.by_kind(ch.DEVICE_REQUEST_ACCEPTED)[0]
    success = w.trace.by_kind(ch.REGISTRATION_SUCCESS)[0]
    assert issued.get("token") == accepted.get("token") == success.get("token")
    assert issued.get("nonce") == accepted.get("nonce") == success.get("nonce")
    assert accepted.time < success.time


# -- routing by recipient key id ------------------------------------------------

def _count_decrypts(monkeypatch) -> list:
    """Record the key of every hybrid_decrypt call made from here on."""
    calls = []
    real = crypto.hybrid_decrypt

    def counting(pair, ciphertext, now):
        calls.append(pair)
        return real(pair, ciphertext, now)

    monkeypatch.setattr(crypto, "hybrid_decrypt", counting)
    return calls


def test_server_decrypts_each_ciphertext_once(monkeypatch):
    calls = _count_decrypts(monkeypatch)
    per_message: dict[str, list[int]] = {}
    for name in ("handle_nonce_response", "handle_registration",
                 "handle_data_report", "handle_revocation"):
        def counted(self, *args, _real=getattr(Server, name), _name=name):
            before = len(calls)
            try:
                return _real(self, *args)
            finally:
                per_message.setdefault(_name, []).append(len(calls) - before)
        monkeypatch.setattr(Server, name, counted)

    spec = harness.ScenarioSpec(
        devices=30, revoke=True, totp_step=3600,
        reports=(("temperature_c", 21.5, "C"), ("temperature_c", 85.0, "C")))
    result = harness.run_scenario(spec, None, seed=5)

    assert len(result.trace.by_kind(ch.DATA_ACCEPTED)) == 60
    assert len(result.trace.by_kind(ch.DEVICE_REVOKED)) == 30
    # One decryption per message; a registration also opens the encrypted
    # token it carries.
    assert set(per_message["handle_registration"]) == {2}
    for name in ("handle_nonce_response", "handle_data_report",
                 "handle_revocation"):
        assert set(per_message[name]) == {1}, name


def test_unknown_key_id_rejected_without_decrypting(monkeypatch):
    w = World()
    w.session()
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    provision_device(w.auth, w.device)
    request = w.device.build_registration_request().message
    rerouted = request._replace(value=dataclasses.replace(request.value,
                                                          key_id=bytes(8)))
    calls = _count_decrypts(monkeypatch)
    with pytest.raises(Malformed):
        w.server.handle_registration(rerouted, "device-1")
    assert calls == []
    rejected = w.trace.by_kind(ch.DEVICE_REQUEST_REJECTED)
    assert [(e.get("error"), e.get("detail")) for e in rejected] == \
        [("Malformed", "request not decryptable")]


def test_key_id_of_the_wrong_kind_rejected():
    w = World()
    w.onboard()
    now = w.clock.now()
    session_key = w.server.sessions[w.session_id].keys.kem.public
    entry = w.server.registry[w.device.uid.hex]
    # A well-formed report, but sealed to a session key.
    report = wire.Message(wire.Kind.DataReport, crypto.hybrid_encrypt(
        session_key,
        wire.DATA_PAYLOAD.encode((w.device.uid.value, "temperature_c", 21.5,
                                  "C", w.device.device_token)),
        w.rng, now))
    with pytest.raises(Malformed):
        w.server.handle_data_report(report)
    # A revocation sealed to a device's dedicated server key.
    revocation = wire.Message(wire.Kind.RevocationRequest, crypto.hybrid_encrypt(
        entry.server_keys.kem.public,
        wire.REVOCATION_PAYLOAD.encode((wire.REVOKE_VERB, w.device.uid.value)),
        w.rng, now))
    with pytest.raises(Malformed):
        w.server.handle_revocation(revocation)
    assert [(e.kind, e.get("error"), e.get("detail"))
            for e in w.trace.events if e.kind in ch.REJECTION_KINDS] == [
        (ch.DATA_REJECTED, "Malformed", "report not decryptable"),
        (ch.REVOCATION_REJECTED, "Malformed", "request not decryptable"),
    ]
    assert entry.status is DeviceStatus.ACTIVE


def test_report_under_replaced_server_key_rejected():
    # A revoked uid registers again; its old dedicated server key is gone, so
    # a report sealed to it is undecryptable rather than checked against the
    # new registration.
    w = World()
    w.onboard()
    uid = w.device.uid
    stale = w.device.build_data_report("temperature_c", 21.5, "C")
    w.server.handle_revocation(w.auth.build_revocation(uid.hex))

    again = Device(w.rng.child("again"), w.clock, w.trace, w.link,
                   name="device-1")
    again.uid = uid
    w.auth.phase = AuthPhase.DEVICE_CONNECTED
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    provision_device(w.auth, again)
    request = again.build_registration_request()
    for out in w.server.handle_registration(request.message, again.name):
        if out.message.kind is wire.Kind.ActivationResponse:
            again.handle_activation(out.message)
    assert again.phase is DevicePhase.ACTIVE

    with pytest.raises(Malformed):
        w.server.handle_data_report(stale.message)
    rejected = w.trace.by_kind(ch.DATA_REJECTED)
    assert [(e.get("error"), e.get("detail")) for e in rejected] == \
        [("Malformed", "report not decryptable")]
    w.server.handle_data_report(
        again.build_data_report("temperature_c", 22.0, "C").message)
    assert len(w.trace.by_kind(ch.DATA_ACCEPTED)) == 1


def test_report_sealed_to_another_devices_key_rejected():
    # Device 1 seals its own uid and token to device 0's dedicated server
    # key. That key names device 0, so the reading is refused before the
    # ledger is written.
    w = harness.World(harness.ScenarioSpec(devices=2, reports=()), seed=7,
                      direct=True)
    for auth, device in zip(w.auths, w.devices):
        session_id = establish_session(auth, w.server, w.h_s[auth.name])
        w.session_of[session_id] = auth
        deliver_token(auth, w.server, session_id, w.h_s[auth.name])
        provision_device(auth, device)
        w.send_outgoing(device.build_registration_request())
        w.pump(strategy=None)
    assert [d.phase for d in w.devices] == [DevicePhase.ACTIVE] * 2
    owner, sender = w.devices
    payload = wire.DATA_PAYLOAD.encode((sender.uid.value, "temperature_c", 21.5,
                                        "C", sender.device_token))
    report = wire.Message(wire.Kind.DataReport, crypto.hybrid_encrypt(
        owner.server_device_public.kem, payload, sender.rng, w.clock.now()))
    before = len(w.trace.events)
    w.send_outgoing(roles.Outgoing("public", "server", report, src=sender.name))
    w.pump(strategy=None)
    assert [(e.kind, e.get("error"), e.get("detail"), e.get("uid"))
            for e in w.trace.events[before:]] == [
        (ch.DATA_REJECTED, "Malformed", "uid not the key's device", sender.uid.hex)]
    assert w.network.query(ChannelName.DATA, "server-org") == []


def test_only_the_registering_authenticator_may_revoke():
    w = harness.run_scenario(harness.ScenarioSpec(devices=2, reports=()), None,
                             seed=7).world
    (owner, other), uid = w.auths, w.devices[0].uid.hex
    entry = w.server.registry[uid]
    chain = w.network.query(ChannelName.IDENTITY, "server-org")
    crl = set(w.server.crl)

    def revoke(auth):
        before = len(w.trace.events)
        w.send_outgoing(roles.Outgoing("secure", w.server.name,
                                       auth.build_revocation(uid), src=auth.name))
        return [(e.kind, e.get("error"), e.get("detail"))
                for e in w.trace.events[before:]
                if e.kind in ch.REJECTION_KINDS or e.kind == ch.DEVICE_REVOKED]

    assert revoke(other) == [(ch.REVOCATION_REJECTED, "UnknownDevice",
                              "registered by another authenticator")]
    assert entry.status is DeviceStatus.ACTIVE
    assert w.server.crl == crl
    assert w.network.query(ChannelName.IDENTITY, "server-org") == chain

    establish_session(owner, w.server, w.h_s[owner.name])
    assert revoke(owner) == [(ch.DEVICE_REVOKED, None, None)]
    assert entry.status is DeviceStatus.DEACTIVATED


def test_undeliverable_token_leaves_no_token_on_record():
    # accept_session refuses a hello whose KEM key is an Ed25519 key, so the
    # completed session's peer key is replaced after the fact: no token can
    # be encrypted to that key.
    w = harness.World(harness.ScenarioSpec(devices=1, reports=()), seed=7, direct=True)
    auth, server = w.auths[0], w.server
    session_id = establish_session(auth, server, w.h_s[auth.name])
    server.sessions[session_id].auth_public = _ed25519_as_kem(auth.keys.public)
    pending = list(server.pending)
    with pytest.raises(crypto.MalformedKey):
        server.issue_transient_token(session_id)
    assert server.pending == pending
    assert not w.trace.by_kind(ch.TOKEN_ISSUED)


# -- recognising the device key bundle before acting on it ------------------------

def _request_with_bundle(w: World, bundle) -> wire.Message:
    """A registration carrying the device's genuine, signed token, but
    ``bundle`` as its device keys."""
    payload = wire.REGISTRATION_PAYLOAD.encode((
        bundle, w.device.uid.value, w.device._encrypted_token,
        w.device._token_signature))
    return wire.Message(wire.Kind.RegistrationRequest, crypto.hybrid_encrypt(
        w.device.server_public.kem, payload, w.rng, w.clock.now()))


def _expired(key):
    return dataclasses.replace(key, created_at=key.created_at - 2 * key.ttl)


@pytest.mark.parametrize("bundle", [
    lambda pub: dataclasses.replace(pub, kem=dataclasses.replace(pub.kem, key=b"short")),
    lambda pub: dataclasses.replace(pub, kem=dataclasses.replace(pub.kem, algo="rot13")),
    lambda pub: dataclasses.replace(pub, kem=_expired(pub.kem)),
    lambda pub: dataclasses.replace(pub, sig=dataclasses.replace(pub.sig, algo="x25519")),
    lambda pub: dataclasses.replace(pub, sig=dataclasses.replace(pub.sig, key=b"short")),
    lambda pub: dataclasses.replace(pub, sig=_expired(pub.sig)),
    # windows that never close: ``now > created_at + ttl`` stays False
    lambda pub: dataclasses.replace(pub, kem=dataclasses.replace(pub.kem, ttl=math.inf)),
    lambda pub: dataclasses.replace(pub, kem=dataclasses.replace(pub.kem, ttl=math.nan)),
    lambda pub: dataclasses.replace(pub, sig=dataclasses.replace(pub.sig, created_at=math.nan)),
    lambda pub: dataclasses.replace(pub, sig=dataclasses.replace(pub.sig, created_at=math.inf)),
], ids=["kem-5-bytes", "kem-rot13", "kem-expired", "sig-not-ed25519",
        "sig-5-bytes", "sig-expired", "kem-ttl-inf", "kem-ttl-nan",
        "sig-created-nan", "sig-created-inf"])
def test_unusable_device_keys_rejected_before_token_or_ledger(bundle):
    w = World()
    w.session()
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    provision_device(w.auth, w.device)
    request = _request_with_bundle(w, bundle(w.device.keys.public))
    routes = dict(w.server.routes)
    rng_state = w.server.rng._inner.getstate()
    with pytest.raises(Malformed, match="unusable device keys"):
        w.server.handle_registration(request, "device-1")
    assert [(e.kind, e.get("error"), e.get("uid"))
            for e in w.trace.events if e.kind in ch.REJECTION_KINDS] == [
        (ch.DEVICE_REQUEST_REJECTED, "Malformed", w.device.uid.hex)]
    assert not w.trace.by_kind(ch.LEDGER_COMMIT)
    assert w.network.query(ChannelName.IDENTITY, "server-org") == []
    assert w.server.registry == {} and w.server.routes == routes
    assert not w.server.pending[0].consumed
    assert w.server.rng._inner.getstate() == rng_state
    # The token is still unused: the same request with usable keys passes.
    w.server.handle_registration(_request_with_bundle(w, w.device.keys.public),
                                 "device-1")
    assert w.device.uid.hex in w.server.registry


def _mlkem_request_with_kem_key(kem_key):
    """An ml-kem-512 world ready to register its device, and the device's
    genuine signed request with ``kem_key(key)`` as its KEM key."""
    world = harness.World(harness.ScenarioSpec(devices=1, reports=(),
                                               kem_algo="ml-kem-512"),
                          seed=7, direct=True)
    auth, device, server = world.auths[0], world.devices[0], world.server
    session_id = establish_session(auth, server, world.h_s[auth.name])
    deliver_token(auth, server, session_id, world.h_s[auth.name])
    provision_device(auth, device)
    public = device.keys.public
    bundle = dataclasses.replace(public, kem=dataclasses.replace(
        public.kem, key=kem_key(public.kem.key)))
    payload = wire.REGISTRATION_PAYLOAD.encode((
        bundle, device.uid.value, device._encrypted_token,
        device._token_signature))
    request = wire.Message(wire.Kind.RegistrationRequest, crypto.hybrid_encrypt(
        device.server_public.kem, payload, world.rng, world.clock.now()))
    return world, request


def test_mlkem_device_key_of_wrong_length_rejected():
    world, request = _mlkem_request_with_kem_key(lambda key: key[:-1])
    server = world.server
    with pytest.raises(Malformed, match="must be 800 bytes"):
        server.handle_registration(request, world.devices[0].name)
    assert server.registry == {} and not server.pending[0].consumed


def test_mlkem_device_key_failing_modulus_check_rejected():
    # 768 bytes of 0xFF make every coefficient of t-hat 4095 >= q: the right
    # length, but not a key FIPS 203's modulus check accepts.
    world, request = _mlkem_request_with_kem_key(lambda key: b"\xff" * 768 + key[768:])
    server = world.server
    routes = dict(server.routes)
    with pytest.raises(Malformed, match="unusable device keys: .*modulus check"):
        server.handle_registration(request, world.devices[0].name)
    assert [(e.kind, e.get("error")) for e in world.trace.events
            if e.kind in ch.REJECTION_KINDS] == [(ch.DEVICE_REQUEST_REJECTED, "Malformed")]
    assert not world.trace.by_kind(ch.LEDGER_COMMIT)
    assert not world.trace.by_kind(ch.REGISTRATION_SUCCESS)
    assert world.network.query(ChannelName.IDENTITY, "server-org") == []
    assert server.registry == {} and server.routes == routes
    assert not server.pending[0].consumed


def _activation_with_bundle(w: World, bundle) -> wire.Message:
    """An activation response to ``w.device`` carrying ``bundle`` as the
    server's device keys."""
    return wire.Message(wire.Kind.ActivationResponse, crypto.hybrid_encrypt(
        w.device.keys.public.kem,
        wire.ACTIVATION_PAYLOAD.encode((bytes(range(32)), bundle)),
        w.rng, w.clock.now()))


@pytest.mark.parametrize("bundle", [
    lambda pub: dataclasses.replace(pub, kem=dataclasses.replace(pub.kem, key=b"short")),
    lambda pub: dataclasses.replace(pub, kem=dataclasses.replace(pub.kem, algo="rot13")),
    lambda pub: dataclasses.replace(pub, kem=_expired(pub.kem)),
    lambda pub: dataclasses.replace(pub, sig=_expired(pub.sig)),
], ids=["kem-5-bytes", "kem-rot13", "kem-expired", "sig-expired"])
def test_unusable_server_keys_in_activation_rejected(bundle):
    w = World()
    w.session()
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    provision_device(w.auth, w.device)
    w.device.build_registration_request()
    genuine = crypto.generate_role_keys(RoleTag.SERVER_FOR_DEVICE, 86_400.0, w.rng,
                                        w.clock.now()).public
    with pytest.raises(Malformed, match="unusable server keys"):
        w.device.handle_activation(_activation_with_bundle(w, bundle(genuine)))
    assert [(e.kind, e.get("error")) for e in w.trace.events
            if e.kind in ch.REJECTION_KINDS] == [(ch.ACTIVATION_REJECTED, "Malformed")]
    assert w.device.phase is DevicePhase.REQUEST_SENT
    assert w.device.device_token is None and w.device.server_device_public is None
    # The device still accepts a usable bundle.
    w.device.handle_activation(_activation_with_bundle(w, genuine))
    assert w.device.phase is DevicePhase.ACTIVE
    assert w.device.server_device_public == genuine


# -- one rejection event per failed handler call ----------------------------------

def _hello_expired_auth_key(w, monkeypatch):
    w.auth.key_ttl = 50.0
    hello = w.auth.login()
    w.clock.advance(60.0)
    return lambda: w.server.accept_session(hello, "authenticator")


def _nonce_response_replayed(w, monkeypatch):
    hello, challenge = w.server.accept_session(w.auth.login(), "authenticator")
    w.auth.handle_session_hello(hello)
    response, _ = w.auth.handle_nonce_challenge(challenge)
    w.server.handle_nonce_response(response, "authenticator")
    return lambda: w.server.handle_nonce_response(response, "authenticator")


def _auth_challenge_before_our_nonce(w, monkeypatch):
    w.server.accept_session(w.auth.login(), "authenticator")
    return lambda: w.server.handle_auth_challenge(
        wire.Message(wire.Kind.NonceChallenge, bytes(16)), "authenticator")


def _token_for_unknown_session(w, monkeypatch):
    return lambda: w.server.issue_transient_token("session-9")


def _server_hello_expired(w, monkeypatch):
    hello, _ = w.server.accept_session(w.auth.login(), "authenticator")
    w.clock.advance(w.server.key_ttl + 1)
    return lambda: w.auth.handle_session_hello(hello)


def _nonce_challenge_before_login(w, monkeypatch):
    return lambda: w.auth.handle_nonce_challenge(
        wire.Message(wire.Kind.NonceChallenge, bytes(16)))


def _server_nonce_response_unasked(w, monkeypatch):
    w.session()
    response = wire.Message(wire.Kind.NonceResponse, crypto.hybrid_encrypt(
        w.auth.keys.kem.public, bytes(16), w.rng, w.clock.now()))
    return lambda: w.auth.handle_server_nonce_response(response)


def _token_delivery_unrequested(w, monkeypatch):
    w.session()
    token = w.server.issue_transient_token(w.session_id)
    return lambda: w.auth.handle_token_delivery(token)


def _provision_under_another_link_key(w, monkeypatch):
    w.session()
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    provision = w.auth.build_provision("device-1")
    w.device.link_key = crypto.gen_link_key(w.rng.child("other-link"))
    return lambda: w.device.receive_provision(provision)


def _registration_unknown_key(w, monkeypatch):
    w.session()
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    provision_device(w.auth, w.device)
    request = w.device.build_registration_request().message
    return lambda: w.server.handle_registration(request._replace(
        value=dataclasses.replace(request.value, key_id=bytes(8))), "device-1")


def _registration_expired_auth_key(w, monkeypatch):
    w.auth.key_ttl = 50.0  # the server's session keys outlive the authenticator's
    w.session()
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    provision_device(w.auth, w.device)
    request = w.device.build_registration_request().message
    w.clock.advance(60.0)
    return lambda: w.server.handle_registration(request, "device-1")


def _data_report_token_mismatch(w, monkeypatch):
    w.onboard()
    w.device.device_token = bytes(32)
    report = w.device.build_data_report("temperature_c", 21.5, "C").message
    return lambda: w.server.handle_data_report(report)


def _raise_key_expired(*args):
    raise KeyExpired("credential expired while signing")


def _data_report_ledger_key_expired(w, monkeypatch):
    w.onboard()
    report = w.device.build_data_report("temperature_c", 21.5, "C").message
    monkeypatch.setattr(roles, "make_transaction", _raise_key_expired)
    return lambda: w.server.handle_data_report(report)


def _revocation_unknown_device(w, monkeypatch):
    w.onboard()
    return lambda: w.server.handle_revocation(w.auth.build_revocation("00" * 16))


def _revocation_ledger_key_expired(w, monkeypatch):
    w.onboard()
    request = w.auth.build_revocation(w.device.uid.hex)
    monkeypatch.setattr(roles, "make_transaction", _raise_key_expired)
    return lambda: w.server.handle_revocation(request)


def _activation_twice(w, monkeypatch):
    activation = next(out.message for out in w.onboard()
                      if out.message.kind is wire.Kind.ActivationResponse)
    return lambda: w.device.handle_activation(activation)


def _activation_expired_device_key(w, monkeypatch):
    w.session()
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    provision_device(w.auth, w.device)
    request = w.device.build_registration_request().message
    activation = w.server.handle_registration(request, "device-1")[0].message
    w.clock.advance(w.device.keys.kem.ttl + 1)
    return lambda: w.device.handle_activation(activation)


def _notice_twice(w, monkeypatch):
    notice = next(out.message for out in w.onboard()
                  if out.message.kind is wire.Kind.ConnectedNotice)
    return lambda: w.auth.handle_connected_notice(notice)


def _notice_expired_auth_key(w, monkeypatch):
    w.session()
    deliver_token(w.auth, w.server, w.session_id, w.h_s)
    provision_device(w.auth, w.device)
    request = w.device.build_registration_request().message
    notice = w.server.handle_registration(request, "device-1")[1].message
    w.clock.advance(w.auth.keys.kem.ttl + 1)
    return lambda: w.auth.handle_connected_notice(notice)


def _token_before_session(w, monkeypatch):
    return w.auth.request_token


def _provision_without_token(w, monkeypatch):
    w.session()
    return lambda: w.auth.build_provision("device-1")


def _revocation_before_session(w, monkeypatch):
    return lambda: w.auth.build_revocation("00" * 16)


def _registration_unprovisioned(w, monkeypatch):
    return w.device.build_registration_request


def _retry_without_request(w, monkeypatch):
    return w.device.retry_request


def _report_before_activation(w, monkeypatch):
    return lambda: w.device.build_data_report("temperature_c", 21.5, "C")


@pytest.mark.parametrize("setup, role, kind, error", [
    (_hello_expired_auth_key, "server", ch.MESSAGE_REJECTED, Malformed),
    (_nonce_response_replayed, "server", ch.MESSAGE_REJECTED, NonceMismatch),
    (_auth_challenge_before_our_nonce, "server", ch.MESSAGE_REJECTED, NonceMismatch),
    (_token_for_unknown_session, "server", ch.MESSAGE_REJECTED, NoSession),
    (_server_hello_expired, "authenticator", ch.MESSAGE_REJECTED, Malformed),
    (_nonce_challenge_before_login, "authenticator", ch.MESSAGE_REJECTED, NoSession),
    (_server_nonce_response_unasked, "authenticator", ch.MESSAGE_REJECTED,
     NonceMismatch),
    (_token_delivery_unrequested, "authenticator", ch.MESSAGE_REJECTED, NoSession),
    (_provision_under_another_link_key, "device-1", ch.MESSAGE_REJECTED,
     LinkKeyMismatch),
    (_registration_unknown_key, "server", ch.DEVICE_REQUEST_REJECTED, Malformed),
    (_registration_expired_auth_key, "server", ch.DEVICE_REQUEST_REJECTED,
     KeyExpired),
    (_data_report_token_mismatch, "server", ch.DATA_REJECTED, TokenMismatch),
    (_data_report_ledger_key_expired, "server", ch.DATA_REJECTED, KeyExpired),
    (_revocation_unknown_device, "server", ch.REVOCATION_REJECTED, UnknownDevice),
    (_revocation_ledger_key_expired, "server", ch.REVOCATION_REJECTED, KeyExpired),
    (_activation_twice, "device-1", ch.ACTIVATION_REJECTED, Malformed),
    (_activation_expired_device_key, "device-1", ch.ACTIVATION_REJECTED,
     KeyExpired),
    (_notice_twice, "authenticator", ch.MESSAGE_REJECTED, NoSession),
    (_notice_expired_auth_key, "authenticator", ch.MESSAGE_REJECTED, KeyExpired),
    # Builders: an error raised while making a message is traced too.
    (_token_before_session, "authenticator", ch.MESSAGE_REJECTED, NoSession),
    (_provision_without_token, "authenticator", ch.MESSAGE_REJECTED, NoSession),
    (_revocation_before_session, "authenticator", ch.MESSAGE_REJECTED, NoSession),
    (_registration_unprovisioned, "device-1", ch.MESSAGE_REJECTED, NotProvisioned),
    (_retry_without_request, "device-1", ch.MESSAGE_REJECTED, NotProvisioned),
    (_report_before_activation, "device-1", ch.MESSAGE_REJECTED, NotProvisioned),
], ids=lambda value: getattr(value, "__name__", None))
def test_each_failed_handler_call_traces_one_rejection(setup, role, kind, error,
                                                      monkeypatch):
    w = World()
    call = setup(w, monkeypatch)
    before = len(w.trace.events)
    with pytest.raises(error) as raised:
        call()
    new = w.trace.events[before:]
    assert [(e.role, e.kind, e.get("error")) for e in new] == \
        [(role, kind, error.__name__)]
    fields = getattr(raised.value, "fields", {"detail": str(raised.value)})
    assert dict(new[0].fields) == {"error": error.__name__, **fields}


def test_rejection_kinds_are_named_only_by_traced_decorators():
    tree = ast.parse(Path(roles.__file__).read_text())
    decorated, in_decorators = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for deco in node.decorator_list:
                if isinstance(deco, ast.Call) and getattr(deco.func, "id", None) == "_traced":
                    decorated[node.name] = getattr(ch, deco.args[0].attr)
                    in_decorators.add(id(deco.args[0]))
    assert decorated == {
        "_recognise": ch.MESSAGE_REJECTED,
        "accept_session": ch.MESSAGE_REJECTED,
        "handle_nonce_response": ch.MESSAGE_REJECTED,
        "handle_auth_challenge": ch.MESSAGE_REJECTED,
        "issue_transient_token": ch.MESSAGE_REJECTED,
        "handle_session_hello": ch.MESSAGE_REJECTED,
        "handle_nonce_challenge": ch.MESSAGE_REJECTED,
        "handle_server_nonce_response": ch.MESSAGE_REJECTED,
        "handle_token_delivery": ch.MESSAGE_REJECTED,
        "receive_provision": ch.MESSAGE_REJECTED,
        "handle_connected_notice": ch.MESSAGE_REJECTED,
        "handle_activation": ch.ACTIVATION_REJECTED,
        "handle_registration": ch.DEVICE_REQUEST_REJECTED,
        "handle_data_report": ch.DATA_REJECTED,
        "handle_revocation": ch.REVOCATION_REJECTED,
        "request_token": ch.MESSAGE_REJECTED,
        "build_provision": ch.MESSAGE_REJECTED,
        "build_revocation": ch.MESSAGE_REJECTED,
        "build_registration_request": ch.MESSAGE_REJECTED,
        "retry_request": ch.MESSAGE_REJECTED,
        "build_data_report": ch.MESSAGE_REJECTED,
    }
    assert set(decorated.values()) <= set(ch.REJECTION_KINDS)
    elsewhere = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr.endswith("_REJECTED")
                 and id(node) not in in_decorators]
    assert elsewhere == []


def test_an_expired_key_is_traced_before_it_leaves_the_run(monkeypatch):
    # The server's session keys expire at 1.5 s, before the device seals its
    # request to them at 2 s: the builder's error ends the run, traced.
    worlds = []
    run = harness.World.run

    def kept_run(world, adversary):
        worlds.append(world)
        run(world, adversary)

    monkeypatch.setattr(harness.World, "run", kept_run)
    spec = harness.ScenarioSpec(devices=1, reports=(), key_ttl=1.5)
    with pytest.raises(KeyExpired):
        harness.run_scenario(spec, None, 7)
    last = worlds[0].trace.events[-1]
    assert (last.role, last.kind, last.get("error")) == \
        ("device-0", ch.MESSAGE_REJECTED, "KeyExpired")
