"""Replay identity: seeded outputs stay byte-for-byte what they were.

Each case below runs a seeded entry point (scenario, attack script,
campaign, bench sweep, demo, bounded-exhaustive search, every role
rejection path) and hashes what it produced. The digests in ``tests/data/replay_digests.json`` pin those
outputs, so a refactor that changes any trace, ledger block, snapshot or
report row fails here.

Regenerate digests only for a deliberate behaviour change, naming just the
cases it changes: ``PYTHONPATH=src python tests/test_replay.py --write CASE
[CASE ...]`` rewrites those and keeps every other pinned digest; ``--write``
alone rewrites them all.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest
from test_roles import World as RoleWorld

from hearthgate import bench, cli, crypto, harness, roles, wire
from hearthgate.channels import DeliverAll
from hearthgate.config import load_config
from hearthgate.ledger import ChannelName

DIGESTS = Path(__file__).parent / "data" / "replay_digests.json"

SCENARIO = harness.ScenarioSpec(
    devices=3,
    reports=(("temperature_c", 21.5, "C"), ("temperature_c", 85.0, "C")),
    revoke=True,
)


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _ledger_digest(network) -> str:
    return _sha(b"".join(block.canonical_bytes()
                         for channel in ChannelName
                         for block in network.chains[channel]))


def scenario_case(wiring: str, seed: int) -> dict:
    adversary = DeliverAll() if wiring == "deliver-all" else None
    result = harness.run_scenario(SCENARIO, adversary, seed)
    return {"trace": result.trace.digest(),
            "ledger": _ledger_digest(result.world.network)}


def attack_case(name: str) -> str:
    return harness.run_attack(name, seed=7).result.trace.digest()


def campaign_case() -> str:
    result = harness.run_campaign(40, base_seed=11)
    return _sha("\n".join(r.to_json() for r in result.records))


def bench_case() -> str:
    profile = bench.LoadProfile(
        arrival_rate=120.0, duration=10.0, process="poisson",
        tx_mix=(("data", 0.6), ("identity", 0.2), ("risk_management", 0.2)))
    return _sha(bench.sweep([120.0, 260.0], profile=profile, seed=5).to_csv())


def demo_case(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = load_config(None, env={})
        cfg.seed = seed
        cfg.snapshot = str(Path(tmp) / "demo.snapshot")
        code, lines, _ = cli.run_demo(cfg)
        transcript = "\n".join(lines).replace(cfg.snapshot, "<snapshot>")
        snapshot = Path(cfg.snapshot).read_bytes()
    return {"code": code, "transcript": _sha(transcript),
            "snapshot": _sha(snapshot)}


def bounded_case(retries: int, actions: tuple[str, ...]) -> str:
    spec = harness.ScenarioSpec(devices=1, reports=(), retries=retries)
    results = harness.bounded_exhaustive(spec, seed=7, actions=actions)
    rows = [[list(prefix),
             {k: [v.holds, v.witness] for k, v in sorted(verdicts.items())}]
            for prefix, verdicts in results]
    return _sha(json.dumps(rows, sort_keys=True))


def rejections_case() -> str:
    """Drive each rejection path of ``Server.handle_registration``,
    ``handle_data_report``, ``handle_revocation`` and
    ``Device.handle_activation`` once, in one world, and hash its trace."""
    w = RoleWorld()
    server, auth, device = w.server, w.auth, w.device
    now = w.clock.now
    w.session()
    session_key = server.sessions[w.session_id].keys.kem.public

    def sealed(message_cls, key, plaintext: bytes):
        return message_cls(crypto.hybrid_encrypt(key, plaintext, w.rng, now()))

    def registration(enc_token, signer=auth.keys.sig):
        signature = crypto.sign(signer, wire.encode_hybrid(enc_token), now())
        payload = wire.REGISTRATION_PAYLOAD.encode((
            device.keys.public, device.uid.value, enc_token, signature))
        return sealed(wire.RegistrationRequest, session_key, payload)

    def rejects(error, handler, *args):
        with pytest.raises(error):
            handler(*args)

    def next_device(label: str) -> roles.Device:
        """A device provisioned with a fresh token for the same session."""
        auth.phase = roles.AuthPhase.DEVICE_CONNECTED
        roles.deliver_token(auth, server, w.session_id, w.h_s)
        fresh = roles.Device(w.rng.child(label), w.clock, w.trace, w.link,
                             name="device-1")
        roles.provision_device(auth, fresh)
        return fresh

    roles.deliver_token(auth, server, w.session_id, w.h_s)
    roles.provision_device(auth, device)
    request = device.build_registration_request().message
    register = server.handle_registration
    rejects(roles.Malformed, register, wire.RegistrationRequest(
        dataclasses.replace(request.ciphertext, key_id=bytes(8))), "device-1")
    rejects(roles.Malformed, register,
            sealed(wire.RegistrationRequest, session_key, b"junk"), "device-1")
    token_for_session = crypto.hybrid_encrypt(session_key, b"00000000", w.rng,
                                              now())
    rejects(roles.SignatureInvalid, register,
            registration(token_for_session, signer=device.keys.sig), "device-1")
    rejects(roles.Malformed, register, registration(crypto.hybrid_encrypt(
        auth.keys.kem.public, b"00000000", w.rng, now())), "device-1")
    rejects(roles.TokenUnknown, register, registration(token_for_session),
            "device-1")
    replies = register(request, "device-1")
    activation, notice = (out.message for out in replies)
    device.handle_activation(activation)
    auth.handle_connected_notice(notice)
    rejects(roles.TokenUnknown, register, request, "device-1")

    same_uid = next_device("same-uid")
    same_uid.uid = device.uid
    rejects(roles.Malformed, register,
            same_uid.build_registration_request().message, "device-1")
    unwritten = next_device("unwritten")
    server.identity = w.orgs["acme-devices"]  # may not write the ledger
    rejects(roles.LedgerRejected, register,
            unwritten.build_registration_request().message, "device-1")
    server.identity = w.orgs["server-org"]
    late = next_device("late")
    w.clock.advance(40.0)
    rejects(roles.TokenExpired, register,
            late.build_registration_request().message, "device-1")

    entry = server.registry[device.uid.hex]
    device_key = entry.server_keys.kem.public
    report = device.build_data_report("temperature_c", 21.5, "C").message
    rejects(roles.Malformed, server.handle_data_report,
            dataclasses.replace(report, ciphertext=dataclasses.replace(
                report.ciphertext, key_id=bytes(8))))
    rejects(roles.Malformed, server.handle_data_report,
            sealed(wire.DataReport, device_key, b"junk"))
    rejects(roles.UnknownDevice, server.handle_data_report, sealed(
        wire.DataReport, device_key, wire.DATA_PAYLOAD.encode((
            bytes(16), "temperature_c", 21.5, "C", device.device_token))))
    rejects(roles.TokenMismatch, server.handle_data_report, sealed(
        wire.DataReport, device_key, wire.DATA_PAYLOAD.encode((
            device.uid.value, "temperature_c", 21.5, "C", bytes(32)))))
    server.identity = w.orgs["acme-devices"]
    rejects(roles.LedgerRejected, server.handle_data_report, report)
    rejects(roles.LedgerRejected, server.handle_revocation,
            auth.build_revocation(device.uid.hex))
    server.identity = w.orgs["server-org"]

    rejects(roles.Malformed, server.handle_revocation, sealed(
        wire.RevocationRequest, device_key,
        wire.REVOCATION_PAYLOAD.encode((wire.REVOKE_VERB, device.uid.value))))
    rejects(roles.Malformed, server.handle_revocation,
            sealed(wire.RevocationRequest, session_key, b"junk"))
    rejects(roles.UnknownDevice, server.handle_revocation,
            auth.build_revocation("00" * 16))
    server.handle_revocation(auth.build_revocation(device.uid.hex))
    rejects(roles.AlreadyRevoked, server.handle_revocation,
            auth.build_revocation(device.uid.hex))
    rejects(roles.RevokedDevice, server.handle_data_report, report)

    rejects(roles.Malformed, device.handle_activation, activation)
    rejects(roles.Malformed, unwritten.handle_activation,
            sealed(wire.ActivationResponse, auth.keys.kem.public, b"junk"))
    return w.trace.digest()


CASES = {
    **{f"scenario/{w}/seed-{s}": (scenario_case, (w, s))
       for w in ("deliver-all", "direct") for s in (1, 7)},
    **{f"attack/{name}": (attack_case, (name,))
       for name in sorted(harness.ATTACK_SCRIPTS)},
    "campaign/40-runs-base-11": (campaign_case, ()),
    "bench/poisson-two-rows": (bench_case, ()),
    **{f"demo/seed-{s}": (demo_case, (s,)) for s in (3, 7)},
    "bounded-exhaustive/one-device": (
        bounded_case, (0, ("deliver", "drop", "replay"))),
    "bounded-exhaustive/retry-tamper": (
        bounded_case, (1, ("deliver", "drop", "replay", "tamper"))),
    "rejections/every-code": (rejections_case, ()),
}


def _pinned() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_unchanged(case):
    fn, args = CASES[case]
    assert fn(*args) == _pinned()[case]


def test_every_pinned_case_still_runs():
    assert sorted(_pinned()) == sorted(CASES)


if __name__ == "__main__":
    flag, names = sys.argv[1:2], sys.argv[2:]
    unknown = sorted(set(names) - set(CASES))
    if flag != ["--write"] or unknown:
        sys.exit(f"usage: test_replay.py --write [CASE ...]"
                 f"{'; unknown: ' + ', '.join(unknown) if unknown else ''}")
    # Named cases are re-pinned alone; every other digest stays as it was.
    digests = _pinned() if names else {}
    for name in names or sorted(CASES):
        fn, args = CASES[name]
        digests[name] = fn(*args)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(names or CASES)} of {len(digests)} digests to {DIGESTS}")
