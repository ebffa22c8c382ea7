"""Every public term is what its bytes say.

Public custody holds bytes; for each message a world puts there it records the
sender's symbolic term in the adversary's knowledge, which the closure reads.
These tests rebuild that term from the message's bytes alone:
``wire.decode``, then ``crypto.hybrid_decrypt`` under the key its key id
names in the world's key table (session, registry-entry and device KEM keys),
then the payload record, one layer after another. The rebuilt term must equal
the term the world observed for those bytes; a replayed copy is checked
against its original's term.
"""

from __future__ import annotations

import pytest

from hearthgate import channels as ch
from hearthgate import crypto, harness, wire
from hearthgate.channels import (
    Atom,
    CustodyEntry,
    DeliverAll,
    Enc,
    Scripted,
    Secret,
    SigT,
    Term,
    Tup,
)
from hearthgate.harness import ATTACK_SCRIPTS, ScenarioSpec
from hearthgate.roles import (
    activation_term,
    bundle_atom,
    device_token_secret,
    uid_atom,
)


def key_table(world: harness.World) -> dict[str, crypto.KeyPair]:
    """Every KEM keypair a public message can be sealed to, by key id."""
    server = world.server
    pairs = [session.keys.kem for session in server.sessions.values()]
    pairs += [entry.server_keys.kem for entry in server.registry.values()]
    pairs += [device.keys.kem for device in world.devices if device.keys is not None]
    return {pair.key_id: pair for pair in pairs}


def _name(entry: CustodyEntry) -> str:
    return f"send {entry.index} ({entry.src} -> {entry.dst})"


def _open(entry: CustodyEntry, ciphertext: crypto.HybridCiphertext,
          pairs: list[crypto.KeyPair], now: float) -> tuple[str, bytes]:
    """(key id, plaintext) of ``ciphertext`` under the first of ``pairs`` that
    opens it; fails the test, naming the send, when none does."""
    for pair in pairs:
        try:
            return pair.key_id, crypto.hybrid_decrypt(pair, ciphertext, now)
        except crypto.DecryptionFailure:
            continue
    pytest.fail(f"{_name(entry)}: no key in the world's key table opens it")


def term_from_bytes(entry: CustodyEntry, keys: dict[str, crypto.KeyPair],
                    now: float) -> Term:
    """The term of ``entry.data``, rebuilt layer by layer with ``keys``."""
    kind, sealed = wire.decode(entry.data)
    kid = sealed.key_id.hex()
    if kid not in keys:
        pytest.fail(f"{_name(entry)}: key {kid} is not in the world's key table")
    _, raw = _open(entry, sealed, [keys[kid]], now)
    if kind is wire.Kind.RegistrationRequest:
        device_public, uid, encrypted_token, _ = wire.REGISTRATION_PAYLOAD.decode(raw)
        # The encrypted token names no key: it is the table's key that opens it.
        token_kid, _ = _open(entry, encrypted_token,
                             [keys[kid], *keys.values()], now)
        token_bytes = wire.encode_hybrid(encrypted_token)
        token = Enc(token_kid, Secret(
            f"token:opaque:{crypto.sha256(token_bytes).hex()[:16]}"))
        inner = Tup((bundle_atom(device_public), uid_atom(uid.hex()), token,
                     SigT(token)))
    elif kind is wire.Kind.ActivationResponse:
        inner = activation_term(*wire.ACTIVATION_PAYLOAD.decode(raw))
    elif kind is wire.Kind.DataReport:
        uid, metric, value, unit, token = wire.DATA_PAYLOAD.decode(raw)
        inner = Tup((uid_atom(uid.hex()), Atom(f"reading:{metric}={value!r} {unit}"),
                     device_token_secret(token)))
    else:
        pytest.fail(f"{_name(entry)}: no term for a public {kind.name}")
    return Enc(kid, inner)


@pytest.fixture
def compared(monkeypatch) -> list[CustodyEntry]:
    """Check every public send of each ``World.run`` against its bytes once the
    run ends; the list holds each send compared."""
    checked: list[CustodyEntry] = []
    run = harness.World.run

    def checked_run(world, adversary):
        sends: list[tuple[float, CustodyEntry]] = []  # replays included
        observed: dict[bytes, Term] = {}
        send, observe = world.h_p.send, world.knowledge.observe

        def recorded(*args):
            entry = send(*args)
            sends.append((world.clock.now(), entry))
            return entry

        def recorded_observe(term):  # observes the custody send just made
            observe(term)
            observed[sends[-1][1].data] = term

        world.h_p.send = recorded
        world.knowledge.observe = recorded_observe
        run(world, adversary)
        keys = key_table(world)
        for now, entry in sends:
            assert term_from_bytes(entry, keys, now) == observed[entry.data], _name(entry)
            checked.append(entry)

    monkeypatch.setattr(harness.World, "run", checked_run)
    return checked


@pytest.mark.parametrize("seed", [1, 7])
def test_deliver_all_terms_match_their_bytes(compared, seed):
    spec = ScenarioSpec(devices=3, reports=(("temperature_c", 21.5, "C"),
                                            ("humidity_pct", 40.0, "%")),
                        revoke=True)
    result = harness.run_scenario(spec, DeliverAll(), seed)
    assert len(result.trace.by_kind(ch.DATA_ACCEPTED)) == 6
    # Per device: a request, an activation and two reports.
    assert len(compared) == 12


def test_attack_script_terms_match_their_bytes(compared):
    for name in ATTACK_SCRIPTS:
        before = len(compared)
        harness.run_attack(name)
        assert len(compared) > before, name


@pytest.mark.parametrize("base_seed, spec", [
    (1, harness.campaign_spec()),
    (1_000_000, ScenarioSpec(devices=2, reports=(("temperature_c", 21.5, "C"),),
                             retries=1)),
], ids=["one-device", "two-device"])
def test_campaign_terms_match_their_bytes(compared, base_seed, spec):
    # The first 200 seeds of each of criterion 1's two populations.
    harness.run_campaign(200, base_seed=base_seed, spec=spec)
    assert len(compared) >= 200


def test_a_send_sealed_to_a_key_outside_the_table_fails_by_name():
    world = harness.World(ScenarioSpec(devices=1, reports=()), seed=3)
    world.run(Scripted([{"on": 0, "action": "stop"}]))  # the request stays held
    entry = world.h_p.pending[0]
    with pytest.raises(pytest.fail.Exception,
                       match=r"^send 0 \(device-0 -> server\): key \w+ is not in"):
        term_from_bytes(entry, {}, world.clock.now())
