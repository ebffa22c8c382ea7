from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from hearthgate import channels as ch
from hearthgate.channels import (
    AdversaryKnowledge,
    Atom,
    DeliverAll,
    Enc,
    HashT,
    PublicChannel,
    Scripted,
    Secret,
    SecureChannel,
    SigT,
    SymEnc,
    Trace,
    Tup,
    derive_closure,
    kem_secret,
    sym_secret,
)
from hearthgate.runtime import seeded_rng


def test_secure_channel_fifo():
    hs = SecureChannel("authenticator", "server")
    hs.send("authenticator", "m1")
    hs.send("authenticator", "m2")
    assert hs.recv("server") == "m1"
    assert hs.recv("server") == "m2"


def test_secure_channel_directions_independent():
    hs = SecureChannel("authenticator", "server")
    hs.send("authenticator", "up")
    hs.send("server", "down")
    assert hs.recv("authenticator") == "down"
    assert hs.recv("server") == "up"


def test_secure_channel_recv_from_empty_queue():
    hs = SecureChannel("a", "b")
    hs.send("a", "m")
    with pytest.raises(ch.ChannelClosed):
        hs.recv("a")


def test_secure_traffic_invisible_to_adversary():
    knowledge = AdversaryKnowledge()
    before_terms = set(knowledge.terms)
    hs = SecureChannel("authenticator", "server")
    for i in range(20):
        hs.send("authenticator", f"secret-{i}")
        hs.recv("server")
    assert knowledge.terms == before_terms


def test_public_channel_observation_is_immediate():
    knowledge = AdversaryKnowledge()
    hp = PublicChannel(knowledge)
    entry = hp.send("device", "server", b"ciphertext-bytes",
                    Enc("k1", Secret("payload")))
    assert entry.data == b"ciphertext-bytes"
    assert Enc("k1", Secret("payload")) in knowledge.terms
    assert hp.pending == [entry]


def test_deliver_all_behaves_like_reliable_channel():
    knowledge = AdversaryKnowledge()
    hp = PublicChannel(knowledge)
    rng = seeded_rng(0)
    strategy = DeliverAll()
    sent = []
    for i in range(5):
        sent.append(hp.send("device", "server", bytes([i]), Atom(f"m{i}")))
    delivered = []
    while (act := strategy.decide(hp, rng)) is not None:
        delivered.append(hp.take(act.index).data)
    assert delivered == [bytes([i]) for i in range(5)]


def test_scripted_replay_delivers_twice():
    knowledge = AdversaryKnowledge()
    hp = PublicChannel(knowledge)
    rng = seeded_rng(0)
    hp.send("device", "server", b"msg", Atom("m"))
    strategy = Scripted([{"on": 0, "action": "replay"}])
    act = strategy.decide(hp, rng)
    assert act.action == "replay" and act.index == 0


def test_scripted_stop_withholds_its_index_and_every_later_one():
    hp = PublicChannel(AdversaryKnowledge())
    rng = seeded_rng(0)
    for i in range(3):
        hp.send("device", "server", bytes([i]), Atom(f"m{i}"))
    strategy = Scripted([{"on": 0, "action": "drop"},
                         {"on": 2, "action": "stop"}])
    played = []
    while (act := strategy.decide(hp, rng)) is not None:
        played.append(act.describe())
        hp.take(act.index)
    assert played == ["drop idx=0", "deliver idx=1"]
    for i in range(3, 5):  # later messages, a retry say, stay withheld too
        hp.send("device", "server", bytes([i]), Atom(f"m{i}"))
        assert strategy.decide(hp, rng) is None
    assert [e.index for e in hp.pending] == [2, 3, 4]


@pytest.mark.parametrize("second", ["replay", "stop"])
def test_scripted_rejects_two_rules_on_one_index(second):
    with pytest.raises(ValueError, match="two rules on message 0"):
        Scripted([{"on": 0, "action": "drop"}, {"on": 0, "action": second}])


# ---------------------------------------------------------------------------
# Closure rules
# ---------------------------------------------------------------------------

def test_closure_without_secret_key_keeps_payload_hidden():
    k = AdversaryKnowledge(terms=[Atom("pk:k1"), Enc("k1", Secret("payload"))])
    closed = derive_closure(k)
    assert Secret("payload") not in closed.terms


def test_closure_with_secret_key_opens_ciphertext():
    k = AdversaryKnowledge(terms=[kem_secret("k1"), Enc("k1", Secret("payload"))])
    closed = derive_closure(k)
    assert Secret("payload") in closed.terms


def test_closure_opens_nested_structures():
    inner = Tup((Secret("a"), SymEnc("link", Secret("b"))))
    k = AdversaryKnowledge(terms=[Enc("k1", inner), kem_secret("k1")])
    closed = derive_closure(k)
    assert Secret("a") in closed.terms
    assert Secret("b") not in closed.terms  # link key unknown
    k.grant(sym_secret("link"))
    assert Secret("b") in derive_closure(k).terms


def test_closure_signature_reveals_payload_but_no_forgery():
    k = AdversaryKnowledge(terms=[SigT("s1", Atom("signed-blob"))])
    closed = derive_closure(k)
    assert Atom("signed-blob") in closed.terms
    # Nothing in the closure fabricates signatures over new payloads.
    assert SigT("s1", Atom("other")) not in closed.terms


def test_closure_never_inverts_hashes():
    k = AdversaryKnowledge(terms=[HashT(Secret("preimage"))])
    assert Secret("preimage") not in derive_closure(k).terms


def _term_strategy():
    atoms = st.builds(Atom, st.sampled_from(["a", "b", "pk:k1"]))
    secrets = st.builds(Secret, st.sampled_from(["x", "y", "sk:k1", "sym:s"]))
    base = atoms | secrets
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.builds(Tup, st.tuples(children, children)),
            st.builds(Enc, st.sampled_from(["k1", "k2"]), children),
            st.builds(SymEnc, st.sampled_from(["s", "t"]), children),
            st.builds(SigT, st.sampled_from(["s1"]), children),
            st.builds(HashT, children),
        ),
        max_leaves=6,
    )


@given(terms=st.sets(_term_strategy(), max_size=8))
@settings(max_examples=200)
def test_closure_idempotent_and_monotone(terms):
    k = AdversaryKnowledge(terms=terms)
    once = derive_closure(k)
    twice = derive_closure(once)
    assert once.terms == twice.terms
    assert k.terms <= once.terms


@given(terms=st.sets(_term_strategy(), max_size=6),
       extra=st.sets(_term_strategy(), max_size=3))
@settings(max_examples=100)
def test_closure_monotone_in_inputs(terms, extra):
    small = derive_closure(AdversaryKnowledge(terms=terms))
    large = derive_closure(AdversaryKnowledge(terms=terms | extra))
    assert small.terms <= large.terms


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

def test_trace_times_strictly_increase():
    trace = Trace()
    events = [trace.record("server", ch.TOKEN_ISSUED, token="1"),
              trace.record("device", ch.DEVICE_REQUEST_SENT, uid="u")]
    assert events[0].time < events[1].time


def test_trace_render_deterministic():
    def build():
        t = Trace()
        t.record("server", ch.TOKEN_ISSUED, token="12345678", nonce="aa")
        t.record("device", ch.DEVICE_REQUEST_SENT, uid="u1")
        return t
    assert build().render() == build().render()
    assert build().digest() == build().digest()


def test_trace_fields_sorted_canonically():
    t = Trace()
    e = t.record("server", ch.TOKEN_ISSUED, zeta="1", alpha="2")
    assert e.fields == (("alpha", "2"), ("zeta", "1"))
