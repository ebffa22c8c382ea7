"""Adversarial scenario runner and security-property checkers.

``World.run`` drives a full onboarding (plus optional data reports and
revocation) under a chosen adversary strategy, producing a deterministic
trace for a given seed; ``run_scenario`` and the ``demo`` command both run
through it. Every message travels as ``wire`` bytes, through
adversary custody on the public channel and straight to its peer on an
authenticator's secure channel, and ends in ``roles.receive``, which decodes
it and calls the handler its table names. Three checkers then decide the
protocol's core properties over that trace and the adversary's derived
knowledge:

* authentication  - registration success implies a prior validated request
                    covering the same token and nonce;
* token integrity - one transient token never activates two device ids;
* key confidentiality - device-side secrets and the activation payload stay
                    outside the adversary's derivation closure.

A randomized campaign samples thousands of interleavings; a bounded
exhaustive mode enumerates the full decision tree for short scenarios. Both
are sampling substitutes for exhaustive symbolic search: they refute, they
do not prove.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from . import channels as ch
from . import crypto, ledger, risk, wire
from .channels import (
    AdversaryKnowledge,
    PublicChannel,
    Randomized,
    Scripted,
    SecureChannel,
    Term,
    Trace,
    derive_closure,
    kem_secret,
    sig_secret,
)
from .roles import (
    Authenticator,
    Device,
    DevicePhase,
    Outgoing,
    ProtocolError,
    Server,
    bundle_atom,
    deliver,
    deliver_token,
    establish_session,
    provision_device,
    receive,
)
from .runtime import SimClock, is_json_type, seeded_rng

STEP_DT = 0.1          # simulated seconds per adversary action
PHASE_DT = 1.0         # simulated seconds between scenario phases


class ScenarioInvalid(Exception):
    pass


@dataclass(eq=False, repr=False)
class ScenarioSpec:
    """What one scenario runs: devices, reports, revocation, timing, KEM and ledger."""

    devices: int = 1
    reports: tuple[tuple[str, float, str], ...] = (("temperature_c", 21.5, "C"),)
    revoke: bool = False
    retries: int = 1
    totp_step: int = 30
    key_ttl: float = 86_400.0
    kem_algo: str = crypto.DEFAULT_KEM
    mu: float = 200.0
    max_block_txs: int = 50
    block_interval: float = 0.1

    def validate(self) -> None:
        if self.devices < 1:
            raise ScenarioInvalid("scenario needs at least one device")
        if self.retries < 0:
            raise ScenarioInvalid("retries must not be negative")
        if not all(math.isfinite(value) for _, value, _ in self.reports):
            raise ScenarioInvalid("report values must be finite")
        for name in ("totp_step", "key_ttl", "mu", "max_block_txs", "block_interval"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ScenarioInvalid(f"{name} must be positive and finite")
        try:
            crypto.kem_backend(self.kem_algo)
        except crypto.MalformedKey as exc:
            raise ScenarioInvalid(str(exc)) from None


def load_scenario(path: str) -> ScenarioSpec:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ScenarioInvalid("scenario file must hold a JSON object")
    fields = ScenarioSpec.__dataclass_fields__
    unknown = set(raw) - set(fields)
    if unknown:
        raise ScenarioInvalid(f"unknown scenario keys: {sorted(unknown)}")
    for name, value in raw.items():
        if name == "reports":
            if not isinstance(value, list) or not all(
                    isinstance(r, list) and len(r) == 3
                    and is_json_type(r[0], "str") and is_json_type(r[1], "float")
                    and is_json_type(r[2], "str") for r in value):
                raise ScenarioInvalid(
                    "reports must be a list of [metric, number, unit] triples")
        elif not is_json_type(value, fields[name].type):
            raise ScenarioInvalid(f"{name} must be of type "
                                  f"{fields[name].type}, got {value!r}")
    if "reports" in raw:
        raw["reports"] = tuple((m, float(v), u) for m, v, u in raw["reports"])
    spec = ScenarioSpec(**raw)
    spec.validate()
    return spec


def _handle(handler, *args):
    """Call a role's message handler. Its ``_traced`` decorator has recorded
    any rejection it raises, so the run goes on without the message."""
    try:
        return handler(*args)
    except (ProtocolError, crypto.CryptoError):
        return None


class World:
    """Everything one scenario run touches, built deterministically from a seed."""

    def __init__(self, spec: ScenarioSpec, seed: int,
                 rules: list[risk.ThresholdRule] | None = None,
                 direct: bool = False,
                 orgs: tuple[tuple[str, ledger.OrgRole], ...] = ledger.CORE_ORGS,
                 access_overrides: dict | None = None):
        spec.validate()
        self.spec = spec
        self.seed = seed
        self.direct = direct  # bypass adversary custody (reference wiring)
        self._direct_queue: list[tuple[str, bytes, str]] = []
        self.rng = seeded_rng(seed)
        self.clock = SimClock()
        self.trace = Trace()
        self.knowledge = AdversaryKnowledge()
        self.h_p = PublicChannel()
        self.adv_rng = self.rng.child("adversary")

        self.network, self.orgs = ledger.build_consortium(
            orgs, self.rng.child("orgs"), self.clock.now(),
            mu=spec.mu, max_block_txs=spec.max_block_txs,
            block_interval=spec.block_interval,
            access_overrides=access_overrides)
        risk.attach(self.network, risk.DEFAULT_RULES if rules is None else rules,
                    self.orgs["risk-engine"])

        self.server = Server(self.rng.child("server"), self.clock, self.trace,
                             network=self.network, identity=self.orgs["server-org"],
                             kem_algo=spec.kem_algo, key_ttl=spec.key_ttl,
                             totp_step=spec.totp_step)
        self.auths: list[Authenticator] = []
        self.devices: list[Device] = []
        self.h_s: dict[str, SecureChannel] = {}
        for i in range(spec.devices):
            auth = Authenticator(self.rng.child(f"auth-{i}"), self.clock,
                                 self.trace, name=f"auth-{i}",
                                 kem_algo=spec.kem_algo, key_ttl=spec.key_ttl)
            link = crypto.gen_link_key(self.rng.child(f"link-{i}"))
            device = Device(self.rng.child(f"device-{i}"), self.clock, self.trace,
                            link, name=f"device-{i}", kem_algo=spec.kem_algo,
                            key_ttl=spec.key_ttl, max_retries=spec.retries)
            auth.provision_link_key(device.name, link)
            self.auths.append(auth)
            self.devices.append(device)
            self.h_s[auth.name] = SecureChannel(auth.name, "server")
        # Session id -> authenticator, for callers that record one; routing
        # goes by the name a secure Outgoing carries and never reads it.
        self.session_of: dict[str, Authenticator] = {}
        self.by_name = {r.name: r for r in (self.server, *self.auths, *self.devices)}

    # -- routing ---------------------------------------------------------------

    def send_outgoing(self, out: Outgoing) -> None:
        if out.path == "secure":  # on the channel of the authenticator at one end
            sender, receiver = self.by_name[out.src], self.by_name[out.dst]
            auth = receiver if sender is self.server else sender
            _handle(deliver, self.h_s[auth.name], sender, receiver, out.message)
        elif self.direct:
            # Direct wiring is still a wire: FIFO, just adversary-free.
            self._direct_queue.append((out.dst, wire.encode(out.message), out.src))
        else:
            # Observation is immediate: custody means the adversary saw it.
            self.h_p.send(out.src, out.dst, wire.encode(out.message))
            self.knowledge.observe(out.term)

    def dispatch(self, dst: str, data: bytes, reply_to: str) -> None:
        role = self.by_name.get(dst)
        if role is None or isinstance(role, Authenticator):
            return  # no one takes public messages by that name: they vanish
        for out in _handle(receive, role, "public", data, reply_to) or ():
            self.send_outgoing(out)

    def execute(self, rule: dict) -> None:
        """Play one adversary rule (``channels.check_rule``'s format)."""
        self.clock.advance(STEP_DT)
        self.trace.record("adversary", ch.ADVERSARY_ACTION, act=ch.describe(rule))
        action = rule["action"]
        if action == "inject":
            self.dispatch(rule["dst"], rule["data"], "adversary")
            return
        entry = self.h_p.take(rule["on"])
        if action == "drop":
            return
        data = entry.data
        if action == "tamper":
            data = bytearray(data)
            bit = rule["bit"] % (len(data) * 8)
            data[bit // 8] ^= 1 << (bit % 8)
        elif action == "delay":
            self.clock.advance(rule["seconds"])
        self.dispatch(entry.dst, bytes(data), entry.src)
        if action == "replay" and entry.replays_left > 0:
            copy = self.h_p.send(entry.src, entry.dst, entry.data)
            copy.replays_left = entry.replays_left - 1

    def pump(self, strategy) -> None:
        """Run adversary decisions (and device retries) to quiescence."""
        while True:
            if self.direct:
                if not self._direct_queue:
                    return
                dst, data, src = self._direct_queue.pop(0)
                self.dispatch(dst, data, src)
                continue
            rule = strategy.decide(self.h_p, self.adv_rng)
            if rule is not None:
                self.execute(rule)
                continue
            retried = False
            for device in self.devices:
                if device.wants_retry():
                    out = device.retry_request()
                    self.send_outgoing(out)
                    retried = True
            if not retried:
                return

    def run(self, adversary) -> None:
        """Onboard every device in waves that each fit in one TOTP step (see
        ``_wave_size``), send the spec's reports, revoke if it says so, and
        settle the ledger. ``adversary`` is a strategy; ``None`` on a direct
        world; or a callable ``world -> strategy``, called once after the
        first wave is provisioned, so it can forge from provisioned state. A
        builder's error (an expired key, say) is traced, then raised."""
        strategy = adversary
        pairs = list(zip(self.auths, self.devices))
        while pairs:
            size = _wave_size(self)
            wave, pairs = pairs[:size], pairs[size:]
            for auth, device in wave:
                h_s = self.h_s[auth.name]
                session_id = establish_session(auth, self.server, h_s)
                self.clock.advance(PHASE_DT)
                deliver_token(auth, self.server, session_id, h_s)
                provision_device(auth, device)
                self.clock.advance(PHASE_DT)
            if callable(strategy):
                strategy = strategy(self)
            for _, device in wave:
                self.send_outgoing(device.build_registration_request())
            self.pump(strategy)

        self.clock.advance(PHASE_DT)
        for device in self.devices:
            if device.phase is DevicePhase.ACTIVE:
                for metric, value, unit in self.spec.reports:
                    self.send_outgoing(device.build_data_report(metric, value, unit))
        self.pump(strategy)

        if self.spec.revoke:
            self.clock.advance(PHASE_DT)
            for auth, device in zip(self.auths, self.devices):
                if device.uid.hex in self.server.registry:
                    self.send_outgoing(Outgoing(
                        "secure", self.server.name,
                        auth.build_revocation(device.uid.hex), src=auth.name))
            self.pump(strategy)
        self.network.settle()

    # -- protected secrets -------------------------------------------------------

    def protected_terms(self) -> set[Term]:
        terms: set[Term] = set()
        for device in self.devices:
            if device.keys is not None:
                terms.add(kem_secret(device.keys.kem.key_id))
                terms.add(sig_secret(device.keys.sig.key_id))
        for entry in self.server.registry.values():
            terms.add(kem_secret(entry.server_keys.kem.key_id))
            # The activation payload as a structured term, plus the long-lived
            # token inside it. Its public-key atom is deliberately NOT here:
            # public keys sit in the adversary's base knowledge.
            terms.add(entry.activation_term)
            terms.add(entry.activation_term.items[0])
        return terms

    def grant_public_atoms(self) -> None:
        """Public keys are public: hand every bundle atom to the adversary."""
        for auth in self.auths:
            if auth.keys is not None:
                self.knowledge.grant(bundle_atom(auth.keys.public))
        for device in self.devices:
            if device.keys is not None:
                self.knowledge.grant(bundle_atom(device.keys.public))
        for session in self.server.sessions.values():
            self.knowledge.grant(bundle_atom(session.keys.public))
        for entry in self.server.registry.values():
            self.knowledge.grant(bundle_atom(entry.server_keys.public))


@dataclass(eq=False, repr=False)
class RunResult:
    """A finished scenario: its world, trace, adversary knowledge and protected terms."""

    world: World
    trace: Trace
    knowledge: AdversaryKnowledge
    protected: set[Term]


def _forged_request(world: World, label: str,
                    token: tuple[crypto.HybridCiphertext, crypto.Signature]
                    | None = None) -> bytes:
    """Registration request for a fresh pseudo-identity with fresh device
    keys, encrypted to device 0's server key. ``token`` is the (encrypted
    token, signature) pair it carries; without one, the adversary encrypts a
    made-up token and signs it with its own key."""
    device = world.devices[0]
    rng = world.adv_rng.child(label)
    now = world.clock.now()
    keys = crypto.generate_role_keys(crypto.RoleTag.DEVICE_FOR_SERVER,
                                     world.spec.key_ttl, rng, now,
                                     kem_algo=world.spec.kem_algo)
    if token is None:
        sig_keys = crypto.sig_keygen(crypto.RoleTag.AUTH_FOR_SERVER,
                                     world.spec.key_ttl, rng, now)
        fake_token = crypto.hybrid_encrypt(device.server_public.kem,
                                           b"00000000", rng, now)
        token = (fake_token,
                 crypto.sign(sig_keys, wire.encode_hybrid(fake_token), now))
    payload = wire.REGISTRATION_PAYLOAD.encode((keys.public, rng.bytes(16),
                                                *token))
    ct = crypto.hybrid_encrypt(device.server_public.kem, payload, rng, now)
    return wire.encode(wire.Message(wire.Kind.RegistrationRequest, ct))


def forge_registration(world: World) -> bytes:
    """A concrete injection: a registration request built entirely from the
    adversary's own keys. The server must refuse its signature."""
    return _forged_request(world, "forge")


def _forge_reuse_token(world: World) -> bytes:
    """Compromised-device fixture: reuse the honest device's (encrypted token,
    signature) under a fresh pseudo-identity."""
    device = world.devices[0]
    return _forged_request(world, "swap", token=(device._encrypted_token,
                                                 device._token_signature))


def _wave_size(world: World) -> int:
    """How many devices the next onboarding wave may hold.

    A device takes two phases to provision, then two adversary actions (its
    request and the activation reply), so a wave holds as many devices as
    fit before the current TOTP step ends. When not even one fits, the clock
    first moves to the next step edge; a device that needs more than a whole
    step goes alone.
    """
    per_device = 2 * PHASE_DT + 2 * STEP_DT
    step = world.spec.totp_step
    now = world.clock.now()
    edge = (now // step + 1) * step
    if now + per_device > edge and per_device <= step:
        world.clock.set(edge)
        now, edge = edge, edge + step
    return max(1, int((edge - now) // per_device))


def run_scenario(spec: ScenarioSpec, adversary, seed: int) -> RunResult:
    """:meth:`World.run` on a fresh world, direct when ``adversary`` is None,
    with ``risk.DEFAULT_RULES``. The same (spec, adversary, seed) produces a
    byte-identical trace."""
    world = World(spec, seed, direct=adversary is None)
    world.run(adversary)
    world.grant_public_atoms()
    return RunResult(world=world, trace=world.trace, knowledge=world.knowledge,
                     protected=world.protected_terms())


# ---------------------------------------------------------------------------
# Property checkers
# ---------------------------------------------------------------------------

AUTHENTICATION = "Authentication"
TOKEN_INTEGRITY = "TokenIntegrity"
KEYPAIR_CONFIDENTIALITY = "KeypairConfidentiality"


@dataclass(eq=False)
class LemmaVerdict:
    """One security lemma's verdict on a trace, with a witness when violated."""

    lemma: str
    holds: bool
    witness: str | None = None  # offending trace slice, present iff violated

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("a holding verdict carries no witness")
        if not self.holds and self.witness is None:
            raise ValueError("a violation needs a witness")


def check_authentication(trace: Trace) -> LemmaVerdict:
    """Every registration success has a strictly earlier accepted request
    covering the same token and nonce."""
    accepted = trace.by_kind(ch.DEVICE_REQUEST_ACCEPTED)
    for success in trace.by_kind(ch.REGISTRATION_SUCCESS):
        ok = any(a.time < success.time
                 and a.get("token") == success.get("token")
                 and a.get("nonce") == success.get("nonce")
                 for a in accepted)
        if not ok:
            return LemmaVerdict(AUTHENTICATION, False,
                                witness=f"unvalidated success: {success.render()}")
    return LemmaVerdict(AUTHENTICATION, True)


def check_token_integrity(trace: Trace) -> LemmaVerdict:
    """Accepted requests sharing (token, nonce, signature) agree on the device id."""
    seen: dict[tuple, ch.TraceEvent] = {}
    for event in trace.by_kind(ch.DEVICE_REQUEST_ACCEPTED):
        key = (event.get("token"), event.get("nonce"), event.get("sig"))
        prior = seen.get(key)
        if prior is not None and prior.get("uid") != event.get("uid"):
            return LemmaVerdict(
                TOKEN_INTEGRITY, False,
                witness=f"one token, two devices: {prior.render()} / {event.render()}")
        seen.setdefault(key, event)
    return LemmaVerdict(TOKEN_INTEGRITY, True)


def check_keypair_confidentiality(knowledge: AdversaryKnowledge,
                                  protected: set[Term]) -> LemmaVerdict:
    """No protected secret or the activation payload is derivable."""
    closure = derive_closure(knowledge)
    leaked = protected & closure.terms
    if leaked:
        labels = sorted(getattr(t, "label", repr(t)) for t in leaked)
        return LemmaVerdict(KEYPAIR_CONFIDENTIALITY, False,
                            witness=f"derivable secrets: {labels}")
    return LemmaVerdict(KEYPAIR_CONFIDENTIALITY, True)


def check_all(result: RunResult) -> dict[str, LemmaVerdict]:
    return {
        AUTHENTICATION: check_authentication(result.trace),
        TOKEN_INTEGRITY: check_token_integrity(result.trace),
        KEYPAIR_CONFIDENTIALITY: check_keypair_confidentiality(
            result.knowledge, result.protected),
    }


# ---------------------------------------------------------------------------
# Attack script library
# ---------------------------------------------------------------------------

@dataclass(eq=False, repr=False)
class AttackScript:
    """A built-in attack: its ``Scripted`` rules, forged bytes and expected rejection."""

    description: str
    expected_error: str | None      # rejection code the server must record
    detail: str                     # what a defeated attack shows
    rules: tuple[dict, ...]         # ``--script-file`` rules, minus inject data
    forge: Callable[[World], bytes] | None = None  # fills the inject ``data``

    def adversary(self, world: World) -> Scripted:
        """The script's rules, with forged bytes as its inject ``data``."""
        return Scripted([dict(rule, data=self.forge(world))
                         if rule["action"] == "inject" else rule
                         for rule in self.rules])


ATTACK_SCRIPTS: dict[str, AttackScript] = {
    "replay-device-request": AttackScript(
        "deliver the registration request twice; the token is single-use",
        expected_error="TokenUnknown", detail="rejected: token consumed",
        rules=({"on": 0, "action": "replay"},),
    ),
    "replay-stale-token": AttackScript(
        "withhold the registration request past the 30 s token step",
        expected_error="TokenExpired", detail="rejected: token expired",
        rules=({"on": 0, "action": "delay", "seconds": 40},),
    ),
    "tamper-ciphertext-bit": AttackScript(
        "flip one ciphertext bit in transit; authenticated encryption catches it",
        expected_error="Malformed", detail="rejected: ciphertext rejected",
        rules=({"on": 0, "action": "tamper", "bit": 900},),
    ),
    "token-swap-across-devices": AttackScript(
        "present a consumed token under a second device identity "
        "(provision material leaked to the adversary by fiat)",
        expected_error="TokenUnknown", detail="rejected: token consumed",
        rules=({"on": 1, "action": "inject", "dst": "server"},),
        forge=_forge_reuse_token,
    ),
    "inject-forged-registration": AttackScript(
        "inject a registration signed by the adversary's own key",
        expected_error="SignatureInvalid", detail="rejected: signature invalid",
        rules=({"on": 0, "action": "inject", "dst": "server"},),
        forge=forge_registration,
    ),
    "drop-activation": AttackScript(
        "drop the activation response: server-side active, device stalls "
        "(documented divergence; no retry in this script)",
        expected_error=None,
        detail="activation withheld: device stalled in request_sent, "
               "server registry active (documented divergence)",
        rules=({"on": 1, "action": "drop"},),
    ),
}


@dataclass(eq=False, repr=False)
class AttackOutcome:
    """A built-in attack's run: whether it was defeated, and the lemma verdicts."""

    name: str
    defeated: bool
    error_seen: str | None
    detail: str
    verdicts: dict[str, LemmaVerdict]
    result: RunResult


def run_attack(name: str, seed: int = 7) -> AttackOutcome:
    try:
        script = ATTACK_SCRIPTS[name]
    except KeyError:
        raise ScenarioInvalid(
            f"unknown attack script {name!r}; known: {sorted(ATTACK_SCRIPTS)}"
        ) from None
    spec = ScenarioSpec(devices=1, reports=(), retries=0)
    result = run_scenario(spec, script.adversary, seed)
    verdicts = check_all(result)
    rejected = {e.get("error")
                for e in result.trace.by_kind(ch.DEVICE_REQUEST_REJECTED)}
    error_seen = script.expected_error if script.expected_error in rejected else None
    honest_uids = {d.uid.hex for d in result.world.devices}
    successes = result.trace.by_kind(ch.REGISTRATION_SUCCESS)
    foreign_success = [e for e in successes if e.get("uid") not in honest_uids]
    lemmas_hold = all(v.holds for v in verdicts.values())
    if script.expected_error is None:
        device = result.world.devices[0]
        diverged = (device.phase is DevicePhase.REQUEST_SENT
                    and device.uid.hex in result.world.server.registry)
        defeated = lemmas_hold and not foreign_success
        detail = script.detail if diverged else "no divergence observed"
    else:
        defeated = (error_seen is not None and not foreign_success
                    and lemmas_hold)
        detail = (script.detail if defeated
                  else "attack was not rejected as expected")
    return AttackOutcome(name=name, defeated=defeated, error_seen=error_seen,
                         detail=detail, verdicts=verdicts, result=result)


def load_attack_rules(path: str) -> list[dict]:
    """Load a declarative adversary script: a JSON list of rules in
    ``channels.check_rule``'s format, an ``inject`` giving its bytes as the
    hex string ``data_hex``."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ScenarioInvalid("attack script file must hold a JSON list")
    rules = []
    for i, rule in enumerate(raw):
        try:
            if isinstance(rule, dict) and "data_hex" in rule:
                rule = dict(rule)
                data_hex = rule.pop("data_hex")
                if not isinstance(data_hex, str):
                    raise ValueError("'data_hex' must be a hex string")
                rule["data"] = bytes.fromhex(data_hex)
            rules.append(ch.check_rule(rule))
        except ValueError as exc:
            raise ScenarioInvalid(f"rule {i}: {exc}") from None
    return rules


def run_script_file(path: str, seed: int = 7,
                    spec: ScenarioSpec | None = None) -> tuple[RunResult, dict]:
    """Run a user-supplied adversary script against a scenario; returns the
    run and its property verdicts. An ``inject`` must name the server or
    one of the scenario's devices, the roles that take public messages."""
    rules = load_attack_rules(path)
    spec = spec or ScenarioSpec(devices=1, reports=(), retries=0)
    receivers = {"server", *(f"device-{i}" for i in range(spec.devices))}
    for i, rule in enumerate(rules):
        if rule["action"] == "inject" and rule["dst"] not in receivers:
            raise ScenarioInvalid(f"rule {i}: inject 'dst' {rule['dst']!r} "
                                  "names no server or device of the scenario")
    result = run_scenario(spec, Scripted(rules), seed)
    return result, check_all(result)


# ---------------------------------------------------------------------------
# Randomized campaign
# ---------------------------------------------------------------------------

@dataclass(eq=False, repr=False)
class CampaignRecord:
    """One campaign run: its seed, each lemma's verdict and its trace digest."""

    seed: int
    holds: dict[str, bool]
    trace_digest: str

    def to_json(self) -> str:
        return json.dumps({"seed": self.seed, "holds": self.holds,
                           "trace": self.trace_digest}, sort_keys=True)


@dataclass(eq=False, repr=False)
class CampaignResult:
    """A campaign's runs, violations, records and rejections by (kind, code)."""

    runs: int
    violations: list[tuple[int, LemmaVerdict]]
    records: list[CampaignRecord]
    rejections: Counter[tuple[str, str]]

    @property
    def clean(self) -> bool:
        return not self.violations


def campaign_spec() -> ScenarioSpec:
    return ScenarioSpec(devices=1, reports=(("temperature_c", 21.5, "C"),),
                        retries=1)


def run_campaign(runs: int, base_seed: int = 1,
                 weights: dict[str, float] | None = None,
                 spec: ScenarioSpec | None = None) -> CampaignResult:
    """Randomized adversarial campaign: distinct seeds, mixed action weights,
    all three checkers per run."""
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    spec = spec or campaign_spec()
    violations: list[tuple[int, LemmaVerdict]] = []
    records: list[CampaignRecord] = []
    rejections: Counter[tuple[str, str]] = Counter()
    for i in range(runs):
        seed = base_seed + i
        result = run_scenario(
            spec,
            lambda world: Randomized(lambda: forge_registration(world),
                                     weights=weights),
            seed)
        verdicts = check_all(result)
        for verdict in verdicts.values():
            if not verdict.holds:
                violations.append((seed, verdict))
        records.append(CampaignRecord(
            seed=seed,
            holds={k: v.holds for k, v in verdicts.items()},
            trace_digest=result.trace.digest()))
        rejections.update((e.kind, e.get("error") or "other")
                          for e in result.trace.events if e.kind in ch.REJECTION_KINDS)
    return CampaignResult(runs=runs, violations=violations, records=records,
                          rejections=rejections)


# ---------------------------------------------------------------------------
# Bounded exhaustive mode
# ---------------------------------------------------------------------------

BOUNDED_ACTIONS = ("deliver", "drop", "replay")
MAX_PUBLIC_MESSAGES = 12
MAX_BOUNDED_RUNS = 20_000


def bounded_exhaustive(spec: ScenarioSpec, seed: int = 7,
                       actions: tuple[str, ...] = BOUNDED_ACTIONS
                       ) -> list[tuple[tuple[str, ...], dict]]:
    """Enumerate every adversary decision tree over a restricted action set.

    A branch is a plan ``{message index: action}``, played as ``Scripted``
    rules (``tamper`` flips bit 13) plus a ``stop`` just past its last
    index, so the adversary withholds everything later and each plan is
    itself a complete run. Each result pairs the plan's actions, in index
    order, with the run's verdicts. Only tractable for short scenarios;
    refuses a plan over ``MAX_PUBLIC_MESSAGES`` messages, or needing more
    than ``MAX_BOUNDED_RUNS`` runs.
    """
    results = []
    stack: list[dict[int, str]] = [{}]
    while stack:
        plan = stack.pop()
        if len(results) >= MAX_BOUNDED_RUNS:
            raise ScenarioInvalid(f"bounded exhaustive exceeded {MAX_BOUNDED_RUNS}"
                                  " runs; restrict the scenario")
        if len(plan) > MAX_PUBLIC_MESSAGES:
            raise ScenarioInvalid(
                "scenario produces more public messages than bounded mode allows")
        rules = [{"on": on, "action": action, "bit": 13} if action == "tamper"
                 else {"on": on, "action": action} for on, action in plan.items()]
        rules.append({"on": max(plan, default=-1) + 1, "action": "stop"})
        result = run_scenario(spec, Scripted(rules), seed)
        results.append((tuple(plan[on] for on in sorted(plan)),
                        check_all(result)))
        # Custody stays in index order and the adversary only ever acts on
        # the oldest message, so the first withheld message is the oldest
        # one left, and every plan extending this one decides it next.
        pending = result.world.h_p.pending
        if pending:
            for action in actions:
                stack.append({**plan, pending[0].index: action})
    return results
