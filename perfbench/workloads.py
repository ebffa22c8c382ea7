"""The four benchmark workloads, each one repeatable iteration.

An iteration is a pure function of (seed, parameters): the program only ever
sees the inputs generated here, so every iteration of one run does the same
work and must produce the same digest. An iteration returns an ``Outcome``
with the time of each consecutive part of the work, latency samples in a
fixed order, operation counts, a digest of everything the model produced,
and the correctness gates it failed. Times are at reference machine speed:
the iteration lets its ``pacer`` (``calibrate.Pacer``) time a reference
workload between parts, never inside one, and scales each part by it.

* ``fleet`` / ``fleet-pq``: one client onboards a fleet device by device
  through the public drivers (closed loop), then sends two reports per active
  device, revokes every 10th registered device, settles the ledger and writes
  and verifies a snapshot; ``fleet-pq`` does so for two fleets.
* ``campaign``: single-device randomized adversarial runs through
  ``harness.run_campaign``.
* ``ledger-mix``: three ``bench.generate_load`` rows (open loop in virtual
  time, Poisson arrivals) below, at and above the ordering knee.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
from hearthgate import bench, channels, crypto, harness, ledger, roles
from hearthgate.payloads import DeviceStatus
from hearthgate.runtime import seeded_rng

REPORTS = (("temperature_c", 21.5, "C"), ("temperature_c", 85.0, "C"))
REVOKE_EVERY = 10
LEDGER_MU = 200.0
LEDGER_MIX = (("data", 0.8), ("identity", 0.15), ("risk_management", 0.05))

# Protocol trace kinds that record a rejected operation.
REJECTION_KINDS = (
    channels.DEVICE_REQUEST_REJECTED,
    channels.DATA_REJECTED,
    channels.REVOCATION_REJECTED,
    channels.MESSAGE_REJECTED,
    channels.ACTIVATION_REJECTED,
)


def no_mark(group: str) -> None:
    pass


@dataclass
class Outcome:
    units: int                 # devices, campaign runs or transactions
    parts_s: list[float]       # time of each consecutive part of the work
    latency_ms: list[float]    # onboarding, run, or per-transaction cost per row
    attempted: int
    failed: int
    digest: str
    errors: list[str] = field(default_factory=list)
    report_ms: list[float] = field(default_factory=list)
    rejected: Counter = field(default_factory=Counter)
    model: list[dict] | None = None   # ledger-mix virtual-time rows
    sim_s: float = 0.0                # simulated seconds of ledger load


def rejection_codes(trace: channels.Trace) -> Counter:
    return Counter(e.get("error") or "other" for e in trace.events
                   if e.kind in REJECTION_KINDS)


# ---------------------------------------------------------------------------
# fleet and fleet-pq
# ---------------------------------------------------------------------------

def fleet_spec(devices: int, kem_algo: str) -> harness.ScenarioSpec:
    return harness.ScenarioSpec(devices=devices, reports=REPORTS, revoke=True,
                                kem_algo=kem_algo)


def fleet(seed: int, params: dict, workdir: Path, mark=no_mark,
          pacer=calibrate.NoPacer()) -> Outcome:
    """Onboard ``params["worlds"]`` fleets, each built from its own seed
    derived from ``seed``."""
    worlds = [fleet_world(seed * 1000 + k, params, workdir, mark, pacer)
              for k in range(params["worlds"])]
    digest = hashlib.sha256(" ".join(o.digest for o in worlds).encode())
    return Outcome(units=sum(o.units for o in worlds),
                   parts_s=[s for o in worlds for s in o.parts_s],
                   latency_ms=[s for o in worlds for s in o.latency_ms],
                   report_ms=[s for o in worlds for s in o.report_ms],
                   attempted=sum(o.attempted for o in worlds),
                   failed=sum(o.failed for o in worlds),
                   rejected=sum((o.rejected for o in worlds), Counter()),
                   digest=digest.hexdigest(),
                   errors=[e for o in worlds for e in o.errors])


def fleet_world(seed: int, params: dict, workdir: Path, mark=no_mark,
                pacer=calibrate.NoPacer()) -> Outcome:
    world = harness.World(fleet_spec(params["devices"], params["kem"]), seed,
                          direct=True)
    server = world.server
    strategy = channels.DeliverAll()
    active_phase = roles.DevicePhase.ACTIVE
    spans: list[tuple[float, float]] = []   # (start, end) of each part
    onboarded: list[int] = []               # parts that activated a device
    late_tokens: set[str] = set()   # presented in a later TOTP step than issued
    snapshot = workdir / f"fleet-{seed}.snapshot"

    pacer.pace(force=True)
    for auth, device in zip(world.auths, world.devices):
        pacer.pace()
        mark(device.name)
        t0 = perf_counter()
        h_s = world.h_s[auth.name]
        session_id = roles.establish_session(auth, server, h_s)
        world.session_of[session_id] = auth
        world.clock.advance(harness.PHASE_DT)
        roles.deliver_token(auth, server, session_id, h_s)
        pending = server.pending[-1]
        token = roles.token_secret(session_id, pending.issued_digits)
        roles.provision_device(auth, device, token_term=token)
        world.clock.advance(harness.PHASE_DT)
        if world.clock.now() // server.totp_step != pending.issued_step:
            late_tokens.add(device.uid.hex)
        world.send_outgoing(device.build_registration_request())
        world.pump(strategy)
        spans.append((t0, perf_counter()))
        if device.phase is active_phase:
            onboarded.append(len(spans) - 1)

    world.clock.advance(harness.PHASE_DT)
    active = [d for d in world.devices if d.phase is active_phase]
    reports_from = len(spans)
    for device in active:
        pacer.pace()
        mark(device.name)
        for metric, value, unit in REPORTS:
            t0 = perf_counter()
            world.send_outgoing(device.build_data_report(metric, value, unit))
            world.pump(strategy)
            spans.append((t0, perf_counter()))

    pacer.pace()
    t0 = perf_counter()
    world.clock.advance(harness.PHASE_DT)
    registered = [(a, d) for a, d in zip(world.auths, world.devices)
                  if d.uid.hex in server.registry]
    revoked = registered[REVOKE_EVERY - 1::REVOKE_EVERY]
    mark("revocation")
    for auth, device in revoked:
        try:
            server.handle_revocation(auth.build_revocation(device.uid.hex))
        except (roles.ProtocolError, crypto.CryptoError):
            pass  # the server traced its own rejection
    world.network.settle()
    mark("snapshot")
    ledger.write_snapshot(world.network, str(snapshot))
    snapshot_ok, snapshot_detail = ledger.verify_snapshot(str(snapshot))
    spans.append((t0, perf_counter()))
    pacer.pace(force=True)
    parts = [pacer.scale(start, end) for start, end in spans]

    snapshot_hash = hashlib.sha256(snapshot.read_bytes()).hexdigest()
    snapshot.unlink()
    mark("checks")
    errors = _fleet_gates(world, active, revoked, late_tokens,
                          len(active) * len(REPORTS))
    if not snapshot_ok:
        errors.append(f"snapshot does not verify: {snapshot_detail}")

    trace = world.trace
    committed = sum(len(b.txs) for chain in world.network.chains.values()
                    for b in chain)
    rejected = rejection_codes(trace)
    attempted = (len(world.devices) + len(active) * len(REPORTS) + len(revoked)
                 + committed + rejected["LedgerRejected"])
    digest = hashlib.sha256(f"{trace.digest()} {snapshot_hash}".encode()).hexdigest()
    return Outcome(units=len(world.devices), parts_s=parts,
                   latency_ms=[parts[i] * 1e3 for i in onboarded],
                   report_ms=[s * 1e3 for s in parts[reports_from:-1]],
                   attempted=attempted,
                   failed=sum(rejected.values()), rejected=rejected,
                   digest=digest, errors=errors)


def _fleet_gates(world: harness.World, active: list, revoked: list,
                 late_tokens: set[str], reports_sent: int) -> list[str]:
    server = world.server
    trace = world.trace
    errors = []
    # Strict single-step TOTP may refuse a token presented in the step after
    # the one it was issued in, and nothing else; a TOTP window would refuse
    # fewer.
    rejected_uids = set()
    for event in trace.by_kind(channels.DEVICE_REQUEST_REJECTED):
        uid = event.get("uid")
        rejected_uids.add(uid)
        if event.get("error") != "TokenExpired" or uid not in late_tokens:
            errors.append(f"registration of {uid} rejected as {event.get('error')}; "
                          f"only a token presented after its TOTP step may be")
    revoked_uids = {d.uid.hex for _, d in revoked}
    for device in world.devices:
        uid = device.uid.hex
        if uid in rejected_uids:
            continue
        entry = server.registry.get(uid)
        if device.phase is not roles.DevicePhase.ACTIVE or entry is None:
            errors.append(f"{device.name}: registration not rejected but not active")
            continue
        if uid in revoked_uids:
            if entry.status is not DeviceStatus.DEACTIVATED:
                errors.append(f"{device.name}: revoked but still active on the server")
            if entry.device_public.kem.key not in server.crl:
                errors.append(f"{device.name}: revoked key missing from the CRL")
        elif entry.status is not DeviceStatus.ACTIVE:
            errors.append(f"{device.name}: not active on the server")
    accepted = len(trace.by_kind(channels.DATA_ACCEPTED))
    if accepted != reports_sent:
        errors.append(f"{accepted} reports accepted of {reports_sent} sent")
    alerts = sum(len(b.txs) for b in
                 world.network.chains[ledger.ChannelName.RISK_MANAGEMENT])
    if alerts != len(active):
        errors.append(f"{alerts} risk alerts for {len(active)} hot reports")
    world.grant_public_atoms()
    result = harness.RunResult(world=world, trace=trace, knowledge=world.knowledge,
                               protected=world.protected_terms())
    for verdict in harness.check_all(result).values():
        if not verdict.holds:
            errors.append(f"{verdict.lemma} violated: {verdict.witness}")
    return errors


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

def campaign(seed: int, params: dict, workdir: Path, mark=no_mark,
             pacer=calibrate.NoPacer()) -> Outcome:
    first = seed * 1_000_000
    spans: list[tuple[float, float]] = []
    digest = hashlib.sha256()
    errors: list[str] = []
    failed = 0
    pacer.pace(force=True)
    for run_seed in range(first, first + params["runs"]):
        pacer.pace()
        mark(f"run-{run_seed}")
        t0 = perf_counter()
        try:
            result = harness.run_campaign(1, base_seed=run_seed)
        except Exception:
            result = None
            errors.append(f"run {run_seed} raised:\n{traceback.format_exc()}")
        spans.append((t0, perf_counter()))
        for bad_seed, verdict in (result.violations if result else ()):
            errors.append(f"run {bad_seed}: {verdict.lemma} violated: {verdict.witness}")
        if result is None or result.violations:
            failed += 1
            digest.update(b"failed")
            continue
        digest.update(result.records[0].trace_digest.encode())
    pacer.pace(force=True)
    parts = [pacer.scale(start, end) for start, end in spans]
    return Outcome(units=params["runs"], parts_s=parts,
                   latency_ms=[s * 1e3 for s in parts], attempted=params["runs"],
                   failed=failed, digest=digest.hexdigest(), errors=errors)


# ---------------------------------------------------------------------------
# ledger-mix
# ---------------------------------------------------------------------------

def arrivals(seed: int, rate: float, duration: float) -> int:
    """Transactions one Poisson row submits: ``generate_load`` draws its
    arrival times from the ``arrivals`` child stream of its seed."""
    rng = seeded_rng(seed).child("arrivals")
    t, count = 0.0, 0
    while True:
        t += rng.expovariate(rate)
        if t > duration:
            return count
        count += 1


def ledger_mix(seed: int, params: dict, workdir: Path, mark=no_mark,
               pacer=calibrate.NoPacer()) -> Outcome:
    rows, spans = [], []
    # A row is one call of a second or more, during which the machine's
    # speed can change several times, so the reference is also timed from
    # inside it, before a transaction is submitted; scale() leaves those
    # pauses out of the row's time.
    submit = ledger.LedgerNetwork.submit

    def paced_submit(network, *args, **kwargs):
        pacer.pace()
        return submit(network, *args, **kwargs)

    if isinstance(pacer, calibrate.Pacer):
        ledger.LedgerNetwork.submit = paced_submit
    try:
        for i, rate in enumerate(params["rates"]):
            pacer.pace(force=True)
            mark(f"row-{rate:g}")
            profile = bench.LoadProfile(arrival_rate=rate, duration=params["duration"],
                                        process="poisson", tx_mix=LEDGER_MIX)
            t0 = perf_counter()
            rows.append(bench.generate_load(profile, seed=seed + i, mu=LEDGER_MU))
            spans.append((t0, perf_counter()))
    finally:
        ledger.LedgerNetwork.submit = submit
    pacer.pace(force=True)
    row_s = [pacer.scale(start, end) for start, end in spans]
    txs = [arrivals(seed + i, rate, params["duration"])
           for i, rate in enumerate(params["rates"])]
    model = [dataclasses.asdict(row) for row in rows]
    return Outcome(units=sum(txs), parts_s=row_s,
                   latency_ms=[s * 1e3 / n for s, n in zip(row_s, txs)],
                   attempted=sum(txs), failed=0,
                   digest=hashlib.sha256(json.dumps(model).encode()).hexdigest(),
                   model=model, sim_s=params["duration"] * len(params["rates"]))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    iteration: object          # (seed, params, workdir, mark, pacer) -> Outcome
    params: dict
    tiny: dict                 # a few seconds of work, for the self-test
    nominal_s: float           # seconds one iteration is planned to take
    tail_pct: int              # see the registry below
    required_spans: tuple[str, ...]


_CORE_SPANS = ("crypto.hybrid_decrypt", "crypto.hybrid_encrypt", "crypto.kem_keygen",
               "crypto.sig_keygen", "crypto.sign", "crypto.verify", "wire.encode",
               "wire.decode", "payloads.encode_payload", "ledger.make_transaction",
               "ledger.submit", "ledger.run_until", "ledger.build_block",
               "risk.evaluate", "channels.derive_closure",
               "roles.Server.handle_registration", "roles.Server.handle_data_report",
               "roles.establish_session", "harness.World.init", "harness.check_all")
_FLEET_SPANS = _CORE_SPANS + ("roles.Server.handle_revocation", "ledger.verify_blocks")

# tail_pct is the highest percentile that leaves at least ten latency samples
# beyond it: fleet has 187 of 200 onboardings (11 beyond p94), campaign 1,000
# runs (10 beyond p99) and fleet-pq 30 of 32 (10 beyond p66). ledger-mix has
# one sample per rate row, its wall cost per transaction, so its tail is the
# costliest of the three rows.
WORKLOADS = {
    "fleet": Workload(
        "fleet", fleet, {"devices": 200, "kem": crypto.DEFAULT_KEM, "worlds": 1},
        {"devices": 16, "kem": crypto.DEFAULT_KEM, "worlds": 1},
        nominal_s=8.5, tail_pct=94, required_spans=_FLEET_SPANS),
    "campaign": Workload(
        "campaign", campaign, {"runs": 1000}, {"runs": 10},
        nominal_s=6.0, tail_pct=99,
        required_spans=_CORE_SPANS + ("harness.run_scenario",)),
    "ledger-mix": Workload(
        "ledger-mix", ledger_mix, {"rates": (100.0, 200.0, 300.0), "duration": 30.0},
        {"rates": (5.0, 10.0, 15.0), "duration": 10.0}, nominal_s=6.5, tail_pct=100,
        required_spans=("crypto.sign", "crypto.verify", "crypto.sig_keygen",
                        "payloads.encode_payload", "ledger.make_transaction",
                        "ledger.submit", "ledger.run_until", "ledger.build_block",
                        "bench.generate_load")),
    "fleet-pq": Workload(
        "fleet-pq", fleet, {"devices": 16, "kem": "ml-kem-512", "worlds": 2},
        {"devices": 10, "kem": "ml-kem-512", "worlds": 1}, nominal_s=8.0, tail_pct=66,
        required_spans=_FLEET_SPANS + ("mlkem.keygen", "mlkem.encaps", "mlkem.decaps")),
}


def build_world(name: str, seed: int) -> harness.World:
    """The set-up a workload pays before its timed phase."""
    params = WORKLOADS[name].params
    if name in ("fleet", "fleet-pq"):
        return harness.World(fleet_spec(params["devices"], params["kem"]),
                             seed * 1000, direct=True)
    if name == "campaign":
        return harness.World(harness.campaign_spec(), seed)
    return harness.World(harness.ScenarioSpec(mu=LEDGER_MU), seed)
