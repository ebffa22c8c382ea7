"""Open-loop load generation against the ledger's ordering service.

Reproduces the latency-versus-throughput saturation experiment at desk
scale: offered rates are swept across the ordering service's capacity and
per-transaction commit latency is measured submit-to-commit.

The generator runs as a discrete-event simulation in virtual time: arrivals
are scheduled on the same virtual clock the ordering service uses, so a run
is bit-reproducible from its seed and covers about 57-90 simulated seconds of
load per wall second (2 cores, CPython 3.11, raw wall time; signing dominates,
since checking a signature this process made is a lookup).
The service rate ``mu`` is explicit calibration, not a measurement of any
real deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import ledger
from .ledger import ChannelName, make_transaction
from .payloads import DataEntry, DeviceRecord, DeviceStatus, RiskAlert
from .runtime import SIM_EPOCH, Rng, seeded_rng

WARMUP_FRACTION = 0.1  # head of the run excluded from statistics


@dataclass(frozen=True)
class LoadProfile:
    """Offered load for one rate row: arrival rate, duration, process and channel mix."""

    arrival_rate: float                  # offered transactions per second
    duration: float = 30.0               # seconds of arrivals
    process: str = "uniform"             # "uniform" | "poisson"
    tx_mix: tuple[tuple[str, float], ...] = (("data", 1.0),)

    def validate(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        if self.duration < 10.0:
            raise ValueError("duration below 10 s gives unstable estimates")
        if self.process not in ("poisson", "uniform"):
            raise ValueError(f"unknown arrival process {self.process!r}")
        if not self.tx_mix or abs(sum(w for _, w in self.tx_mix) - 1.0) > 1e-9:
            raise ValueError("tx mix weights must sum to 1")
        known = {"identity", "data", "risk_management"}
        unknown = {name for name, _ in self.tx_mix} - known
        if unknown:
            raise ValueError(f"unknown channels in tx mix: {sorted(unknown)}")


@dataclass(frozen=True)
class RateRow:
    """One offered rate's measured throughput and commit-latency percentiles."""

    offered: float
    throughput: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    success: int


@dataclass
class LatencyReport:
    """A sweep's rate rows at one service rate ``mu``, writable as CSV."""

    mu: float
    rows: list[RateRow] = field(default_factory=list)

    CSV_HEADER = "rate,throughput,mean_ms,p50,p95,p99"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.offered:g},{r.throughput:.3f},{r.mean_ms:.3f},"
                         f"{r.p50_ms:.3f},{r.p95_ms:.3f},{r.p99_ms:.3f}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over a pre-sorted sample."""
    if not sorted_values:
        return float("nan")
    rank = math.ceil(q * len(sorted_values) / 100)
    return sorted_values[max(1, min(len(sorted_values), rank)) - 1]


def _payload_for(channel: str, rng: Rng, when: float):
    uid = rng.bytes(16)
    if channel == "data":
        return ChannelName.DATA, DataEntry(uid, "temperature_c",
                                           20.0 + rng.random() * 4.0, "C",
                                           when, rng.bytes(32))
    if channel == "identity":
        return ChannelName.IDENTITY, DeviceRecord(
            rng.bytes(32), rng.bytes(64), rng.bytes(64), rng.bytes(64), uid,
            DeviceStatus.ACTIVE, when)
    return ChannelName.RISK_MANAGEMENT, RiskAlert(
        uid, "temperature_c", 80.0, 60.0, "high", ("emergency_service",), 0, 0)


def generate_load(profile: LoadProfile, seed: int = 1, mu: float = 200.0,
                  max_block_txs: int = 50, block_interval: float = 0.1) -> RateRow:
    """Run one offered rate through a fresh ledger; returns its report row.

    Latency is commit time minus submit time per transaction, measured on the
    shared virtual clock; the first tenth of the run is warm-up and excluded.
    Overload shows up as rising latency, never as an error.
    """
    profile.validate()
    network, orgs = ledger.build_consortium(
        ledger.CORE_ORGS, seeded_rng(0xBE7C), SIM_EPOCH, mu=mu,
        max_block_txs=max_block_txs, block_interval=block_interval)
    rng = seeded_rng(seed)
    arrivals_rng = rng.child("arrivals")
    payload_rng = rng.child("payloads")

    mix_names = [name for name, _ in profile.tx_mix]
    mix_weights = [w for _, w in profile.tx_mix]
    submitter = {
        ChannelName.DATA: orgs["server-org"],
        ChannelName.IDENTITY: orgs["server-org"],
        ChannelName.RISK_MANAGEMENT: orgs["risk-engine"],
    }

    submissions: list[tuple[int, float]] = []  # (seq, submit time offset)
    t = 0.0
    step = 1.0 / profile.arrival_rate
    while True:
        t += (arrivals_rng.expovariate(profile.arrival_rate)
              if profile.process == "poisson" else step)
        if t > profile.duration:
            break
        when = SIM_EPOCH + t
        channel_name = payload_rng.weighted_choice(mix_names, mix_weights)
        channel, payload = _payload_for(channel_name, payload_rng, when)
        tx = make_transaction(channel, payload, submitter[channel], when)
        seq = network.submit(tx, when)
        submissions.append((seq, t))
    network.settle()

    warmup = WARMUP_FRACTION * profile.duration
    latencies = []
    committed_in_window = 0
    for seq, t_submit in submissions:
        receipt = network.receipt(seq)
        commit_offset = receipt.commit_time - SIM_EPOCH
        if t_submit >= warmup:
            latencies.append((commit_offset - t_submit) * 1000.0)
            if commit_offset <= profile.duration:
                committed_in_window += 1
    latencies.sort()
    window = profile.duration - warmup
    mean_ms = sum(latencies) / len(latencies) if latencies else float("nan")
    return RateRow(
        offered=profile.arrival_rate,
        throughput=committed_in_window / window,
        mean_ms=mean_ms,
        p50_ms=percentile(latencies, 50),
        p95_ms=percentile(latencies, 95),
        p99_ms=percentile(latencies, 99),
        success=len(latencies),
    )


def sweep(rates: list[float], profile: LoadProfile | None = None, seed: int = 1,
          mu: float = 200.0, max_block_txs: int = 50,
          block_interval: float = 0.1) -> LatencyReport:
    """One report row per offered rate, in the given (increasing) order."""
    if not rates:
        raise ValueError("rates must be nonempty")
    if sorted(rates) != list(rates):
        raise ValueError("rates must be increasing")
    template = profile or LoadProfile(arrival_rate=rates[0])
    report = LatencyReport(mu=mu)
    for i, rate in enumerate(rates):
        row_profile = LoadProfile(arrival_rate=rate, duration=template.duration,
                                  process=template.process,
                                  tx_mix=template.tx_mix)
        report.rows.append(generate_load(row_profile, seed=seed + i, mu=mu,
                                         max_block_txs=max_block_txs,
                                         block_interval=block_interval))
    return report


def parse_rates(text: str) -> list[float]:
    """Parse '30:300:25' (start:stop:step, stop always included) or '30,60,90'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("rate range must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError("rate range must ascend")
        rates = []
        value = start
        while value <= stop + 1e-9:
            rates.append(round(value, 9))
            value += step
        if rates[-1] < stop:
            rates.append(stop)
        return rates
    rates = [float(p) for p in text.split(",") if p.strip()]
    if not rates:
        raise ValueError("rates must be nonempty")
    return rates
