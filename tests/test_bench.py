from __future__ import annotations

import dataclasses
import hashlib
import math
import random

import pytest

from hearthgate import ledger
from hearthgate.bench import (
    LatencyReport,
    LoadProfile,
    generate_load,
    parse_rates,
    percentile,
    sweep,
)
from hearthgate.runtime import Rng

MU = 200.0


def short(rate, **kw) -> LoadProfile:
    return LoadProfile(arrival_rate=rate, duration=10.0, **kw)


def test_profile_validation():
    with pytest.raises(ValueError):
        LoadProfile(arrival_rate=0).validate()
    with pytest.raises(ValueError):
        LoadProfile(arrival_rate=10, duration=5).validate()
    with pytest.raises(ValueError):
        LoadProfile(arrival_rate=10, process="bursty").validate()
    with pytest.raises(ValueError):
        LoadProfile(arrival_rate=10, tx_mix=(("data", 0.5),)).validate()
    LoadProfile(arrival_rate=10).validate()


# Each of these kept generate_load's arrival loop running, signing until the
# process ran out of memory: the time step was 0, or ``t > nan`` never held.
@pytest.mark.parametrize("changes", [
    {"arrival_rate": math.inf}, {"arrival_rate": math.nan},
    {"duration": math.inf}, {"duration": math.nan},
    {"tx_mix": (("data", math.nan),)}, {"tx_mix": (("data", math.inf),)},
    {"tx_mix": (("data", 1.5), ("identity", -0.5))},
    {"tx_mix": (("data", math.nan), ("identity", 1.0))},
], ids=repr)
def test_profile_refuses_non_finite_and_negative_values(changes):
    profile = dataclasses.replace(LoadProfile(arrival_rate=10.0), **changes)
    with pytest.raises(ValueError):
        profile.validate()
    with pytest.raises(ValueError):
        generate_load(profile)


@pytest.mark.parametrize("text", ["inf", "30,nan", "30:inf:25", "nan:300:25", "-inf:30:5",
                                  "30:300:nan"])
def test_parse_rates_refuses_non_finite_numbers(text):
    with pytest.raises(ValueError, match="finite"):
        parse_rates(text)


# sha256 over every block's canonical bytes on all three channels, in
# ChannelName order, of the network one mixed Poisson row commits. The
# virtual-time figures of a row depend only on arrival times; this pins the
# transaction bytes the row signs, submits and commits.
MIXED_ROW_BLOCKS = "4df4b87d9ba6b2b9f74369e1752ae990d969ed3388695d8efe2949530073bcac"


def test_generate_load_commits_pinned_bytes(monkeypatch):
    networks = []
    build = ledger.build_consortium

    def capture(*args, **kwargs):
        network, orgs = build(*args, **kwargs)
        networks.append(network)
        return network, orgs

    monkeypatch.setattr(ledger, "build_consortium", capture)
    profile = LoadProfile(arrival_rate=150.0, duration=10.0, process="poisson",
                          tx_mix=(("data", 0.8), ("identity", 0.15),
                                  ("risk_management", 0.05)))
    row = generate_load(profile, seed=27, mu=MU)
    (network,) = networks
    digest = hashlib.sha256()
    for channel in ledger.ChannelName:
        for block in network.chains[channel]:
            digest.update(block.canonical_bytes())
    assert [len(network.chains[c]) for c in ledger.ChannelName] == [68, 95, 47]
    assert sum(len(b.txs) for chain in network.chains.values() for b in chain) == 1497
    assert row.success == 1351
    assert digest.hexdigest() == MIXED_ROW_BLOCKS


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 50) == 2.0
    assert percentile(values, 95) == 4.0
    assert percentile(values, 99) == 4.0
    assert math.isnan(percentile([], 50))


def test_low_rate_low_latency():
    row = generate_load(short(30), seed=3, mu=MU)
    assert row.mean_ms < 500.0
    assert row.p50_ms <= row.p95_ms <= row.p99_ms
    assert row.throughput <= row.offered + 1e-9
    assert abs(row.throughput - row.offered) / row.offered < 0.05


def test_overload_latency_grows_with_duration():
    short_run = generate_load(short(300), seed=5, mu=MU)
    long_run = generate_load(LoadProfile(arrival_rate=300, duration=20.0),
                             seed=5, mu=MU)
    assert short_run.mean_ms > 500.0
    assert long_run.mean_ms > short_run.mean_ms
    assert long_run.throughput <= 300.0


def test_overload_throughput_capped_by_mu():
    row = generate_load(short(300), seed=7, mu=MU)
    assert row.throughput <= MU * 1.05
    assert row.throughput <= row.offered


def test_poisson_process_supported():
    row = generate_load(short(100, process="poisson"), seed=9, mu=MU)
    assert row.mean_ms < 500.0
    assert abs(row.throughput - 100.0) / 100.0 < 0.05


def test_mixed_channels():
    profile = short(60, tx_mix=(("data", 0.6), ("identity", 0.3),
                                ("risk_management", 0.1)))
    row = generate_load(profile, seed=11, mu=MU)
    assert row.success > 0
    assert row.mean_ms < 500.0


def test_generate_load_deterministic():
    a = generate_load(short(80), seed=13, mu=MU)
    b = generate_load(short(80), seed=13, mu=MU)
    assert a == b


def test_sweep_rows_and_csv(tmp_path):
    report = sweep([30, 60], profile=LoadProfile(arrival_rate=30, duration=10.0),
                   seed=1, mu=MU)
    assert [r.offered for r in report.rows] == [30, 60]
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == LatencyReport.CSV_HEADER
    assert len(lines) == 3
    out = tmp_path / "results.csv"
    report.write_csv(str(out))
    assert out.read_text() == csv


def test_sweep_requires_increasing_rates():
    with pytest.raises(ValueError):
        sweep([60, 30])
    with pytest.raises(ValueError):
        sweep([])


def test_sub_saturation_latency_flat_then_knee():
    profile = LoadProfile(arrival_rate=30, duration=10.0)
    report = sweep([30, 100, 160, 240], profile=profile, seed=2, mu=MU)
    low = {r.offered: r.mean_ms for r in report.rows}
    # Flat band below 0.8*mu, explosion past saturation.
    assert abs(low[30] - low[100]) < 80.0
    assert abs(low[100] - low[160]) < 80.0
    assert low[240] > 4 * low[100]


def test_knee_in_expected_band():
    # With stochastic arrivals the latency knee sits between 0.8*mu and mu;
    # deterministic arrivals only diverge strictly beyond mu.
    profile = LoadProfile(arrival_rate=30, duration=10.0, process="poisson")
    rates = [120, 160, 200, 240]
    report = sweep(rates, profile=profile, seed=4, mu=MU)
    by_rate = {r.offered: r.mean_ms for r in report.rows}
    flat = by_rate[120]
    assert by_rate[160] < 3 * flat          # still pre-knee at 0.8*mu
    assert by_rate[200] > 3 * flat          # departed the flat regime by mu
    assert by_rate[240] > by_rate[200]


def test_parse_rates():
    assert parse_rates("30:300:25") == [30.0, 55.0, 80.0, 105.0, 130.0, 155.0,
                                        180.0, 205.0, 230.0, 255.0, 280.0, 300.0]
    assert len(parse_rates("30:300:25")) == 12
    assert parse_rates("10,20,40") == [10.0, 20.0, 40.0]
    with pytest.raises(ValueError):
        parse_rates("300:30:25")


def test_rng_draws_are_the_standard_librarys():
    # Rng computes these itself, to skip random.Random's Python frames; every
    # seeded run depends on the draws staying the same.
    for seed in range(20):
        ours, reference = Rng(seed), random.Random(seed)
        for n in (0, 1, 3, 16, 32, 64):
            assert ours.bytes(n) == reference.randbytes(n)
        for rate in (0.5, 150.0, 300.0):
            assert ours.expovariate(rate) == reference.expovariate(rate)
