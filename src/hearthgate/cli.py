"""Operator command line: demo, attack, campaign, bench, verify-ledger.

Exit codes: 0 success (for ``attack``, success means the attack was
defeated); 1 a demo step failed; 2 usage, configuration, or missing-input
error, or an unwritable ``--out``: :func:`main` alone turns each into one
stderr line ``<command>: <reason>``; 3 ledger verification failed; 4 a
security property was violated (an attack or campaign run produced a lemma
violation, which indicates an implementation bug, not an operator error).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, bench, harness, ledger, risk, wire
from .channels import REJECTION_KINDS
from .config import Config, ConfigError, load_config
from .crypto import CryptoError
from .ledger import ChannelName, OrgRole
from .roles import (
    DevicePhase,
    Outgoing,
    ProtocolError,
    deliver,
    deliver_token,
    establish_session,
    provision_device,
    receive,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3
EXIT_VIOLATION = 4

DEMO_ORGS = ledger.CORE_ORGS + (
    ("acme-devices", OrgRole.MANUFACTURER),
    ("homesure", OrgRole.INSURER),
    ("fire-dept", OrgRole.EMERGENCY_SERVICE),
)


def run_demo(cfg: Config) -> tuple[int, list[str], harness.World]:
    """The scripted end-to-end flow, narrated over one :class:`harness.World`
    built from ``cfg``; returns (exit code, transcript, world)."""
    lines = [f"hearthgate demo v{__version__} (seed {cfg.seed}, kem {cfg.spec.kem_algo})"]
    rules = risk.load_rules(cfg.rules) if cfg.rules else None
    world = harness.World(cfg.spec, cfg.seed, rules=rules, direct=True,
                          orgs=DEMO_ORGS,
                          access_overrides=cfg.access_overrides)
    network, server, clock = world.network, world.server, world.clock
    auth, device = world.auths[0], world.devices[0]
    h_s = world.h_s[auth.name]
    network.register_device_origin(device.uid.hex, "acme-devices")
    fire_sub = network.subscribe(ChannelName.RISK_MANAGEMENT, "fire-dept")
    session_id = None
    replies = []
    step_no = 0

    def step(label: str, fn) -> bool:
        nonlocal step_no
        step_no += 1
        clock.advance(1.0)
        try:
            detail = fn()
        except (ProtocolError, CryptoError, ledger.LedgerError, OSError) as exc:
            lines.append(f"[{step_no}] {label}: FAILED "
                         f"{type(exc).__name__}: {exc}")
            return False
        lines.append(f"[{step_no}] {label}: {detail}")
        return True

    def to_server(out: Outgoing):
        """Deliver a device's message to the server; a rejection raises."""
        return receive(server, "public", wire.encode(out.message), out.src)

    def s_login():
        nonlocal session_id
        session_id = establish_session(auth, server, h_s)
        return f"session {session_id} established, both nonces verified"

    def s_token():
        deliver_token(auth, server, session_id, h_s)
        return (f"8-digit token issued ({cfg.spec.totp_step} s step); "
                f"api {server.api_address}")

    def s_provision():
        provision_device(auth, device)
        detail = f"device {device.uid.hex} provisioned over the link key"
        if cfg.provisioning_delay > 0:
            clock.advance(cfg.provisioning_delay)
            detail += f" (then {cfg.provisioning_delay:g}s delay)"
        return detail

    def s_register():
        nonlocal replies
        replies = to_server(device.build_registration_request())
        return "request accepted: signature valid, token fresh and unused"

    def s_record():
        height = len(network.chains[ChannelName.IDENTITY]) - 1
        return f"device record committed (identity height {height}, status active)"

    def s_activate():
        for out in replies:
            world.send_outgoing(out)
        world.pump(strategy=None)  # direct wiring: no adversary decides
        if device.phase is not DevicePhase.ACTIVE:
            raise ProtocolError(f"device still {device.phase.value}")
        return "long-lived token and dedicated server key delivered; device active"

    def s_report_normal():
        to_server(device.build_data_report("temperature_c", 21.5, "C"))
        height = len(network.chains[ChannelName.DATA]) - 1
        alerts = len(network.chains[ChannelName.RISK_MANAGEMENT]) - 1
        return (f"temperature_c=21.5 C committed (data height {height}); "
                f"risk alerts so far: {alerts}")

    def s_report_hot():
        to_server(device.build_data_report("temperature_c", 82.0, "C"))
        network.settle()
        data_h = len(network.chains[ChannelName.DATA]) - 1
        alerts = network.query(ChannelName.RISK_MANAGEMENT, "server-org")
        events = fire_sub.poll()
        if not alerts:
            return (f"temperature_c=82.0 C committed (data height {data_h}); "
                    f"no rule matched")
        alert = alerts[-1]
        return (f"temperature_c=82.0 C committed (data height {data_h}); "
                f"alert severity={alert.severity} "
                f"notified={','.join(alert.notified_roles)}; "
                f"fire-dept events: {len(events)}")

    def s_revoke():
        deliver(h_s, auth, server, auth.build_revocation(device.uid.hex))
        statuses = [r.status.value for r in
                    network.query(ChannelName.IDENTITY, "server-org")]
        return (f"device deactivated; key added to the revocation list; "
                f"identity records: {','.join(statuses)}")

    def s_snapshot():
        network.settle()
        ledger.write_snapshot(network, cfg.snapshot)
        ok, detail = ledger.verify_snapshot(cfg.snapshot)
        if not ok:
            raise ledger.SnapshotError(detail)
        return f"written to {cfg.snapshot} (all channels verify)"

    steps = [
        ("login and mutual authentication", s_login),
        ("transient token", s_token),
        ("device provisioning", s_provision),
        ("device registration", s_register),
        ("identity channel record", s_record),
        ("activation", s_activate),
        ("data report (normal)", s_report_normal),
        ("data report (anomalous)", s_report_hot),
        ("revocation", s_revoke),
        ("ledger snapshot", s_snapshot),
    ]
    for label, fn in steps:
        if not step(label, fn):
            lines.append(f"demo failed at step {step_no} ({label})")
            return EXIT_FAILURE, lines, world
    lines.append("demo complete: all steps ok")
    return EXIT_OK, lines, world


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_demo(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.snapshot:
        cfg.snapshot = args.snapshot
    code, lines, _ = run_demo(cfg)
    for line in lines:
        print(line)
    return code


def cmd_verify_ledger(args) -> int:
    ok, detail = ledger.verify_snapshot(args.snapshot)
    if not ok:
        print(f"snapshot verification FAILED: {detail}")
        return EXIT_CORRUPT
    print("ok: hash linkage and every transaction signature verify "
          "on all channels")
    return EXIT_OK


def _parse_weights(text: str | None) -> dict[str, float] | None:
    if not text:
        return None
    weights = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not value:
            raise ValueError(f"weight {part!r} must look like name=value")
        weights[name.strip()] = float(value)
    return weights


def cmd_attack(args) -> int:
    if args.list:
        for name, script in sorted(harness.ATTACK_SCRIPTS.items()):
            print(f"{name:28s} {script.description}")
        return EXIT_OK
    if args.script_file and args.out:
        raise ValueError("--out goes with --script, not --script-file")
    if args.scenario and not args.script_file:
        raise ValueError("--scenario goes with --script-file only")
    if args.script_file:
        return _attack_from_file(args)
    if not args.script:
        raise ValueError("--script NAME or --script-file PATH required (or --list)")
    outcome = harness.run_attack(args.script, seed=args.seed)
    verdicts = {k: v.holds for k, v in outcome.verdicts.items()}
    print(f"script {outcome.name}: {outcome.detail}")
    print(f"properties: {json.dumps(verdicts, sort_keys=True)}")
    if args.out:
        record = {
            "script": outcome.name,
            "defeated": outcome.defeated,
            "error": outcome.error_seen,
            "detail": outcome.detail,
            "verdicts": verdicts,
            "trace": outcome.result.trace.digest(),
        }
        with open(args.out, "w") as fh:
            json.dump(record, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if not outcome.defeated:
        print("ATTACK SUCCEEDED: this is an implementation bug")
        for name, verdict in outcome.verdicts.items():
            if not verdict.holds:
                print(f"  {name}: {verdict.witness}")
        return EXIT_VIOLATION
    return EXIT_OK


def _attack_from_file(args) -> int:
    """Run a declarative adversary script file against a scenario."""
    spec = (harness.load_scenario(args.scenario)
            if args.scenario else None)
    result, verdicts = harness.run_script_file(args.script_file,
                                               seed=args.seed, spec=spec)
    holds = {k: v.holds for k, v in verdicts.items()}
    rejections = [f"{e.get('error')}({e.get('detail')})"
                  for e in result.trace.events if e.kind in REJECTION_KINDS]
    print(f"script file {args.script_file}: "
          f"{len(rejections)} rejection(s): {', '.join(rejections) or 'none'}")
    print(f"properties: {json.dumps(holds, sort_keys=True)}")
    if not all(holds.values()):
        for name, verdict in verdicts.items():
            if not verdict.holds:
                print(f"  {name}: {verdict.witness}")
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_campaign(args) -> int:
    weights = _parse_weights(args.weights)
    spec = (harness.load_scenario(args.scenario)
            if args.scenario else None)
    result = harness.run_campaign(args.runs, base_seed=args.seed,
                                  weights=weights, spec=spec)
    if args.out:
        with open(args.out, "w") as fh:
            for record in result.records:
                fh.write(record.to_json() + "\n")
    print(f"{len(result.violations)} violations / {result.runs} runs")
    counts = "".join(f"\n  {kind}/{code} {n}"
                     for (kind, code), n in sorted(result.rejections.items()))
    print(f"rejections:{counts or ' none'}")
    if not result.clean:
        for seed, verdict in result.violations[:10]:
            print(f"  seed {seed}: {verdict.lemma}: {verdict.witness}")
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_bench(args) -> int:
    rates = bench.parse_rates(args.rates)
    profile = bench.LoadProfile(arrival_rate=rates[0],
                                duration=args.duration,
                                process=args.process)
    report = bench.sweep(rates, profile=profile, seed=args.seed,
                         mu=args.mu, max_block_txs=args.max_block_txs,
                         block_interval=args.block_interval)
    if args.out:
        report.write_csv(args.out)
    print(f"{'rate':>8} {'throughput':>11} {'mean_ms':>9} {'p50':>8} "
          f"{'p95':>9} {'p99':>9}")
    for row in report.rows:
        print(f"{row.offered:8g} {row.throughput:11.1f} {row.mean_ms:9.1f} "
              f"{row.p50_ms:8.1f} {row.p95_ms:9.1f} {row.p99_ms:9.1f}")
    if args.out:
        print(f"csv written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hearthgate",
        description="Smart-home onboarding simulator: protocol demo, "
                    "adversarial tests, ledger verification, load benchmark.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="run the scripted onboarding flow")
    p_demo.add_argument("--config", help="path to a config file")
    p_demo.add_argument("--seed", type=int, help="override the RNG seed")
    p_demo.add_argument("--snapshot", help="override the snapshot path")
    p_demo.set_defaults(fn=cmd_demo)

    p_verify = sub.add_parser("verify-ledger", help="verify a ledger snapshot")
    p_verify.add_argument("snapshot", help="snapshot file to verify")
    p_verify.set_defaults(fn=cmd_verify_ledger)

    p_attack = sub.add_parser("attack", help="run a scripted attack")
    p_attack.add_argument("--script", help="built-in attack script name")
    p_attack.add_argument("--script-file",
                          help="declarative adversary script (JSON rules)")
    p_attack.add_argument("--scenario",
                          help="scenario file for --script-file runs")
    p_attack.add_argument("--seed", type=int, default=7)
    p_attack.add_argument("--out", help="write a JSON outcome record")
    p_attack.add_argument("--list", action="store_true",
                          help="list available scripts")
    p_attack.set_defaults(fn=cmd_attack)

    p_campaign = sub.add_parser("campaign",
                                help="randomized adversarial campaign")
    p_campaign.add_argument("--runs", type=int, default=10_000)
    p_campaign.add_argument("--seed", type=int, default=1,
                            help="base seed; run i uses seed+i")
    p_campaign.add_argument("--weights",
                            help="action weights, e.g. deliver=6,drop=1,"
                                 "replay=1,tamper=1,inject=1")
    p_campaign.add_argument("--scenario", help="scenario file to run under")
    p_campaign.add_argument("--out", help="write JSONL verdict records")
    p_campaign.set_defaults(fn=cmd_campaign)

    p_bench = sub.add_parser("bench", help="latency/throughput sweep")
    p_bench.add_argument("--rates", default="30:300:25",
                         help="start:stop:step or comma list (tx/s)")
    p_bench.add_argument("--mu", type=float, default=200.0,
                         help="ordering service rate (tx/s)")
    p_bench.add_argument("--duration", type=float, default=30.0)
    p_bench.add_argument("--process", choices=("uniform", "poisson"),
                         default="uniform")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--max-block-txs", type=int, default=50)
    p_bench.add_argument("--block-interval", type=float, default=0.1)
    p_bench.add_argument("--out", help="write the CSV report here")
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, harness.ScenarioInvalid, ValueError, OSError,
            CryptoError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
