"""Operator command line: demo, attack, campaign, bench, verify-ledger.

``demo`` is one :meth:`harness.World.run`, narrated step by step from its trace.

Exit codes: 0 success (for ``attack``, success means the attack was
defeated); 1 a demo step failed; 2 usage, configuration, or missing-input
error, or an unwritable ``--out``: :func:`main` alone turns each into one
stderr line ``<command>: <reason>``; 3 ledger verification failed; 4 a
security property was violated (an attack or campaign run produced a lemma
violation, which indicates an implementation bug, not an operator error).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__, bench, harness, ledger, risk
from . import channels as ch
from .channels import REJECTION_KINDS
from .config import Config, ConfigError, load_config
from .crypto import CryptoError
from .ledger import ChannelName, OrgRole
from .roles import ProtocolError

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

DEMO_READINGS = (("temperature_c", 21.5, "C"), ("temperature_c", 82.0, "C"))

# Each demo step, the trace event that completes it (a LedgerCommit is matched
# by its channel too), and its line, filled from the event's fields and the run.
DEMO_STEPS = (
    ("login and mutual authentication", ch.SESSION_ESTABLISHED, None,
     "session {session} established, both nonces verified"),
    ("transient token", ch.TOKEN_ISSUED, None,
     "8-digit token issued ({totp_step} s step); api {api}"),
    ("device provisioning", ch.DEVICE_PROVISIONED, None,
     "device {uid} provisioned over the link key"),
    ("device registration", ch.DEVICE_REQUEST_ACCEPTED, None,
     "request accepted: signature valid, token fresh and unused"),
    ("identity channel record", ch.LEDGER_COMMIT, "identity",
     "device record committed (identity height {height}, status {status})"),
    ("activation", ch.DEVICE_ACTIVATED, None,
     "long-lived token and dedicated server key delivered; device active"),
    ("data report (normal)", ch.LEDGER_COMMIT, "data",
     "{reading} committed (data height {height}); risk alerts so far: {alerts}"),
    ("data report (anomalous)", ch.LEDGER_COMMIT, "data",
     "{reading} committed (data height {height}); {alert}"),
    ("revocation", ch.DEVICE_REVOKED, None,
     "device deactivated; key added to the revocation list; "
     "identity records: {records}"),
)


def run_demo(cfg: Config) -> tuple[int, list[str], harness.World]:
    """One :meth:`harness.World.run` of the demo's device, built from ``cfg``
    and narrated from its trace; returns (exit code, transcript, world).

    A step passes when the trace holds its event; the first step without
    one fails, with the first rejection traced after the step before it, or
    else the error the run raised. A commit whose risk hook raised fails its
    step too. The snapshot is written only once every other step passed.
    """
    lines = [f"hearthgate demo v{__version__} (seed {cfg.seed}, kem {cfg.spec.kem_algo})"]
    rules = risk.load_rules(cfg.rules) if cfg.rules else None
    spec = dataclasses.replace(cfg.spec, reports=DEMO_READINGS, revoke=True)
    world = harness.World(spec, cfg.seed, rules=rules, direct=True,
                          orgs=DEMO_ORGS,
                          access_overrides=cfg.access_overrides)
    network = world.network
    network.register_device_origin(world.devices[0].uid.hex, "acme-devices")
    fire_sub = network.subscribe(ChannelName.RISK_MANAGEMENT, "fire-dept")
    try:
        world.run(None)
        run_error = None
    except (ProtocolError, CryptoError, ledger.LedgerError) as exc:
        run_error = f"{type(exc).__name__}: {exc}"

    fire_events = [alert.entry_height for _, alert in fire_sub.poll()]

    def failed(n: int, label: str, reason: str):
        lines.append(f"[{n}] {label}: FAILED {reason}")
        lines.append(f"demo failed at step {n} ({label})")
        return EXIT_FAILURE, lines, world

    events = iter(world.trace.events)
    for n, (label, kind, channel, template) in enumerate(DEMO_STEPS, 1):
        rejected = None
        for event in events:
            if event.kind == kind and event.get("channel") == channel:
                reason = event.get("hook_error")
                break
            if event.kind in REJECTION_KINDS and rejected is None:
                rejected = event
        else:
            reason = (": ".join(filter(None, (rejected.get("error"),
                                              rejected.get("detail"))))
                      if rejected else run_error or f"no {kind} traced")
        if reason is not None:
            return failed(n, label, reason)
        fields = dict(event.fields, totp_step=spec.totp_step,
                      api=world.server.api_address)
        try:  # what the server org reads, which an [access] override may bar
            if channel == "data":
                height = int(event.get("height"))
                entry = network.chains[ChannelName.DATA][height].txs[0].payload
                alerts = network.query(ChannelName.RISK_MANAGEMENT, "server-org")
                mine = [a for a in alerts if a.entry_height == height]
                fields.update(
                    reading=f"{entry.metric}={entry.value} {entry.unit}",
                    alerts=sum(a.entry_height <= height for a in alerts),
                    alert=(f"alert severity={mine[-1].severity} "
                           f"notified={','.join(mine[-1].notified_roles)}; "
                           f"fire-dept events: {fire_events.count(height)}"
                           if mine else "no rule matched"))
            elif kind == ch.DEVICE_REVOKED:
                records = network.query(ChannelName.IDENTITY, "server-org")
                fields["records"] = ",".join(r.status.value for r in records)
        except ledger.PolicyDenied as exc:
            return failed(n, label, f"PolicyDenied: {exc}")
        lines.append(f"[{n}] {label}: {template.format_map(fields)}")

    n, label = len(DEMO_STEPS) + 1, "ledger snapshot"
    if run_error is not None:
        return failed(n, label, run_error)
    try:
        ledger.write_snapshot(network, cfg.snapshot)
        ok, detail = ledger.verify_snapshot(cfg.snapshot)
    except (ledger.LedgerError, OSError) as exc:
        return failed(n, label, f"{type(exc).__name__}: {exc}")
    if not ok:
        return failed(n, label, f"SnapshotError: {detail}")
    lines.append(f"[{n}] {label}: written to {cfg.snapshot} (all channels verify)")
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
        if args.script or args.script_file or args.scenario or args.out:
            raise ValueError("--list takes no --script, --script-file, --scenario or --out")
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
