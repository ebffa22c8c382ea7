"""Operator configuration: flat key-value file with sections, strictly parsed.

Unknown sections or keys are errors, values are validated, and every setting
can be overridden from the environment as ``HEARTHGATE_<SECTION>_<KEY>``
(e.g. ``HEARTHGATE_LEDGER_MU=150``). Environment wins over file, file over
defaults. The ``[core]`` keys ``totp_step``, ``key_ttl`` and ``kem`` and the
``[ledger]`` keys are the run's :class:`harness.ScenarioSpec`: the fields a
``--scenario`` file sets, checked by ``ScenarioSpec.validate``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .harness import ScenarioInvalid, ScenarioSpec
from .ledger import READ_ALL, READ_NONE, READ_OWN, ChannelName, OrgRole

ENV_PREFIX = "HEARTHGATE_"


class ConfigError(Exception):
    pass


@dataclass(eq=False, repr=False)
class Config:
    """Settings from a ``hearthgate`` config file, with defaults; [access] keys
    fill one map, and the scenario keys set ``spec`` (``kem`` sets ``kem_algo``)."""

    # [core] seed; totp_step, key_ttl, kem and the [ledger] keys set spec
    seed: int = 7
    spec: ScenarioSpec = field(default_factory=lambda: ScenarioSpec(reports=()))
    # [risk]
    rules: str | None = None  # path to a JSON rule file; built-ins if absent
    # [demo]
    snapshot: str = "demo.snapshot"
    # [access] channel.role -> "none" | "own" | "all" [+ ",write"]
    access_overrides: dict = field(default_factory=dict)


_SCHEMA = {
    "core": {"seed": int, "totp_step": int, "key_ttl": float, "kem": str},
    "ledger": {"mu": float, "max_block_txs": int, "block_interval": float},
    "risk": {"rules": str},
    "demo": {"snapshot": str},
}


def _parse_access_value(key: str, value: str) -> tuple[tuple, dict]:
    try:
        channel_s, role_s = key.split(".")
        channel = ChannelName(channel_s)
        role = OrgRole(role_s)
    except ValueError:
        raise ConfigError(f"[access] key must be <channel>.<role>, got {key!r}") from None
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"[access] {key}: empty value")
    read = parts[0]
    if read not in (READ_NONE, READ_OWN, READ_ALL):
        raise ConfigError(f"[access] {key}: read mode must be none/own/all")
    write = False
    for extra in parts[1:]:
        if extra != "write":
            raise ConfigError(f"[access] {key}: unknown flag {extra!r}")
        write = True
    return (channel, role), {"read": read, "write": write}


def _assign(cfg: Config, section: str, key: str, raw: str) -> None:
    if section == "access":
        k, v = _parse_access_value(key, raw)
        cfg.access_overrides[k] = v
        return
    schema = _SCHEMA.get(section)
    if schema is None:
        raise ConfigError(f"unknown config section [{section}]")
    if key not in schema:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    caster = schema[key]
    try:
        value = caster(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {caster.__name__}, got {raw!r}") from None
    if caster is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be a finite number")
    if key == "seed" and value < 0:
        raise ConfigError(f"[{section}] {key}: must be nonnegative")
    name = "kem_algo" if key == "kem" else key
    setattr(cfg.spec if name in ScenarioSpec.__dataclass_fields__ else cfg,
            name, value)


def load_config(path: str | None = None,
                env: dict[str, str] | None = None) -> Config:
    """Defaults, then the file (if any), then environment overrides."""
    cfg = Config()
    if path is not None:
        import configparser   # only config files need it, not ``import hearthgate``

        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config {path!r}: {exc}") from exc
        for section in parser.sections():
            for key, raw in parser.items(section):
                _assign(cfg, section.lower(), key.lower(), raw)
    env = os.environ if env is None else env
    for name, raw in sorted(env.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):]
        section, _, key = rest.partition("_")
        section = section.lower()
        # Channel names and keys may themselves contain underscores, so the
        # key is matched against the known names.
        if section == "access":
            # HEARTHGATE_ACCESS_RISK_MANAGEMENT_INSURER -> risk_management.insurer
            channel = next((c.value for c in ChannelName
                            if key.startswith(c.value.upper() + "_")), None)
            if channel is None:
                raise ConfigError(f"unknown environment override {name}")
            role = key[len(channel) + 1:].lower()
            _assign(cfg, "access", f"{channel}.{role}", raw)
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"unknown environment override {name}")
        candidates = [k for k in _SCHEMA[section] if k.upper() == key]
        if not candidates:
            raise ConfigError(f"unknown environment override {name}")
        _assign(cfg, section, candidates[0], raw)
    try:
        cfg.spec.validate()
    except ScenarioInvalid as exc:
        raise ConfigError(str(exc)) from None
    return cfg
