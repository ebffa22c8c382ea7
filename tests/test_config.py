from __future__ import annotations

import pytest

from hearthgate import crypto
from hearthgate.config import Config, ConfigError, load_config
from hearthgate.ledger import READ_ALL, READ_NONE, ChannelName, OrgRole


def test_defaults():
    cfg = load_config(None, env={})
    assert cfg.seed == 7
    assert cfg.totp_step == 30
    assert cfg.mu == 200.0
    assert cfg.kem == "x25519"
    assert cfg.access_overrides == {}


def test_file_values(tmp_path):
    path = tmp_path / "hg.conf"
    path.write_text(
        "[core]\nseed = 42\ntotp_step = 15\nkem = ml-kem-512\n"
        "[ledger]\nmu = 150\nmax_block_txs = 10\nblock_interval = 0.05\n"
        "[demo]\nsnapshot = out.snapshot\nprovisioning_delay = 2.0\n"
    )
    cfg = load_config(str(path), env={})
    assert cfg.seed == 42
    assert cfg.totp_step == 15
    assert cfg.kem == "ml-kem-512"
    assert cfg.mu == 150.0
    assert cfg.max_block_txs == 10
    assert cfg.snapshot == "out.snapshot"
    assert cfg.provisioning_delay == 2.0


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "hg.conf"
    path.write_text("[core]\nsped = 42\n")
    with pytest.raises(ConfigError, match="sped"):
        load_config(str(path), env={})


def test_demo_retries_key_removed(tmp_path):
    path = tmp_path / "hg.conf"
    path.write_text("[demo]\nretries = 1\n")
    with pytest.raises(ConfigError, match="retries"):
        load_config(str(path), env={})


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "hg.conf"
    path.write_text("[exotic]\nx = 1\n")
    with pytest.raises(ConfigError, match="exotic"):
        load_config(str(path), env={})


def test_nonpositive_duration_rejected(tmp_path):
    path = tmp_path / "hg.conf"
    path.write_text("[core]\ntotp_step = 0\n")
    with pytest.raises(ConfigError, match="positive"):
        load_config(str(path), env={})


def test_bad_type_rejected(tmp_path):
    path = tmp_path / "hg.conf"
    path.write_text("[ledger]\nmu = fast\n")
    with pytest.raises(ConfigError, match="float"):
        load_config(str(path), env={})


def test_env_overrides_file(tmp_path):
    path = tmp_path / "hg.conf"
    path.write_text("[core]\nseed = 42\n")
    cfg = load_config(str(path), env={"HEARTHGATE_CORE_SEED": "9",
                                      "HEARTHGATE_LEDGER_MU": "120"})
    assert cfg.seed == 9
    assert cfg.mu == 120.0


def test_env_unknown_rejected():
    with pytest.raises(ConfigError):
        load_config(None, env={"HEARTHGATE_CORE_SPEED": "9"})


def test_env_multiword_key():
    cfg = load_config(None, env={"HEARTHGATE_LEDGER_MAX_BLOCK_TXS": "7",
                                 "HEARTHGATE_DEMO_PROVISIONING_DELAY": "1.5"})
    assert cfg.max_block_txs == 7
    assert cfg.provisioning_delay == 1.5


def test_access_overrides(tmp_path):
    path = tmp_path / "hg.conf"
    path.write_text("[access]\ndata.emergency_service = all\n"
                    "identity.insurer = all,write\n")
    cfg = load_config(str(path), env={})
    assert cfg.access_overrides[
        (ChannelName.DATA, OrgRole.EMERGENCY_SERVICE)] == \
        {"read": READ_ALL, "write": False}
    assert cfg.access_overrides[
        (ChannelName.IDENTITY, OrgRole.INSURER)] == \
        {"read": READ_ALL, "write": True}


def test_env_access_override_channel_with_underscore():
    cfg = load_config(None, env={
        "HEARTHGATE_ACCESS_RISK_MANAGEMENT_INSURER": "none",
        "HEARTHGATE_ACCESS_DATA_EMERGENCY_SERVICE": "all"})
    assert cfg.access_overrides == {
        (ChannelName.RISK_MANAGEMENT, OrgRole.INSURER):
            {"read": READ_NONE, "write": False},
        (ChannelName.DATA, OrgRole.EMERGENCY_SERVICE):
            {"read": READ_ALL, "write": False}}
    for name in ("HEARTHGATE_ACCESS_RISK_INSURER",
                 "HEARTHGATE_ACCESS_RISK_MANAGEMENT_PLUMBER"):
        with pytest.raises(ConfigError):
            load_config(None, env={name: "all"})


def test_access_override_bad_role(tmp_path):
    path = tmp_path / "hg.conf"
    path.write_text("[access]\ndata.plumber = all\n")
    with pytest.raises(ConfigError):
        load_config(str(path), env={})


def test_unknown_kem_rejected():
    with pytest.raises(ConfigError, match="^unknown KEM backend 'rot13'$"):
        load_config(None, env={"HEARTHGATE_CORE_KEM": "rot13"})


@pytest.mark.parametrize("name", sorted(crypto._KEM_BACKENDS))
def test_every_kem_backend_loads(name):
    assert load_config(None, env={"HEARTHGATE_CORE_KEM": name}).kem == name


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/hg.conf", env={})
