from __future__ import annotations

import sys
from pathlib import Path

# wire_fixtures and friends live next to the tests.
sys.path.insert(0, str(Path(__file__).parent))

from hearthgate import ledger
from hearthgate.cli import DEMO_ORGS
from hearthgate.payloads import DeviceStatus
from hearthgate.runtime import Rng

NOW = 1_700_000_010.0


def make_network(rng: Rng, now: float = NOW, **params):
    """The demo's five-org consortium, credentials drawn from ``rng``."""
    return ledger.build_consortium(DEMO_ORGS, rng, now, **params)


def verify_chain(net: ledger.LedgerNetwork, channel: ledger.ChannelName):
    """``ledger.verify_blocks`` over one channel of a live network."""
    return ledger.verify_blocks(net.chains[channel], channel, net.membership)


def registry_crl_disjoint(server) -> bool:
    """No device key is both actively registered and revoked."""
    return not any(entry.status is DeviceStatus.ACTIVE
                   and entry.device_public.kem.key in server.crl
                   for entry in server.registry.values())
