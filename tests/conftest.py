from __future__ import annotations

import sys
from pathlib import Path

# wire_fixtures and friends live next to the tests.
sys.path.insert(0, str(Path(__file__).parent))

from hearthgate import ledger
from hearthgate.cli import DEMO_ORGS
from hearthgate.runtime import Rng

NOW = 1_700_000_010.0


def make_network(rng: Rng, now: float = NOW, **params):
    """The demo's five-org consortium, credentials drawn from ``rng``."""
    return ledger.build_consortium(DEMO_ORGS, rng, now, **params)
