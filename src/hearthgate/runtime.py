"""Injectable randomness and clocks, and the bound on process-wide memos.

Every source of nondeterminism in the simulator flows through one of the
handles defined here, so any run can be replayed bit-for-bit from a seed.
Roles, channels, the ledger, and the benchmark all receive a seeded ``Rng``
and a clock instead of touching ``os.urandom`` or the wall clock directly.
"""

from __future__ import annotations

import hashlib
import random
from collections import OrderedDict

#: Fixed starting point for simulated clocks. Arbitrary but stable, so
#: timestamps embedded in transcripts and snapshots are reproducible.
SIM_EPOCH = 1_700_000_010.0


class Rng:
    """Seeded random source with byte, float, and integer draws.

    ``child`` derives an independent labelled stream, so subsystems cannot
    perturb each other's draws.
    """

    def __init__(self, seed: int):
        self._inner = random.Random(seed)
        self._seed = seed

    def bytes(self, n: int) -> bytes:
        return self._inner.randbytes(n)

    def random(self) -> float:
        return self._inner.random()

    def randrange(self, n: int) -> int:
        return self._inner.randrange(n)

    def expovariate(self, rate: float) -> float:
        return self._inner.expovariate(rate)

    def weighted_choice(self, options: list, weights: list[float]):
        total = sum(weights)
        x = self._inner.random() * total
        acc = 0.0
        for opt, w in zip(options, weights):
            acc += w
            if x < acc:
                return opt
        return options[-1]

    def child(self, label: str) -> "Rng":
        """Derive an independent stream named by ``label``."""
        mix = hashlib.sha256(
            self._seed.to_bytes(16, "big", signed=False) + label.encode()
        ).digest()
        return seeded_rng(int.from_bytes(mix[:8], "big"))


def seeded_rng(seed: int) -> Rng:
    return Rng(seed)


def remember(memo: OrderedDict, key, value, bound: int) -> None:
    """Store ``memo[key] = value`` as the newest entry and drop the oldest past
    ``bound``, in O(1) (a dict's ``next(iter(...))`` walks emptied slots)."""
    memo.pop(key, None)
    memo[key] = value
    if len(memo) > bound:
        memo.popitem(last=False)


class SimClock:
    """Manually advanced clock used by protocol runs and the ledger."""

    def __init__(self, start: float = SIM_EPOCH):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("clock cannot move backwards")
        self._now += dt
        return self._now

    def set(self, t: float) -> float:
        if t < self._now:
            raise ValueError("clock cannot move backwards")
        self._now = float(t)
        return self._now
