"""What ``import hearthgate`` loads, and which value types stay frozen.

Every process pays for the import before it does any work. A value type is
a plain dataclass that generates only ``__init__``, plus ``__eq__`` where
something compares it and ``__repr__`` where something prints it: a frozen
one costs about three times as much to define, and more to build. Frozen,
hashable and compared by value stay the symbolic terms, which live in sets,
and ``PublicKey`` and ``KeyPair``, whose cached derived values only
immutability keeps fresh.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from hearthgate import channels, crypto
from hearthgate.crypto import RoleTag
from hearthgate.runtime import seeded_rng

SRC = Path(__file__).resolve().parent.parent / "src"
NOW = 1_700_000_010.0

# Only the CLI parses arguments or reads config files, and only an ML-KEM key
# needs numpy.
NOT_LOADED = ("argparse", "configparser", "hearthgate.cli", "hearthgate.mlkem", "numpy")


def test_import_loads_no_cli_config_parser_or_mlkem():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import hearthgate; "
            f"print(*(m for m in {NOT_LOADED!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=120).stdout
    assert out.split() == []


def _pair():
    return crypto.sig_keygen(RoleTag.DEVICE_FOR_SERVER, 3600.0, seeded_rng(5), NOW)


ATOM = channels.Atom("bundle:k")
MAKERS = {
    "Atom": lambda: channels.Atom("bundle:k"),
    "Secret": lambda: channels.Secret("sk:k"),
    "Tup": lambda: channels.Tup((ATOM, ATOM)),
    "Enc": lambda: channels.Enc("k", ATOM),
    "SigT": lambda: channels.SigT(ATOM),
    "KeyPair": _pair,
    "PublicKey": lambda: _pair().public,
}


def test_every_term_type_is_checked():
    assert {cls.__name__ for cls in typing.get_args(channels.Term)} <= set(MAKERS)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_hashed_types_stay_frozen_and_compare_by_value(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    first = dataclasses.fields(a)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, first, getattr(b, first))
