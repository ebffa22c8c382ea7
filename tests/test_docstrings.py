"""Every dataclass in ``hearthgate`` has a docstring of its own.

A dataclass without one gets ``__doc__`` built from ``inspect.signature`` of
the class when its module is imported, which on CPython 3.11 adds to every
command's set-up time.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import hearthgate


def test_every_dataclass_has_its_own_docstring():
    undocumented = []
    for info in pkgutil.iter_modules(hearthgate.__path__):
        module = importlib.import_module(f"hearthgate.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__
                    and (obj.__doc__ or "").startswith(f"{name}(")):
                undocumented.append(f"{module.__name__}.{name}")
    assert undocumented == []
