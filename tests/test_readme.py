"""README's fenced ``python`` blocks run as written.

They are the "Library use" examples. Each runs in a fresh namespace, in an
empty working directory, with its printed output captured: an API change
that breaks one, or drops the ``LemmaVerdict`` repr the first one prints,
fails here.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

from hearthgate import harness

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def _run(index: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
             {"__name__": "readme"})
    return out.getvalue()


def test_readme_has_both_library_examples():
    assert len(BLOCKS) == 2


def test_scenario_example_prints_verdicts_and_trace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    verdicts, *trace = _run(0).splitlines()
    # The repr of a dict of LemmaVerdicts, one per lemma, each holding.
    for lemma in (harness.AUTHENTICATION, harness.TOKEN_INTEGRITY,
                  harness.KEYPAIR_CONFIDENTIALITY):
        assert f"{lemma!r}: LemmaVerdict(lemma={lemma!r}, holds=True, witness=None)" in verdicts
    assert trace[0].startswith("00001 server") and "SessionEstablished" in trace[0]


def test_step_by_step_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(1) == ""   # its asserts are the check
