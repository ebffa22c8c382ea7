"""The mutant table: each row injects one named defect and names what must
kill it (mutation analysis: DeMillo, Lipton and Sayward, "Hints on Test Data
Selection", IEEE Computer 11(4), 1978).

A registration row is a source mutant of ``Server.handle_registration``: one
snippet of the method's source, which must occur exactly once, is replaced,
and the result is executed in ``roles``' namespace, so its ``_traced``
decorator applies again. Such a row names the built-in attacks that are no
longer defeated under it. The key-leak row names the lemma that must fail
within a fixed campaign budget. A row that nothing kills stays in the table
as a strict xfail with its reason.
"""

from __future__ import annotations

import inspect
import textwrap

import pytest

from hearthgate import harness, roles
from hearthgate.channels import kem_secret
from hearthgate.harness import ATTACK_SCRIPTS, KEYPAIR_CONFIDENTIALITY, run_attack


def _mutate_registration(monkeypatch, snippet: str, replacement: str) -> None:
    source = inspect.getsource(roles.Server.handle_registration)
    assert source.count(snippet) == 1, snippet
    namespace: dict = {}
    exec(compile(textwrap.dedent(source.replace(snippet, replacement)),
                 roles.__file__, "exec"), vars(roles), namespace)
    monkeypatch.setattr(roles.Server, "handle_registration",
                        namespace["handle_registration"])


def _undefeated() -> set[str]:
    return {name for name in ATTACK_SCRIPTS if not run_attack(name).defeated}


@pytest.mark.parametrize("snippet, replacement, killers", [
    pytest.param("if reg.consumed:", "if False:",
                 {"replay-device-request", "token-swap-across-devices"},
                 id="no-single-use-check"),
    pytest.param("if not crypto.verify(", "if False and not crypto.verify(",
                 {"inject-forged-registration"}, id="no-signature-check"),
    pytest.param("crypto.totp_verify(p.secret, digits, now, self.totp_step)",
                 "p.issued_digits == digits", {"replay-stale-token"},
                 id="any-issued-digits"),
    pytest.param("if entry is not None and entry.status is DeviceStatus.ACTIVE:",
                 "if False:", set(), id="no-uid-active-check",
                 marks=pytest.mark.xfail(
                     strict=True,
                     reason="ROADMAP item 5: no lemma or attack reaches it")),
])
def test_registration_mutant_is_killed_by_its_attacks(monkeypatch, snippet,
                                                     replacement, killers):
    _mutate_registration(monkeypatch, snippet, replacement)
    killed = _undefeated()
    assert killed and killers <= killed


def test_server_key_leak_is_killed_by_keypair_confidentiality(monkeypatch):
    grant_public_atoms = harness.World.grant_public_atoms

    def leaky(world):
        grant_public_atoms(world)
        for entry in world.server.registry.values():
            world.knowledge.grant(kem_secret(entry.server_keys.kem.key_id))

    monkeypatch.setattr(harness.World, "grant_public_atoms", leaky)
    campaign = harness.run_campaign(20, base_seed=1)
    assert {verdict.lemma for _, verdict in campaign.violations} == \
        {KEYPAIR_CONFIDENTIALITY}
