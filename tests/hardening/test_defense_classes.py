"""Defense protection-class registry and its use by the speculation
rule: extension tags (FineIBT/PAC-style backends) plug in without rule
edits."""

from __future__ import annotations

import pytest

from repro.hardening.classes import (
    EXTENSION,
    KNOWN_CLASSES,
    LVI,
    RET2SPEC,
    SPECTRE_V2,
    clear_extension_classes,
    protects,
    register_defense_classes,
    registry_snapshot,
    required_classes,
    tag_kind,
)
from repro.hardening.defenses import Defense, DefenseConfig
from repro.hardening.harden import HardeningPass
from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import Opcode
from repro.static import analyze_module


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    clear_extension_classes()


# -- registry semantics -------------------------------------------------------


def _classes(tag):
    return {vector for vector in KNOWN_CLASSES if protects(tag, vector)}


def test_stock_tags_seeded_from_lowering_tables():
    assert SPECTRE_V2 in _classes(Defense.RETPOLINE.value)
    assert _classes(Defense.FENCED_RETPOLINE.value) >= {SPECTRE_V2, LVI}
    assert RET2SPEC in _classes(Defense.RET_RETPOLINE.value)
    assert _classes(Defense.LVI_CFI_FWD.value) == {LVI}


def test_stock_tag_cannot_be_remapped():
    with pytest.raises(ValueError, match="stock defense tag"):
        register_defense_classes(Defense.RETPOLINE.value, {LVI})


def test_unknown_class_rejected():
    with pytest.raises(ValueError, match="unknown protection class"):
        register_defense_classes("fineibt", {"meltdown"})


def test_register_and_unregister_extension():
    assert tag_kind("fineibt") is None
    register_defense_classes("fineibt", {SPECTRE_V2, LVI})
    assert tag_kind("fineibt") == EXTENSION
    assert _classes("fineibt") == {SPECTRE_V2, LVI}
    clear_extension_classes()
    assert tag_kind("fineibt") is None
    assert _classes("fineibt") == set()


def test_required_classes_follow_config():
    allcfg = DefenseConfig.all_defenses()
    assert set(required_classes(Opcode.ICALL, allcfg)) == {SPECTRE_V2, LVI}
    assert set(required_classes(Opcode.RET, allcfg)) == {RET2SPEC, LVI}
    none = DefenseConfig.none()
    assert required_classes(Opcode.ICALL, none) == []
    retp = DefenseConfig.retpolines_only()
    assert required_classes(Opcode.ICALL, retp) == [SPECTRE_V2]
    assert required_classes(Opcode.RET, retp) == []


def test_snapshot_is_canonical_and_tracks_registrations():
    before = registry_snapshot()
    assert before == tuple(sorted(before))
    register_defense_classes("pac_cfi", {SPECTRE_V2})
    after = registry_snapshot()
    assert after != before
    assert ("pac_cfi", EXTENSION, (SPECTRE_V2,)) in after
    assert KNOWN_CLASSES == {SPECTRE_V2, RET2SPEC, LVI}


# -- speculation-rule integration ---------------------------------------------


def _hardened_module(config=None):
    module = Module("ext")
    module.add_function(build_leaf("a", num_params=1))
    caller = Function("caller")
    b = IRBuilder(caller)
    b.icall({"a": 1}, num_args=1)
    b.ret()
    module.add_function(caller)
    HardeningPass(config or DefenseConfig.all_defenses()).run(module)
    return module


def _retag(module, opcode, tag):
    for inst in module.instructions():
        if inst.opcode == opcode and inst.defense is not None:
            inst.defense = tag
    module.bump_version()


def _errors(module):
    report = analyze_module(module, rules=["speculation-coverage"])
    return [d.code for d in report.errors()]


def test_covering_extension_tag_accepted_as_alternative_lowering():
    register_defense_classes("fineibt_lvi", {SPECTRE_V2, LVI})
    module = _hardened_module()
    _retag(module, Opcode.ICALL, "fineibt_lvi")
    assert _errors(module) == []


def test_undercovering_extension_tag_is_pibe507():
    # Protects forward edges but not LVI, while the config demands both.
    register_defense_classes("fineibt", {SPECTRE_V2})
    module = _hardened_module()
    _retag(module, Opcode.ICALL, "fineibt")
    codes = _errors(module)
    assert "PIBE507" in codes


def test_extension_tag_on_wrong_edge_kind_is_pibe507():
    register_defense_classes("fineibt", {SPECTRE_V2})
    module = _hardened_module()
    _retag(module, Opcode.RET, "fineibt")
    codes = _errors(module)
    assert "PIBE507" in codes


def test_unregistered_tag_still_pibe506():
    module = _hardened_module()
    _retag(module, Opcode.ICALL, "mystery")
    assert "PIBE506" in _errors(module)


def test_registry_change_invalidates_lint_cache(tmp_path):
    from repro.evaluation.cache import DiskCache
    from repro.static import lint_module

    cache = DiskCache(tmp_path / "cache")
    register_defense_classes("fineibt_lvi", {SPECTRE_V2, LVI})
    module = _hardened_module()
    _retag(module, Opcode.ICALL, "fineibt_lvi")
    clean = lint_module(module, rules=["speculation-coverage"], cache=cache)
    assert not clean.errors()
    # Shrinking the tag's coverage must invalidate the cached verdict.
    register_defense_classes("fineibt_lvi", {SPECTRE_V2})
    dirty = lint_module(module, rules=["speculation-coverage"], cache=cache)
    assert dirty.stats["cache_misses"] > 0
    assert any(d.code == "PIBE507" for d in dirty.errors())


def test_extension_tag_closes_attacks_and_table11_census():
    from repro.analysis.gadgets import forward_edge_census
    from repro.cpu.attacks import LVIAttack, SpectreV2Attack

    register_defense_classes("fineibt", {SPECTRE_V2, LVI})
    module = _hardened_module(DefenseConfig(retpolines=True, lvi_cfi=True))
    _retag(module, Opcode.ICALL, "fineibt")
    assert _errors(module) == []
    icall = next(module.indirect_call_sites())
    for attack in (SpectreV2Attack(), LVIAttack()):
        assert not attack.attempt(module, "caller", icall).success
        assert all(
            inst is not icall for _, inst in attack.hijackable_sites(module)
        )
    census = forward_edge_census(module)
    assert (census.defended_icalls, census.vulnerable_icalls) == (1, 0)
