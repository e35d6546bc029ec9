"""Defense configuration: lowering selection and combination rules."""

import pytest

from repro.hardening.classes import LVI, RET2SPEC, SPECTRE_V2, protects
from repro.hardening.defenses import Defense, DefenseConfig, NonTransientDefense


def test_forward_lowering_selection():
    assert DefenseConfig.none().forward_defense() is None
    assert (
        DefenseConfig.retpolines_only().forward_defense() == Defense.RETPOLINE
    )
    assert DefenseConfig.lvi_only().forward_defense() == Defense.LVI_CFI_FWD
    # combining retpolines with LVI requires the fenced sequence (Sec 6.3)
    assert (
        DefenseConfig(retpolines=True, lvi_cfi=True).forward_defense()
        == Defense.FENCED_RETPOLINE
    )
    assert (
        DefenseConfig.all_defenses().forward_defense()
        == Defense.FENCED_RETPOLINE
    )


def test_backward_lowering_selection():
    assert DefenseConfig.none().backward_defense() is None
    assert (
        DefenseConfig.ret_retpolines_only().backward_defense()
        == Defense.RET_RETPOLINE
    )
    assert DefenseConfig.lvi_only().backward_defense() == Defense.LVI_CFI_RET
    assert (
        DefenseConfig.all_defenses().backward_defense()
        == Defense.RET_RETPOLINE_LVI
    )


def test_retpolines_alone_leave_returns_unprotected():
    config = DefenseConfig.retpolines_only()
    assert config.backward_defense() is None


def test_jump_table_disabling_rule():
    # LLVM disables jump tables when retpolines or LVI are on (Sec 5.1)
    assert DefenseConfig.retpolines_only().disables_jump_tables
    assert DefenseConfig.lvi_only().disables_jump_tables
    assert not DefenseConfig.ret_retpolines_only().disables_jump_tables
    assert not DefenseConfig.none().disables_jump_tables


def test_safety_set_memberships():
    # LVI-CFI's bare indirect jump is still BTB-predicted: NOT V2-safe
    assert not protects(Defense.LVI_CFI_FWD.value, SPECTRE_V2)
    assert protects(Defense.RETPOLINE.value, SPECTRE_V2)
    assert protects(Defense.FENCED_RETPOLINE.value, SPECTRE_V2)
    # plain retpolines don't fence loads: NOT LVI-safe
    assert not protects(Defense.RETPOLINE.value, LVI)
    assert protects(Defense.FENCED_RETPOLINE.value, LVI)
    assert protects(Defense.RET_RETPOLINE.value, RET2SPEC)
    assert not protects(Defense.LVI_CFI_RET.value, RET2SPEC)


def test_labels():
    assert DefenseConfig.none().label() == "none"
    assert DefenseConfig.all_defenses().label() == "all-defenses"
    assert "retpolines" in DefenseConfig.retpolines_only().label()
    labelled = DefenseConfig(
        nontransient=frozenset({NonTransientDefense.LLVM_CFI})
    ).label()
    assert "llvm_cfi" in labelled


def test_any_transient_flag():
    assert not DefenseConfig.none().any_transient
    assert DefenseConfig.retpolines_only().any_transient
    assert DefenseConfig.lvi_only().any_transient


def test_config_is_hashable_and_frozen():
    a = DefenseConfig.all_defenses()
    b = DefenseConfig.all_defenses()
    assert a == b
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.retpolines = False
