"""Speculation-coverage lint (PIBE5xx): drop, swap and invent defense
tags on a hardened module and check each corruption is pinned."""

import pytest

from repro.hardening.custom import (
    CustomDefense,
    CustomHardeningPass,
    clear_registry,
)
from repro.hardening.defenses import Defense, DefenseConfig
from repro.hardening.harden import HardeningPass
from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import FunctionAttr, Opcode
from repro.static import analyze_module


@pytest.fixture(autouse=True)
def _clean_custom_registry():
    yield
    clear_registry()


def _module():
    module = Module("m")
    module.add_function(build_leaf("a", num_params=1))
    module.add_function(
        build_leaf("boot", num_params=1, attrs={FunctionAttr.BOOT_ONLY})
    )
    caller = Function("caller")
    b = IRBuilder(caller)
    b.icall({"a": 1}, num_args=1)
    b.ret()
    module.add_function(caller)
    return module


def _harden(module, config=None):
    HardeningPass(config or DefenseConfig.all_defenses()).run(module)
    return module


def _codes(module):
    return [
        d.code
        for d in analyze_module(module, rules=["speculation-coverage"]).errors()
    ]


def _find(module, opcode, tagged=True):
    for inst in module.instructions():
        if inst.opcode == opcode and (inst.defense is not None) == tagged:
            return inst
    raise AssertionError(f"no {opcode} with tagged={tagged}")


def test_hardened_module_is_clean():
    assert _codes(_harden(_module())) == []


def test_unhardened_module_is_clean():
    # config none promises nothing; untagged branches are fine
    assert _codes(_module()) == []


def test_dropped_ret_tag_pibe502():
    module = _harden(_module())
    _find(module, Opcode.RET).defense = None
    assert _codes(module) == ["PIBE502"]


def test_dropped_icall_tag_pibe501():
    module = _harden(_module())
    _find(module, Opcode.ICALL).defense = None
    assert _codes(module) == ["PIBE501"]


def test_wrong_tag_pibe504():
    module = _harden(_module())
    # all_defenses promises fenced_retpoline on forward edges
    _find(module, Opcode.ICALL).defense = Defense.RET_RETPOLINE.value
    assert _codes(module) == ["PIBE504"]


def test_tag_on_exempt_branch_pibe505():
    module = _harden(_module())
    boot_ret = next(
        i for i in module.get("boot").instructions() if i.opcode == Opcode.RET
    )
    assert boot_ret.defense is None  # hardening skipped boot-only code
    boot_ret.defense = Defense.RET_RETPOLINE_LVI.value
    assert _codes(module) == ["PIBE505"]


def test_unknown_tag_pibe506():
    module = _harden(_module())
    _find(module, Opcode.RET).defense = "quantum_shield"
    assert _codes(module) == ["PIBE506"]


class _BrokenConfig(DefenseConfig):
    """Promises an LVI-only lowering while claiming Spectre V2 coverage —
    the taxonomy inconsistency PIBE507 exists to catch."""

    def forward_defense(self):
        return Defense.LVI_CFI_FWD  # does not protect spectre_v2


def test_promised_tag_outside_protection_class_pibe507():
    module = _module()
    HardeningPass(_BrokenConfig(retpolines=True, lvi_cfi=True)).run(module)
    assert "PIBE507" in _codes(module)


def test_swapped_stock_tag_pibe504():
    module = _harden(_module())
    # retpoline is a stock tag, but all-defenses promises fenced_retpoline
    _find(module, Opcode.ICALL).defense = Defense.RETPOLINE.value
    assert _codes(module) == ["PIBE504"]


def test_registered_custom_tag_accepted():
    module = _module()
    fwd = CustomDefense(
        name="pscfi_fwd",
        kind="forward",
        cycles=10.0,
        protects=frozenset({"spectre_v2", "lvi"}),
    )
    bwd = CustomDefense(
        name="pscfi_ret",
        kind="backward",
        cycles=8.0,
        protects=frozenset({"ret2spec", "lvi"}),
    )
    CustomHardeningPass(forward=fwd, backward=bwd).run(module)
    assert _codes(module) == []


def test_custom_tag_short_of_promised_classes_pibe507():
    module = _harden(_module())
    weak = CustomDefense(
        "weak_fwd", kind="forward", cycles=5.0, protects={"spectre_v2"}
    )
    CustomHardeningPass(forward=weak).run(module)
    # all-defenses promises LVI on the icall too; the custom tag lacks it
    assert _codes(module) == ["PIBE507"]


def test_weak_custom_defense_on_kernel_is_flagged(small_kernel):
    """A custom forward defense that closes Spectre V2 but not LVI,
    stamped over an all-defenses kernel, reopens every forward site to
    LVI; the lint must report each one instead of staying clean."""
    from repro.core.config import PibeConfig
    from repro.core.pipeline import PibePipeline
    from repro.cpu.attacks import LVIAttack

    build = PibePipeline(small_kernel).build_variant(
        PibeConfig.hardened(DefenseConfig.all_defenses())
    )
    module = build.module
    before = len(LVIAttack().hijackable_sites(module))
    weak = CustomDefense(
        "weak_fwd", kind="forward", cycles=5.0, protects={"spectre_v2"}
    )
    CustomHardeningPass(forward=weak).run(module)
    reopened = len(LVIAttack().hijackable_sites(module)) - before
    assert reopened > 0
    errors = analyze_module(
        module, rules=["speculation-coverage"]
    ).errors()
    assert {d.code for d in errors} == {"PIBE507"}
    assert len(errors) == reopened


def test_custom_tag_on_exempt_branch_pibe505():
    module = _module()
    fwd = CustomDefense(name="pscfi_fwd", kind="forward", cycles=10.0)
    CustomHardeningPass(forward=fwd).run(module)
    boot_ret = next(
        i for i in module.get("boot").instructions() if i.opcode == Opcode.RET
    )
    boot_ret.defense = "pscfi_fwd"
    assert _codes(module) == ["PIBE505"]
