"""Custom defense registration and integration across the pipeline."""

import pytest

from repro.cpu.attacks import LVIAttack, Ret2specAttack, SpectreV2Attack
from repro.cpu.costs import DEFAULT_COSTS
from repro.hardening.custom import (
    CustomDefense,
    CustomHardeningPass,
    clear_registry,
    custom_defense_cost,
    register_defense,
    registered_defense,
)
from repro.hardening.lowering import site_expansion_units
from repro.ir.builder import IRBuilder, build_leaf
from repro.ir.function import Function
from repro.ir.module import Module


@pytest.fixture(autouse=True)
def _clean_registry():
    clear_registry()
    yield
    clear_registry()


PSCFI_FWD = CustomDefense(
    name="pscfi_fwd",
    kind="forward",
    cycles=35.0,
    site_expansion_units=4,
    protects=frozenset({"spectre_v2", "lvi"}),
)
PSCFI_RET = CustomDefense(
    name="pscfi_ret",
    kind="backward",
    cycles=28.0,
    site_expansion_units=4,
    protects=frozenset({"ret2spec", "lvi"}),
)


def _module():
    module = Module("m")
    module.add_function(build_leaf("t"))
    func = Function("f")
    b = IRBuilder(func)
    b.icall({"t": 1})
    b.ret()
    module.add_function(func)
    return module


def test_validation():
    with pytest.raises(ValueError, match="kind"):
        CustomDefense("x", kind="sideways", cycles=1.0)
    with pytest.raises(ValueError, match="unknown attack vectors"):
        CustomDefense(
            "x", kind="forward", cycles=1.0, protects=frozenset({"rowhammer"})
        )
    with pytest.raises(ValueError, match="non-negative"):
        CustomDefense("x", kind="forward", cycles=-1.0)


def test_registration_idempotent_and_conflicting():
    register_defense(PSCFI_FWD)
    register_defense(PSCFI_FWD)  # same spec: fine
    assert registered_defense("pscfi_fwd") == PSCFI_FWD
    with pytest.raises(ValueError, match="already registered"):
        register_defense(
            CustomDefense("pscfi_fwd", kind="forward", cycles=99.0)
        )


def test_cost_model_falls_back_to_registry():
    register_defense(PSCFI_FWD)
    assert DEFAULT_COSTS.defense_cost("pscfi_fwd") == 35.0
    assert custom_defense_cost("missing") is None
    with pytest.raises(KeyError):
        DEFAULT_COSTS.defense_cost("missing")


def test_custom_pass_tags_and_reports():
    module = _module()
    report = CustomHardeningPass(
        forward=PSCFI_FWD, backward=PSCFI_RET
    ).run(module)
    assert report.protected_icalls == 1
    assert report.protected_rets == 2
    icall = next(i for i in module.get("f").call_sites())
    assert icall.defense == "pscfi_fwd"
    assert site_expansion_units(icall) == 4


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError, match="forward"):
        CustomHardeningPass(forward=PSCFI_RET)
    with pytest.raises(ValueError, match="backward"):
        CustomHardeningPass(backward=PSCFI_FWD)


def test_attack_census_respects_custom_protection():
    module = _module()
    CustomHardeningPass(forward=PSCFI_FWD, backward=PSCFI_RET).run(module)
    assert SpectreV2Attack().hijackable_sites(module) == []
    assert Ret2specAttack().hijackable_sites(module) == []
    assert LVIAttack().hijackable_sites(module) == []


def test_partial_protection_census():
    # a forward-only defense that does NOT stop LVI
    weak = CustomDefense(
        "weak_fwd", kind="forward", cycles=5.0,
        protects=frozenset({"spectre_v2"}),
    )
    module = _module()
    CustomHardeningPass(forward=weak).run(module)
    assert SpectreV2Attack().hijackable_sites(module) == []
    # returns unprotected, icall not LVI-fenced
    assert len(Ret2specAttack().hijackable_sites(module)) == 2
    assert len(LVIAttack().hijackable_sites(module)) == 3


def test_timing_charges_custom_cost():
    import dataclasses

    from repro.cpu.timing import TimingModel
    from repro.engine.interpreter import Interpreter

    costs = dataclasses.replace(DEFAULT_COSTS, kernel_entry=0.0)
    plain = _module()
    custom = _module()
    CustomHardeningPass(forward=PSCFI_FWD, backward=PSCFI_RET).run(custom)

    def cycles(module):
        timing = TimingModel(module, costs=costs, model_icache=False)
        Interpreter(module, [timing], seed=1).run_function("f", times=10)
        return timing.cycles

    # 1 icall (35) + 2 rets (28 each) per run; the plain module pays one
    # cold BTB miss (12) that the flat-cost hardened icall does not
    assert cycles(custom) - cycles(plain) == pytest.approx(
        10 * (35 + 56) - DEFAULT_COSTS.btb_miss
    )


def test_pibe_reduces_custom_defense_overhead(small_pipeline, small_profile):
    """The paper's claim: the approach applies to any high-overhead
    defense (e.g. path-sensitive CFI)."""
    from repro.core.config import PibeConfig
    from repro.workloads.base import measure_benchmark
    from repro.workloads.lmbench import BY_NAME

    register_defense(PSCFI_FWD)
    register_defense(PSCFI_RET)

    # The custom pass stamps copy-on-write, so it runs on the variants
    # themselves without touching the pipeline's cached prefixes.
    lto = small_pipeline.build_variant(PibeConfig.lto_baseline())
    unopt = small_pipeline.build_variant(PibeConfig.lto_baseline()).module
    CustomHardeningPass(forward=PSCFI_FWD, backward=PSCFI_RET).run(unopt)
    opt = small_pipeline.build_variant(
        PibeConfig.pibe_baseline(), small_profile
    ).module
    CustomHardeningPass(forward=PSCFI_FWD, backward=PSCFI_RET).run(opt)

    bench = BY_NAME["read"]
    base = measure_benchmark(lto.module, bench, ops=60).cycles_per_op
    slow = measure_benchmark(unopt, bench, ops=60).cycles_per_op
    fast = measure_benchmark(opt, bench, ops=60).cycles_per_op
    unopt_overhead = slow / base - 1
    opt_overhead = fast / base - 1
    assert unopt_overhead > 0.5
    assert opt_overhead < unopt_overhead / 3


def test_custom_pass_on_staged_variant_leaves_pipeline_untagged():
    """The custom pass stamps copy-on-write: a staged variant shares its
    functions with the pipeline's cached prefix and baseline, which must
    not pick up the custom tags."""
    from repro.core.config import PibeConfig
    from repro.core.pipeline import PibePipeline
    from repro.kernel.generator import build_kernel
    from repro.kernel.spec import SmallSpec

    def custom_tags(module):
        return [
            inst.defense
            for inst in module.instructions()
            if inst.defense in (PSCFI_FWD.name, PSCFI_RET.name)
        ]

    pipeline = PibePipeline(build_kernel(SmallSpec()))
    config = PibeConfig.lto_baseline()
    build = pipeline.build_variant(config)
    report = CustomHardeningPass(forward=PSCFI_FWD, backward=PSCFI_RET).run(
        build.module
    )
    assert report.protected_icalls > 0 and report.protected_rets > 0
    assert len(custom_tags(build.module)) == (
        report.protected_icalls + report.protected_ijumps + report.protected_rets
    )
    assert custom_tags(pipeline.baseline) == []
    assert custom_tags(pipeline.build_variant(config).module) == []


def test_custom_tag_cannot_shadow_stock_or_extension_tag():
    from repro.hardening.classes import (
        clear_extension_classes,
        register_defense_classes,
    )

    with pytest.raises(ValueError, match="stock defense tag"):
        register_defense(
            CustomDefense("retpoline", kind="forward", cycles=1.0)
        )
    register_defense_classes("fineibt", {"spectre_v2"})
    try:
        with pytest.raises(ValueError, match="already registered"):
            register_defense(
                CustomDefense("fineibt", kind="forward", cycles=1.0)
            )
        register_defense(PSCFI_FWD)
        with pytest.raises(ValueError, match="already registered"):
            register_defense_classes("pscfi_fwd", {"spectre_v2"})
    finally:
        clear_extension_classes()
    assert registered_defense("fineibt") is None
