"""Verification as phase hooks: ``build_variant(verify_each=)`` runs the
static analyzer after every phase of the prefix builder and the hardening
stamp, each phase leaves the module exactly where the monolithic
reference pass list leaves it after the same pass, and a corrupting phase
is reported by name."""

import pytest

from repro.core.config import PibeConfig
from repro.core.pipeline import PibePipeline, deterministic_build_ids
from repro.core.reference import reference_build
from repro.hardening.defenses import DefenseConfig
from repro.ir.printer import format_module
from repro.ir.types import ATTR_EDGE_COUNT, ATTR_PROMOTED, Opcode
from repro.passes.inliner import PibeInliner
from repro.static import StaticAnalysisError, analyzer

PHASE_CONFIGS = (
    PibeConfig.hardened(DefenseConfig.all_defenses()),  # unoptimized
    PibeConfig.lax(DefenseConfig.retpolines_only()),
    PibeConfig(
        defenses=DefenseConfig.all_defenses(),
        icp_budget=0.5,
        inline_budget=0.5,
    ),
    PibeConfig(
        defenses=DefenseConfig.none(),
        icp_budget=0.9,
        inline_budget=0.9,
        use_default_inliner=True,
    ),
)


@pytest.fixture()
def phases(monkeypatch):
    """Every verification point as ``(context, printed module)``; each
    point still runs the real check (every rule)."""
    real = analyzer.assert_clean
    seen = []

    def recording(module, *args, context="", **kwargs):
        seen.append((context, format_module(module)))
        return real(module, *args, context=context, **kwargs)

    monkeypatch.setattr(analyzer, "assert_clean", recording)
    return seen


@pytest.mark.parametrize("config", PHASE_CONFIGS, ids=lambda c: c.label())
def test_every_phase_matches_the_reference_pass(
    small_kernel, small_profile, phases, config
):
    profile = small_profile if config.optimized else None
    with deterministic_build_ids():
        build = PibePipeline(small_kernel).build_variant(
            config, profile, verify_each=True
        )
    built = list(phases)
    phases.clear()
    with deterministic_build_ids():
        oracle = reference_build(
            small_kernel, config, profile, verify_each=True
        )

    assert list(build.reports) == list(oracle.reports)
    assert [context for context, _ in built] == [
        f"after pass {name!r}" for name in oracle.reports
    ]
    for (context, printed), (_, expected) in zip(built, phases):
        assert printed == expected, context


def _promoted(inst):
    return inst.opcode == Opcode.CALL and inst.attrs.get(ATTR_PROMOTED)


def _corrupt_flow(module):
    """Break flow conservation on one surviving promoted call, copying
    its function first so the shared decision basis stays intact."""
    for name in list(module.functions):
        if any(map(_promoted, module.functions[name].call_sites())):
            for inst in module.mutable(name).call_sites():
                if _promoted(inst):
                    inst.attrs[ATTR_EDGE_COUNT] += 1_000_000
                    return
    raise AssertionError("no promoted call survived inlining")


def test_verified_build_names_a_corrupting_inliner(
    small_kernel, small_profile, monkeypatch
):
    config = PibeConfig.lax(DefenseConfig.all_defenses())
    pipeline = PibePipeline(small_kernel)
    pipeline.build_variant(config, small_profile)  # prefix now cached

    real_apply = PibeInliner.apply_plan

    def corrupting_apply(self, module, plan):
        report = real_apply(self, module, plan)
        _corrupt_flow(module)
        return report

    monkeypatch.setattr(PibeInliner, "apply_plan", corrupting_apply)
    # An unverified build is served from the cache and never sees it...
    pipeline.build_variant(config, small_profile)
    # ...a verified one rebuilds the prefix and stops at the inliner.
    with pytest.raises(StaticAnalysisError) as exc:
        pipeline.build_variant(config, small_profile, verify_each=True)
    assert "after pass 'pibe-inliner'" in str(exc.value)
    # a flow-conservation finding (PIBE401 or, on a cloned chain, 405)
    assert {d.code[:5] for d in exc.value.report.errors()} == {"PIBE4"}
