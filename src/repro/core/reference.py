"""The monolithic pass list: the oracle :class:`PibePipeline` is checked
against — the tests' differential oracle and the cold arm of
``benchmarks/bench_build.py``. Only tests and benchmarks import it, so it
cannot become a production build switch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import PibeConfig
from repro.core.pipeline import BuildResult, PrefixKey
from repro.hardening.defenses import DefenseConfig
from repro.hardening.harden import HardeningPass
from repro.ir.clone import clone_module
from repro.ir.module import Module
from repro.ir.validate import validate_module
from repro.passes.default_inliner import DefaultInliner
from repro.passes.icp import IndirectCallPromotion
from repro.passes.inliner import PibeInliner
from repro.passes.jumptables import LowerSwitches
from repro.passes.lto import DeadFunctionElimination, SimplifyCFG
from repro.passes.manager import ModulePass, run_pipeline
from repro.profiling.lifting import lift_profile
from repro.profiling.profile_data import EdgeProfile


def _run(
    baseline: Module,
    key: PrefixKey,
    profile: Optional[EdgeProfile],
    cow: bool,
    defenses: Optional[DefenseConfig] = None,
    verify_each: Any = False,
) -> Tuple[Module, Dict[str, Any]]:
    """Clone ``baseline``, run ``key``'s pass list (then hardening with
    ``defenses``, if given) once, and validate the result once."""
    module = clone_module(baseline, cow=cow)
    passes: List[ModulePass] = [
        LowerSwitches(allow_jump_tables=key.allow_jump_tables)
    ]
    budgeted = key.icp_budget is not None or key.inline_budget is not None
    if profile is not None and budgeted:
        lift_profile(module, profile)
        if key.icp_budget is not None:
            passes.append(IndirectCallPromotion(budget=key.icp_budget))
        if key.inline_budget is not None:
            if key.use_default_inliner:
                passes.append(DefaultInliner(profile=profile))
            else:
                passes.append(
                    PibeInliner(
                        profile,
                        budget=key.inline_budget,
                        caller_threshold=key.caller_threshold,
                        callee_threshold=key.callee_threshold,
                        lax_heuristics=key.lax_heuristics,
                    )
                )
        passes.append(SimplifyCFG())
    if key.run_dce:
        passes.append(DeadFunctionElimination())
    if defenses is not None:
        passes.append(HardeningPass(defenses))
    reports = run_pipeline(
        module,
        passes,
        validate=False,
        verify_each=verify_each,
        verify_profile=profile,
    )
    validate_module(module)
    return module, reports


def reference_prefix(
    baseline: Module, key: PrefixKey, profile: Optional[EdgeProfile]
) -> Tuple[Module, Dict[str, Any]]:
    """The prefix of ``key`` built cold on a copy-on-write clone."""
    return _run(baseline, key, profile, cow=True)


def reference_build(
    baseline: Module,
    config: PibeConfig,
    profile: Optional[EdgeProfile] = None,
    verify_each: Any = False,
) -> BuildResult:
    """One hardened variant from a fresh, fully owned baseline clone;
    ``verify_each`` checks after every pass as ``build_variant`` does
    after every phase."""
    module, reports = _run(
        baseline,
        PrefixKey.from_config(config),
        profile,
        cow=False,
        defenses=config.defenses,
        verify_each=verify_each,
    )
    return BuildResult(config=config, module=module, reports=reports)
