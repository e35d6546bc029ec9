"""Pass manager: sequences module transformations and collects their
reports, mirroring how PIBE's passes run over linked bitcode via ``opt``."""

from __future__ import annotations

import time
from typing import Any, Dict, List, NamedTuple

from repro.ir.module import Module
from repro.ir.validate import validate_module


class PassRecord(NamedTuple):
    """One executed pass: its name, wall time and whatever it reported."""

    name: str
    seconds: float
    report: Any


class ModulePass:
    """Base class for module transformations.

    Subclasses implement :meth:`run` and may return an arbitrary report
    object (statistics consumed by the evaluation harness).
    """

    #: Human-readable pass name; defaults to the class name.
    name: str = ""

    def run(self, module: Module) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class FunctionPass(ModulePass):
    """Convenience base that visits every function."""

    def run(self, module: Module) -> Any:
        reports = {}
        for func in module:
            out = self.run_on_function(func, module)
            if out is not None:
                reports[func.name] = out
        return reports or None

    def run_on_function(self, func, module: Module) -> Any:
        raise NotImplementedError


class PassManager:
    """Runs a pipeline of passes over a module.

    Parameters
    ----------
    validate_after_each:
        Verify the module after every pass; catches transformation bugs at
        their source at the price of extra scans (on by default — the
        synthetic kernel is small enough).
    verify_each:
        Additionally run the static analyzer (:mod:`repro.static`) at every
        pass boundary. ``True`` runs every registered rule; a list of rule
        names / code prefixes selects a subset. Error-severity findings
        raise :class:`repro.static.analyzer.StaticAnalysisError` naming the
        offending pass.
    verify_profile:
        Edge profile handed to profile-dependent rules (flow conservation)
        when ``verify_each`` is active.
    """

    def __init__(
        self,
        validate_after_each: bool = True,
        verify_each: Any = False,
        verify_profile: Any = None,
    ) -> None:
        self.passes: List[ModulePass] = []
        self.records: List[PassRecord] = []
        self.validate_after_each = validate_after_each
        self.verify_each = verify_each
        self.verify_profile = verify_profile

    def add(self, pass_: ModulePass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, module: Module) -> Dict[str, Any]:
        """Execute all passes in order; returns pass name -> report."""
        reports: Dict[str, Any] = {}
        for pass_ in self.passes:
            name = pass_.name or type(pass_).__name__
            start = time.perf_counter()
            report = pass_.run(module)
            elapsed = time.perf_counter() - start
            self.records.append(PassRecord(name, elapsed, report))
            reports[name] = report
            # Invalidate derived artifacts (compiled execution programs)
            # that were built against the pre-transform IR.
            module.bump_version()
            if self.validate_after_each:
                validate_module(module)
            if self.verify_each:
                verify_boundary(
                    self.verify_each, self.verify_profile, name, module
                )
        return reports


def verify_boundary(
    verify_each: Any, profile: Any, name: str, module: Module
) -> None:
    """Static analysis after pass ``name`` (``verify_each``: ``True`` or
    a rule selection); errors raise ``StaticAnalysisError`` naming it."""
    # Imported lazily: repro.static pulls in hardening/profiling
    # modules that themselves import this pass manager.
    from repro.static.analyzer import assert_clean

    assert_clean(
        module,
        rules=None if verify_each is True else verify_each,
        profile=profile,
        context=f"after pass {name!r}",
    )


def run_pipeline(
    module: Module,
    passes: List[ModulePass],
    validate: bool = True,
    verify_each: Any = False,
    verify_profile: Any = None,
) -> Dict[str, Any]:
    """One-shot helper: build a manager, run, return reports."""
    manager = PassManager(
        validate_after_each=validate,
        verify_each=verify_each,
        verify_profile=verify_profile,
    )
    for p in passes:
        manager.add(p)
    return manager.run(module)
