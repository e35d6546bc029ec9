"""Speculation-defense coverage lint (``PIBE5xx``).

Makes the paper's Tables 8-12 coverage claims *statically checkable*:
after hardening, every residual indirect branch must carry exactly the
defense tag its :class:`~repro.hardening.defenses.DefenseConfig`
promises — and that tag must belong to every protection class
(``spectre_v2`` / ``ret2spec`` / ``lvi``) covering the attack vectors
the config claims to close. Exempt branches (inline-asm functions and
sites, boot-only returns, target-less asm ijumps) must stay *untagged*:
a tag there would claim protection the lowering cannot actually emit.

Eligibility comes from :mod:`repro.hardening.coverage` — the same
predicates the hardening scan uses, so checker and transformation
cannot drift.  What a tag protects comes from the one protection table
in :mod:`repro.hardening.classes`, the table the attack census and the
Table 11 census read too.  It is seeded from the stock defense
frozensets and lets new backends (FineIBT, PAC) register extension tags
at runtime; an extension tag is accepted in place of the stock tag
wherever it covers every class the config promises (else ``PIBE507``).
Custom-defense tags (:mod:`repro.hardening.custom`) get the same class
check (``PIBE507``; ``PIBE505`` on an exempt branch); on modules a
custom pass has processed, an untagged branch is the custom
registration's business, not the stock config's promise.
"""

from __future__ import annotations

from typing import Iterable

from repro.hardening.classes import (
    CUSTOM,
    EXTENSION,
    protects,
    registry_snapshot,
    required_classes,
    tag_kind,
)
from repro.hardening.coverage import (
    applied_config,
    branch_exempt,
    custom_hardened,
    expected_defense,
)
from repro.ir.module import Module
from repro.ir.types import INDIRECT_BRANCHES, Opcode
from repro.static.diagnostics import Diagnostic, Severity
from repro.static.registry import Rule, register

_UNPROTECTED_CODE = {
    Opcode.ICALL: "PIBE501",
    Opcode.RET: "PIBE502",
    Opcode.IJUMP: "PIBE503",
}


@register
class SpeculationCoverageRule(Rule):
    name = "speculation-coverage"
    description = (
        "residual indirect branches carry exactly the promised defense tags"
    )
    codes = {
        "PIBE501": "icall the config promises to protect is untagged",
        "PIBE502": "return the config promises to protect is untagged",
        "PIBE503": "indirect jump the config promises to protect is untagged",
        "PIBE504": "branch carries a different tag than the config promises",
        "PIBE505": "exempt/undefended branch carries a defense tag",
        "PIBE506": "unknown defense tag (not stock, not registered custom)",
        "PIBE507": "promised tag is outside its protection class",
    }
    version = 4  # custom tags are class-checked like extension tags

    def check_function(self, func, module: Module, ctx) -> Iterable[Diagnostic]:
        config = applied_config(module)
        allow_custom = custom_hardened(module)
        err = Severity.ERROR

        for block in func.blocks.values():
            for inst in block.instructions:
                if inst.opcode not in INDIRECT_BRANCHES:
                    continue
                loc = dict(
                    function=func.name,
                    block=block.label,
                    site_id=inst.site_id,
                )
                tag = inst.defense
                kind = tag_kind(tag)
                expected = expected_defense(func, inst, config)
                required = required_classes(inst.opcode, config)

                if tag is not None and kind in (None, CUSTOM):
                    if kind is None:
                        yield self.diag(
                            "PIBE506",
                            err,
                            f"{inst.opcode.value} carries unknown "
                            f"defense tag {tag!r}",
                            **loc,
                        )
                    elif branch_exempt(func, inst):
                        yield self.diag(
                            "PIBE505",
                            err,
                            f"exempt {inst.opcode.value} carries "
                            f"custom defense tag {tag!r}",
                            **loc,
                        )
                    else:
                        # A custom lowering replaces the stock one, so
                        # it must close every vector the config claims.
                        yield from self._check_class(
                            inst, tag, required, config, loc
                        )
                    continue

                if expected is None:
                    if tag is not None:
                        yield self.diag(
                            "PIBE505",
                            err,
                            f"{inst.opcode.value} is exempt or "
                            "undefended under config "
                            f"{config.label()!r} but carries tag "
                            f"{tag!r}",
                            **loc,
                        )
                    continue

                if tag is None:
                    if allow_custom:
                        # A custom pass replaced the stock lowering;
                        # whether it covers this edge kind is its
                        # registration's business, not the stock
                        # config's promise.
                        continue
                    yield self.diag(
                        _UNPROTECTED_CODE[inst.opcode],
                        err,
                        f"{inst.opcode.value} is unprotected but "
                        f"config {config.label()!r} promises "
                        f"{expected.value!r}",
                        **loc,
                    )
                    continue

                if tag != expected.value:
                    # A registered extension backend (FineIBT/PAC) is an
                    # acceptable alternative lowering iff its registered
                    # classes cover everything the config promises here;
                    # the gaps, if any, are class findings (PIBE507) —
                    # sharper than a generic wrong-tag error.
                    if kind == EXTENSION:
                        yield from self._check_class(
                            inst, tag, required, config, loc
                        )
                        continue
                    yield self.diag(
                        "PIBE504",
                        err,
                        f"{inst.opcode.value} tagged {tag!r} but "
                        f"config {config.label()!r} promises "
                        f"{expected.value!r}",
                        **loc,
                    )
                    continue

                yield from self._check_class(inst, tag, required, config, loc)

    def cache_env(self, module: Module, ctx) -> object:
        # Coverage depends on the module's applied defense config, the
        # custom-hardening marker and the protection table (stock,
        # extension and custom tags).
        from repro.hardening.coverage import CUSTOM_METADATA_KEY, METADATA_KEY

        return {
            "config": repr(module.metadata.get(METADATA_KEY)),
            "custom_marker": repr(module.metadata.get(CUSTOM_METADATA_KEY)),
            "classes": registry_snapshot(),
        }

    def _check_class(
        self, inst, tag, required, config, loc
    ) -> Iterable[Diagnostic]:
        """The promised tag must sit in every protection class the
        config claims for this edge (taxonomy self-consistency)."""
        for class_name in required:
            if not protects(tag, class_name):
                yield self.diag(
                    "PIBE507",
                    Severity.ERROR,
                    f"tag {tag!r} does not protect {class_name!r} "
                    f"although config {config.label()!r} requires it",
                    **loc,
                )
