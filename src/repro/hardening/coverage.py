"""Shared defense-coverage semantics: which branches a config promises
to protect, and with which lowering.

These predicates decide which branches are eligible (Section 8.6's
coverage gaps). The one hardening scan (:func:`~repro.hardening.harden.stamp`,
behind the stock and the custom pass), the ``PIBE5xx`` lint, the attack
census and the Table 11 census all call them, so checker and censuses
cannot drift from the transformation. What a stamped tag protects is
the other half of the model: the one table in
:mod:`repro.hardening.classes`.

Kept free of pass-manager imports on purpose — the static analyzer runs
inside ``PassManager(verify_each=...)`` and must not import it back.
"""

from __future__ import annotations

from typing import Optional

from repro.hardening.defenses import Defense, DefenseConfig
from repro.ir.function import Function
from repro.ir.instruction import Instruction
from repro.ir.module import Module
from repro.ir.types import ATTR_ASM_SITE, FunctionAttr, Opcode

#: Module metadata key recording the applied stock configuration.
METADATA_KEY = "defense_config"
#: Module metadata key recording applied custom-defense labels.
CUSTOM_METADATA_KEY = "custom_defenses"


def icall_exempt(func: Function, inst: Instruction) -> bool:
    """Whether an indirect call cannot be instrumented: it lives in an
    opaque inline-asm function, or is itself an asm-emitted site
    (paravirt hypercalls, Table 11)."""
    return not func.is_instrumentable or bool(inst.attrs.get(ATTR_ASM_SITE))


def boot_only(func: Function) -> bool:
    """Whether ``func`` only runs during early boot: none of its branches
    is attackable past that stage, so its returns need no hardening
    (Section 8.6). Returns in asm functions are still protectable
    (objtool-style return-thunk patching)."""
    return func.has_attr(FunctionAttr.BOOT_ONLY)


def ijump_exempt(func: Function, inst: Instruction) -> bool:
    """Whether an indirect jump cannot be instrumented: opaque asm
    functions, or target-less IJUMPs modelling asm computed gotos (only
    jump-table IJUMPs carry their targets and can be rewritten)."""
    return not func.is_instrumentable or not inst.targets


def branch_exempt(func: Function, inst: Instruction) -> bool:
    """Whether an indirect branch is exempt from hardening under every
    config (asm sites, boot-only returns, opaque ijumps)."""
    if inst.opcode == Opcode.ICALL:
        return icall_exempt(func, inst)
    if inst.opcode == Opcode.RET:
        return boot_only(func)
    if inst.opcode == Opcode.IJUMP:
        return ijump_exempt(func, inst)
    return True


def expected_defense(
    func: Function, inst: Instruction, config: DefenseConfig
) -> Optional[Defense]:
    """The lowering ``config`` promises for this branch, or ``None`` when
    the branch is exempt / the config leaves that edge undefended."""
    if inst.opcode == Opcode.ICALL:
        if icall_exempt(func, inst):
            return None
        return config.forward_defense()
    if inst.opcode == Opcode.RET:
        if boot_only(func):
            return None
        return config.backward_defense()
    if inst.opcode == Opcode.IJUMP:
        if ijump_exempt(func, inst):
            return None
        return config.forward_defense()
    return None


def applied_config(module: Module) -> DefenseConfig:
    """The defense configuration a module was hardened with (or none)."""
    config = module.metadata.get(METADATA_KEY)
    if isinstance(config, DefenseConfig):
        return config
    return DefenseConfig.none()


def custom_hardened(module: Module) -> bool:
    """Whether a custom hardening pass ran over this module."""
    return bool(module.metadata.get(CUSTOM_METADATA_KEY))
