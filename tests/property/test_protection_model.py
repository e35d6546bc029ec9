"""Differential properties of the one protection model.

Random modules (boot-only and inline-asm functions, asm icall sites,
jump-table and target-less ijumps) are hardened under every defense
config, then optionally re-stamped with a registered extension tag or a
custom-defense pass (including custom defenses that close fewer vectors
than the config promises). Three views of "is this site protected against
vector V" must then agree:

- **attempts vs census** — for each vector, the sites a dynamic
  ``attempt`` hijacks are exactly the attack's ``hijackable_sites``;
- **Table 11 vs attacks** — ``forward_edge_census`` and
  ``backward_edge_census`` count exactly the sites the attacks hijack;
- **lint vs attacks** — on a module with no ``PIBE5xx`` error, no branch
  the config promises to protect is hijackable by a promised vector.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.gadgets import backward_edge_census, forward_edge_census
from repro.cpu.attacks import ALL_ATTACKS
from repro.hardening.classes import (
    LVI,
    RET2SPEC,
    SPECTRE_V2,
    clear_extension_classes,
    register_defense_classes,
    required_classes,
)
from repro.hardening.coverage import applied_config, expected_defense
from repro.hardening.custom import (
    CustomDefense,
    CustomHardeningPass,
    clear_registry,
)
from repro.hardening.defenses import DefenseConfig
from repro.hardening.harden import HardeningPass
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.types import INDIRECT_BRANCHES, FunctionAttr, Opcode
from repro.static import analyze_module

_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_CONFIGS = st.sampled_from(
    [
        DefenseConfig.none(),
        DefenseConfig.retpolines_only(),
        DefenseConfig.ret_retpolines_only(),
        DefenseConfig.lvi_only(),
        DefenseConfig(retpolines=True, lvi_cfi=True),
        DefenseConfig.all_defenses(),
    ]
)

#: A FineIBT-style backend: closes Spectre V2 and LVI, not Ret2spec.
FINEIBT = "fineibt"
PSCFI_FWD = CustomDefense(
    "pscfi_fwd", kind="forward", cycles=35.0,
    protects=frozenset({SPECTRE_V2, LVI}),
)
PSCFI_RET = CustomDefense(
    "pscfi_ret", kind="backward", cycles=28.0,
    protects=frozenset({RET2SPEC, LVI}),
)
#: Custom defenses that leave LVI open: lint-clean only where the config
#: does not promise LVI.
WEAK_FWD = CustomDefense(
    "weak_fwd", kind="forward", cycles=5.0, protects=frozenset({SPECTRE_V2}),
)
WEAK_RET = CustomDefense(
    "weak_ret", kind="backward", cycles=5.0, protects=frozenset({RET2SPEC}),
)

#: How the stock-hardened module is re-stamped before the checks: a
#: label, or a (forward, backward) custom-defense pair.
_RESTAMPS = st.one_of(
    st.sampled_from(["stock", "extension", "extension+ret"]),
    st.tuples(
        st.sampled_from([PSCFI_FWD, WEAK_FWD, None]),
        st.sampled_from([PSCFI_RET, WEAK_RET, None]),
    ).filter(any),
)


@pytest.fixture(autouse=True)
def _protection_table():
    register_defense_classes(FINEIBT, {SPECTRE_V2, LVI})
    yield
    clear_extension_classes()
    clear_registry()


@st.composite
def branchy_modules(draw, max_functions=5):
    """A module exercising every coverage gap of Section 8.6."""
    n = draw(st.integers(1, max_functions))
    names = [f"fn{i}" for i in range(n)]
    module = Module("protection")
    for name in names:
        attrs = draw(
            st.sets(
                st.sampled_from([FunctionAttr.BOOT_ONLY, FunctionAttr.INLINE_ASM])
            )
        )
        func = Function(name, attrs=attrs)
        b = IRBuilder(func)
        kinds = st.sampled_from(["icall", "asm_icall", "table_ijump", "asm_ijump"])
        for kind in draw(st.lists(kinds, max_size=4)):
            if kind.endswith("icall"):
                b.icall({draw(st.sampled_from(names)): 1}, asm=kind == "asm_icall")
                continue
            after = b.new_block("after")
            ijump = b.ijump()
            if kind == "table_ijump":
                ijump.targets = (after.label,)
            b.set_block(after)
        b.ret()
        module.add_function(func)
    return module


def _harden(module, config, restamp):
    HardeningPass(config).run(module)
    if isinstance(restamp, tuple):
        forward, backward = restamp
        CustomHardeningPass(forward=forward, backward=backward).run(module)
    elif restamp.startswith("extension"):
        edges = {Opcode.ICALL, Opcode.IJUMP}
        if restamp.endswith("+ret"):
            edges.add(Opcode.RET)
        for inst in module.instructions():
            if inst.opcode in edges and inst.defense is not None:
                inst.defense = FINEIBT
        module.bump_version()


def _site(func, inst):
    return (func.name, id(inst))


@given(module=branchy_modules(), config=_CONFIGS, restamp=_RESTAMPS)
@_SETTINGS
def test_attacks_censuses_and_lint_agree(module, config, restamp):
    _harden(module, config, restamp)
    hijackable = {
        attack.vector: {
            (name, id(inst)) for name, inst in attack.hijackable_sites(module)
        }
        for attack in ALL_ATTACKS
    }
    # Boot-only code is out of reach past early boot; ``attempt`` models
    # only the microarchitectural event, so it is asked about the rest.
    live = [f for f in module if not f.has_attr(FunctionAttr.BOOT_ONLY)]

    for attack in ALL_ATTACKS:
        hijacked = {
            _site(func, inst)
            for func in live
            for inst in func.instructions()
            if inst.opcode in attack.victim_opcodes
            and attack.attempt(module, func.name, inst).success
        }
        assert hijacked == hijackable[attack.vector], attack.vector

    def hijackable_of(opcode, *vectors):
        sites = {
            _site(func, inst)
            for func in module
            for inst in func.instructions()
            if inst.opcode == opcode
        }
        return sites & set().union(*(hijackable[v] for v in vectors))

    forward = forward_edge_census(module)
    assert forward.vulnerable_icalls == len(
        hijackable_of(Opcode.ICALL, SPECTRE_V2, LVI)
    )
    assert forward.vulnerable_ijumps == len(
        hijackable_of(Opcode.IJUMP, SPECTRE_V2)
    )
    assert backward_edge_census(module)["vulnerable"] == len(
        hijackable[RET2SPEC]
    )

    lint = analyze_module(module, rules=["speculation-coverage"])
    if lint.errors():
        return
    promised = applied_config(module)
    for func in module:
        for inst in func.instructions():
            if inst.opcode not in INDIRECT_BRANCHES:
                continue
            if expected_defense(func, inst, promised) is None:
                continue
            for vector in required_classes(inst.opcode, promised):
                assert _site(func, inst) not in hijackable[vector], (
                    restamp,
                    vector,
                    inst.defense,
                )
