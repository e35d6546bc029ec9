"""The protection table: which attack vectors each defense tag closes.

One table answers "is this site protected against vector V" for every
consumer: the Table 11 census
(:func:`~repro.analysis.gadgets.forward_edge_census`,
:func:`~repro.analysis.gadgets.backward_edge_census`), the attack census
(:meth:`~repro.cpu.attacks.TransientAttack.is_vulnerable`) and the
speculation-coverage lint (``PIBE5xx``).  It holds three kinds of tag:

- the stock :class:`~repro.hardening.defenses.Defense` tags, seeded from
  the lowering's own ``*_SAFE`` frozensets so checker and code cannot
  drift; they cannot be re-mapped;
- extension tags of new hardening backends (FineIBT, PAC-based kernel
  CFI), entered by :func:`register_defense_classes`; the lint accepts
  one in place of the stock tag wherever it covers every class the
  config promises;
- custom-defense tags, entered by
  :func:`repro.hardening.custom.register_defense` from their
  ``CustomDefense.protects``.

A tag has exactly one kind: a name registered as an extension tag cannot
also be a custom defense, and the reverse.  :func:`registry_snapshot` is
canonical key material for the incremental-lint cache (a table change
must invalidate cached speculation diagnostics).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.hardening.defenses import (
    LVI_SAFE,
    RSB_SAFE,
    SPECTRE_V2_SAFE,
    DefenseConfig,
)
from repro.ir.types import Opcode

#: Forward-edge BTB poisoning (Spectre V2).
SPECTRE_V2 = "spectre_v2"
#: Backward-edge RSB poisoning (Ret2spec).
RET2SPEC = "ret2spec"
#: Load value injection on the target load.
LVI = "lvi"

KNOWN_CLASSES = frozenset({SPECTRE_V2, RET2SPEC, LVI})

#: Tag kinds (see the module docstring).
STOCK = "stock"
EXTENSION = "extension"
CUSTOM = "custom"


_SAFE_SETS = {SPECTRE_V2: SPECTRE_V2_SAFE, RET2SPEC: RSB_SAFE, LVI: LVI_SAFE}

#: Tag -> (kind, protection classes), seeded with the stock tags.
_TABLE: Dict[str, Tuple[str, FrozenSet[str]]] = {
    tag: (STOCK, frozenset(v for v, safe in _SAFE_SETS.items() if tag in safe))
    for tag in frozenset().union(*_SAFE_SETS.values())
}


def _register(tag: str, protects: Iterable[str], kind: str) -> None:
    existing = _TABLE.get(tag)
    if existing is not None and existing[0] == STOCK:
        raise ValueError(f"stock defense tag {tag!r} cannot be re-mapped")
    if existing is not None and existing[0] != kind:
        raise ValueError(
            f"defense tag {tag!r} is already registered ({existing[0]})"
        )
    protects = frozenset(protects)
    unknown = protects - KNOWN_CLASSES
    if unknown:
        raise ValueError(
            f"unknown protection class(es) {sorted(unknown)} for tag "
            f"{tag!r}; known: {sorted(KNOWN_CLASSES)}"
        )
    _TABLE[tag] = (kind, protects)


def _clear(kind: str) -> None:
    for tag in [t for t, (k, _) in _TABLE.items() if k == kind]:
        del _TABLE[tag]


def register_defense_classes(tag: str, protects: Iterable[str]) -> None:
    """Register (or update) an extension defense tag's protection classes.

    Stock tags are immutable: their classes come from the lowering's own
    frozensets, and re-mapping them would let checker and code drift.
    """
    _register(tag, protects, EXTENSION)


def register_custom_classes(tag: str, protects: Iterable[str]) -> None:
    """Enter a custom defense's tag (called by ``register_defense``)."""
    _register(tag, protects, CUSTOM)


def clear_extension_classes() -> None:
    """Drop every runtime-registered extension tag (test hygiene)."""
    _clear(EXTENSION)


def clear_custom_classes() -> None:
    """Drop every custom-defense tag (called by ``clear_registry``)."""
    _clear(CUSTOM)


def tag_kind(tag: Optional[str]) -> Optional[str]:
    """:data:`STOCK`, :data:`EXTENSION` or :data:`CUSTOM`; ``None`` for
    an unknown tag (or no tag)."""
    entry = _TABLE.get(tag)
    return entry[0] if entry is not None else None


def protects(tag: Optional[str], vector: str) -> bool:
    """Whether a branch lowered with ``tag`` is closed against ``vector``.

    An untagged branch (``None``) and an unknown tag protect nothing.
    """
    entry = _TABLE.get(tag)
    return entry is not None and vector in entry[1]


def required_classes(opcode: Opcode, config: DefenseConfig) -> List[str]:
    """Protection classes ``config`` promises for a branch of ``opcode``.

    This is the config side of the taxonomy: which attack vectors the
    DefenseConfig claims to close on each edge kind.
    """
    required: List[str] = []
    if opcode in (Opcode.ICALL, Opcode.IJUMP):
        if config.retpolines:
            required.append(SPECTRE_V2)
        if config.lvi_cfi:
            required.append(LVI)
    elif opcode == Opcode.RET:
        if config.ret_retpolines:
            required.append(RET2SPEC)
        if config.lvi_cfi:
            required.append(LVI)
    return required


def registry_snapshot() -> Tuple[Tuple[str, str, Tuple[str, ...]], ...]:
    """Canonical, sorted (tag, kind, classes) triples: cache-key material."""
    return tuple(
        (tag, kind, tuple(sorted(classes)))
        for tag, (kind, classes) in sorted(_TABLE.items())
    )
