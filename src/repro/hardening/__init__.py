"""Defense lowerings and the hardening pass (paper Sections 4, 6)."""

from repro.hardening.custom import (
    CustomDefense,
    CustomHardeningPass,
    clear_registry,
    custom_defense_cost,
    register_defense,
    registered_defense,
)
from repro.hardening.defenses import Defense, DefenseConfig, NonTransientDefense
from repro.hardening.harden import (
    HardenReport,
    HardeningPass,
    METADATA_KEY,
    applied_config,
)
from repro.hardening.lowering import (
    SITE_EXPANSION_UNITS,
    SITE_SEQUENCES,
    THUNK_BODIES,
    THUNK_UNITS,
    lower_branch,
    required_thunks,
    site_expansion_units,
)

__all__ = [
    "CustomDefense",
    "CustomHardeningPass",
    "Defense",
    "DefenseConfig",
    "HardenReport",
    "HardeningPass",
    "METADATA_KEY",
    "NonTransientDefense",
    "SITE_EXPANSION_UNITS",
    "SITE_SEQUENCES",
    "THUNK_BODIES",
    "THUNK_UNITS",
    "applied_config",
    "clear_registry",
    "custom_defense_cost",
    "lower_branch",
    "register_defense",
    "registered_defense",
    "required_thunks",
    "site_expansion_units",
]
