#!/usr/bin/env python3
"""Extending PIBE with a custom defense: path-sensitive CFI.

The paper (Section 6): "our approach is not limited to these defenses and
applies to all defenses that have high overheads", naming path-sensitive
CFI as an example. This script registers a synthetic path-sensitive CFI
— an expensive per-branch path-hash check on both edges — runs PIBE's
elimination passes under it, and shows the same order-of-magnitude
overhead reduction the stock transient defenses get.

Run:  python examples/custom_defense.py
"""

from repro import PibeConfig, PibePipeline, build_kernel
from repro.core.report import build_overhead_report
from repro.cpu.attacks import attack_surface
from repro.hardening.classes import LVI, RET2SPEC, SPECTRE_V2
from repro.hardening.custom import (
    CustomDefense,
    CustomHardeningPass,
    register_defense,
)
from repro.kernel import SmallSpec
from repro.workloads import TABLE3_BENCHMARKS, lmbench_workload, measure_suite

#: Forward edge: hash-update + bounds-checked target set lookup per call.
PSCFI_FWD = CustomDefense(
    name="pscfi_fwd",
    kind="forward",
    cycles=35.0,
    site_expansion_units=4,
    protects=frozenset({SPECTRE_V2, LVI}),
)
#: Backward edge: hash verification against the shadow path state.
PSCFI_RET = CustomDefense(
    name="pscfi_ret",
    kind="backward",
    cycles=28.0,
    site_expansion_units=4,
    protects=frozenset({RET2SPEC, LVI}),
)


def measure(module):
    results = measure_suite(module, TABLE3_BENCHMARKS, ops_scale=0.3)
    return {name: r.cycles_per_op for name, r in results.items()}


def main():
    register_defense(PSCFI_FWD)
    register_defense(PSCFI_RET)
    print(
        f"registered custom defenses: {PSCFI_FWD.name} "
        f"({PSCFI_FWD.cycles:.0f} cycles/fwd edge), {PSCFI_RET.name} "
        f"({PSCFI_RET.cycles:.0f} cycles/ret)"
    )

    kernel = build_kernel(SmallSpec())
    pipeline = PibePipeline(kernel)
    profile = pipeline.profile(lmbench_workload(ops_scale=0.1), iterations=2)

    lto = pipeline.build_variant(PibeConfig.lto_baseline())
    optimized = pipeline.build_variant(PibeConfig.pibe_baseline(), profile)

    # The custom pass stamps copy-on-write: hardening a fresh staged
    # variant leaves ``lto.module`` (and the pipeline's cached prefix)
    # untagged, so it still serves as the measurement baseline.
    unopt_image = pipeline.build_variant(PibeConfig.lto_baseline()).module
    opt_image = optimized.module
    CustomHardeningPass(forward=PSCFI_FWD, backward=PSCFI_RET).run(unopt_image)
    CustomHardeningPass(forward=PSCFI_FWD, backward=PSCFI_RET).run(opt_image)

    base = measure(lto.module)
    print(f"\n{'bench':12s} {'pscfi no-opt':>13s} {'pscfi + PIBE':>13s}")
    slow, fast = measure(unopt_image), measure(opt_image)
    for name in base:
        print(
            f"{name:12s} {slow[name] / base[name] - 1:>13.1%} "
            f"{fast[name] / base[name] - 1:>13.1%}"
        )
    g_slow = build_overhead_report("u", base, slow).geomean
    g_fast = build_overhead_report("o", base, fast).geomean
    print(f"{'geomean':12s} {g_slow:>13.1%} {g_fast:>13.1%}")

    print(
        f"\nresidual attack surface (both images): "
        f"{attack_surface(opt_image)}"
    )
    print(
        "PIBE reduced the custom defense's overhead by "
        f"{g_slow / max(g_fast, 1e-9):.0f}x while keeping its protection."
    )


if __name__ == "__main__":
    main()
