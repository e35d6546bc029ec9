"""Build-engine benchmarks: staged sweeps, delta ladders, prewarmed grids.

Three benchmarks, all recording to ``BENCH_build.json`` at the repo root:

- ``staged_variant_build``: the defense sweep the staged engine exists
  for — N hardening configurations at one shared optimization budget.
  The monolithic reference build (:mod:`repro.core.reference`) re-runs
  ICP + inlining per variant; the pipeline runs them once per distinct
  optimization prefix and stamps each defense onto a copy-on-write
  clone. Measured three ways (monolithic, staged against an empty cache,
  staged against the populated cache).
- ``prefix_delta_ladder``: the budget ladder the incremental engine
  exists for — one profile, many budgets in the fine-grained tuning
  regime. The cold arm builds every prefix through the reference pass
  list; the delta arm derives each budget from the shared decision basis,
  re-transforming only touched functions. Timed over ``warm_prefix``
  (prefix derivation only — the hardening stamp is identical in both
  arms), with the bar on the *added* budgets (everything after the
  first, which pays basis construction in both arms' place).
- ``prefix_prewarm_sweep``: a cold fast-grid sweep with this engine's
  full machinery — parallel prefix prewarming over delta-derived
  budget slices, then a parallel measurement fan-out over the warmed
  cache — versus the pre-incremental serial sweep that builds every
  prefix cold (with the reference pass list) inside the measurement
  loop.

Runs as a pytest benchmark (``pytest benchmarks/bench_build.py``,
``REPRO_BENCH_FAST=1`` for the small kernel) or as a script
(``python benchmarks/bench_build.py [--fast] [--strict-git]``), which
records all three.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict
from unittest import mock

if __package__ in (None, ""):  # script mode: make `from _meta import` work
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from _meta import stamp, write_record

from repro.core.config import PibeConfig
from repro.core.pipeline import PibePipeline, PrefixEntry, PrefixKey
from repro.core.reference import reference_build, reference_prefix
from repro.evaluation.cache import DiskCache
from repro.evaluation.harness import EvalContext, EvalSettings
from repro.evaluation.sweepengine import SweepGrid, llvm_cfi_only, run_sweep
from repro.hardening.defenses import DefenseConfig
from repro.kernel.generator import build_kernel
from repro.kernel.spec import DEFAULT_SPEC, SmallSpec
from repro.workloads.lmbench import BY_NAME, lmbench_workload

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_build.json"

#: The sweep: every defense selection of Table 12 at one lax budget.
DEFENSES = (
    DefenseConfig.none(),
    DefenseConfig.retpolines_only(),
    DefenseConfig.ret_retpolines_only(),
    DefenseConfig.lvi_only(),
    DefenseConfig.all_defenses(),
)

#: Acceptance bar: a cold staged sweep (prefix builds + disk writes +
#: stamps) must beat the monolithic sweep by at least this factor.
MIN_COLD_SPEEDUP = 1.5

#: Timing repetitions; each mode reports its fastest run.
REPS = 2

#: Budget ladder for the delta benchmark: one profile, many budgets, in
#: the fine-grained tuning regime the delta engine targets — decisions
#: touch a bounded slice of the module, so the apply phase stays small.
#: (Near budget 1.0 the decisions touch almost every function and the
#: apply phase is irreducible in both arms; the staged/prewarm benchmarks
#: cover that end of the range.)
DELTA_BUDGETS = (0.3, 0.4, 0.5, 0.6, 0.7)

#: Acceptance bar: deriving an *added* budget from the shared decision
#: basis must be at least this much cheaper than a cold build of it.
MIN_DELTA_SPEEDUP = 3.0

#: Acceptance bar: the cold fast-grid sweep with parallel prefix prewarm
#: (and the incremental engine) vs the same sweep with neither.
MIN_PREWARM_SPEEDUP = 2.0

#: Worker processes for the prewarm sweep's feature arm (the serial arm
#: is, by definition, one). Capped so CI runners aren't oversubscribed.
PREWARM_JOBS = max(2, min(8, os.cpu_count() or 4))


def _sweep(build, configs) -> float:
    start = time.perf_counter()
    for config in configs:
        build(config)
    return time.perf_counter() - start


def _reference_build_prefix(self, key, profile, after_phase=None):
    """Stand-in for ``PibePipeline._build_prefix``: every prefix through
    the reference pass list, the way the pre-incremental engine built it
    (memo, disk cache and stamping are unchanged)."""
    module, reports = reference_prefix(self.baseline, key, profile)
    return PrefixEntry(module=module, reports=reports)


def run_build_bench(fast: bool) -> Dict[str, Any]:
    """Measure the three sweep modes; returns the benchmark record."""
    spec = SmallSpec() if fast else DEFAULT_SPEC
    ops_scale = 0.05 if fast else 0.02
    kernel = build_kernel(spec)
    profile = PibePipeline(kernel).profile(
        lmbench_workload(ops_scale=ops_scale), iterations=1
    )
    configs = [PibeConfig.lax(d) for d in DEFENSES]

    mono = min(
        _sweep(lambda c: reference_build(kernel, c, profile), configs)
        for _ in range(REPS)
    )

    cold = None
    warm = None
    warm_pipeline = None
    warm_cache = None
    for _ in range(REPS):
        with tempfile.TemporaryDirectory(prefix="bench-build-") as tmp:
            cache = DiskCache(Path(tmp))
            cold_pipeline = PibePipeline(kernel, cache=cache)
            t = _sweep(
                lambda c: cold_pipeline.build_variant(c, profile), configs
            )
            cold = t if cold is None else min(cold, t)
            assert cold_pipeline.stats["prefix_builds"] > 0

            warm_cache = DiskCache(Path(tmp))
            warm_pipeline = PibePipeline(kernel, cache=warm_cache)
            t = _sweep(
                lambda c: warm_pipeline.build_variant(c, profile), configs
            )
            warm = t if warm is None else min(warm, t)

    # The warm sweep must be served from the persisted prefixes: disk
    # hits on the "prefix" kind, zero prefix rebuilds.
    prefix_stats = warm_cache.stats()["by_kind"].get("prefix", {})
    assert prefix_stats.get("hits", 0) > 0, warm_cache.stats()
    assert warm_pipeline.stats["prefix_disk_hits"] > 0, warm_pipeline.stats
    assert warm_pipeline.stats["prefix_builds"] == 0, warm_pipeline.stats

    record = {
        "benchmark": "staged_variant_build",
        "kernel": type(spec).__name__,
        "defenses": [d.label() for d in DEFENSES],
        "budget": {"icp": configs[0].icp_budget, "inline": configs[0].inline_budget},
        "reps": REPS,
        "monolithic_seconds": round(mono, 4),
        "staged_cold_seconds": round(cold, 4),
        "staged_warm_seconds": round(warm, 4),
        "cold_speedup": round(mono / cold, 2),
        "warm_speedup": round(mono / warm, 2),
        "min_cold_speedup": MIN_COLD_SPEEDUP,
        "pipeline_stats": dict(warm_pipeline.stats),
        "prefix_cache": prefix_stats,
    }
    return record


def run_delta_bench(fast: bool) -> Dict[str, Any]:
    """Budget ladder: reference pass-list prefixes vs delta derivation."""
    spec = SmallSpec() if fast else DEFAULT_SPEC
    ops_scale = 0.05 if fast else 0.02
    kernel = build_kernel(spec)
    profile = PibePipeline(kernel).profile(
        lmbench_workload(ops_scale=ops_scale), iterations=1
    )
    configs = [
        PibeConfig(
            defenses=DefenseConfig.all_defenses(),
            icp_budget=budget,
            inline_budget=budget,
            lax_heuristics=True,
        )
        for budget in DELTA_BUDGETS
    ]

    # Prefix derivation only: it is what the delta engine accelerates —
    # the hardening stamp downstream is identical in both arms and would
    # only dilute the measurement.
    def timed(build):
        times = []
        for config in configs:
            start = time.perf_counter()
            build(config)
            times.append(time.perf_counter() - start)
        return times

    cold_times = min(
        (
            timed(
                lambda config: reference_prefix(
                    kernel, PrefixKey.from_config(config), profile
                )
            )
            for _ in range(REPS)
        ),
        key=sum,
    )
    delta_runs = []
    for _ in range(REPS):
        delta_pipeline = PibePipeline(kernel)
        delta_runs.append(
            timed(lambda config: delta_pipeline.warm_prefix(config, profile))
        )
    delta_times = min(delta_runs, key=sum)
    assert delta_pipeline.stats["prefix_delta_builds"] == len(configs)

    # The first budget pays decision-basis construction (delta arm) or a
    # plain cold build (cold arm); the engine's claim is about every
    # budget *added* after it.
    added = len(configs) - 1
    cold_added = sum(cold_times[1:]) / added
    delta_added = sum(delta_times[1:]) / added
    return {
        "benchmark": "prefix_delta_ladder",
        "kernel": type(spec).__name__,
        "budgets": list(DELTA_BUDGETS),
        "reps": REPS,
        "cold_ladder_seconds": [round(t, 4) for t in cold_times],
        "delta_ladder_seconds": [round(t, 4) for t in delta_times],
        "cold_added_budget_seconds": round(cold_added, 4),
        "delta_added_budget_seconds": round(delta_added, 4),
        "delta_speedup": round(cold_added / delta_added, 2),
        "min_delta_speedup": MIN_DELTA_SPEEDUP,
        "pipeline_stats": dict(delta_pipeline.stats),
    }


def run_prewarm_bench(fast: bool) -> Dict[str, Any]:
    """Cold fast-grid sweep: this PR's build machinery vs the serial engine.

    The serial arm is the pre-incremental sweep — one worker, every
    optimized prefix built cold through the full pass stack inside the
    measurement loop. The feature arm runs the same grid with the
    machinery this engine adds: parallel prefix prewarming across the
    worker pool, each slice deriving its budgets from a shared decision
    basis, with measurement fanned out over the warmed disk cache. The
    workload profile is seeded into both arms' cache directories up
    front and the (arm-identical) security attachment is skipped, so
    everything timed is build-and-measure work the sweep actually
    changes. Both arms must emit bit-identical CSVs.
    """
    budgets = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.999999)
    grid = SweepGrid(
        budgets=budgets,
        defenses=(
            DefenseConfig.retpolines_only(),
            llvm_cfi_only(),
            DefenseConfig.all_defenses(),
        ),
        workloads=("lmbench",),
        scales=("default",),
        seeds=1,
    )
    benches = [BY_NAME["read"]]
    kernel = build_kernel(DEFAULT_SPEC)
    reps = 1 if fast else REPS

    with tempfile.TemporaryDirectory(prefix="bench-prewarm-") as seed_dir:
        # Profile once and copy the cache entries into each arm: the
        # profile is input to both engines, not work either one changes.
        seed_settings = EvalSettings(
            profile_iterations=1,
            profile_ops_scale=0.02,
            measure_ops_scale=0.02,
            jobs=1,
            cache_dir=seed_dir,
        )
        with EvalContext(seed_settings, kernel=kernel) as ctx:
            ctx.profile("lmbench")

        def arm(jobs: int, prewarm: bool):
            with tempfile.TemporaryDirectory(prefix="bench-prewarm-") as tmp:
                shutil.copytree(
                    Path(seed_dir) / "profile", Path(tmp) / "profile"
                )
                settings = EvalSettings(
                    profile_iterations=1,
                    profile_ops_scale=0.02,
                    measure_ops_scale=0.02,
                    jobs=jobs,
                    cache_dir=tmp,
                )
                start = time.perf_counter()
                result = run_sweep(
                    grid,
                    settings,
                    benches=benches,
                    jobs=jobs,
                    kernels={"default": kernel},
                    prewarm=prewarm,
                    security=False,
                )
                return time.perf_counter() - start, result

        serial_seconds = None
        feature_seconds = None
        serial = feature = None
        for _ in range(reps):
            with mock.patch.object(
                PibePipeline, "_build_prefix", _reference_build_prefix
            ):
                t, serial = arm(1, prewarm=False)
            serial_seconds = t if serial_seconds is None else min(serial_seconds, t)
            t, feature = arm(PREWARM_JOBS, prewarm=True)
            feature_seconds = (
                t if feature_seconds is None else min(feature_seconds, t)
            )
    assert feature.to_csv() == serial.to_csv(), "prewarm CSV diverged"

    return {
        "benchmark": "prefix_prewarm_sweep",
        "fast": fast,
        "budgets": list(budgets),
        "defenses": [d.label() for d in grid.defenses],
        "cells": grid.cell_count,
        "jobs": PREWARM_JOBS,
        "reps": reps,
        "serial_cold_seconds": round(serial_seconds, 4),
        "prewarm_seconds": round(feature_seconds, 4),
        "prewarm_speedup": round(serial_seconds / feature_seconds, 2),
        "min_prewarm_speedup": MIN_PREWARM_SPEEDUP,
        "pipeline_stats": feature.stats["pipeline"],
        "baseline_pipeline_stats": serial.stats["pipeline"],
    }


def _check_staged(record: Dict[str, Any]) -> None:
    assert record["cold_speedup"] >= MIN_COLD_SPEEDUP, (
        f"cold staged sweep only {record['cold_speedup']}x the monolithic "
        f"sweep, bar {MIN_COLD_SPEEDUP}x"
    )


def _check_delta(record: Dict[str, Any]) -> None:
    assert record["delta_speedup"] >= MIN_DELTA_SPEEDUP, (
        f"delta-derived added budget only {record['delta_speedup']}x "
        f"cheaper than a cold build, bar {MIN_DELTA_SPEEDUP}x"
    )


def _check_prewarm(record: Dict[str, Any]) -> None:
    assert record["prewarm_speedup"] >= MIN_PREWARM_SPEEDUP, (
        f"prewarmed cold sweep only {record['prewarm_speedup']}x the "
        f"no-prewarm sweep, bar {MIN_PREWARM_SPEEDUP}x"
    )


def _check_and_write(record, check, strict: bool = None) -> None:
    stamp(record, strict=strict)
    write_record(RECORD_PATH, record)
    print(f"\n{record['benchmark']} benchmark ({RECORD_PATH.name}):")
    print(json.dumps(record, indent=2))
    check(record)


def test_staged_build_sweep():
    fast = bool(os.environ.get("REPRO_BENCH_FAST"))
    _check_and_write(run_build_bench(fast), _check_staged)


def test_prefix_delta_ladder():
    fast = bool(os.environ.get("REPRO_BENCH_FAST"))
    _check_and_write(run_delta_bench(fast), _check_delta)


def test_prefix_prewarm_sweep():
    fast = bool(os.environ.get("REPRO_BENCH_FAST"))
    _check_and_write(run_prewarm_bench(fast), _check_prewarm)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true", help="small kernel, reduced profile"
    )
    parser.add_argument(
        "--strict-git",
        action="store_true",
        help="refuse to record results from a dirty working tree",
    )
    args = parser.parse_args(argv)
    strict = args.strict_git or None
    _check_and_write(run_build_bench(args.fast), _check_staged, strict=strict)
    _check_and_write(run_delta_bench(args.fast), _check_delta, strict=strict)
    _check_and_write(
        run_prewarm_bench(args.fast), _check_prewarm, strict=strict
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
