"""Outside-in tracing: timing wrappers around the program's public calls.

:func:`install` runs in a benchmark child process before the program
does any work. It imports every ``repro`` module and replaces each
target function or method with a wrapper that records one span per
call: name, start, duration, parent span, process and thread. Because
the wrappers are installed before the harness forks its pool workers,
workers inherit them and trace themselves too.

Every process appends its spans to its own ``spans-<pid>.jsonl`` in the
trace directory as they finish, so a worker killed mid-run loses nothing
it already recorded. Counters the program exposes publicly
(``PibePipeline.stats``) are snapshotted into the same files after each
worker cell and when the process exits.

:func:`load` and :func:`layer_metrics` run in the benchmark process and
turn the span files into the per-layer metrics and a Chrome trace-event
file. Targets that no longer exist in the program are skipped and
reported by name instead of failing the run.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from helpers import self_times

#: Experiments of the paper run, by the name their table function has.
EXPERIMENTS = (
    "figure1", "table1", "table2", "table3", "table4", "table5", "table6",
    "table7", "table8", "table9", "table10", "table11", "table12",
    "robustness",
)


def _measure_many_attrs(result: Any) -> Dict[str, Any]:
    report = getattr(result, "failure_report", None)
    return {
        "cells": len(result) if result is not None else 0,
        "retries": getattr(report, "retries", 0),
        "failed": len(getattr(report, "failures", ())),
    }


def _cache_get_attrs(result: Any) -> Dict[str, Any]:
    return {"hit": result is not None}


def _sweep_attrs(result: Any) -> Dict[str, Any]:
    stats = getattr(result, "stats", {}) or {}
    return {
        k: stats.get(k, 0)
        for k in ("cells_requested", "dedup_hits", "contexts")
    }


#: (module, dotted attribute, span name, attrs-from-result or None).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.kernel.generator", "build_kernel", "kernel.build", None),
    ("repro.core.pipeline", "PibePipeline.profile", "profiling.profile",
     None),
    ("repro.core.pipeline", "PibePipeline.build_variant", "pipeline.variant",
     None),
    ("repro.core.pipeline", "PibePipeline.warm_prefix", "pipeline.warm",
     None),
    ("repro.core.pipeline", "PibePipeline.prefix_state",
     "pipeline.prefix_state", None),
    # The prefix (lower/lift/ICP/inline/DCE) is built inside both public
    # entry points above; this is the one call that isolates it.
    ("repro.core.pipeline", "PibePipeline._optimized_prefix",
     "pipeline.prefix", None),
    ("repro.passes.decisions", "seed_function", "passes.seed", None),
    ("repro.passes.inliner", "apply_inline_steps", "passes.inline_apply",
     None),
    ("repro.hardening.harden", "HardeningPass.run", "hardening.stamp", None),
    ("repro.workloads.base", "measure_benchmark", "engine.measure", None),
    ("repro.evaluation.cache", "DiskCache.get", "cache.get",
     _cache_get_attrs),
    ("repro.evaluation.cache", "DiskCache.put", "cache.put", None),
    ("repro.evaluation.harness", "EvalContext.measure_many",
     "harness.measure_many", _measure_many_attrs),
    ("repro.evaluation.harness", "EvalContext.prewarm_prefixes",
     "harness.prewarm", None),
    ("repro.evaluation.harness", "_measure_cell", "harness.worker_cell",
     None),
    ("repro.evaluation.harness", "_prewarm_prefix_cell",
     "harness.worker_cell", None),
    ("repro.evaluation.harness", "_lint_shard_cell", "harness.worker_cell",
     None),
    ("repro.evaluation.harness", "EvalContext.lint", "static.lint", None),
    ("repro.analysis.security", "security_metrics", "analysis.security",
     None),
    ("repro.evaluation.sweepengine", "run_sweep", "sweep.run",
     _sweep_attrs),
) + tuple(
    ("repro.evaluation.tables", name, f"tables.{name}", None)
    for name in EXPERIMENTS
)

#: Spans under which an interpreter is part of a measured cell or a
#: profile; interpreters created anywhere else run the "direct" engine
#: path (Tables 1 and 7 and the size table's stack probe).
_MEASURED_SCOPES = ("engine.measure", "profiling.profile")


class _Recorder:
    """Per-process span sink (re-opened after fork)."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.pid = -1
        self.handle = None
        self.ids = itertools.count()
        self.local = threading.local()
        self.lock = threading.Lock()
        self.pipelines: List[Any] = []
        #: ``id(pipeline) -> stats`` as inherited at fork; a process
        #: reports only the counts it added itself.
        self.baseline: Dict[int, Dict[str, Any]] = {}

    def stack(self) -> List[Tuple[str, str]]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def after_fork(self) -> None:
        self.local = threading.local()
        self.pid = -1
        self.handle = None
        self.lock = threading.Lock()
        # Pipelines built before the fork carry the parent's counts,
        # which the parent reports itself.
        self.baseline = {
            id(p): dict(getattr(p, "stats", {})) for p in self.pipelines
        }

    def write(self, record: Dict[str, Any]) -> None:
        with self.lock:
            if self.pid != os.getpid():
                self.pid = os.getpid()
                self.handle = open(
                    self.directory / f"spans-{self.pid}.jsonl",
                    "a",
                    buffering=1,
                    encoding="utf-8",
                )
            self.handle.write(json.dumps(record) + "\n")

    def snapshot(self) -> None:
        totals: Dict[str, int] = {}
        for pipeline in self.pipelines:
            base = self.baseline.get(id(pipeline), {})
            for key, value in getattr(pipeline, "stats", {}).items():
                totals[key] = totals.get(key, 0) + value - base.get(key, 0)
        self.write({"snap": totals, "pid": os.getpid()})


_RECORDER: Optional[_Recorder] = None


def _wrap(func: Callable, name: str, attrs_of: Optional[Callable]):
    rec = _RECORDER

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        stack = rec.stack()
        span_id = f"{os.getpid()}-{next(rec.ids)}"
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        wall = time.time()
        start = time.perf_counter()
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            record = {
                "name": name, "id": span_id, "parent": parent,
                "pid": os.getpid(), "tid": threading.get_ident(),
                "start": wall, "dur": dur,
            }
            if attrs_of is not None:
                try:
                    record["attrs"] = attrs_of(result)
                except Exception:  # noqa: BLE001 — tracing must not fail
                    pass
            if name == "cache.put":
                record["attrs"] = {"bytes": _put_bytes(args, kwargs)}
            rec.write(record)
            if name == "harness.worker_cell":
                rec.snapshot()

    return wrapper


def _put_bytes(args, kwargs) -> int:
    text = kwargs.get("text")
    if text is None and len(args) > 4:
        text = args[4]
    if text is None:
        payload = kwargs.get("payload", args[3] if len(args) > 3 else None)
        text = json.dumps(payload)
    return len(text.encode("utf-8")) if isinstance(text, str) else len(text)


def _wrap_create_interpreter(func: Callable):
    rec = _RECORDER

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        interp = func(*args, **kwargs)
        scopes = {n for _, n in rec.stack()}
        if not scopes.intersection(_MEASURED_SCOPES):
            interp._perfbench_direct = True
        return interp

    return wrapper


def _wrap_direct_run(func: Callable):
    """Time interpreter runs of directly created interpreters only; the
    outermost run is the span (``run_syscall`` calls ``run_function``)."""
    rec = _RECORDER
    timed = _wrap(func, "engine.direct", None)

    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        if not getattr(self, "_perfbench_direct", False) or any(
            n == "engine.direct" for _, n in rec.stack()
        ):
            return func(self, *args, **kwargs)
        return timed(self, *args, **kwargs)

    return wrapper


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every module-level alias of ``original`` in ``repro``
    (``from x import f`` copies the binding into the importer)."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(directory: Path) -> List[str]:
    """Wrap every target; returns the targets that could not be found."""
    global _RECORDER
    directory.mkdir(parents=True, exist_ok=True)
    _RECORDER = _Recorder(directory)
    os.register_at_fork(after_in_child=_RECORDER.after_fork)
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except Exception:  # noqa: BLE001 — optional deps (numpy, ...)
            pass
    missing: List[str] = []
    for mod_name, dotted, name, attrs_of in TARGETS:
        module = sys.modules.get(mod_name)
        owner: Any = module
        parts = dotted.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, parts[-1], None) if owner else None
        if original is None:
            missing.append(f"{mod_name}.{dotted}")
            continue
        wrapped = _wrap(original, name, attrs_of)
        if len(parts) > 1:
            setattr(owner, parts[-1], wrapped)
        else:
            _replace_everywhere(original, wrapped)

    from repro.core import pipeline as pipeline_mod
    from repro.engine import compiled, interpreter

    original = compiled.create_interpreter
    _replace_everywhere(original, _wrap_create_interpreter(original))
    classes = {
        obj
        for mod in (interpreter, compiled,
                    sys.modules.get("repro.engine.vectorized"))
        if mod is not None
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, interpreter.Interpreter)
    }
    for cls in classes:
        for method in ("run_function", "run_syscall"):
            if method in vars(cls):
                setattr(cls, method, _wrap_direct_run(vars(cls)[method]))

    init = pipeline_mod.PibePipeline.__init__

    @functools.wraps(init)
    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _RECORDER.pipelines.append(self)

    pipeline_mod.PibePipeline.__init__ = tracked_init
    atexit.register(_RECORDER.snapshot)
    return missing


# -- merge (benchmark side) ---------------------------------------------------


def load(directory: Path) -> Tuple[List[Dict], Dict[int, Dict[str, int]]]:
    """All spans, and the last counter snapshot of each process."""
    spans: List[Dict] = []
    snaps: Dict[int, Dict[str, int]] = {}
    for path in sorted(directory.glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a line torn by a killed process
            if "snap" in record:
                snaps[record["pid"]] = record["snap"]
            else:
                spans.append(record)
    return spans, snaps


def chrome_trace(spans: List[Dict]) -> Dict[str, Any]:
    """Chrome trace-event JSON (complete events, microseconds)."""
    return {
        "traceEvents": [
            {
                "name": s["name"],
                "cat": s["name"].split(".")[0],
                "ph": "X",
                "ts": s["start"] * 1e6,
                "dur": s["dur"] * 1e6,
                "pid": s["pid"],
                "tid": s["tid"],
                "args": dict(s.get("attrs") or {}, id=s["id"],
                             parent=s["parent"]),
            }
            for s in spans
        ],
        "displayTimeUnit": "ms",
    }


def _outermost(spans: List[Dict]) -> List[Dict]:
    """Spans with no ancestor of the same name (recursion and nested
    wrappers would otherwise count their time twice)."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != s["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(s)
    return out


#: Layer of each span name, for the self-time breakdown.
LAYERS = ("kernel", "profiling", "pipeline", "passes", "hardening",
          "engine", "cache", "harness", "tables", "sweep", "static",
          "analysis")


def layer_metrics(
    spans: List[Dict], snaps: Dict[int, Dict[str, int]], jobs: int
) -> Dict[str, Tuple[float, str]]:
    """The span- and counter-derived per-layer metrics, by name."""
    top = _outermost(spans)

    def total(name: str) -> float:
        return sum(s["dur"] for s in top if s["name"] == name)

    def count(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    def attr_sum(name: str, key: str) -> float:
        return sum(
            (s.get("attrs") or {}).get(key, 0)
            for s in spans if s["name"] == name
        )

    counters: Dict[str, int] = {}
    for snap in snaps.values():
        for key, value in snap.items():
            counters[key] = counters.get(key, 0) + value
    reused = counters.get("prefix_memory_hits", 0) + counters.get(
        "prefix_disk_hits", 0
    )
    built = counters.get("prefix_builds", 0) + counters.get(
        "prefix_delta_builds", 0
    )
    gets = count("cache.get")
    # Wall time during which the pool had work handed to it: cell
    # fan-outs, prefix prewarms and sharded lints.
    fanout = (total("harness.measure_many") + total("harness.prewarm")
              + total("static.lint"))
    busy = total("harness.worker_cell")
    m: Dict[str, Tuple[float, str]] = {
        "kernel.build_s": (total("kernel.build"), "s"),
        "profiling.profile_s": (total("profiling.profile"), "s"),
        "profiling.runs": (count("profiling.profile"), "count"),
        "pipeline.variant_s": (total("pipeline.variant"), "s"),
        "pipeline.prefix_s": (total("pipeline.prefix"), "s"),
        "pipeline.prefix_builds": (counters.get("prefix_builds", 0), "count"),
        "pipeline.prefix_delta_builds": (
            counters.get("prefix_delta_builds", 0), "count"),
        "pipeline.prefix_reuse_ratio": (
            reused / (reused + built) if reused + built else 0.0, "ratio"),
        "pipeline.chunks_decoded": (
            counters.get("prefix_chunks_decoded", 0), "count"),
        "pipeline.decode_failures": (
            counters.get("prefix_decode_failures", 0), "count"),
        "passes.seed_s": (total("passes.seed"), "s"),
        "passes.inline_apply_s": (total("passes.inline_apply"), "s"),
        "hardening.stamp_s": (total("hardening.stamp"), "s"),
        "hardening.stamps": (count("hardening.stamp"), "count"),
        "engine.measure_s": (total("engine.measure"), "s"),
        "engine.measures": (count("engine.measure"), "count"),
        "engine.direct_s": (total("engine.direct"), "s"),
        "cache.gets": (gets, "count"),
        "cache.get_s": (total("cache.get"), "s"),
        "cache.hit_ratio": (
            attr_sum("cache.get", "hit") / gets if gets else 0.0, "ratio"),
        "cache.puts": (count("cache.put"), "count"),
        "cache.put_s": (total("cache.put"), "s"),
        "cache.put_mb": (attr_sum("cache.put", "bytes") / 1e6, "MB"),
        "harness.measure_many_s": (total("harness.measure_many"), "s"),
        "harness.cells": (attr_sum("harness.measure_many", "cells"),
                          "count"),
        "harness.cell_retries": (
            attr_sum("harness.measure_many", "retries"), "count"),
        "harness.failed_cells": (
            attr_sum("harness.measure_many", "failed"), "count"),
        "harness.prewarm_s": (total("harness.prewarm"), "s"),
        "harness.worker_busy_s": (busy, "s"),
        "harness.pool_util": (
            busy / (jobs * fanout) if busy and fanout else 0.0, "ratio"),
        "sweep.cells_requested": (
            attr_sum("sweep.run", "cells_requested"), "count"),
        "sweep.dedup_hits": (attr_sum("sweep.run", "dedup_hits"), "count"),
        "sweep.contexts": (attr_sum("sweep.run", "contexts"), "count"),
        "static.lint_s": (total("static.lint"), "s"),
        "analysis.security_s": (total("analysis.security"), "s"),
    }
    for name in EXPERIMENTS:
        m[f"tables.{name}_s"] = (total(f"tables.{name}"), "s")
    own = self_times(spans)
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (
            sum(own[s["id"]] for s in spans
                if s["name"].split(".")[0] == layer),
            "s",
        )
    return m
