"""End-to-end benchmark of the PIBE reproduction.

    python3 perfbench/run.py --workload paper-fast --seed 7 --seconds 60 \
        --trace 0

Run from the root of a checkout. Workloads (see ``perfbench/README.md``):

- ``paper-fast``: the 14 experiments of ``examples/full_evaluation.py
  --fast`` with one job, cold from an empty cache and warm in fresh
  processes;
- ``sweep-ladder``: ``repro sweep --fast -j <nproc>`` over the fast
  grid, cold and warm, then the grid's cells, their lint reports and
  security metrics and a few never-seen keys served by ``repro serve``.

With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` every program process runs under the timing wrappers of
``tracer.py``, ``sweep-ladder`` also times open-loop serve traffic, and
the last line carries the per-layer metrics. Lines before it are a
human-readable summary. Exit status 2 means the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import helpers  # noqa: E402
import loadgen  # noqa: E402
import tracer  # noqa: E402

REFERENCE = HERE / "reference"
#: The seed the committed reference outputs were rendered at.
REFERENCE_SEED = 7
WORKLOADS = ("paper-fast", "sweep-ladder")

#: A round is a batch of set-up launches, a cold pass and this many warm
#: passes. paper-fast's warm pass costs half its cold one, sweep-ladder's
#: a third.
WARM_PASSES = {"paper-fast": 1, "sweep-ladder": 2}
#: Set-up launches per ``setup_s`` sample (see :func:`setup_batch`).
SETUP_BATCH = 3

#: The ``fast`` sweep preset spelled out, so that the run seed can set
#: its seed base: 3 defenses x 3 budgets x 2 workloads x 2 seeds.
SWEEP_GRID = {
    "budgets": [0.5, 0.9, 0.999999],
    "defenses": ["retpolines", "llvm-cfi", "all"],
    "workloads": ["lmbench", "apache"],
    "scales": ["small"],
    "seeds": 2,
}

# -- serving phase (sweep-ladder) ---------------------------------------------

#: Time a run keeps back from its pass rounds for the serving fill.
SERVE_RESERVE_S = 5.0
#: Ops asked for each grid cell in the fill; lint twice at once, so that
#: single-flight coalesces the pair.
FILL_OPS = ("measure", "lint", "lint", "security")
#: Never-seen keys in the fill: one batched dispatch through prefix
#: deltas, the engine and cache writes.
FILL_MISSES = 4
MISS_DEFENSES = ("retpolines", "all", "lvi", "ret-retpolines")
MISS_BUDGETS = (0.85, 0.995)
ZIPF_S = 1.1
#: Latency limit of the timed traffic (traced runs only).
LIMIT_MS = 1000.0
#: (rate/s, requests) of the untimed warm-up and the two fixed rates;
#: each rate's requests are cut into ``CHUNKS`` chunks.
WARMUP = (1000, 1000)
LIGHT = (1000, 6000)
HEAVY = (2000, 6000)
CHUNKS = 6
#: ``max_rps`` ladder (rates/s), each rung ``RUNG_SECONDS`` long.
LADDER = (2500, 3000, 3500, 4000, 4500)
RUNG_SECONDS = 0.5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- process plumbing ---------------------------------------------------------


@dataclass
class Env:
    """Where a run keeps its caches, sockets and spans (all relative to
    the checkout root, the children's working directory). ``probe``
    makes measured children probe the host's speed."""

    work: Path
    seed: int
    seconds: float
    trace_dir: Optional[Path] = None
    jobs: int = field(default_factory=nproc)
    probe: bool = True

    def child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = str(Path("src").resolve())
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    def argv(self, *args: str, traced: bool = True,
             probe_dir: Optional[str] = None) -> List[str]:
        cmd = [sys.executable, str(HERE / "child.py")]
        if traced and self.trace_dir is not None:
            cmd += ["--trace", str(self.trace_dir)]
        if probe_dir is not None:
            cmd += ["--probe-dir", probe_dir]
        return cmd + list(args)


@dataclass
class ChildRun:
    """One finished child: wall time and time until it printed ``READY``
    (None if it did not), in seconds since it was spawned, exit status,
    and the speed probes its processes took."""

    wall: float
    rc: int
    ready: Optional[float]
    probes: List[float]

    def normalized(self, seconds: Optional[float] = None) -> float:
        """``seconds`` (default: the wall time) at the reference host
        speed; plain seconds when the child took no probes."""
        return (self.wall if seconds is None else seconds) \
            * helpers.speed_factor(self.probes)


def run_child(
    env: Env, args: List[str], traced: bool = True,
    stderr_path: Optional[Path] = None, timeout: float = 150.0,
) -> ChildRun:
    """Run one measured child to completion, noting when it prints
    ``READY`` and, when ``env.probe`` is set, collecting its speed
    probes."""
    probe_dir = tempfile.mkdtemp(prefix="probes-", dir=env.work) \
        if env.probe else None
    start = time.perf_counter()
    err = open(stderr_path, "w") if stderr_path else subprocess.DEVNULL
    try:
        proc = subprocess.Popen(
            env.argv(*args, traced=traced, probe_dir=probe_dir),
            env=env.child_env(), stdout=subprocess.PIPE, stderr=err,
            text=True,
        )
        ready = None
        try:
            for line in proc.stdout:
                if line.strip() == "READY":
                    ready = time.perf_counter() - start
            rc = proc.wait(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
    finally:
        if stderr_path:
            err.close()
    wall = time.perf_counter() - start
    probes: List[float] = []
    if probe_dir is not None:
        for path in sorted(Path(probe_dir).iterdir()):
            probes += [float(x) for x in path.read_text().split()]
        shutil.rmtree(probe_dir)
    return ChildRun(wall, rc, ready, probes)


def dir_mb(path: Path) -> float:
    return sum(
        p.stat().st_size for p in path.rglob("*") if p.is_file()
    ) / 1e6


def peak_rss_mb() -> float:
    """Largest RSS of any waited-for descendant (pool workers included:
    each process's figure folds into its parent's when it is reaped)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Server:
    """A ``repro serve`` child on a unix socket."""

    def __init__(self, env: Env, name: str, cache: Path, seed: int) -> None:
        self.sock = str(env.work / f"{name}.sock")
        args = ["serve", "--seed", str(seed), "--cache", str(cache),
                "--unix", self.sock, "--jobs", str(env.jobs)]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            env.argv(*args), env=env.child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            self.ready_s = self._wait_ready()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until the first ``ping`` is answered."""
        deadline = self.start + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited during start-up")
            if os.path.exists(self.sock):
                try:
                    reply = self.call("ping", timeout=5.0)
                except (ConnectionError, OSError):
                    reply = None
                if reply and reply.get("ok"):
                    return time.perf_counter() - self.start
            time.sleep(0.005)
        raise RuntimeError("server did not become ready")

    def call(self, op: str, params=None, timeout: float = 120.0):
        return asyncio.run(
            loadgen.request_once(self.sock, op, params, timeout)
        )

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.call("shutdown", timeout=10.0)
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired, ValueError):
            self.proc.kill()
            self.proc.wait()


# -- results ------------------------------------------------------------------


@dataclass
class Result:
    """Samples and counts one run collects."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    values: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what and len(self.notes) < 20:
                self.notes.append(f"FAILED: {what}")


UNITS = {
    "setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB",
    "cache_mb": "MB",
}


# -- serve traffic ------------------------------------------------------------


def config_params(defense: str, budget: float) -> Dict[str, Any]:
    """Wire form of a hardened config (``defense`` named as in sweep
    grids), via the protocol's own codec."""
    from repro.core.config import PibeConfig
    from repro.evaluation.sweepengine import defense_from_name
    from repro.serve.protocol import config_to_dict

    return config_to_dict(PibeConfig.hardened(
        defense_from_name(defense), icp_budget=budget, inline_budget=budget
    ))


def key_of(op: str, params: Dict[str, Any]) -> str:
    return op + ":" + json.dumps(params, sort_keys=True)


def make_request_factory(seed: int, cells: List[Dict[str, Any]]) -> Callable:
    """``make(kind, rng)`` for :func:`loadgen.phase_requests`: a ``hit``
    is a Zipf-popular cell (popularity order shuffled by the seed), a
    ``miss`` a config with a budget never asked for before."""
    order = list(range(len(cells)))
    random.Random(seed).shuffle(order)
    cdf = loadgen.zipf_cdf(len(cells), ZIPF_S)
    lo, hi = MISS_BUDGETS
    used = set()

    def make(kind: str, rng: random.Random):
        if kind == "hit":
            hot = cells[order[loadgen.pick(rng, cdf)]]
            return "measure", hot, key_of("measure", hot)
        while True:
            budget = round(rng.uniform(lo, hi), 6)
            params = {
                "config": config_params(rng.choice(MISS_DEFENSES), budget),
                "workload": "lmbench",
            }
            key = key_of("measure", params)
            if key not in used:
                used.add(key)
                return "measure", params, key

    return make


def response_value(req: loadgen.Request) -> Any:
    """The part of a response that must repeat for a repeated key (the
    ``cached`` flag and lint cache statistics legitimately change)."""
    result = (req.response or {}).get("result") or {}
    if req.op == "measure":
        return result.get("results")
    if req.op == "lint":
        return result.get("report")
    return result.get("metrics")


def check_responses(res: Result, reqs: List[loadgen.Request],
                    seen: Dict[str, Any]) -> None:
    """Each request is one operation: it fails on an error envelope, no
    answer, a value different from an earlier answer for the same key,
    or a hit (a cell the batch measured) not answered from the cache."""
    for req in reqs:
        ok = req.sample.ok and req.response is not None
        value = response_value(req) if ok else None
        what = f"{req.op} {req.kind}"
        if ok and req.key in seen and seen[req.key] != value:
            ok, what = False, what + " differs from an earlier answer"
        if ok and req.kind == "hit" and req.op == "measure" \
                and not req.response["result"].get("cached"):
            ok, what = False, what + " was not served from the cache"
        if ok:
            seen.setdefault(req.key, value)
        elif req.response is not None and not req.sample.ok:
            what += " error: " + json.dumps(req.response.get("error"))[:200]
        res.op(ok, what)


def drive(server: Server, reqs: List[loadgen.Request]) -> None:
    # A collection pause in the generator would be charged to the
    # server as latency; collect between phases instead.
    gc.collect()
    gc.disable()
    try:
        asyncio.run(loadgen.drive(server.sock, reqs, connections=nproc()))
    finally:
        gc.enable()


def fill(server: Server, env: Env, cells, res: Result, seen) -> None:
    """Every op in :data:`FILL_OPS` on every cell, plus
    :data:`FILL_MISSES` never-seen keys, all due at once: the misses
    share one batched dispatch (prefix deltas, the engine, cache writes)
    and a repeated op on a cell coalesces through single-flight."""
    reqs = []
    for cell in cells:
        for op in FILL_OPS:
            params = cell if op == "measure" else {
                "config": cell["config"], "workload": cell["workload"]}
            reqs.append(loadgen.Request(0.0, op, params, key_of(op, params),
                                        "hit"))
    make = make_request_factory(env.seed, cells)
    rng = random.Random(env.seed)
    for _ in range(FILL_MISSES):
        op, params, key = make("miss", rng)
        reqs.append(loadgen.Request(0.0, op, params, key, "miss"))
    drive(server, reqs)
    check_responses(res, reqs, seen)
    res.values["miss_ms"] = helpers.median([
        req.sample.latency * 1000.0 for req in reqs
        if req.kind == "miss" and req.sample.latency is not None
    ] or [0.0])


def traffic(server: Server, env: Env, cells, res: Result, seen) -> None:
    """Open-loop hit traffic at two fixed rates (``light``, ``heavy``) and
    the ``max_rps`` ladder; traced runs only, for the ``serve`` layer.

    Each block is a separate open-loop phase with a fixed request count.
    The light and heavy phases are cut into :data:`CHUNKS` chunks
    interleaved with the ladder rungs, in the same order on every run.
    Each chunk is large enough to report its own p99, and a rate's p50
    and p99 are the medians over its chunks, so one slow second of the
    host moves one chunk, not the result. A latency-limit miss is a
    failed operation in the light and heavy phases; rungs beyond
    capacity miss it by design and only decide ``max_rps``.
    """
    make = make_request_factory(env.seed, cells)
    rng = random.Random(env.seed * 7919 + 1)
    fixed = {"light": LIGHT, "heavy": HEAVY}
    chunked: Dict[str, List[helpers.PhaseStats]] = {"light": [], "heavy": []}
    rungs, lags = [], []
    # Untimed warm-up at the light rate: the collections and lazy set-up
    # that follow the fill land here, not in the first chunk.
    rate, count = WARMUP
    reqs = loadgen.phase_requests(rng, rate, ["hit"] * count, make)
    drive(server, reqs)
    check_responses(res, reqs, seen)
    for c in range(CHUNKS):
        blocks = [(name, rate, count // CHUNKS)
                  for name, (rate, count) in fixed.items()]
        blocks += [(f"rung-{rate}", rate, int(rate * RUNG_SECONDS))
                   for rate in LADDER[c::CHUNKS]]
        for name, rate, count in blocks:
            reqs = loadgen.phase_requests(rng, rate, ["hit"] * count, make)
            drive(server, reqs)
            check_responses(res, reqs, seen)
            stats = helpers.summarize_phase(
                [r.sample for r in reqs], rate, LIMIT_MS / 1000.0
            )
            lags.append(stats.lateness_p99_ms)
            if name in chunked:
                chunked[name].append(stats)
                res.failed += stats.limit_misses - stats.errors
                continue
            rungs.append(stats)
            res.notes.append(
                f"{name}: {stats.achieved_rps:.0f} rps achieved, p50 "
                f"{stats.p50_ms or 0:.2f} ms, p99 {stats.tail_ms:.2f} ms, "
                f"{'backlog grew' if stats.backlog_grew else 'kept up'}"
            )
    for name, parts in chunked.items():
        for metric in ("p50_ms", "p99_ms"):
            values = [getattr(p, metric) for p in parts]
            if None in values:
                res.notes.append(f"{metric}.{name}: too few samples")
                continue
            res.values[f"{metric}.{name}"] = helpers.median(values)
            res.values[f"samples.serve.{metric}.{name}"] = sum(
                p.samples for p in parts)
        res.notes.append(
            f"{name}: {fixed[name][0]} rps, per-chunk p50 "
            f"{[round(p.p50_ms or 0, 2) for p in parts]} ms, p99 "
            f"{[round(p.p99_ms or 0, 1) for p in parts]} ms"
        )
    res.values["max_rps"] = helpers.max_rps(rungs, LIMIT_MS)
    res.values["gen_lag_ms"] = max(lags)


#: Per-layer ``serve`` metrics the load generator measures, and units.
TRAFFIC_UNITS = {
    "p50_ms.light": "ms", "p99_ms.light": "ms", "p50_ms.heavy": "ms",
    "p99_ms.heavy": "ms", "max_rps": "1/s", "gen_lag_ms": "ms",
    "miss_ms": "ms",
}


def serve_layer(stats: Optional[Dict[str, Any]], values: Dict[str, float]
                ) -> Dict[str, Tuple[float, str]]:
    """The ``serve`` per-layer metrics: counters from the public ``stats``
    op and latencies from the load generator (0 for a workload that
    serves nothing)."""
    stats = stats or {"server": {"counters": {}, "endpoints": {}}}
    counters = stats["server"]["counters"]
    measure = stats["server"]["endpoints"].get("measure", {})
    hits = counters.get("inline_hits", 0)
    batches = counters.get("batches", 0)
    out = {
        "serve.inline_hit_ratio": (
            hits / measure["count"] if measure.get("count") else 0.0,
            "ratio"),
        "serve.single_flight_hits": (
            counters.get("single_flight_hits", 0), "count"),
        "serve.batches": (batches, "count"),
        "serve.cells_per_batch": (
            counters.get("cells_evaluated", 0) / batches if batches else 0.0,
            "count"),
        "serve.server_p99_ms": (measure.get("p99_ms", 0.0), "ms"),
        "serve.errors": (counters.get("errors", 0), "count"),
    }
    for name, unit in TRAFFIC_UNITS.items():
        out[f"serve.{name}"] = (values.get(name, 0.0), unit)
    return out


# -- batch workloads ----------------------------------------------------------


def setup_batch(env: Env, res: Result) -> None:
    """One ``setup_s`` sample: the mean time from a fresh process until
    its context is built, at the reference host speed, over
    :data:`SETUP_BATCH` launches in a row."""
    times, walls = [], []
    for _ in range(SETUP_BATCH):
        run = run_child(env, ["ready", "--seed", str(env.seed)],
                        traced=False)
        res.op(run.rc == 0 and run.ready is not None, "setup launch")
        if run.ready is not None:
            times.append(run.normalized(run.ready))
            walls.append(run.ready)
    if times:
        res.add("setup_s", sum(times) / len(times))
        res.add("wall.setup_s", sum(walls) / len(walls))


def paper_pass(env: Env, cache: Path, out: Path) -> ChildRun:
    return run_child(
        env, ["paper", "--seed", str(env.seed), "--cache", str(cache),
              "--out", str(out)], stderr_path=out.with_suffix(".err"),
    )


def sweep_grid(seed: int) -> str:
    return json.dumps(dict(SWEEP_GRID, seed_base=seed))


def sweep_pass(env: Env, cache: Path, out: Path) -> ChildRun:
    return run_child(
        env, ["cli", "--", "sweep", "--grid", sweep_grid(env.seed), "--fast",
              "-j", str(env.jobs), "--cache-dir", str(cache),
              "--csv", str(out), "-o", str(out.with_suffix(".txt"))],
        stderr_path=out.with_suffix(".err"),
    )


def paper_blocks(path: Path) -> List[str]:
    return helpers.split_blocks(
        helpers.normalize_output(path.read_text(encoding="utf-8"))
    )


def csv_rows(path: Path) -> List[str]:
    return path.read_text(encoding="utf-8").splitlines()


def sweep_failed_cells(err: Path) -> int:
    for line in err.read_text(encoding="utf-8").splitlines():
        if line.startswith("sweep stats: "):
            return int(json.loads(line[len("sweep stats: "):])
                       .get("failed_cells", 0))
    return 1  # no stats line: the sweep did not finish


def sweep_cells() -> List[Dict[str, Any]]:
    """Every (defense, budget, workload) cell of the sweep grid."""
    return [
        {"config": config_params(defense, budget), "workload": workload}
        for defense in SWEEP_GRID["defenses"]
        for budget in SWEEP_GRID["budgets"]
        for workload in SWEEP_GRID["workloads"]
    ]


def batch_workload(env: Env, res: Result, kind: str) -> None:
    """Rounds of a set-up batch, one cold pass and :data:`WARM_PASSES`
    warm passes, until the round budget is spent.

    Every metric thus takes its samples across the whole run rather than
    one stretch of it. A pass's time is its wall time at the reference
    host speed, measured by the speed probes of its processes; the plain
    wall time is kept beside it as ``wall.<metric>``. sweep-ladder then
    serves its grid's cells from the warm cache.
    """
    run_pass = paper_pass if kind == "paper-fast" else sweep_pass
    suffix = ".txt" if kind == "paper-fast" else ".csv"
    read = paper_blocks if kind == "paper-fast" else csv_rows
    reference = None
    if env.seed == REFERENCE_SEED:
        reference = read(REFERENCE / (kind + suffix))

    started = time.perf_counter()
    budget = env.seconds - (SERVE_RESERVE_S if kind == "sweep-ladder" else 0)
    first = None
    i = 0
    while True:
        cache = env.work / f"cache-{i}"
        outputs = []
        setup_batch(env, res)
        for phase in ["cold"] + ["warm"] * WARM_PASSES[kind]:
            out = env.work / f"{phase}-{i}{suffix}"
            run = run_pass(env, cache, out)
            res.add(f"{phase}_s", run.normalized())
            res.add(f"wall.{phase}_s", run.wall)
            ok = run.rc == 0 and out.exists()
            got = read(out) if ok else []
            if kind == "sweep-ladder" and ok:
                res.failed += sweep_failed_cells(out.with_suffix(".err"))
            # One operation per table / CSV row: it must equal the
            # committed reference (reference seed only), the cold output
            # (warm passes) and the first round's output (same seed).
            want = reference or first or got
            bad = helpers.count_mismatches(got, want) if ok else len(want)
            if outputs:
                bad = max(bad, helpers.count_mismatches(got, outputs[0]))
            for j in range(max(len(want), 1)):
                res.op(ok and j >= bad, f"{kind} {phase} output {j}")
            outputs.append(got)
            if phase == "cold":
                res.add("cache_mb", dir_mb(cache))
        first = first or outputs[0]
        i += 1
        elapsed = time.perf_counter() - started
        # A traced run makes exactly one round, so its counts repeat.
        if env.trace_dir is not None or elapsed + elapsed / i > budget:
            break
    # Set-up batches are short: the time no full round fits in goes to
    # more of them.
    while env.trace_dir is None and time.perf_counter() - started \
            + SETUP_BATCH * helpers.median(res.samples["wall.setup_s"]) \
            < budget:
        setup_batch(env, res)
    res.values["peak_rss_mb"] = peak_rss_mb()
    if kind != "sweep-ladder":
        return

    # Served from the warm cache, every hit must come from the cache and
    # every repeated key must get the same answer.
    cells = sweep_cells()
    server = Server(env, "serve", env.work / "cache-0", seed=env.seed)
    try:
        seen: Dict[str, Any] = {}
        fill(server, env, cells, res, seen)
        if env.trace_dir is not None:
            traffic(server, env, cells, res, seen)
        res.values["server_stats"] = server.call("stats")["result"]
    finally:
        server.stop()


# -- entry --------------------------------------------------------------------


def run_workload(name: str, env: Env) -> Result:
    res = Result()
    batch_workload(env, res, name)
    for metric, samples in res.samples.items():
        res.values[metric] = helpers.median(samples)
        res.values[f"samples.{metric}"] = len(samples)
    return res


def traced_run(name: str, env: Env) -> Result:
    """One untraced cold pass for the overhead baseline, then the whole
    workload under the timing wrappers."""
    base = Env(env.work / "untraced", env.seed, env.seconds, probe=False)
    base.work.mkdir(parents=True)
    run_pass = paper_pass if name == "paper-fast" else sweep_pass
    plain_cold = run_pass(base, base.work / "cache",
                          base.work / "cold.out").wall
    env.trace_dir = env.work / "spans"
    env.probe = False
    res = run_workload(name, env)
    spans, snaps = tracer.load(env.trace_dir)
    res.layer = tracer.layer_metrics(spans, snaps, env.jobs)
    res.layer["cache.quarantined"] = (
        sum(1 for _ in env.work.glob("cache-*/quarantine/*")), "count"
    )
    res.layer.update(serve_layer(res.values.get("server_stats"),
                                 res.values))
    res.layer["trace.overhead_s"] = (
        res.samples["wall.cold_s"][0] - plain_cold, "s"
    )
    trace_file = env.work / "trace.json"
    trace_file.write_text(json.dumps(tracer.chrome_trace(spans)))
    res.notes.append(f"chrome trace: {trace_file} ({len(spans)} spans)")
    return res


def stamp() -> Dict[str, Any]:
    """git, nproc and Python version of the measurement."""
    meta: Dict[str, Any] = {"git": None, "dirty": None}
    # git must not look above the checkout for a repository.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(Path.cwd().parent)
    try:
        sys.path.insert(0, str(Path("benchmarks").resolve()))
        import _meta

        meta = _meta.git_metadata()
    except ImportError:
        pass
    meta.update(nproc=nproc(), python=platform.python_version())
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: no program under src/repro in the working "
              "directory; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))

    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = Env(work.relative_to(Path.cwd()) if work.is_relative_to(
        Path.cwd()) else work, args.seed, args.seconds)
    res = traced_run(args.workload, env) if args.trace else run_workload(
        args.workload, env
    )

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   sorted(res.layer.items())}
    else:
        metrics = {k: {"value": res.values[k], "unit": u}
                   for k, u in UNITS.items() if k in res.values}
    res.failed = min(res.failed, res.attempted)
    correct = res.failed == 0 and len(metrics) == (
        len(res.layer) if args.trace else len(UNITS)
    )
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "stamp": stamp(), "fail_ratio": res.failed / max(res.attempted, 1),
        "sample_counts": {k: v for k, v in res.values.items()
                          if k.startswith("samples.")},
        "samples": res.samples,
        "metrics": metrics, "notes": res.notes,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2))
    for note in res.notes:
        print(note)
    for name, m in metrics.items():
        count = res.values.get(f"samples.{name}")
        extra = f"  (n={count})" if count else ""
        print(f"{args.workload:13s} {name:28s} {m['value']:14.6g} "
              f"{m['unit']}{extra}")
    for name in ("setup_s", "cold_s", "warm_s"):
        if not args.trace and f"wall.{name}" in res.values:
            print(f"{args.workload:13s} {'wall.' + name:28s} "
                  f"{res.values['wall.' + name]:14.6g} s  "
                  f"(plain wall time, not speed-normalised)")
    print(f"{args.workload:13s} {'fail_ratio':28s} "
          f"{record['fail_ratio']:14.6g} ratio  "
          f"({res.failed}/{res.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": max(res.attempted, 1),
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
