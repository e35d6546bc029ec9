"""Tests of the benchmark's own helpers (no program under test needed).

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import math
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import helpers  # noqa: E402
from helpers import Sample  # noqa: E402


# -- host-speed normalisation -------------------------------------------------


def test_speed_factor_is_the_mean_relative_speed():
    ref = helpers.REFERENCE_PROBE_S
    assert helpers.speed_factor([ref, 2 * ref]) == 0.75
    assert helpers.speed_factor([]) == 1.0


def test_speed_probe_takes_measurable_time():
    assert 0.0 < helpers.speed_probe() < 1.0


def test_probe_timer_rearms_in_forked_children_and_exits_cleanly(tmp_path):
    script = f"""
import os, sys, time
sys.path.insert(0, {str(Path(__file__).resolve().parents[1])!r})
import child

def busy(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass

child.start_probes({str(tmp_path)!r})
pid = os.fork()
if pid == 0:
    busy(0.5)
    os._exit(0)
busy(0.5)
os.waitpid(pid, 0)
child.stop_probes()
"""
    proc = subprocess.run([sys.executable, "-c", script], timeout=60)
    assert proc.returncode == 0
    files = sorted(tmp_path.iterdir())
    assert len(files) == 2  # the parent's and the forked child's
    for path in files:
        probes = [float(x) for x in path.read_text().split()]
        assert len(probes) >= 2 and all(0.0 < p < 1.0 for p in probes)


# -- percentile and sample-count rule ----------------------------------------


def test_nearest_rank_is_an_actual_sample():
    values = list(range(1, 101))
    assert helpers.nearest_rank(values, 0.50) == 50
    assert helpers.nearest_rank(values, 0.99) == 99
    assert helpers.nearest_rank(values, 1.0) == 100


def test_p99_needs_ten_samples_beyond_it():
    assert helpers.reportable_percentile(range(999), 0.99) == (None, 999)
    value, n = helpers.reportable_percentile(range(1000), 0.99)
    assert (value, n) == (989, 1000)
    assert helpers.samples_beyond(1000, 0.99) == 10


def test_median_needs_twenty_samples():
    assert helpers.reportable_percentile(range(19), 0.5)[0] is None
    assert helpers.reportable_percentile(range(20), 0.5)[0] == 9


def test_spread_matches_statistics_quantiles():
    s = helpers.spread([1.0, 2.0, 3.0, 4.0, 100.0])
    assert s["median"] == 3.0
    assert s["q1"] == 1.5 and s["q3"] == 52.0
    assert math.isclose(s["rel_iqr"], 50.5 / 3.0)


# -- open-loop accounting -----------------------------------------------------


def _phase(n, rate, service, stall_at=None, stall=0.0):
    """A single-server queue fed on schedule: each request takes
    ``service`` s; an optional stall delays the sender once."""
    samples, free, lag = [], 0.0, 0.0
    for i in range(n):
        due = i / rate
        if stall_at is not None and i == stall_at:
            lag = stall
        sent = due + lag
        start = max(sent, free)
        free = start + service
        samples.append(Sample(due=due, sent=sent, done=free, ok=True))
    return samples


def test_latency_runs_from_due_time_and_lateness_is_charged():
    samples = _phase(2000, 1000.0, 0.0001, stall_at=500, stall=0.05)
    stats = helpers.summarize_phase(samples, 1000.0, limit_s=1.0)
    # Every request after the stall was sent 50 ms late, so its latency
    # includes those 50 ms even though the server was idle.
    assert samples[600].latency >= 0.05
    assert stats.lateness_p99_ms >= 50.0
    assert stats.p99_ms >= 50.0


def test_errors_and_refusals_count_as_limit_misses():
    samples = _phase(1000, 1000.0, 0.0001)
    samples[3].ok = False
    samples[4].done = None
    stats = helpers.summarize_phase(samples, 1000.0, limit_s=1.0)
    assert stats.errors == 2 and stats.limit_misses == 2
    assert stats.completed == 998


def test_slow_requests_count_as_limit_misses():
    samples = _phase(1000, 1000.0, 0.0001)
    samples[10].done = samples[10].due + 2.0
    stats = helpers.summarize_phase(samples, 1000.0, limit_s=1.0)
    assert stats.errors == 0 and stats.limit_misses == 1


def test_keeping_up_and_falling_behind():
    ok = helpers.summarize_phase(_phase(1500, 1000.0, 0.0005), 1000.0, 1.0)
    assert not ok.backlog_grew
    assert 950 < ok.achieved_rps < 1050
    # Offered 1000/s to a server that does 800/s: the queue grows.
    behind = helpers.summarize_phase(
        _phase(1500, 1000.0, 1 / 800), 1000.0, 1.0
    )
    assert behind.backlog_grew
    assert 780 < behind.achieved_rps < 820


# -- max_rps ladder -----------------------------------------------------------


def _rung(rate, capacity):
    return helpers.summarize_phase(
        _phase(int(rate * 1.5), rate, 1 / capacity), rate, 1.0
    )


def test_max_rps_is_the_highest_rung_that_held():
    rungs = [_rung(r, 3500.0) for r in (1000, 2000, 3000, 4000, 5000)]
    assert [r.passes(1000.0) for r in rungs] == [True] * 3 + [False] * 2
    assert math.isclose(helpers.max_rps(rungs, 1000.0),
                        rungs[2].achieved_rps)


def _failed(rung):
    return dataclasses.replace(rung, errors=1)


def test_max_rps_counts_held_rungs():
    rungs = [_rung(r, 3500.0) for r in (1000, 2000, 3000, 4000, 5000)]
    # A stall fails the 2000 rung: 2 rungs held, the answer is the
    # highest held one among the lowest two.
    stalled = [rungs[0], _failed(rungs[1])] + rungs[2:]
    assert math.isclose(helpers.max_rps(stalled, 1000.0),
                        rungs[0].achieved_rps)
    # A lucky pass above the knee (4000 held by chance, 3000 stalled)
    # still counts 3 held rungs: the answer stays below the knee.
    lucky = rungs[:2] + [_failed(rungs[2])] + [
        dataclasses.replace(rungs[3], backlog_grew=False, tail_ms=1.0)
    ] + rungs[4:]
    assert math.isclose(helpers.max_rps(lucky, 1000.0),
                        rungs[1].achieved_rps)


def test_max_rps_is_zero_when_nothing_held():
    assert helpers.max_rps([_rung(5000, 1000.0)], 1000.0) == 0.0


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        {"id": "a", "parent": None, "start": 0.0, "dur": 10.0},
        {"id": "b", "parent": "a", "start": 1.0, "dur": 3.0},
        {"id": "c", "parent": "a", "start": 5.0, "dur": 2.0},
        {"id": "d", "parent": "b", "start": 1.5, "dur": 1.0},
    ]
    own = helpers.self_times(spans)
    assert own == {"a": 5.0, "b": 2.0, "c": 2.0, "d": 1.0}


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": "a", "parent": None, "start": 0.0, "dur": 10.0},
        {"id": "b", "parent": "a", "start": 1.0, "dur": 4.0},
        {"id": "c", "parent": "a", "start": 3.0, "dur": 4.0},
        {"id": "d", "parent": "a", "start": 9.0, "dur": 5.0},
    ]
    # Children cover [1, 7] and [9, 10] of the parent: 7 of its 10 s.
    assert math.isclose(helpers.self_times(spans)["a"], 3.0)


# -- output comparison --------------------------------------------------------


def test_normalize_drops_only_timing_lines():
    text = (
        "Table 1: x\n| a | 1.0 |\n[Table 1 regenerated in 0.8s]\n\n"
        "disk cache: 3 hits, 0 misses (.repro-cache/)\n"
        "full evaluation complete in 4.4s\n"
    )
    assert helpers.normalize_output(text) == "Table 1: x\n| a | 1.0 |\n\n"


def test_outputs_differing_only_in_timings_compare_equal():
    a = "T1\n1\n[Table 1 regenerated in 0.8s]\n\nT2\n2\n[x regenerated in 1.1s]\n"
    b = "T1\n1\n[Table 1 regenerated in 2.3s]\n\nT2\n2\n[x regenerated in 0.1s]\n"
    blocks_a = helpers.split_blocks(helpers.normalize_output(a))
    blocks_b = helpers.split_blocks(helpers.normalize_output(b))
    assert blocks_a == ["T1\n1", "T2\n2\n"]
    assert helpers.count_mismatches(blocks_a, blocks_b) == 0


def test_mismatches_count_changed_missing_and_extra_blocks():
    assert helpers.count_mismatches(["a", "x", "c"], ["a", "b", "c"]) == 1
    assert helpers.count_mismatches(["a"], ["a", "b", "c"]) == 2
    assert helpers.count_mismatches(["a", "b", "c", "d"], ["a", "b"]) == 2


# -- traced counters across fork ----------------------------------------------


def test_forked_worker_reports_only_its_own_pipeline_counts(tmp_path):
    import os
    import types

    import tracer

    rec = tracer._Recorder(tmp_path)
    pipeline = types.SimpleNamespace(stats={"prefix_builds": 3})
    rec.pipelines.append(pipeline)
    pid = os.fork()
    if pid == 0:  # the worker inherits the pipeline with its 3 builds
        try:
            rec.after_fork()
            pipeline.stats["prefix_builds"] += 2
            rec.snapshot()
        finally:
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    rec.snapshot()
    spans, snaps = tracer.load(tmp_path)
    assert snaps == {os.getpid(): {"prefix_builds": 3},
                     pid: {"prefix_builds": 2}}
    metrics = tracer.layer_metrics(spans, snaps, jobs=1)
    assert metrics["pipeline.prefix_builds"] == (5, "count")
