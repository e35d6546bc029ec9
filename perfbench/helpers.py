"""Pure helpers of the end-to-end benchmark: order statistics, the
host-speed probe, the open-loop latency accounting, the ``max_rps``
ladder, span self time and the output normalisation used by the
correctness checks.

Nothing here imports the program under test, so a change to ``src/``
cannot change how the benchmark computes its numbers.
"""

from __future__ import annotations

import math
import re
import statistics
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: strictly beyond its rank; below that it is the maximum in disguise.
MIN_SAMPLES_BEYOND = 10

#: Lines carrying wall-clock figures or cache accounting. They differ
#: between runs by design and are dropped before outputs are compared.
TIMING_LINE = re.compile(
    r"regenerated in|complete in|disk cache|measurements prefetched"
)


# -- order statistics ---------------------------------------------------------


def nearest_rank(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``x_ceil(f*n)``) of a sorted sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(fraction * len(sorted_values)) - 1
    return sorted_values[min(len(sorted_values) - 1, max(0, rank))]


def samples_beyond(n: int, fraction: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    percentile at ``fraction``."""
    return n - max(1, math.ceil(fraction * n)) if n else 0


def reportable_percentile(
    values: Iterable[float], fraction: float
) -> Tuple[Optional[float], int]:
    """``(percentile, sample_count)``; the percentile is ``None`` when
    fewer than :data:`MIN_SAMPLES_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0 or samples_beyond(n, fraction) < MIN_SAMPLES_BEYOND:
        return None, n
    return nearest_rank(ordered, fraction), n


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and IQR/median as ``statistics.quantiles(n=4)``
    gives them (the definition the steadiness gate uses)."""
    if len(values) < 2:
        only = float(values[0]) if values else float("nan")
        return {"median": only, "q1": only, "q3": only, "iqr": 0.0,
                "rel_iqr": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "rel_iqr": (q3 - q1) / med if med else float("inf"),
    }


# -- host speed ---------------------------------------------------------------

#: Iterations of :func:`speed_probe`'s loop, and the loop's time on the
#: 2-vCPU KVM guest the benchmark was tuned on (Python 3.11) in its fast
#: state. Times normalised by the probe are seconds at that speed.
PROBE_LOOPS = 40000
REFERENCE_PROBE_S = 0.0025


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now on this CPU (2.5 ms
    on the tuning host at full speed)."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def speed_factor(probes: Sequence[float]) -> float:
    """Mean speed of the host relative to the reference over a piece of
    work, from the :func:`speed_probe` times taken during it; 1.0 when
    there are none. A time multiplied by it is in seconds at the
    reference speed."""
    if not probes:
        return 1.0
    return statistics.mean(REFERENCE_PROBE_S / p for p in probes)


# -- open-loop accounting -----------------------------------------------------


@dataclass
class Sample:
    """One request of an open-loop schedule (times in seconds on one
    monotonic clock)."""

    due: float
    sent: Optional[float] = None
    done: Optional[float] = None
    ok: bool = False

    @property
    def latency(self) -> Optional[float]:
        """Completion time measured from when the request was *due*, so
        a stalled generator charges its stall to every later request."""
        return None if self.done is None else self.done - self.due

    @property
    def lateness(self) -> Optional[float]:
        return None if self.sent is None else self.sent - self.due


@dataclass
class PhaseStats:
    """Latency summary of one fixed-rate phase."""

    rate: float
    sent: int
    completed: int
    errors: int
    limit_misses: int
    p50_ms: Optional[float]
    p99_ms: Optional[float]
    tail_ms: float
    samples: int
    lateness_p99_ms: float
    achieved_rps: float
    backlog_grew: bool

    def passes(self, limit_ms: float) -> bool:
        """The rung holds when every request succeeded, p99 stayed within
        the limit and the queue did not build up over the rung."""
        return (
            self.errors == 0
            and self.completed == self.sent
            and self.tail_ms <= limit_ms
            and not self.backlog_grew
        )


def keeping_up(
    samples: Sequence[Sample], slack: float = 0.05, grace: float = 0.02
) -> Tuple[float, bool]:
    """``(achieved_rps, backlog_grew)`` of one phase.

    Both use the 99th-percentile arrival and completion, so one slow
    straggler at the end of a phase decides nothing. The backlog grew
    when 99% of the requests took more than ``slack`` longer (plus
    ``grace`` seconds) to complete than they took to arrive: a server
    that keeps up finishes a few milliseconds after the last arrival,
    one that does not falls behind in proportion to the phase length.
    """
    dues = sorted(s.due for s in samples)
    dones = sorted(s.done for s in samples if s.done is not None and s.ok)
    if not dues:
        return 0.0, False
    k = max(1, math.ceil(0.99 * len(dues)))
    if len(dones) < k:
        return 0.0, True
    window = dues[k - 1] - dues[0]
    span = dones[k - 1] - dues[0]
    achieved = k / span if span > 0 else 0.0
    return achieved, span > (1 + slack) * window + grace


def summarize_phase(
    samples: Sequence[Sample], rate: float, limit_s: float
) -> PhaseStats:
    """Fold one phase's samples (in due order) into :class:`PhaseStats`.

    A request that errored, was refused or never completed counts as a
    miss of the latency limit, and its latency as infinite for the
    percentiles, so failures can never make p99 look better.
    """
    latencies: List[float] = []
    errors = misses = completed = 0
    for s in samples:
        lat = s.latency
        if lat is None or not s.ok:
            errors += 1
            misses += 1
            latencies.append(math.inf)
            continue
        completed += 1
        latencies.append(lat)
        if lat > limit_s:
            misses += 1
    finite_ms = [x * 1000.0 for x in latencies]
    p50, n = reportable_percentile(finite_ms, 0.50)
    p99, _ = reportable_percentile(finite_ms, 0.99)
    lateness = sorted(
        max(0.0, s.lateness) for s in samples if s.lateness is not None
    )
    achieved, grew = keeping_up(samples)
    return PhaseStats(
        rate=rate,
        sent=sum(1 for s in samples if s.sent is not None),
        completed=completed,
        errors=errors,
        limit_misses=misses,
        p50_ms=p50,
        p99_ms=p99,
        tail_ms=nearest_rank(sorted(finite_ms), 0.99) if finite_ms
        else math.inf,
        samples=n,
        lateness_p99_ms=(nearest_rank(lateness, 0.99) * 1000.0)
        if lateness else 0.0,
        achieved_rps=achieved,
        backlog_grew=grew,
    )


def max_rps(rungs: Sequence[PhaseStats], limit_ms: float) -> float:
    """Throughput the hit path sustains, from a full walk of the ladder.

    The ladder is always walked in full and in ascending order, so every
    run does the same work. Near capacity a rung's pass or fail is noisy
    (a garbage-collection pause fails a rung below the knee, a lucky
    stretch passes one above it), so the knee is placed by *counting*
    the rungs that held: with ``k`` of them, the answer is the achieved
    completion rate of the highest held rung among the lowest ``k``. A
    clean walk gives the highest held rung; one stray result moves the
    answer by at most one rung. 0.0 when no rung held.
    """
    ordered = sorted(rungs, key=lambda r: r.rate)
    held = [r.passes(limit_ms) for r in ordered]
    k = sum(held)
    below = [r for r, ok in zip(ordered[:k], held[:k]) if ok]
    return below[-1].achieved_rps if below else 0.0


# -- spans --------------------------------------------------------------------


def self_times(spans: Sequence[Dict]) -> Dict[str, float]:
    """Self time per span id: duration minus the part of the span's
    interval covered by its children (same process and thread).

    Each span is a dict with ``id``, ``parent`` (or None), ``start`` and
    ``dur`` in seconds.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["start"] + s["dur"])
            )
    out: Dict[str, float] = {}
    for s in spans:
        lo, hi = s["start"], s["start"] + s["dur"]
        covered = 0.0
        cursor = lo
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, cursor), min(b, hi)
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = max(0.0, s["dur"] - covered)
    return out


# -- output comparison --------------------------------------------------------


def normalize_output(text: str) -> str:
    """Drop the timing and cache-accounting lines, keep everything else
    byte for byte."""
    return "".join(
        line
        for line in text.splitlines(keepends=True)
        if not TIMING_LINE.search(line)
    )


def split_blocks(text: str) -> List[str]:
    """Blank-line separated blocks of a normalised output (one block per
    rendered table); used to count which tables differ."""
    return [b for b in re.split(r"\n\s*\n", text) if b.strip()]


def count_mismatches(got: Sequence[str], want: Sequence[str]) -> int:
    """Positions at which two block lists differ, counting missing or
    extra blocks as mismatches."""
    diff = sum(1 for a, b in zip(got, want) if a != b)
    return diff + abs(len(got) - len(want))
