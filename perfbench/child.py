"""One measured program process of the benchmark.

    python perfbench/child.py [OPTIONS] ready --seed S
    python perfbench/child.py [OPTIONS] paper --seed S --cache D --out F
    python perfbench/child.py [OPTIONS] serve --seed S --cache D \
        --unix SOCK --jobs N
    python perfbench/child.py [OPTIONS] cli -- <repro CLI arguments>

OPTIONS are ``--trace DIR`` and ``--probe-dir DIR`` (both below).

``ready`` builds the evaluation context and exits (the set-up time of
the batch workloads); ``paper`` regenerates the 14 experiments of
``examples/full_evaluation.py --fast`` with one job and writes the
rendered output; ``serve`` runs the evaluation server on a unix socket;
``cli`` runs the ``repro`` command line. ``ready`` and ``paper`` print
``READY`` once the context with its kernel is built.

With ``--probe-dir DIR`` the process, and every process forked from it,
runs a :func:`helpers.speed_probe` after each 0.1 s of its CPU time and
appends the probe's seconds to ``DIR/probes-<pid>``, so the parent can
tell how fast the host ran the work.

With ``--trace DIR`` the timing wrappers of :mod:`tracer` are installed
before any of that happens. The process needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import helpers  # noqa: E402

#: CPU seconds of a process between two speed probes.
PROBE_INTERVAL_S = 0.1


def start_probes(directory: str) -> None:
    """Probe the host's speed from a ``SIGPROF`` timer, in this process
    and in every process forked from it (a fork does not inherit the
    timer, so the child re-arms its own).

    The handler runs in the interrupted process, on the CPU the work
    was just running on. Each process appends to its own file with
    unbuffered writes, which suits a handler that may interrupt any
    code and a pool worker that leaves through ``os._exit``.
    """
    fd = None

    def arm() -> None:
        nonlocal fd
        fd = os.open(os.path.join(directory, f"probes-{os.getpid()}"),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def on_timer(signum, frame) -> None:
        os.write(fd, f"{helpers.speed_probe()!r}\n".encode())

    signal.signal(signal.SIGPROF, on_timer)
    os.register_at_fork(after_in_child=arm)
    arm()


def stop_probes() -> None:
    """Disarm the timer: interpreter shutdown restores the default
    ``SIGPROF`` action, which would end the process."""
    signal.setitimer(signal.ITIMER_PROF, 0.0)


def fast_settings(seed: int, jobs: int, cache: str):
    """The scale knobs of ``--fast`` in the CLI and the example, kept
    here so the benchmark's workload does not move with them."""
    from repro.evaluation.harness import EvalSettings
    from repro.kernel.spec import SmallSpec

    return EvalSettings(
        spec=SmallSpec(),
        profile_iterations=1,
        profile_ops_scale=0.2,
        measure_ops_scale=0.15,
        seed=seed,
        jobs=jobs,
        cache_dir=cache,
    )


def run_paper(args) -> None:
    from repro.evaluation import tables
    from repro.evaluation.harness import EvalContext

    ctx = EvalContext(fast_settings(args.seed, 1, args.cache))
    print("READY", flush=True)
    experiments = [
        ("Figure 1", lambda: tables.figure1()),
        ("Table 1", lambda: tables.table1()),
        ("Table 2", lambda: tables.table2(ctx)),
        ("Table 3", lambda: tables.table3(ctx)),
        ("Table 4", lambda: tables.table4(ctx)),
        ("Table 5", lambda: tables.table5(ctx)),
        ("Table 6", lambda: tables.table6(ctx)),
        ("Table 7", lambda: tables.table7(ctx)),
        ("Table 8", lambda: tables.table8(ctx)),
        ("Table 9", lambda: tables.table9(ctx)),
        ("Table 10", lambda: tables.table10(ctx)),
        ("Table 11", lambda: tables.table11(ctx)),
        ("Table 12", lambda: tables.table12(ctx)),
        ("Section 8.4", lambda: tables.robustness(ctx)),
    ]
    # Same rendering as the example, so its output is the reference.
    with open(args.out, "w", encoding="utf-8") as out:
        for label, run in experiments:
            start = time.perf_counter()
            result = run()
            elapsed = time.perf_counter() - start
            print(result.table.to_text(), file=out)
            print(f"[{label} regenerated in {elapsed:.1f}s]\n", file=out)
    ctx.close()


def run_ready(args) -> None:
    from repro.evaluation.harness import EvalContext

    EvalContext(fast_settings(args.seed, 1, None)).close()
    print("READY", flush=True)


def run_serve(args) -> None:
    import asyncio

    from repro.serve.server import ReproServer

    server = ReproServer(
        fast_settings(args.seed, args.jobs, args.cache),
        unix_path=args.unix,
    )

    async def serve() -> None:
        await server.start()
        await server.serve_until_shutdown()

    try:
        asyncio.run(serve())
    finally:
        server.ctx.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="span directory (traced mode)")
    parser.add_argument("--probe-dir", help="speed probe directory")
    parser.add_argument("mode", choices=("ready", "paper", "serve", "cli"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cache")
    parser.add_argument("--out")
    parser.add_argument("--unix")
    parser.add_argument("--jobs", type=int, default=1)
    args, rest = parser.parse_known_args(argv)
    if rest and args.mode != "cli":
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    if args.trace:
        import tracer

        missing = tracer.install(Path(args.trace))
        if missing:
            print("untraced (not found): " + ", ".join(missing),
                  file=sys.stderr)
    if args.probe_dir:
        start_probes(args.probe_dir)
    try:
        if args.mode == "cli":
            from repro.tools.cli import main as cli_main

            return cli_main(rest[1:] if rest[:1] == ["--"] else rest)
        {"ready": run_ready, "paper": run_paper, "serve": run_serve}[
            args.mode
        ](args)
        return 0
    finally:
        if args.probe_dir:
            stop_probes()


if __name__ == "__main__":
    sys.exit(main())
