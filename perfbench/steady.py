"""Steadiness check: run workloads repeatedly and report each end-to-end
metric's median, IQR and spread relative to its bound.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1] \
        [--workload NAME ...] [--seconds N] [-o RAW.json] \
        [--against EARLIER-RAW.json]

Run from the root of a checkout. Each run uses its own seed
(``seed-base + i``). Spread is ``(q3 - q1) / median`` with the quartiles
of ``statistics.quantiles(values, n=4)``; every metric, ``setup_s``
included, is held to a spread below its bound in ``BENCHMARK.json``,
with a third of the bound as the target. With ``--against`` the medians
are also compared with those of an earlier set (its ``-o`` file): a
metric whose median got worse by more than its bound fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import helpers  # noqa: E402


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("-o", "--output", help="also write raw values here")
    parser.add_argument("--against", help="raw values of an earlier set")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against \
        else {}
    raw = {}
    worst = worst_drift = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        failures = 0
        for i in range(args.runs):
            proc = subprocess.run(
                bench["command"] + [
                    "--workload", workload, "--seed", str(args.seed_base + i),
                    "--seconds", str(args.seconds), "--trace", "0",
                ],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines \
                else None
            if result is None or not result["correct"]:
                failures += 1
                print(f"{workload} seed {args.seed_base + i}: run failed "
                      f"(rc {proc.returncode})\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        print(f"{workload}: {args.runs - failures}/{args.runs} runs correct")
        print(f"  {'metric':16s} {'median':>12s} {'iqr':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'spread/bound':>12s}"
              + (f" {'worse/bound':>11s}" if earlier else ""))
        for name, vals in values.items():
            if not vals:
                continue
            s = helpers.spread(vals)
            ratio = s["rel_iqr"] / bounds[name]
            worst = max(worst, ratio)
            line = (f"  {name:16s} {s['median']:12.6g} {s['iqr']:12.6g} "
                    f"{s['rel_iqr']:8.3f} {bounds[name]:6.2f} {ratio:12.2f}")
            before = earlier.get(workload, {}).get(name)
            if before:
                was = helpers.median(before)
                worse = (s["median"] - was) / was
                worse = (worse if lower[name] else -worse) / bounds[name]
                worst_drift = max(worst_drift, worse)
                line += f" {worse:11.2f}"
            print(line)
    print(f"worst spread/bound: {worst:.2f} (target < 0.33, gate <= 1.00)")
    if earlier:
        print(f"worst median change against the earlier set, share of "
              f"bound: {worst_drift:.2f} (gate <= 1.00)")
    if args.output:
        Path(args.output).write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
