"""Render the committed reference outputs with the reference interpreter.

    python3 perfbench/make_reference.py

Run from the root of a checkout. Writes ``perfbench/reference/``:

- ``paper-fast.txt``: ``examples/full_evaluation.py --fast --engine
  reference --no-cache``, timing lines removed;
- ``sweep-ladder.csv``: the benchmark's sweep grid at the reference seed
  with ``--engine reference`` from an empty cache.

The outputs come from the slow oracle engine on purpose: the benchmark
compares the default engine's outputs against them, so they must never
be regenerated from the engine under test. Takes a few minutes.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import helpers  # noqa: E402
import run  # noqa: E402


def main() -> int:
    seed = run.REFERENCE_SEED
    work = run.HERE / ".work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = run.Env(work.relative_to(Path.cwd()), seed, 0.0)

    text = subprocess.run(
        [sys.executable, "examples/full_evaluation.py", "--fast",
         "--engine", "reference", "--no-cache"],
        env=env.child_env(), capture_output=True, text=True, check=True,
    ).stdout
    (run.REFERENCE / "paper-fast.txt").write_text(
        helpers.normalize_output(text), encoding="utf-8"
    )

    csv = env.work / "sweep.csv"
    subprocess.run(
        env.argv("cli", "--", "sweep", "--grid", run.sweep_grid(seed),
                 "--fast", "-j", str(env.jobs), "--engine", "reference",
                 "--cache-dir", str(env.work / "sweep-cache"),
                 "--csv", str(csv), "-o", str(env.work / "sweep.txt")),
        env=env.child_env(), check=True,
    )
    shutil.copyfile(csv, run.REFERENCE / "sweep-ladder.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
