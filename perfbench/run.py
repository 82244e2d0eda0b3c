"""pointtrack benchmark: seeded scenes through `synth` -> `track` -> `eval`.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sparse50 --seed 1 --seconds 20 --trace 0

Each pass calls `pointtrack.cli.main` in-process, once per command, on files
in a temporary directory under `.bench_build/`: one process, one thread, one
frame in flight. Timed passes repeat until `--seconds` have elapsed, and
each must produce exactly what the first did. Set-up time is then measured
in fresh interpreters, and the outputs are checked against the library and
scipy, outside the timed passes.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
passes with passes whose package calls are wrapped in spans, and reports the
per-layer metrics. The last line of stdout is one JSON object; the exit code
is 0 only when every pass ran and every check passed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = os.path.join(SRC, "pointtrack")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no package source at {package}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pointtrack

    if os.path.dirname(os.path.abspath(pointtrack.__file__)) != package:
        print(f"error: pointtrack came from {pointtrack.__file__}, not {package}", file=sys.stderr)
        return 2
    import measure
    import scenes

    workload = scenes.WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(scenes.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    os.makedirs(measure.BUILD, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="perfbench-", dir=measure.BUILD)
    try:
        return measure.run(workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
