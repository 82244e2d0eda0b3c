"""One benchmark run: timed passes, set-up probes, output checks and the report.

Imports the package, so `run.py` puts the checkout's `src/` on the path first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from time import perf_counter

from pointtrack import cli, tracker

import checks
import layers
import scenes
from calibration import kernel_s
from spans import Tracer, patched

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
SETUP_REPEATS = 7
CALIBRATION_SAMPLES = 4  # kernel runs just before, and again just after, each pass
SETUP_TIMEOUT_S = 60
MAX_FAILED_PASSES = 4

# name -> unit for every end-to-end metric, in print order. Only GATED go
# into the result object and BENCHMARK.json; README.md says why.
END_TO_END_UNITS = {
    "pipeline_s": "s",
    "track_fps": "frames/s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "eval_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "mota": "ratio",
    "id_switches": "count",
    "error_rate": "ratio",
    "calibration_s": "s",
    "pipeline_cal": "cal",
    "track_cal": "cal",
    "step_p50_cal": "cal",
    "step_p95_cal": "cal",
    "eval_cal": "cal",
}
GATED = (
    "pipeline_cal",
    "track_cal",
    "step_p50_cal",
    "step_p95_cal",
    "eval_cal",
    "setup_s",
    "peak_rss_mb",
    "mota",
)


class PassError(Exception):
    """A pass exited non-zero or produced output unlike the first pass."""


@dataclass
class Files:
    spec: str
    detections: str
    ground_truth: str
    tracks: str

    @classmethod
    def under(cls, directory: str) -> "Files":
        names = ("spec.cfg", "detections.csv", "ground_truth.csv", "tracks.csv")
        return cls(*(os.path.join(directory, name) for name in names))


@dataclass
class Pass:
    track_s: float
    eval_s: float
    total_s: float
    frames: int
    eval_stdout: str
    tracks_sha256: str


def read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def run_pass(main, files: Files, step_samples: list[float]) -> Pass:
    """One `synth` -> `track` -> `eval` pass through `cli.main`, timed per command."""
    stdout = stdio.StringIO()
    codes = []
    start = perf_counter()
    codes.append(main(["synth", files.spec, files.detections, files.ground_truth]))
    synth_end = perf_counter()
    before = len(step_samples)
    codes.append(main(["track", files.detections, files.tracks]))
    track_end = perf_counter()
    with contextlib.redirect_stdout(stdout):
        codes.append(main(["eval", files.tracks, files.ground_truth]))
    end = perf_counter()
    if any(codes):
        raise PassError(f"synth/track/eval exited {codes}")
    with open(files.tracks, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    return Pass(
        track_s=track_end - synth_end,
        eval_s=end - track_end,
        total_s=end - start,
        frames=len(step_samples) - before,
        eval_stdout=stdout.getvalue(),
        tracks_sha256=digest,
    )


def measure_setup(detections_path: str) -> float:
    """`import pointtrack` plus the first step, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, detections_path],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        head = read(os.path.join(git_dir, "HEAD")).strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            return read(ref_path).strip()
        for line in read(os.path.join(git_dir, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict[str, object]:
    """What the numbers were measured on, so runs from other machines are not mixed up."""
    package = os.path.join(SRC, "pointtrack")
    source = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        **versions,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def quantile(samples: list[float], q: int) -> float:
    """The q-th percentile (1..99) of the samples, inclusive method."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    """`metric` lines, then the result object as the last line of stdout."""
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


class Runner:
    """One seeded scene: its timed passes, checks and counts of what failed."""

    def __init__(self, workload: scenes.Workload, seed: int, files: Files):
        self.workload = workload
        self.seed = seed
        self.files = files
        self.spec_text = scenes.spec_text(workload, seed)
        with open(files.spec, "w", encoding="utf-8") as handle:
            handle.write(self.spec_text)
        self.step_samples: list[float] = []
        self.calibration: list[float] = []
        self.setup: list[float] = []
        self.plain: list[Pass] = []
        self.traced: list[dict[str, float]] = []
        self.spans_path: str | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def plain_pass(self) -> Pass:
        """A pass with one `perf_counter` pair around each `Tracker.step` and nothing else.

        The calibration kernel runs just before and just after the pass.
        """
        step, samples = tracker.Tracker.step, self.step_samples

        def timed_step(instance, frame, detections):
            start = perf_counter()
            result = step(instance, frame, detections)
            samples.append(perf_counter() - start)
            return result

        self.calibration.extend(kernel_s() for _ in range(CALIBRATION_SAMPLES))
        with patched([(tracker.Tracker, "step", timed_step)]):
            this = run_pass(cli.main, self.files, samples)
        self.calibration.extend(kernel_s() for _ in range(CALIBRATION_SAMPLES))
        self.plain.append(this)
        return this

    def traced_pass(self) -> Pass:
        """A pass with every layer's public functions wrapped in spans."""
        tracer, seen = Tracer(), layers.Observations()
        with patched(layers.instrument(tracer, seen)):
            this = run_pass(tracer.wrap("cli.main", cli.main), self.files, [])
        spans = tracer.spans()
        metrics = layers.pipeline_metrics(spans, seen, this.total_s)
        metrics["synth.evaluate.id_switches"] = int(
            checks.parse_eval_stdout(this.eval_stdout)["id_switches"]
        )
        self.traced.append(metrics)
        if self.spans_path is None:
            self.spans_path = write_spans(spans, self.workload.name, self.seed)
        return this

    def probe_setup(self) -> None:
        """One set-up sample, taken between passes so samples span the run."""
        if len(self.setup) < SETUP_REPEATS:
            self.setup.append(measure_setup(self.files.detections))

    def timed_loop(self, seconds: float, trace: bool) -> Pass | None:
        """Passes until `seconds` have elapsed; returns the first, or None if it failed.

        Every later pass must reproduce the first pass's track file and
        `eval` stdout. With `trace`, untraced and traced passes alternate.
        A set-up probe runs after each pass, outside the pass's timing.
        """
        deadline = perf_counter() + seconds
        self.attempted += 1
        try:
            first = self.plain_pass()
        except Exception as exc:  # nothing to compare later passes with
            self.failed += 1
            self.problems.append(f"pass 1: {type(exc).__name__}: {exc}")
            return None
        self.probe_setup()
        last_s = first.total_s
        # A pass starts only if it should end no more than half a pass late.
        while perf_counter() + last_s / 2 < deadline or (trace and not self.traced):
            self.attempted += 1
            try:
                if trace and len(self.traced) < len(self.plain):
                    this = self.traced_pass()
                else:
                    this = self.plain_pass()
                last_s = this.total_s
                if (this.tracks_sha256, this.eval_stdout) != (
                    first.tracks_sha256,
                    first.eval_stdout,
                ):
                    raise PassError("outputs differ from the first pass")
                self.probe_setup()
            except Exception as exc:  # counted and reported; the loop goes on
                self.failed += 1
                self.problems.append(f"pass {self.attempted}: {type(exc).__name__}: {exc}")
                if self.failed >= MAX_FAILED_PASSES:
                    break
        return first

    def check(self, first: Pass) -> None:
        """The output checks, outside the timed passes; one more attempted run."""
        self.attempted += 1
        start = perf_counter()
        failures, solver = checks.check_outputs(
            self.spec_text,
            read(self.files.detections),
            read(self.files.ground_truth),
            read(self.files.tracks),
            first.eval_stdout,
        )
        if failures:
            self.failed += 1
            self.problems.extend(failures)
        if solver.linear_sum_assignment is None:
            scipy_note = "scipy total_cost check not run (scipy missing)"
        else:
            scipy_note = f"scipy total_cost on {solver.scipy_checked}"
        print(
            f"check solve: {'FAILED' if solver.failures else 'passed'}, {solver.calls} calls; "
            f"{scipy_note}; brute-force pairs on {solver.brute_checked} (dims <= 7)"
        )
        print(
            f"check outputs: {'FAILED' if failures else 'passed'} (synth files, track file "
            f"bytes, eval fields, every pass equal to the first); "
            f"check pass took {perf_counter() - start:.2f} s"
        )


def write_spans(spans, workload: str, seed: int) -> str:
    """One traced pass's spans as JSON lines, kept after the run."""
    path = os.path.join(BUILD, f"perfbench-spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span._asdict()) + "\n")
    return path


def run(workload: scenes.Workload, seed: int, seconds: float, trace: bool, work_dir: str) -> int:
    """Measure, check and report one run; returns the exit code."""
    print("env " + json.dumps(environment(workload.name, seed)))
    runner = Runner(workload, seed, Files.under(work_dir))
    first = runner.timed_loop(seconds, trace)
    if first is None:
        print(f"problem: {runner.problems[0]}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(runner.setup) < SETUP_REPEATS:
        runner.probe_setup()
    runner.check(first)

    for problem in runner.problems:
        print(f"problem: {problem}")
    print(f"tracks_sha256 {first.tracks_sha256}")
    eval_fields = checks.parse_eval_stdout(first.eval_stdout)
    print("eval " + " ".join(f"{k}={v}" for k, v in eval_fields.items()))
    print("pass_s untraced " + " ".join(f"{p.total_s:.3f}" for p in runner.plain))
    correct = runner.failed == 0
    pipeline_s = statistics.median(p.total_s for p in runner.plain)

    if trace:
        if not runner.traced:
            result = {"correct": False, "attempted": runner.attempted, "failed": runner.failed}
            print(json.dumps({**result, "metrics": {}}))
            return 1
        metrics = {
            name: statistics.median(m[name] for m in runner.traced)
            for name in layers.PER_LAYER_UNITS
            if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = metrics["trace.pipeline_s"] / pipeline_s
        print("pass_s traced " + " ".join(f"{m['trace.pipeline_s']:.3f}" for m in runner.traced))
        print(f"spans of the first traced pass: {runner.spans_path}")
        emit(correct, runner.attempted, runner.failed, metrics, layers.PER_LAYER_UNITS)
        return 0 if correct else 1

    plain, samples = runner.plain, runner.step_samples
    metrics = {
        "pipeline_s": pipeline_s,
        "track_fps": statistics.median(p.frames / p.track_s for p in plain),
        "step_ms_p50": 1000.0 * quantile(samples, 50),
        "step_ms_p95": 1000.0 * quantile(samples, 95),
        "eval_s": statistics.median(p.eval_s for p in plain),
        "setup_s": statistics.median(runner.setup),
        "peak_rss_mb": peak_rss_mb,
        "mota": float(eval_fields["mota"]),
        "id_switches": int(eval_fields["id_switches"]),
        "error_rate": runner.failed / runner.attempted,
    }
    # Calibrated costs: each median or percentile over the run's median kernel time.
    cal_s = metrics["calibration_s"] = statistics.median(runner.calibration)
    metrics["pipeline_cal"] = pipeline_s / cal_s
    metrics["track_cal"] = statistics.median(p.track_s for p in plain) / cal_s
    metrics["step_p50_cal"] = quantile(samples, 50) / cal_s
    metrics["step_p95_cal"] = quantile(samples, 95) / cal_s
    metrics["eval_cal"] = metrics["eval_s"] / cal_s
    print(
        f"samples: {len(plain)} timed passes, {len(samples)} Tracker.step calls, "
        f"{len(runner.setup)} set-up interpreters, {len(runner.calibration)} calibration runs"
    )
    for name, value in metrics.items():
        if name not in GATED:
            print(f"metric {name} = {value!r} {END_TO_END_UNITS[name]} (printed only)")
    gated = {name: metrics[name] for name in GATED}
    emit(correct, runner.attempted, runner.failed, gated, END_TO_END_UNITS)
    return 0 if correct else 1
