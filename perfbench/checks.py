"""Output checks, run outside the timed passes.

Every `assignment.solve` call of one library-path pipeline is compared with
`scipy.optimize.linear_sum_assignment` (total cost within 1e-6) and, when
both dimensions are at most 7, with `brute_force_solve` (same pairs). The
CLI's files and stdout are compared with the library computing the same
thing from the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from pointtrack import assignment, io, synth, tracker
from pointtrack.tracker import FrameResult, TrackerConfig

from spans import patched

COST_TOLERANCE = 1e-6
BRUTE_FORCE_MAX_DIM = 7
EVAL_FIELDS = ("matches", "misses", "false_positives", "id_switches", "fragmentation", "mota")


def parse_eval_stdout(text: str) -> dict[str, str]:
    """`key=value` lines of `pointtrack eval` as a dict of strings."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def format_eval(metrics: synth.Metrics) -> dict[str, str]:
    """`synth.Metrics` rendered the way `pointtrack eval` prints it."""
    fields = {name: str(getattr(metrics, name)) for name in EVAL_FIELDS}
    fields["mota"] = f"{metrics.mota:.6f}"
    return fields


@dataclass
class SolveChecker:
    """Calls the real `solve` and checks its answer; failures are collected."""

    linear_sum_assignment: object | None  # None: scipy is missing, check not run
    failures: list[str] = field(default_factory=list)
    calls: int = 0
    scipy_checked: int = 0
    brute_checked: int = 0

    def wrap(self, solve):
        def checked(cost):
            result = solve(cost)
            self.check(cost, result)
            return result

        return checked

    def check(self, cost: assignment.CostMatrix, result: assignment.Assignment) -> None:
        self.calls += 1
        n_rows, n_cols = cost.values.shape
        rows = [r for r, _ in result.pairs]
        cols = [c for _, c in result.pairs]
        if (
            len(set(rows)) != len(rows)
            or len(set(cols)) != len(cols)
            or set(rows) | result.unmatched_rows != set(range(n_rows))
            or set(cols) | result.unmatched_cols != set(range(n_cols))
            or len(result.pairs) != min(n_rows, n_cols)
        ):
            self.fail(f"solve call {self.calls}: pairs are not a full injective matching")
        if self.linear_sum_assignment is not None:
            ref_rows, ref_cols = self.linear_sum_assignment(cost.values)
            reference = float(cost.values[ref_rows, ref_cols].sum())
            self.scipy_checked += 1
            if abs(result.total_cost - reference) > COST_TOLERANCE:
                self.fail(
                    f"solve call {self.calls} ({n_rows}x{n_cols}): total_cost "
                    f"{result.total_cost!r} != scipy {reference!r}"
                )
        if max(n_rows, n_cols) <= BRUTE_FORCE_MAX_DIM:
            self.brute_checked += 1
            if assignment.brute_force_solve(cost).pairs != result.pairs:
                self.fail(
                    f"solve call {self.calls} ({n_rows}x{n_cols}): pairs differ from brute force"
                )

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)
        elif len(self.failures) == 20:
            self.failures.append("... further solve failures not listed")


def load_scipy_solver():
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError:
        return None
    return linear_sum_assignment


def check_outputs(
    spec_text: str,
    detections_text: str,
    ground_truth_text: str,
    tracks_text: str,
    eval_stdout: str,
) -> tuple[list[str], SolveChecker]:
    """Recompute the pipeline through the library with every solve checked.

    Returns the failed checks (empty when all passed) and the solve checker
    with its call counts.
    """
    failures: list[str] = []
    solver = SolveChecker(load_scipy_solver())
    with patched(
        [(tracker, "solve", solver.wrap(tracker.solve)), (synth, "solve", solver.wrap(synth.solve))]
    ):
        spec = io.scenario_spec_from(io.parse_config(spec_text))
        gt, detections = synth.generate(spec)
        if io.write_detections(detections) != detections_text:
            failures.append("synth: detection file differs from io.write_detections(generate)")
        if io.write_ground_truth(gt) != ground_truth_text:
            failures.append("synth: ground-truth file differs from io.write_ground_truth(generate)")

        results = tracker.run(io.parse_detections(detections_text), TrackerConfig())
        if io.write_tracks(results) != tracks_text:
            failures.append("track: track file differs from io.write_tracks(tracker.run(...))")

        parsed = [
            FrameResult(frame=frame, records=records, born=[], died=[])
            for frame, records in io.parse_tracks(tracks_text).items()
        ]
        expected = format_eval(synth.evaluate(parsed, io.parse_ground_truth(ground_truth_text)))
        printed = parse_eval_stdout(eval_stdout)
        for name, value in expected.items():
            if printed.get(name) != value:
                failures.append(f"eval: {name}={printed.get(name)}, synth.evaluate gives {value}")
    failures.extend(solver.failures)
    return failures, solver

