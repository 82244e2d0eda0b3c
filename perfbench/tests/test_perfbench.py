"""Tests of the benchmark itself: span arithmetic, scenes, checks, and a smoke run.

Run from the repository root with `python3 -m pytest -q perfbench/tests`.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
from pointtrack import assignment, io, tracker  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

TINY = scenes.Workload(
    name="tiny",
    why="smoke test",
    n_targets=3,
    n_frames=30,
    life=20,
    bounds=(200.0, 200.0),
    vmax=1.0,
    clutter_rate=0.5,
)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a on [3, 4]
        Span("c", 5.0, 5.5, 0),  # inside b
        Span("d", 9.0, 12.0, 0),  # runs past the root's end
        Span("a.child", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 0.5, 3.0, 1.0])


def test_tracer_nests_spans_and_runs_after_hooks():
    tracer = Tracer()
    seen = []
    inner = tracer.wrap("inner", lambda x: x + 1, after=lambda args, result: seen.append(result))
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [(s.name, s.parent) for s in tracer.spans()]
    assert names == [("outer", -1), ("inner", 0)]
    assert seen == [2]


@pytest.mark.parametrize("name", sorted(scenes.WORKLOADS))
def test_scenes_are_deterministic_per_seed(name):
    workload = scenes.WORKLOADS[name]
    first = scenes.spec_text(workload, 7)
    assert first == scenes.spec_text(workload, 7)
    assert first != scenes.spec_text(workload, 8)
    spec = io.scenario_spec_from(io.parse_config(first))
    assert len(spec.targets) == workload.n_targets
    assert all(t.death_frame - t.birth_frame + 1 == workload.life for t in spec.targets)
    assert max(t.death_frame for t in spec.targets) == workload.n_frames


def test_component_rows_count_rows_of_connected_in_gate_groups():
    in_gate = np.array(
        [
            [1, 0, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 0, 0],  # no in-gate entry: in no component
            [0, 0, 0, 1],
        ],
        dtype=bool,
    )
    assert sorted(layers.component_rows(in_gate)) == [1, 2]


def test_solve_checker_flags_a_suboptimal_answer():
    cost = assignment.CostMatrix(np.array([[1.0, 5.0], [5.0, 1.0]]))
    wrong = assignment.Assignment(
        pairs=frozenset({(0, 1), (1, 0)}),
        unmatched_rows=frozenset(),
        unmatched_cols=frozenset(),
        total_cost=10.0,
    )
    checker = checks.SolveChecker(checks.load_scipy_solver())
    checker.check(cost, assignment.solve(cost))
    assert checker.failures == []
    checker.check(cost, wrong)
    assert checker.failures  # brute force disagrees even without scipy


def run_tiny(monkeypatch, capsys, trace: int) -> tuple[int, list[str], dict]:
    monkeypatch.setitem(scenes.WORKLOADS, TINY.name, TINY)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def printed_units(lines: list[str]) -> dict[str, str]:
    """`metric NAME = VALUE UNIT ...` lines as {name: unit}."""
    units = {}
    for line in lines:
        if line.startswith("metric "):
            fields = line.split()
            float(fields[3])
            units[fields[1]] = fields[4]
    return units


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_smoke_untraced_prints_every_end_to_end_metric(monkeypatch, capsys):
    code, lines, result = run_tiny(monkeypatch, capsys, trace=0)
    assert code == 0
    assert printed_units(lines) == measure.END_TO_END_UNITS
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_prints_every_per_layer_metric(monkeypatch, capsys):
    code, lines, result = run_tiny(monkeypatch, capsys, trace=1)
    assert code == 0
    assert printed_units(lines) == layers.PER_LAYER_UNITS
    declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.self_sum_share"] == pytest.approx(1.0, abs=0.05)
    assert metrics["tracker.births"] >= TINY.n_targets


def test_smoke_exits_non_zero_when_the_solver_is_wrong(monkeypatch, capsys):
    real_solve = tracker.solve

    def swapped(cost):
        """The optimum with the first two rows' columns exchanged."""
        result = real_solve(cost)
        pairs = sorted(result.pairs)
        if len(pairs) >= 2:
            (r0, c0), (r1, c1) = pairs[:2]
            pairs[:2] = [(r0, c1), (r1, c0)]
        return assignment.Assignment(
            pairs=frozenset(pairs),
            unmatched_rows=result.unmatched_rows,
            unmatched_cols=result.unmatched_cols,
            total_cost=float(sum(cost.values[r, c] for r, c in pairs)),
        )

    monkeypatch.setattr(tracker, "solve", swapped)
    code, lines, result = run_tiny(monkeypatch, capsys, trace=0)
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("problem: solve call") for line in lines)

