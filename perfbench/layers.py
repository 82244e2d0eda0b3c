"""Per-layer metrics: which package functions get spans, and what they add up to.

A layer is one module of the package. Every public function the pipeline
reaches is wrapped where its caller looks it up (`cli` imports `run`,
`generate` and `evaluate` by name, `tracker` and `synth` import `solve` by
name), so each call is seen exactly once. `assignment.solve` and
`tracker.gate` are wrapped separately in `tracker` and in `synth`, which
tells tracking calls from scoring calls. `SplitMix64.next_u64` is counted,
not timed: its time stays in `synth.generate`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from pointtrack import cli, io, kfilter, rng, synth, tracker

from spans import Span, Tracer, self_times

LAYERS = ("cli", "io", "synth", "tracker", "kfilter", "assignment")

# io functions with a time metric of their own; every other io function the
# pipeline calls still gets a span, so its time counts toward `io.self_s`.
IO_TIMED = (
    "parse_detections",
    "write_detections",
    "parse_tracks",
    "write_tracks",
    "parse_ground_truth",
    "write_ground_truth",
)
IO_FUNCTIONS = IO_TIMED + ("parse_config", "scenario_spec_from", "tracker_config_from")

# name -> unit, in print order; BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "assignment.self_s": "s",
    "assignment.solve.track_s": "s",
    "assignment.solve.eval_s": "s",
    "assignment.solve.calls": "count",
    "assignment.solve.eval_calls": "count",
    "assignment.solve.cells_mean": "cells",
    "assignment.solve.dim_max": "count",
    "tracker.self_s": "s",
    "tracker.step.self_s": "s",
    "tracker.build_cost_matrix_s": "s",
    "tracker.gate_s": "s",
    "tracker.gate.kept_ratio": "ratio",
    "tracker.component_rows_mean": "rows",
    "tracker.component_rows_max": "rows",
    "tracker.tracks_per_frame_mean": "count",
    "tracker.dets_per_frame_mean": "count",
    "tracker.births": "count",
    "tracker.deaths": "count",
    "kfilter.self_s": "s",
    "kfilter.predict_s": "s",
    "kfilter.update_s": "s",
    "kfilter.predict.calls": "count",
    "kfilter.update.calls": "count",
    "kfilter.init_state.calls": "count",
    "synth.self_s": "s",
    "synth.generate_s": "s",
    "synth.evaluate.self_s": "s",
    "synth.evaluate.id_switches": "count",
    "rng.draws": "count",
    "io.self_s": "s",
    "io.parse_detections_s": "s",
    "io.write_detections_s": "s",
    "io.parse_tracks_s": "s",
    "io.write_tracks_s": "s",
    "io.parse_ground_truth_s": "s",
    "io.write_ground_truth_s": "s",
    "io.tracks_bytes": "bytes",
    "io.detections_bytes": "bytes",
    "cli.self_s": "s",
    "trace.pipeline_s": "s",
    "trace.self_sum_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Observations:
    """Counts taken at the same boundaries as the spans, for one pipeline."""

    solve_dims: list[tuple[int, int]] = field(default_factory=list)
    gate_kept: int = 0
    gate_returned: int = 0
    gated_costs: list[tuple[np.ndarray, float]] = field(default_factory=list)
    steps: int = 0
    tracks_in: int = 0
    dets_in: int = 0
    births: int = 0
    deaths: int = 0
    draws: int = 0
    tracks_bytes: int = 0
    detections_bytes: int = 0


def instrument(tracer: Tracer, seen: Observations) -> list[tuple[object, str, object]]:
    """Replacements for `spans.patched` that feed `tracer` and `seen`."""

    def on_solve(args, result):
        seen.solve_dims.append(args[0].values.shape)

    def on_gate(args, result):
        assignment, cost, gate_px = args
        seen.gate_returned += len(assignment.pairs)
        seen.gate_kept += len(result.pairs)
        seen.gated_costs.append((cost.values, gate_px))

    def on_step(args, result):
        seen.steps += 1
        seen.dets_in += len(args[2])
        seen.births += len(result.born)
        seen.deaths += len(result.died)
        seen.tracks_in += len(result.records) - len(result.born) + len(result.died)

    def on_write_tracks(args, result):
        seen.tracks_bytes += len(result.encode("utf-8"))

    def on_write_detections(args, result):
        seen.detections_bytes += len(result.encode("utf-8"))

    next_u64 = rng.SplitMix64.next_u64

    def counted_next_u64(self):
        seen.draws += 1
        return next_u64(self)

    after = {"write_tracks": on_write_tracks, "write_detections": on_write_detections}
    replacements = [
        (io, name, tracer.wrap(f"io.{name}", getattr(io, name), after.get(name)))
        for name in IO_FUNCTIONS
    ]
    replacements += [
        (cli, "generate", tracer.wrap("synth.generate", cli.generate)),
        (cli, "evaluate", tracer.wrap("synth.evaluate", cli.evaluate)),
        (cli, "run", tracer.wrap("tracker.run", cli.run)),
        (tracker.Tracker, "step", tracer.wrap("tracker.step", tracker.Tracker.step, on_step)),
        (
            tracker,
            "build_cost_matrix",
            tracer.wrap("tracker.build_cost_matrix", tracker.build_cost_matrix),
        ),
        (tracker, "gate", tracer.wrap("tracker.gate.track", tracker.gate, on_gate)),
        (tracker, "solve", tracer.wrap("assignment.solve.track", tracker.solve, on_solve)),
        (synth, "gate", tracer.wrap("tracker.gate.eval", synth.gate)),
        (synth, "solve", tracer.wrap("assignment.solve.eval", synth.solve)),
        (kfilter, "predict", tracer.wrap("kfilter.predict", kfilter.predict)),
        (kfilter, "update", tracer.wrap("kfilter.update", kfilter.update)),
        (kfilter, "init_state", tracer.wrap("kfilter.init_state", kfilter.init_state)),
        (rng.SplitMix64, "next_u64", counted_next_u64),
    ]
    return replacements


def component_rows(in_gate: np.ndarray) -> list[int]:
    """Rows in each connected component of the in-gate bipartite graph.

    Rows and columns without an in-gate entry belong to no component.
    """
    n_rows = in_gate.shape[0]
    parent = list(range(n_rows + in_gate.shape[1]))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    rows, cols = np.nonzero(in_gate)
    for r, c in zip(rows.tolist(), cols.tolist()):
        parent[find(r)] = find(n_rows + c)
    sizes: dict[int, int] = {}
    for r in set(rows.tolist()):
        root = find(r)
        sizes[root] = sizes.get(root, 0) + 1
    return list(sizes.values())


def pipeline_metrics(spans: list[Span], seen: Observations, pipeline_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (three `cli.main` calls)."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, self_s in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + span.end - span.start
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1
        layer_self[span.name.split(".", 1)[0]] += self_s

    components = [
        size for values, gate_px in seen.gated_costs for size in component_rows(values <= gate_px)
    ]
    cells = [rows * cols for rows, cols in seen.solve_dims]
    steps = max(seen.steps, 1)
    metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    metrics.update(
        {
            "assignment.solve.track_s": total.get("assignment.solve.track", 0.0),
            "assignment.solve.eval_s": total.get("assignment.solve.eval", 0.0),
            "assignment.solve.calls": calls.get("assignment.solve.track", 0),
            "assignment.solve.eval_calls": calls.get("assignment.solve.eval", 0),
            "assignment.solve.cells_mean": statistics.fmean(cells) if cells else 0.0,
            "assignment.solve.dim_max": max((max(d) for d in seen.solve_dims), default=0),
            "tracker.step.self_s": self_by_name.get("tracker.step", 0.0),
            "tracker.build_cost_matrix_s": total.get("tracker.build_cost_matrix", 0.0),
            "tracker.gate_s": total.get("tracker.gate.track", 0.0),
            "tracker.gate.kept_ratio": seen.gate_kept / max(seen.gate_returned, 1),
            "tracker.component_rows_mean": statistics.fmean(components) if components else 0.0,
            "tracker.component_rows_max": max(components, default=0),
            "tracker.tracks_per_frame_mean": seen.tracks_in / steps,
            "tracker.dets_per_frame_mean": seen.dets_in / steps,
            "tracker.births": seen.births,
            "tracker.deaths": seen.deaths,
            "kfilter.predict_s": total.get("kfilter.predict", 0.0),
            "kfilter.update_s": total.get("kfilter.update", 0.0),
            "kfilter.predict.calls": calls.get("kfilter.predict", 0),
            "kfilter.update.calls": calls.get("kfilter.update", 0),
            "kfilter.init_state.calls": calls.get("kfilter.init_state", 0),
            "synth.generate_s": total.get("synth.generate", 0.0),
            "synth.evaluate.self_s": self_by_name.get("synth.evaluate", 0.0),
            "rng.draws": seen.draws,
            "io.tracks_bytes": seen.tracks_bytes,
            "io.detections_bytes": seen.detections_bytes,
            "trace.pipeline_s": pipeline_s,
            "trace.self_sum_share": sum(layer_self.values()) / pipeline_s,
        }
    )
    for name in IO_TIMED:
        metrics[f"io.{name}_s"] = total.get(f"io.{name}", 0.0)
    return metrics
