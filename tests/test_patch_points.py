"""The module attributes that per-layer timing replaces stay on the call path.

`perfbench/layers.py` attributes time to each layer by swapping functions in
the module namespaces where their callers look them up at call time. These
tests pin those lookups, so a refactor that reroutes a call fails here
instead of silently moving time from one layer's metric to another's.
"""

import hashlib

import numpy as np
import pytest

from pointtrack import kfilter, rng, synth
from pointtrack.io import write_tracks
from pointtrack import tracker as tracker_module
from pointtrack.synth import ScenarioSpec, TargetPath, evaluate, generate
from pointtrack.tracker import (
    Detection,
    RecordSource,
    TrackerConfig,
    TrackStatus,
    group_by_frame,
    run,
)

# Targets are born after frame 1 and die before the last frame, with misses
# and clutter, so some frames have ground truth but no confirmed record and
# some have records but no ground truth.
SPEC = ScenarioSpec(
    n_frames=60,
    targets=(
        TargetPath(3, 40, 20.0, 20.0, 2.0, 1.0),
        TargetPath(10, 55, 300.0, 200.0, -1.5, 0.5),
        TargetPath(5, 30, 100.0, 400.0, 0.0, -2.0),
    ),
    noise_sigma=0.7,
    miss_prob=0.1,
    clutter_rate=0.5,
    bounds=(640.0, 480.0),
    seed=5,
)


@pytest.fixture(scope="module")
def scene():
    gt, detections = generate(SPEC)
    stream = group_by_frame(detections)
    return gt, stream, run(stream, frame_range=(1, SPEC.n_frames + 10))


def counting(monkeypatch, module, name):
    """Replace `module.name` with a pass-through that records each call."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_scene_track_bytes_are_pinned(scene):
    # A layer that reorders floating-point work must not move a printed digit.
    _, _, results = scene
    assert hashlib.sha256(write_tracks(results).encode()).hexdigest() == (
        "bb9f895d167026e65d691eec76421305d383498395bdb174a91028d8e779cedd"
    )


def test_every_draw_goes_through_next_u64(monkeypatch, scene):
    # perfbench counts `rng.draws` by patching `SplitMix64.next_u64`.
    gt, stream, _ = scene
    draws = counting(monkeypatch, rng.SplitMix64, "next_u64")
    patched_gt, detections = generate(SPEC)
    assert patched_gt == gt
    assert group_by_frame(detections) == stream
    assert len(draws) == 650


def test_evaluate_solves_and_gates_once_per_scored_frame(monkeypatch, scene):
    gt, _, results = scene
    confirmed = {
        fr.frame: [r for r in fr.records if r.status is TrackStatus.CONFIRMED]
        for fr in results
    }
    scored = [f for f in confirmed if gt.at(f) and confirmed[f]]
    assert any(gt.at(f) and not confirmed[f] for f in confirmed)
    assert any(confirmed[f] and not gt.at(f) for f in confirmed)

    solves = counting(monkeypatch, synth, "solve")
    gates = counting(monkeypatch, synth, "gate")
    evaluate(results, gt)
    assert len(solves) == len(gates) == len(scored)


def test_evaluate_does_not_reach_the_tracker_cost_builder(monkeypatch, scene):
    gt, _, results = scene
    expected = evaluate(results, gt)

    def tracking_only(*args, **kwargs):
        raise AssertionError("evaluate called tracker.build_cost_matrix")

    monkeypatch.setattr(tracker_module, "build_cost_matrix", tracking_only)
    assert evaluate(results, gt) == expected


def test_step_reaches_each_patched_name(monkeypatch, scene):
    _, stream, _ = scene
    # A second detection 3 px from each frame's first one on frames 20-24
    # puts two detections in one gate, so those frames reach `solve`.
    stream = {
        f: dets + ([Detection(f, dets[0].x + 3.0, dets[0].y)] if 20 <= f < 25 else [])
        for f, dets in stream.items()
    }
    frame_range = (1, SPEC.n_frames + 10)
    expected = run(stream, frame_range=frame_range)
    calls = {
        name: counting(monkeypatch, module, name)
        for module, name in [
            (tracker_module, "build_cost_matrix"),
            (tracker_module, "associate"),
            (tracker_module, "solve"),
            (tracker_module, "gate"),
            (kfilter, "predict"),
            (kfilter, "update"),
            (kfilter, "init_state"),
        ]
    }
    results = run(stream, frame_range=frame_range)
    assert results == expected

    tracks_in = [len(fr.records) - len(fr.born) + len(fr.died) for fr in results]
    associated = sum(
        1 for fr, n in zip(results, tracks_in) if n and stream.get(fr.frame)
    )
    updates_per_frame = [
        sum(
            1
            for r in fr.records
            if r.source is RecordSource.MEASURED and r.track_id not in fr.born
        )
        for fr in results
    ]
    updates = sum(updates_per_frame)
    assert associated > 0 and updates > 0
    assert len(calls["build_cost_matrix"]) == len(calls["associate"]) == associated
    # `solve` and `gate` run once per frame with an in-gate entry (within its
    # track's chi-square radius) that is not the only one of both its row
    # and its column, on the constant-filled block alone.
    gate_px = TrackerConfig().gate_px
    blocked = 0
    for cost, ceiling, radius in calls["associate"]:
        assert ceiling == gate_px
        inside = cost.values <= np.minimum(radius, gate_px)[:, None]
        degree = inside.sum(axis=1)[:, None] + inside.sum(axis=0)[None, :]
        blocked += bool((degree[inside] > 2).any())
    assert blocked > 0
    assert len(calls["solve"]) == len(calls["gate"]) == blocked
    for (block,) in calls["solve"]:
        assert np.all((block.values <= gate_px) | (block.values == gate_px + 1))
    # One stacked call per frame that has rows to filter, covering them all.
    assert len(calls["predict"]) == sum(1 for n in tracks_in if n)
    assert sum(len(args[0].x) for args in calls["predict"]) == sum(tracks_in)
    updated = [n for n in updates_per_frame if n]
    assert len(calls["update"]) == len(updated)
    assert sum(len(args[0].x) for args in calls["update"]) == sum(updated) == updates
    assert len(calls["init_state"]) == sum(len(fr.born) for fr in results)
