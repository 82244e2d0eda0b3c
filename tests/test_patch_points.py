"""The module attributes that per-layer timing replaces stay on the call path.

`perfbench/layers.py` attributes time to each layer by swapping functions in
the module namespaces where their callers look them up at call time. These
tests pin those lookups, so a refactor that reroutes a call fails here
instead of silently moving time from one layer's metric to another's.
"""

import hashlib

import numpy as np
import pytest

from pointtrack import io, kfilter, rng, synth
from pointtrack.io import parse_detections, parse_tracks, write_detections, write_tracks
from pointtrack import tracker as tracker_module
from pointtrack.synth import ScenarioSpec, TargetPath, evaluate, generate
from pointtrack.tracker import (
    Detection,
    FrameResult,
    RecordSource,
    TrackerConfig,
    TrackStatus,
    build_cost_matrix,
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


def stacks(shapes, cells):
    """Group the (rows, cols) shapes of consecutive scored frames as `evaluate` stacks them.

    A frame joins the current stack while the stack, padded to its largest
    rows and columns, stays within `cells`; returns the stacks' sizes.
    """
    sizes, rows, cols = [], 0, 0
    for n, m in shapes:
        rows, cols = max(rows, n), max(cols, m)
        if sizes and (sizes[-1] + 1) * rows * cols <= cells:
            sizes[-1] += 1
        else:
            sizes.append(1)
            rows, cols = n, m
    return sizes


def test_evaluate_associates_the_frames_it_cannot_screen(monkeypatch, scene):
    gt, _, results = scene
    # A second confirmed record 3 px from the first on frames 20-24 puts two
    # records within reach of one point, so those frames hold a shared pair.
    results = [
        FrameResult(
            fr.frame,
            fr.records + [
                fr.records[0]._replace(
                    track_id=99, x=fr.records[0].x + 3.0, status=TrackStatus.CONFIRMED
                )
            ],
            fr.born,
            fr.died,
        )
        if 20 <= fr.frame < 25 and fr.records
        else fr
        for fr in results
    ]
    confirmed = {
        fr.frame: [r for r in fr.records if r.status is TrackStatus.CONFIRMED]
        for fr in results
    }
    scored = [f for f in sorted(confirmed) if gt.at(f) and confirmed[f]]
    assert any(gt.at(f) and not confirmed[f] for f in confirmed)
    assert any(confirmed[f] and not gt.at(f) for f in confirmed)

    # `evaluate` matches a frame through `tracker.associate` when the frame
    # is alone in its stack or one of its in-radius pairs shares a row or a
    # column; it takes every other frame's lone pairs directly.
    shared = set()
    for f in scored:
        cost = build_cost_matrix(
            [(x, y) for _, x, y in gt.at(f)], [(r.x, r.y) for r in confirmed[f]]
        )
        inside = cost.values <= 7.5
        if (inside.sum(axis=0) > 1).any() or (inside.sum(axis=1) > 1).any():
            shared.add(f)
    sizes = stacks([(len(gt.at(f)), len(confirmed[f])) for f in scored], synth.STACK_CELLS)
    starts = np.cumsum([0, *sizes[:-1]])
    alone = {scored[start] for start, size in zip(starts, sizes) if size == 1}
    assert shared and len(sizes) < len(scored)

    # `evaluate` reaches `solve` and `gate` only through `tracker.associate`,
    # so perfbench's eval spans on `synth.solve` and `synth.gate` see no call.
    associations = []
    costs = []
    real_associate = synth.associate

    def associate(*args, **kwargs):
        costs.append(args[0])
        associations.append((args[1:], kwargs))
        return real_associate(*args, **kwargs)

    monkeypatch.setattr(synth, "associate", associate)
    builds = counting(monkeypatch, synth, "build_cost_matrix")
    solves = counting(monkeypatch, synth, "solve")
    gates = counting(monkeypatch, synth, "gate")
    evaluate(results, gt, match_radius=7.5)
    assert associations == [((7.5,), {})] * len(shared | alone)
    assert solves == gates == []

    # One matching path: each call's cost is the frame's own
    # `build_cost_matrix`, bit for bit, built once for that call.
    assert len(builds) == len(associations)
    for f, cost in zip(sorted(shared | alone), costs):
        expected = build_cost_matrix(
            [(x, y) for _, x, y in gt.at(f)], [(r.x, r.y) for r in confirmed[f]]
        )
        assert cost.values.shape == expected.values.shape
        assert cost.values.tobytes() == expected.values.tobytes()


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


def test_parsers_hand_each_frame_to_its_check_once(monkeypatch, scene):
    # The parsers look each record type's check up in `io` when they run,
    # and call it once per frame of a valid file, frames ascending.
    _, stream, results = scene
    detections_text = write_detections([d for dets in stream.values() for d in dets])
    tracks_text = write_tracks(results)
    expected = parse_detections(detections_text), parse_tracks(tracks_text)
    detection_checks = counting(monkeypatch, io, "check_detections")
    record_checks = counting(monkeypatch, io, "check_records")
    assert (parse_detections(detections_text), parse_tracks(tracks_text)) == expected
    assert [frame for frame, _ in detection_checks] == list(stream)
    assert [frame for frame, _ in record_checks] == [fr.frame for fr in results if fr.records]
    assert len(record_checks) > 50
