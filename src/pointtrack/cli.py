"""Command-line frontend: track, synth, eval, and render subcommands.

Exit codes: 0 on success, 2 on any input problem (unreadable files,
malformed lines, bad configuration), 3 when an internal invariant breaks.
Output files are written to a unique temporary sibling and atomically
renamed, so a failing run never leaves partial output behind.

A command runs with the cyclic garbage collector paused: its records hold
no reference cycles, so a collector pass would only re-scan them. However
`main` ends, it turns the collector back on only if it was on at entry, so
an in-process caller gets its setting back. If two in-process calls
overlap, each restores only what it found, so the collector ends up on.
"""

from __future__ import annotations

import argparse
import gc
import os
import secrets
import sys
from typing import Sequence

from . import io as formats
from .errors import InternalError, ParamError, ParseError, SpecError, UserError, check_pair
from .synth import evaluate, generate
from .tracker import COORD_LIMIT, FrameResult, run


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise UserError(f"{path} is not valid UTF-8: {exc.reason}") from exc


def _write_atomic(path: str, text: str) -> None:
    """Write through a unique temporary sibling that is renamed over `path`.

    The sibling is created exclusively under a random name, so concurrent
    writers never share one, with mode 0o666 less the umask in force at
    the call, as open() would give. A failed write removes its own, so
    only a complete file ever appears at `path`.
    """
    directory, name = os.path.split(path)
    tmp_path = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise UserError(f"cannot write {path}: {exc.strerror}") from exc


def _parse_input(path: str, parser):
    try:
        text = _read_text(path)
    except OSError as exc:
        raise UserError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return parser(text)
    except ParseError as exc:
        exc.path = path
        raise


def _load_config(path: str | None) -> dict[str, object]:
    return {} if path is None else _parse_input(path, formats.parse_config)


def _build(path: str | None, factory, values: dict[str, object]):
    """`factory(values)`; a value it rejects is reported with the config file's name."""
    try:
        return factory(values)
    except (ParamError, SpecError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _parse_results(path: str) -> list[FrameResult]:
    """Read a track file as frame results, for scoring and rendering."""
    return [
        FrameResult(frame=frame, records=records, born=[], died=[])
        for frame, records in _parse_input(path, formats.parse_tracks).items()
    ]


def _parse_bounds_flag(token: str) -> tuple[float, float]:
    """The canvas size of `render --bounds`, checked as `ScenarioSpec` checks its bounds."""
    try:
        bounds = formats.parse_config(f"bounds = {token}")["bounds"]
        return check_pair(ParseError, "bounds", bounds, 0, COORD_LIMIT, above=True)
    except ParseError as exc:
        raise UserError(f"invalid --bounds value {token!r}: {exc.message}") from exc


def cmd_track(args: argparse.Namespace) -> int:
    config = _build(args.config, formats.tracker_config_from, _load_config(args.config))
    detections = _parse_input(args.detections, formats.parse_detections)
    results = run(detections, config)
    _write_atomic(args.output, formats.write_tracks(results))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    values = _load_config(args.spec)
    if args.seed is not None:
        values["seed"] = args.seed
    spec = _build(args.spec, formats.scenario_spec_from, values)
    gt, detections = generate(spec)
    _write_atomic(args.out_detections, formats.write_detections(detections))
    _write_atomic(args.out_ground_truth, formats.write_ground_truth(gt))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    results = _parse_results(args.tracks)
    gt = _parse_input(args.ground_truth, formats.parse_ground_truth)
    metrics = evaluate(
        results, gt, match_radius=args.radius, include_tentative=args.include_tentative
    )
    print(f"matches={metrics.matches}")
    print(f"misses={metrics.misses}")
    print(f"false_positives={metrics.false_positives}")
    print(f"id_switches={metrics.id_switches}")
    print(f"fragmentation={metrics.fragmentation}")
    print(f"mota={metrics.mota:.6f}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    results = _parse_results(args.tracks)
    documents = formats.render_overlay(results, _parse_bounds_flag(args.bounds))
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        for frame, svg in documents:
            _write_atomic(os.path.join(args.out_dir, f"frame_{frame:06d}.svg"), svg)
    except OSError as exc:
        raise UserError(f"cannot write to {args.out_dir}: {exc.strerror}") from exc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointtrack",
        description="Multi-target point tracking with Kalman prediction "
        "and exact assignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="associate a detection file into tracks")
    track.add_argument("detections", help="input detection file (frame,x,y[,conf])")
    track.add_argument("output", help="output track file")
    track.add_argument("--config", default=None, help="configuration file")
    track.set_defaults(func=cmd_track)

    synth = sub.add_parser("synth", help="generate a synthetic scenario")
    synth.add_argument("spec", help="scenario configuration file")
    synth.add_argument("out_detections", help="output detection file")
    synth.add_argument("out_ground_truth", help="output ground-truth file")
    synth.add_argument("--seed", type=int, default=None, help="override the spec seed")
    synth.set_defaults(func=cmd_synth)

    evaluate_ = sub.add_parser("eval", help="score tracks against ground truth")
    evaluate_.add_argument("tracks", help="track file")
    evaluate_.add_argument("ground_truth", help="ground-truth file")
    evaluate_.add_argument("--radius", type=float, default=10.0, help="match radius, px")
    evaluate_.add_argument(
        "--include-tentative",
        action="store_true",
        help="score tentative records too (default: confirmed only)",
    )
    evaluate_.set_defaults(func=cmd_eval)

    render = sub.add_parser("render", help="render one SVG overlay per frame")
    render.add_argument("tracks", help="track file")
    render.add_argument("out_dir", help="output directory for frame_NNNNNN.svg files")
    render.add_argument("--bounds", default="640x480", help="canvas size, WIDTHxHEIGHT")
    render.set_defaults(func=cmd_render)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        name = exc.filename or ""
        print(f"error: {exc.strerror}: {name}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
