"""Command-line interface tests: exit codes, outputs, determinism."""

import contextlib
import dataclasses
import os
import tempfile
import time
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointtrack.cli import main
from pointtrack.synth import ScenarioSpec
from pointtrack.tracker import TrackerConfig

SCENARIO = """\
n_frames = 40
targets = 1,40,10,10,2,1 ; 1,40,120,60,-2,-0.5
noise_sigma = 0.5
miss_prob = 0.0
clutter_rate = 0.0
bounds = 320x240
seed = 7
gate_px = 50
confirm_hits = 3
max_misses = 5
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO)
    return str(path)


def run_pipeline(tmp_path, scenario_file, seed=None):
    dets = str(tmp_path / "dets.csv")
    gt = str(tmp_path / "gt.csv")
    tracks = str(tmp_path / "tracks.csv")
    synth_args = ["synth", scenario_file, dets, gt]
    if seed is not None:
        synth_args += ["--seed", str(seed)]
    assert main(synth_args) == 0
    assert main(["track", dets, tracks, "--config", scenario_file]) == 0
    return dets, gt, tracks


class TestTrack:
    def test_happy_path(self, tmp_path, scenario_file):
        dets, gt, tracks = run_pipeline(tmp_path, scenario_file)
        assert os.path.exists(tracks)
        assert open(tracks).read().count("\n") > 0

    def test_missing_input_names_path(self, tmp_path, capsys):
        code = main(["track", str(tmp_path / "nope.csv"), str(tmp_path / "out.csv")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_malformed_input_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,1,1\n1,x,2\n")
        code = main(["track", str(bad), str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and "line 2" in err

    def test_out_of_range_coordinate_exits_two(self, tmp_path, capsys):
        dets = tmp_path / "huge.csv"
        dets.write_text("1,1e200,5\n2,0,6\n")
        assert main(["track", str(dets), str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert "huge.csv" in err and "line 1" in err
        assert "Traceback" not in err

    def test_bad_config_key_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("shenanigans = 1\n")
        dets = tmp_path / "d.csv"
        dets.write_text("1,1,1\n")
        code = main(["track", str(dets), str(tmp_path / "out.csv"), "--config", str(cfg)])
        assert code == 2
        assert "shenanigans" in capsys.readouterr().err

    def test_out_of_range_min_confidence_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("min_confidence = 5\n")
        dets = tmp_path / "d.csv"
        dets.write_text("1,1,1\n")
        out = tmp_path / "out.csv"
        assert main(["track", str(dets), str(out), "--config", str(cfg)]) == 2
        assert "min_confidence" in capsys.readouterr().err
        assert not out.exists()

    def test_rejected_config_value_names_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("min_confidence = 5\n")
        dets = tmp_path / "d.csv"
        dets.write_text("1,1,1\n")
        assert main(["track", str(dets), str(tmp_path / "t.csv"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: min_confidence must lie in [0, 1]")

    def test_output_path_that_is_a_directory_exits_two(self, tmp_path, capsys):
        dets = tmp_path / "d.csv"
        dets.write_text("1,1,1\n")
        out = tmp_path / "out.csv"
        out.mkdir()
        before = sorted(os.listdir(tmp_path))
        assert main(["track", str(dets), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert ".tmp" not in err and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(out) == []

    def test_output_keeps_the_default_file_mode(self, tmp_path):
        dets = tmp_path / "d.csv"
        dets.write_text("1,1,1\n")
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        out = tmp_path / "out.csv"
        assert main(["track", str(dets), str(out)]) == 0
        assert out.stat().st_mode == plain.stat().st_mode

    def test_outputs_follow_the_umask_set_after_import(self, tmp_path, scenario_file):
        old = os.umask(0o077)
        try:
            dets, gt, tracks = run_pipeline(tmp_path, scenario_file)
        finally:
            os.umask(old)
        for path in (dets, gt, tracks):
            assert os.stat(path).st_mode & 0o777 == 0o600
        assert sorted(os.listdir(tmp_path)) == ["dets.csv", "gt.csv", "scenario.cfg", "tracks.csv"]

    def test_frames_far_apart_run_in_moments(self, tmp_path, capsys):
        # Track 1 dies on frame 2, its first miss; with no live track the
        # 10^9 frames in between are neither stepped nor scored.
        dets, gt, tracks = tmp_path / "d.csv", tmp_path / "gt.csv", tmp_path / "t.csv"
        dets.write_text("1,10,10\n1000000000,20,20\n")
        gt.write_text("1,1,10,10\n1000000000,1,20,20\n")
        start = time.perf_counter()
        assert main(["track", str(dets), str(tracks)]) == 0
        assert main(["eval", str(tracks), str(gt), "--include-tentative"]) == 0
        assert time.perf_counter() - start < 5.0
        assert tracks.read_text() == (
            "1,1,10.000000,10.000000,0.000000,0.000000,T,M\n"
            "1000000000,2,20.000000,20.000000,0.000000,0.000000,T,M\n"
        )
        assert "matches=2\nmisses=0\nfalse_positives=0\nid_switches=1\n" in capsys.readouterr().out

    def test_track_file_near_the_coordinate_limit_reads_back(self, tmp_path, capsys):
        # A track reaching the limit ends there instead of writing a record
        # beyond it, which eval and render would reject. The target jumps
        # 40 px a frame from birth, so p0_vel widens the newborn's
        # chi-square radius to ~50 px to keep one track.
        dets, gt, tracks = tmp_path / "d.csv", tmp_path / "gt.csv", tmp_path / "t.csv"
        config = tmp_path / "fast.cfg"
        dets.write_text("".join(f"{f},{1e9 - 400 + 40 * f!r},0\n" for f in range(1, 11)))
        gt.write_text("".join(f"{f},1,{1e9 - 400 + 40 * f!r},0\n" for f in range(1, 11)))
        config.write_text("p0_vel = 400\n")
        assert main(["track", str(dets), str(tracks), "--config", str(config)]) == 0
        assert main(["eval", str(tracks), str(gt)]) == 0
        assert main(["render", str(tracks), str(tmp_path / "svg")]) == 0
        assert "matches=7\nmisses=3\n" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path, scenario_file):
        dets, _, tracks = run_pipeline(tmp_path, scenario_file)
        first = open(tracks, "rb").read()
        assert main(["track", dets, tracks, "--config", scenario_file]) == 0
        assert open(tracks, "rb").read() == first

    def test_no_partial_output_on_error(self, tmp_path, scenario_file):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,1,1\nbroken line\n")
        out = tmp_path / "out.csv"
        assert main(["track", str(bad), str(out), "--config", scenario_file]) == 2
        assert not out.exists()


class TestSynth:
    def test_seeded_determinism(self, tmp_path, scenario_file):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for d in (a, b):
            assert main(["synth", scenario_file, str(d / "d.csv"), str(d / "g.csv")]) == 0
        assert (a / "d.csv").read_bytes() == (b / "d.csv").read_bytes()
        assert (a / "g.csv").read_bytes() == (b / "g.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path, scenario_file):
        base = tmp_path / "base.csv"
        other = tmp_path / "other.csv"
        assert main(["synth", scenario_file, str(base), str(tmp_path / "g1.csv")]) == 0
        assert (
            main(["synth", scenario_file, str(other), str(tmp_path / "g2.csv"), "--seed", "1234"])
            == 0
        )
        assert base.read_bytes() != other.read_bytes()

    def test_seed_override_applies_before_the_spec_is_built(self, tmp_path, scenario_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text(SCENARIO.replace("seed = 7", "seed = 1234"))
        assert main(["synth", str(seeded), str(a), str(tmp_path / "g1.csv")]) == 0
        assert main(
            ["synth", scenario_file, str(b), str(tmp_path / "g2.csv"), "--seed", "1234"]
        ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_certain_miss_writes_empty_detections(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("n_frames = 10\ntargets = 1,10,0,0,1,1\nmiss_prob = 1\n")
        dets = tmp_path / "d.csv"
        assert main(["synth", str(cfg), str(dets), str(tmp_path / "g.csv")]) == 0
        assert dets.read_text() == ""

    def test_invalid_spec_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("n_frames = 10\ntargets = 9,5,0,0,1,1\n")
        code = main(["synth", str(cfg), str(tmp_path / "d.csv"), str(tmp_path / "g.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


    @pytest.mark.parametrize(
        "spec",
        [
            "n_frames = 10\ntargets = 1,3,1e300,0,1e300,0\n",
            "n_frames = 10\ntargets = 1,3,9e8,0,9e8,0\n",
            "n_frames = 10\nbounds = 1e300x10\nclutter_rate = 2\n",
        ],
    )
    def test_spec_beyond_coordinate_limit_exits_two(self, tmp_path, capsys, spec):
        cfg = tmp_path / "cfg"
        cfg.write_text(spec)
        dets = tmp_path / "d.csv"
        assert main(["synth", str(cfg), str(dets), str(tmp_path / "g.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not dets.exists()

    def test_clutter_rate_beyond_poisson_range_names_the_spec_file(self, tmp_path, capsys):
        cfg = tmp_path / "busy.cfg"
        cfg.write_text("n_frames = 1\nclutter_rate = 5000\n")
        dets = tmp_path / "d.csv"
        assert main(["synth", str(cfg), str(dets), str(tmp_path / "g.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: clutter_rate must lie in ")
        assert not dets.exists()

    def test_rejected_spec_value_names_the_spec_file(self, tmp_path, capsys):
        cfg = tmp_path / "far.cfg"
        cfg.write_text("n_frames = 10\ntargets = 1,3,1e300,0,1e300,0\n")
        assert main(["synth", str(cfg), str(tmp_path / "d.csv"), str(tmp_path / "g.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: target 0: ")


class TestEval:
    def test_perfect_input_prints_mota_one(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        tracks = tmp_path / "tracks.csv"
        gt_lines = [f"{f},1,{10.0 + f},20.000000\n" for f in range(1, 6)]
        track_lines = [f"{f},1,{10.0 + f},20.000000,1.000000,0.000000,C,M\n" for f in range(1, 6)]
        gt.write_text("".join(gt_lines))
        tracks.write_text("".join(track_lines))
        assert main(["eval", str(tracks), str(gt)]) == 0
        out = capsys.readouterr().out
        assert "mota=1.000000" in out
        assert "id_switches=0" in out
        assert "matches=5" in out

    def test_empty_tracks_scores_zero_or_less(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        tracks = tmp_path / "tracks.csv"
        gt.write_text("1,1,0.0,0.0\n2,1,1.0,1.0\n")
        tracks.write_text("")
        assert main(["eval", str(tracks), str(gt)]) == 0
        out = capsys.readouterr().out
        mota = float([l for l in out.splitlines() if l.startswith("mota=")][0].split("=")[1])
        assert mota <= 0.0

    def test_misaligned_duplicate_records_exit_two(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        tracks = tmp_path / "tracks.csv"
        gt.write_text("1,1,0.0,0.0\n")
        tracks.write_text("1,1,0.0,0.0,0.0,0.0,C,M\n1,1,5.0,5.0,0.0,0.0,C,M\n")
        assert main(["eval", str(tracks), str(gt)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_repeated_gt_id_is_located_in_the_file(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        tracks = tmp_path / "tracks.csv"
        gt.write_text("1,1,0.0,0.0\n1,1,100.0,0.0\n")
        tracks.write_text("1,1,0.0,0.0,0.0,0.0,C,M\n")
        assert main(["eval", str(tracks), str(gt)]) == 2
        assert capsys.readouterr().err == f"error: {gt}:line 2: gt_id 1 appears twice in frame 1\n"

    def test_out_of_range_track_coordinate_exits_two(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        tracks = tmp_path / "huge.csv"
        gt.write_text("1,1,0.0,0.0\n")
        tracks.write_text("1,1,1e200,0.0,0.0,0.0,C,M\n")
        assert main(["eval", str(tracks), str(gt)]) == 2
        err = capsys.readouterr().err
        assert "huge.csv" in err and "line 1" in err
        assert "Traceback" not in err

    def test_tracks_past_gt_horizon_score_as_false_positives(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        tracks = tmp_path / "tracks.csv"
        gt.write_text("1,1,0.0,0.0\n")
        tracks.write_text("1,1,0.0,0.0,0.0,0.0,C,M\n9,1,0.0,0.0,0.0,0.0,C,P\n")
        assert main(["eval", str(tracks), str(gt)]) == 0
        out = capsys.readouterr().out
        assert "false_positives=1" in out
        assert "matches=1" in out

    @pytest.mark.parametrize("radius", ["nan", "-5", "0", "inf"])
    def test_radius_must_be_finite_and_positive(self, tmp_path, capsys, radius):
        gt = tmp_path / "gt.csv"
        tracks = tmp_path / "tracks.csv"
        gt.write_text("1,1,5.0,5.0\n")
        tracks.write_text("1,1,5.0,5.0,0.0,0.0,C,M\n")
        assert main(["eval", str(tracks), str(gt), "--radius", radius]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: match_radius must be finite and positive, got {float(radius)}\n"
        )

    def test_include_tentative_flag(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        tracks = tmp_path / "tracks.csv"
        gt.write_text("1,1,5.0,5.0\n")
        tracks.write_text("1,1,5.0,5.0,0.0,0.0,T,M\n")
        main(["eval", str(tracks), str(gt)])
        assert "matches=0" in capsys.readouterr().out
        main(["eval", str(tracks), str(gt), "--include-tentative"])
        assert "matches=1" in capsys.readouterr().out


class TestRender:
    def test_one_file_per_frame(self, tmp_path, scenario_file):
        _, _, tracks = run_pipeline(tmp_path, scenario_file)
        out_dir = tmp_path / "frames"
        assert main(["render", tracks, str(out_dir), "--bounds", "320x240"]) == 0
        files = sorted(os.listdir(out_dir))
        assert len(files) == 40
        assert files[0] == "frame_000001.svg"

    def test_empty_input_writes_nothing(self, tmp_path):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("")
        out_dir = tmp_path / "frames"
        assert main(["render", str(tracks), str(out_dir)]) == 0
        assert os.listdir(out_dir) == []

    def test_unwritable_destination_exits_two(self, tmp_path, capsys):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("1,1,0.0,0.0,0.0,0.0,C,M\n")
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(["render", str(tracks), str(blocker / "frames")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_bounds_flag_exits_two(self, tmp_path, capsys):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("")
        assert main(["render", str(tracks), str(tmp_path / "f"), "--bounds", "320by240"]) == 2
        assert "bounds" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", ["-5x5", "0x0", "5x-1", "2e9x5"])
    def test_bounds_it_cannot_draw_exit_two(self, tmp_path, capsys, bounds):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("1,1,0.0,0.0,0.0,0.0,C,M\n")
        out_dir = tmp_path / "frames"
        assert main(["render", str(tracks), str(out_dir), f"--bounds={bounds}"]) == 2
        err = capsys.readouterr().err
        assert f"invalid --bounds value {bounds!r}" in err
        assert "bounds must be positive and at most 1e+09" in err
        assert not out_dir.exists()


class TestPipelineDeterminism:
    def test_synth_track_eval_repeats_identically(self, tmp_path, scenario_file, capsys):
        runs = []
        for name in ("one", "two"):
            workdir = tmp_path / name
            workdir.mkdir()
            dets, gt, tracks = run_pipeline(workdir, scenario_file, seed=42)
            assert main(["eval", tracks, gt]) == 0
            runs.append(
                (
                    open(dets, "rb").read(),
                    open(gt, "rb").read(),
                    open(tracks, "rb").read(),
                    capsys.readouterr().out,
                )
            )
        assert runs[0] == runs[1]


# Every integer written into a drawn input is at most 30, so no run is long;
# junk text and arbitrary bytes carry no digits for the same reason.
_TOKENS = st.one_of(
    st.integers(min_value=-3, max_value=30).map(str),
    st.sampled_from(
        ["nan", "inf", "-inf", "1e300", "-1e300", "0.5", "", " ", "T", "C", "D", "M", "P", "30x30"]
    ),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4),
)
_JUNK_LINES = st.lists(_TOKENS, min_size=1, max_size=9).map(",".join)

# Lines shaped like each input's records, so that some files parse and the
# run goes on past the parser.
_NUMBERS = st.integers(min_value=1, max_value=30).map(str)
_KEYS = [f.name for cls in (TrackerConfig, ScenarioSpec) for f in dataclasses.fields(cls)]
_SHAPED = {
    "detections": st.builds(
        lambda xs, confidence: ",".join(xs + confidence),
        st.lists(_NUMBERS, min_size=3, max_size=3),
        st.lists(st.sampled_from(["0", "0.5", "1", "1.5", "-0.5"]), max_size=1),
    ),
    "ground_truth": st.lists(_NUMBERS, min_size=4, max_size=4).map(",".join),
    "tracks": st.builds(
        "{},{},{}".format,
        st.lists(_NUMBERS, min_size=6, max_size=6).map(",".join),
        st.sampled_from("TC"),
        st.sampled_from("MP"),
    ),
    "config": st.builds(
        "{} = {}".format, st.sampled_from(_KEYS + ["junk"]), st.one_of(_NUMBERS, _JUNK_LINES)
    ),
}


# Half of the files end clean; the rest end in a junk line or in digit-free
# arbitrary bytes.
_TAILS = st.sampled_from(
    [
        st.just(b""),
        st.just(b""),
        _JUNK_LINES.map(lambda line: f"\n{line}".encode("utf-8")),
        st.binary(max_size=40).filter(
            lambda raw: not any(ch.isdigit() for ch in raw.decode("utf-8", "ignore"))
        ),
    ]
).flatmap(lambda tail: tail)


def _file(kind):
    return st.builds(
        lambda lines, tail: "\n".join(lines).encode("utf-8") + tail,
        st.lists(_SHAPED[kind], max_size=4),
        _TAILS,
    )


class TestInputContract:
    """Whatever the input bytes, every command ends in a result or a located error."""

    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(["track", "synth", "eval", "render"]), data=st.data())
    def test_exit_zero_or_two_naming_an_input(self, command, data):
        with tempfile.TemporaryDirectory() as root:

            def path(name):
                return os.path.join(root, name)

            def drawn(name, kind):
                with open(path(name), "wb") as handle:
                    handle.write(data.draw(_file(kind), label=name))
                return path(name)

            if command == "track":
                inputs = [drawn("dets.csv", "detections"), drawn("config.cfg", "config")]
                argv = ["track", inputs[0], path("out.csv"), "--config", inputs[1]]
            elif command == "synth":
                inputs = [drawn("spec.cfg", "config")]
                argv = ["synth", inputs[0], path("dets.csv"), path("gt.csv")]
            elif command == "eval":
                inputs = [drawn("tracks.csv", "tracks"), drawn("gt.csv", "ground_truth")]
                argv = ["eval", *inputs]
            else:
                inputs = [drawn("tracks.csv", "tracks")]
                argv = ["render", inputs[0], path("svg")]

            err = StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(StringIO()):
                code = main(argv)

            assert code in (0, 2), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert any(name in err.getvalue() for name in inputs), err.getvalue()
            leftovers = [
                name for _, _, names in os.walk(root) for name in names if name.endswith(".tmp")
            ]
            assert leftovers == []
