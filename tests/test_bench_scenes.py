"""The benchmark's three seed-1 scenes, pinned byte for byte through the CLI.

perfbench checks that the CLI agrees with the library, not that either
still produces what it did, so a change that moves one digit of a scene's
solves would show only here. The specs come from `perfbench/scenes.py`,
imported by path and only read.
"""

import contextlib
import hashlib
import importlib.util
import sys
from io import StringIO
from pathlib import Path

import pytest

from pointtrack.cli import main

SCENES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "scenes.py"


def _load_scenes():
    spec = importlib.util.spec_from_file_location("perfbench_scenes", SCENES_PATH)
    module = importlib.util.module_from_spec(spec)
    # `dataclass` looks its class's module up in `sys.modules`.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# workload: (detections, ground truth, tracks) sha256, and `eval` stdout.
PINNED = {
    "sparse50": (
        "71807748918c106916577e3d5363f797ff35699fa6a4b9cad4d7247c4b22d901",
        "0150c0898779227e2130816272aacb1b2b92420587ab2c599e5cccb8b9733478",
        "edd1b1fc7d1cfd009770f0952377efbd86bd7af6e5056da5bac701dd8d8634ef",
        "matches=9893\nmisses=107\nfalse_positives=2\nid_switches=0\n"
        "fragmentation=0\nmota=0.989100\n",
    ),
    "crowd40": (
        "6c623cf15672bb1f33d7203d80db3999c83865925700c67e324c3cb48fad51be",
        "e11fa379b053dcbe35390ab1844f93ebf2d5bf578b7a2e52d6947a7134ef9541",
        "bfe2d53a593569b8913298a22df533bb8a41d341732fa9b554698526968f63ab",
        "matches=15652\nmisses=348\nfalse_positives=888\nid_switches=75\n"
        "fragmentation=7\nmota=0.918063\n",
    ),
    "long5k": (
        "6e4c2c5acd21d52f424d1cbc0fcda78229d500b109b3dc14134e727faaa77a1d",
        "776b3fbacac337bc0290081cc96874e41cf4ac957b982d2236e8f6528ece3c27",
        "328161d4b9d960e939e7434be206440fe109652a9a400385205ee944d8efd09e",
        "matches=19894\nmisses=106\nfalse_positives=244\nid_switches=0\n"
        "fragmentation=0\nmota=0.982500\n",
    ),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_benchmark_scene_outputs_are_pinned(tmp_path, workload):
    scenes = _load_scenes()
    spec, dets, gt, tracks = (
        str(tmp_path / name) for name in ("spec.cfg", "dets.csv", "gt.csv", "tracks.csv")
    )
    Path(spec).write_text(scenes.spec_text(scenes.WORKLOADS[workload], 1), encoding="utf-8")
    assert main(["synth", spec, dets, gt]) == 0
    assert main(["track", dets, tracks]) == 0
    stdout = StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["eval", tracks, gt]) == 0

    digests = [hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in (dets, gt, tracks)]
    assert (*digests, stdout.getvalue()) == PINNED[workload]
