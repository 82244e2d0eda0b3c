"""Seeded workload scenes for the benchmark.

The benchmark seed reaches this module only. It draws every target's start
position and velocity from the package's pinned stream (so a scene does not
depend on the numpy version) and derives the noise seed that goes into the
spec file. The program under test sees nothing but that spec file.
"""

from __future__ import annotations

from dataclasses import dataclass

from pointtrack.rng import SplitMix64


@dataclass(frozen=True)
class Workload:
    """Shape of one scene family; `seed` picks the member."""

    name: str
    why: str
    n_targets: int
    n_frames: int
    life: int  # frames each target is alive; births are spread evenly
    bounds: tuple[float, float]
    vmax: float  # each velocity component is uniform in [-vmax, vmax]
    clutter_rate: float
    noise_sigma: float = 1.0
    miss_prob: float = 0.05


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse50",
            why="50 targets x 200 frames in 2000x2000, v<=3, clutter 5: ~57x57 "
            "solves per frame with 1x1 in-gate components, so assignment-bound",
            n_targets=50,
            n_frames=200,
            life=200,
            bounds=(2000.0, 2000.0),
            vmax=3.0,
            clutter_rate=5.0,
        ),
        Workload(
            name="crowd40",
            why="160 targets alive 100 of 400 frames in 300x300 (~40 at once), "
            "v<=1, clutter 2: large in-gate components and ID switches",
            n_targets=160,
            n_frames=400,
            life=100,
            bounds=(300.0, 300.0),
            vmax=1.0,
            clutter_rate=2.0,
        ),
        Workload(
            name="long5k",
            why="50 targets alive 400 of 5000 frames in 640x480 (~4 at once), "
            "clutter 0.5: tiny solves, so filter, io and per-frame costs dominate",
            n_targets=50,
            n_frames=5000,
            life=400,
            bounds=(640.0, 480.0),
            vmax=1.0,
            clutter_rate=0.5,
        ),
    )
}


def birth_frames(workload: Workload) -> list[int]:
    """Evenly staggered 1-based birth frames, so every target fits its life."""
    span = workload.n_frames - workload.life
    if workload.n_targets == 1 or span == 0:
        return [1] * workload.n_targets
    return [1 + i * span // (workload.n_targets - 1) for i in range(workload.n_targets)]


def spec_text(workload: Workload, seed: int) -> str:
    """The `synth` spec file for one seeded member of a workload."""
    stream = SplitMix64(seed)
    width, height = workload.bounds
    targets = []
    for birth in birth_frames(workload):
        x = stream.uniform() * width
        y = stream.uniform() * height
        vx = (2.0 * stream.uniform() - 1.0) * workload.vmax
        vy = (2.0 * stream.uniform() - 1.0) * workload.vmax
        targets.append(f"{birth},{birth + workload.life - 1},{x!r},{y!r},{vx!r},{vy!r}")
    noise_seed = stream.next_u64()
    return (
        f"n_frames = {workload.n_frames}\n"
        f"noise_sigma = {workload.noise_sigma!r}\n"
        f"miss_prob = {workload.miss_prob!r}\n"
        f"clutter_rate = {workload.clutter_rate!r}\n"
        f"bounds = {width!r}x{height!r}\n"
        f"seed = {noise_seed}\n"
        f"targets = {';'.join(targets)}\n"
    )
