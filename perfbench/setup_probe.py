"""Set-up time of one fresh interpreter: `import pointtrack` plus the first step.

Usage: python3 setup_probe.py SRC_DIR DETECTIONS_FILE

Prints the seconds from just before `import pointtrack` to the return of the
first `Tracker.step`, fed with frame 1 of the detection file. The file is
read before the clock starts; interpreter start-up is not counted.
"""

import sys
from time import perf_counter


def main() -> None:
    src, detections_path = sys.argv[1:3]
    with open(detections_path, encoding="utf-8") as handle:
        frame_one = [line.split(",") for line in handle if line.startswith("1,")]
    sys.path.insert(0, src)
    start = perf_counter()
    import pointtrack

    tracker = pointtrack.Tracker()
    tracker.step(
        1, [pointtrack.Detection(1, float(x), float(y), float(c)) for _, x, y, c in frame_one]
    )
    elapsed = perf_counter() - start
    print(repr(elapsed))


if __name__ == "__main__":
    main()
