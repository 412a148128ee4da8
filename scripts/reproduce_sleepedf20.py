#!/usr/bin/env python3
"""Full 10-fold subject-wise cross-validation on a local Sleep-EDF-20 copy.

Expects a directory of paired *-PSG.edf / *-Hypnogram.edf files (the
sleep-cassette recordings). This is the multi-hour CPU reproduction;
nothing here is part of the routine test gate.

    python scripts/reproduce_sleepedf20.py --data-dir /data/sleep-cassette \
        --workdir /tmp/ulws-repro

Note: in some releases the submental EMG channel is stored as a 1 Hz
envelope; records whose requested channels are not all at 100 Hz are
rejected. Drop EMG from --channels in that case.
"""

import argparse
import sys
from pathlib import Path

from ulws.cli import DEFAULT_CHANNELS
from ulws.cli import main as ulws


def run(argv: list[str]) -> None:
    print("+ ulws " + " ".join(argv), flush=True)
    code = ulws(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--workdir", default="/tmp/ulws-repro")
    parser.add_argument("--channels", default=",".join(DEFAULT_CHANNELS))
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--fold", default="all", help="run one fold index, or 'all'")
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    cache = work / "sleepedf20.ulws"

    if not cache.exists():
        run(["preprocess", "--data-dir", args.data_dir, "--out", str(cache),
             "--channels", args.channels])
    else:
        print(f"reusing cache {cache}")

    run(["train", "--cache", str(cache), "--folds", str(args.folds),
         "--fold", args.fold, "--out", str(work / "cv")])
    run(["evaluate", "--predictions", str(work / "cv")])


if __name__ == "__main__":
    main()
