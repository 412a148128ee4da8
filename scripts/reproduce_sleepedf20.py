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

An existing cache in --workdir is reused only if it is the file its
manifest names by CRC-32, and that manifest names the channels that
--channels asks for.
"""

import argparse
import json
import sys
from pathlib import Path

from ulws.cli import DEFAULT_CHANNELS
from ulws.cli import main as ulws
from ulws.errors import UlwsError
from ulws.preprocess import read_cache


def run(argv: list[str]) -> None:
    print("+ ulws " + " ".join(argv), flush=True)
    code = ulws(argv)
    if code != 0:
        sys.exit(code)


def check_cache(cache: Path, channels: str) -> None:
    """Exit unless `cache` is the file whose CRC-32 the manifest that `ulws
    preprocess` wrote beside it names, and holds the comma-separated
    `channels`, in order, as that manifest records them.

    A cache rewritten after its manifest, as when the manifest's write
    failed, sits beside the manifest of an earlier cache, whose channels
    say nothing about it.
    """
    manifest = cache.with_name(cache.name + ".manifest.json")
    wanted = [c.strip() for c in channels.split(",")] if channels else DEFAULT_CHANNELS
    try:
        recorded = json.loads(manifest.read_text())
        cached, named = recorded["channels"], recorded["cache_crc32"]
    except (OSError, ValueError, KeyError) as e:
        sys.exit(f"{cache}: cannot read its channels and CRC-32 from {manifest}: {e!r}")
    try:
        crc = read_cache(cache).crc32
    except (UlwsError, OSError) as e:
        crc = f"unreadable ({type(e).__name__}: {e})"
    if crc != named:
        sys.exit(f"{cache}: CRC-32 is {crc}, but {manifest} names {named}; "
                 "remove the cache to rebuild it")
    if cached != wanted:
        sys.exit(f"{cache} holds channels {cached}, but --channels asks for {wanted}; "
                 "remove the cache to rebuild it, or pass its channels")


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
        check_cache(cache, args.channels)
        print(f"reusing cache {cache}")

    run(["train", "--cache", str(cache), "--folds", str(args.folds),
         "--fold", args.fold, "--out", str(work / "cv")])
    run(["evaluate", "--predictions", str(work / "cv")])


if __name__ == "__main__":
    main()
