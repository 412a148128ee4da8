"""Peak-RSS growth of one cache read or one cache write, in a fresh process.

    python3 bench/probe.py read  CACHE        # read CACHE
    python3 bench/probe.py write CACHE SEED   # write the predict dataset to CACHE

Prints {"ratio": peak RSS growth / payload bytes, "payload": bytes}. The
growth is the process's peak RSS after the call minus its resident set
just before it, so everything the process held earlier is excluded.
"""

import json
import os
import resource
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main() -> None:
    from ulws.preprocess import read_cache, write_cache

    op, path = sys.argv[1], sys.argv[2]
    if op == "read":
        before = resident_bytes()
        dataset = read_cache(path)
    else:
        sys.path.insert(0, str(BENCH))
        from gen import predict_dataset

        dataset = predict_dataset(int(sys.argv[3]))
        before = resident_bytes()
        write_cache(dataset, path)
    payload = dataset.x.nbytes
    print(json.dumps({"ratio": (peak_bytes() - before) / payload, "payload": payload}))


if __name__ == "__main__":
    main()
