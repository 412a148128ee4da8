#!/usr/bin/env python3
"""Byte identity of one seeded run suite: this tree against a commit, or 1 BLAS thread against 2.

    python scripts/identity_check.py --ref HEAD     # both sides at OPENBLAS_NUM_THREADS=1
    python scripts/identity_check.py --two-threads  # this tree at 1 and at 2 BLAS threads

`--ref` extracts the commit with `git archive`. Everything is built in a
temporary directory, removed at the end. Each side builds the same suite
in a directory of its own, with its own tree's code and scripts, every
command under -W error::RuntimeWarning -W error::ResourceWarning:

- the synthetic demo tree (scripts/synthetic_demo.py, its stdout included)
- the demo's 2 folds again with standard convolutions and with the study
  grid's ks7_ps4 sizes
- `ulws count --json` for the 8 study variants
- the seed-1 benchmark `ingest`, `train` and `predict` plans of
  bench/gen.py: their inputs, and every output and stdout of their
  commands; the `ingest` plan runs again with --filter-all-channels

Every command runs in its side's directory with relative paths, so no
output names its side. Then every file is compared byte for byte, apart
from the run logs and manifests, which hold wall-clock times. Prints one
JSON verdict naming each file that differs or exists on one side only, and
exits 1 on any difference, on fewer than 6 fold checkpoints a side, or
when a command fails. It trains, so it is not part of the test suite.
"""

import argparse
import filecmp
import fnmatch
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STRICT = ["-W", "error::RuntimeWarning", "-W", "error::ResourceWarning"]
UNCOMPARED = ("runlog.jsonl", "*.manifest.json")  # wall-clock times
MIN_CHECKPOINTS = 6
# the demo's model with standard convolutions, which run through sgemm too, and with
# the ks7_ps4 sizes: on 3000-sample epochs OpenBLAS threads the conv products from
# kernel_size 7 on
VARIANTS = {"standard": {"conv_type": "standard"},
            "ks7_ps4": {"kernel_size": 7, "pool_size": 4, "pool_stride": 2}}
BENCH_SEED = 1
BENCH_WORKLOADS = ("ingest", "train", "predict")
# each plan's commands run into bench-<workload>/out as written; these run them again
# into another directory with more arguments
BENCH_RERUNS = {"ingest": {"out-filter-all": ["--filter-all-channels"]}}

COUNT_VARIANTS = """
import contextlib, json, sys
from pathlib import Path
from ulws.cli import main
from ulws.model import variant_configs
out = Path("count")
out.mkdir()
for name, config in variant_configs().items():
    path = out / f"{name}.json"
    path.write_text(json.dumps(config.to_dict()))
    with open(out / f"{name}.count.json", "w") as fh, contextlib.redirect_stdout(fh):
        if main(["count", "--config", str(path), "--json"]) != 0:
            sys.exit(f"ulws count failed for {name}")
"""

# writes a workload's inputs under bench-<workload>/ and prints its plan
BENCH_INPUTS = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import gen
workload = sys.argv[2]
print(json.dumps(gen.write_inputs(workload, int(sys.argv[3]), Path(f"bench-{workload}"))))
"""


def run(tree: Path, threads: int, side: Path, args: list[str], stdout=None) -> bytes:
    """Run `python STRICT args` with tree's code in the side's directory; return its
    stdout, or write it to the file `stdout` names there."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS=str(threads))
    command = [sys.executable, *STRICT, *args]
    if stdout is None:
        return subprocess.run(command, cwd=side, env=env, check=True, stdout=subprocess.PIPE).stdout
    with open(side / stdout, "wb") as fh:
        subprocess.run(command, cwd=side, env=env, check=True, stdout=fh)
    return b""


def build(tree: Path, threads: int, side: Path) -> None:
    side.mkdir(parents=True)
    run(tree, threads, side, [str(tree / "scripts" / "synthetic_demo.py"), "--workdir", "demo"],
        stdout="demo.txt")
    model = json.loads((side / "demo" / "model.json").read_text())
    for name, change in VARIANTS.items():
        (side / f"{name}.json").write_text(json.dumps(dict(model, **change)))
        run(tree, threads, side,
            ["-m", "ulws.cli", "train", "--cache", "demo/demo.ulws", "--model-config",
             f"{name}.json", "--train-config", "demo/train.json", "--folds", "2", "--fold",
             "all", "--out", f"demo/cv-{name}"], stdout=f"cv-{name}.txt")
    run(tree, threads, side, ["-c", COUNT_VARIANTS])
    for workload in BENCH_WORKLOADS:
        plan = json.loads(run(tree, threads, side, ["-c", BENCH_INPUTS, str(tree / "bench"),
                                                    workload, str(BENCH_SEED)]))
        for name, extra in {"out": [], **BENCH_RERUNS.get(workload, {})}.items():
            out = f"bench-{workload}/{name}"
            (side / out).mkdir()
            for command in plan["commands"]:
                argv = [arg.replace("{out}", out) for arg in command["argv"]] + extra
                run(tree, threads, side, ["-m", "ulws.cli", *argv],
                    stdout=command["stdout"].replace("{out}", out))


def compared_files(side: Path) -> set[str]:
    return {p.relative_to(side).as_posix() for p in side.rglob("*")
            if p.is_file() and not any(fnmatch.fnmatch(p.name, u) for u in UNCOMPARED)}


def checkpoints(side: Path) -> int:
    return sum(1 for p in side.rglob("checkpoint.ulwm") if p.parent.name.startswith("fold"))


def extract(ref: str, dest: Path) -> str:
    """Write the tree of commit `ref` into dest; return the commit's short hash."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", f"{ref}^{{commit}}"],
                            check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def check(args, work: Path) -> dict:
    if args.ref is not None:
        ref_tree = work / "ref-tree"
        commit = extract(args.ref, ref_tree)
        sides = {f"ref {commit}": (ref_tree, 1), "this tree": (ROOT, 1)}
    else:
        sides = {"1 thread": (ROOT, 1), "2 threads": (ROOT, 2)}
    dirs = {}
    for i, (label, (tree, threads)) in enumerate(sides.items()):
        dirs[label] = work / f"side{i}"
        build(tree, threads, dirs[label])
    (a, da), (b, db) = dirs.items()
    fa, fb = compared_files(da), compared_files(db)
    differ = sorted(f for f in fa & fb if not filecmp.cmp(da / f, db / f, shallow=False))
    found = {label: checkpoints(d) for label, d in dirs.items()}
    return {
        "sides": list(dirs),
        "files": len(fa | fb),
        "fold_checkpoints": found,
        "differ": differ,
        "only_in": {a: sorted(fa - fb), b: sorted(fb - fa)},
        "identical": not differ and fa == fb and min(found.values()) >= MIN_CHECKPOINTS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--ref", help="commit to compare this tree against, both at 1 BLAS thread")
    mode.add_argument("--two-threads", action="store_true",
                      help="compare this tree at 1 BLAS thread against 2")
    args = parser.parse_args()
    try:
        with tempfile.TemporaryDirectory(prefix="ulws-identity-") as work:
            verdict = check(args, Path(work))
    except subprocess.CalledProcessError as e:
        print(f"identity_check: {' '.join(map(str, e.cmd))[:300]} exited {e.returncode}",
              file=sys.stderr)
        return 1
    print(json.dumps(verdict, indent=2))
    return 0 if verdict["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
