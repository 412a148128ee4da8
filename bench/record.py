"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/record.py --seeds 1-10 [--workloads ingest,predict,train]
                            [--traced] [--out bench/results/BENCH_<label>.json]

For every workload it runs `bench/run.py` once per seed (with the
BENCHMARK.json run length), then prints each end-to-end metric's median
and its spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound. --traced adds one traced run per workload, whose
per-layer values are stored with the rest. --out writes everything,
with the machine facts, as one point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    facts = next((json.loads(l[6:]) for l in lines if l.startswith("facts ")), {})
    return json.loads(lines[-1]), facts


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds(args.seeds):
            result, facts = run(name, seed, spec["run_seconds"], 0)
            summary.setdefault("facts", facts)
            runs.append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"{result['attempted']} runs, {result['failed']} failed, {values}", flush=True)
        entry: dict = {"runs": runs, "metrics": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            entry["metrics"][metric] = {"median": statistics.median(values),
                                        "spread": spread(values) if len(values) > 1 else 0.0,
                                        "bound": bound}
            print(f"  {name} {metric:<14} median {statistics.median(values):12.4f}  spread "
                  f"{entry['metrics'][metric]['spread']:.4f} (bound {bound})", flush=True)
        if args.traced:
            result, _ = run(name, seeds(args.seeds)[0], spec["run_seconds"], 1)
            entry["traced"] = result
            print(f"  {name} traced: correct={result['correct']}", flush=True)
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
