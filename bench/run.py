"""The ulws benchmark: seeded inputs, three workloads, checked outputs.

    python3 bench/run.py --workload ingest|predict|train --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Workloads (closed loop, one
client: each CLI run starts when the previous one has exited):

- ingest:  `ulws preprocess` over three ~22 h Sleep-EDF-style nights and
           one pair skipped for its 1 Hz EMG. The only workload running
           edf, filtfilt, epoching and write_cache; no model runs.
- predict: `ulws predict` of a 512-epoch cache with a default-config
           checkpoint. Infer-mode nn/model work; no backward pass, no EDF.
- train:   `ulws train --folds 2 --fold all` with the default model and
           a 2-epoch config, then `ulws evaluate --json`. The only
           workload with backward passes, train-mode BN, dropout and Adam.

Every run of a workload is its own child process (bench/child.py), one at
a time, so `ru_maxrss` from `os.wait4` belongs to that run. This process
imports no numpy: the children's peak RSS would otherwise include its
own. With --trace 0 the runs repeat for --seconds and the medians of the
end-to-end metrics are printed; with --trace 1 one traced run of each
workload gives the per-layer metrics. The last stdout line is the JSON
result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import zlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ingest", "predict", "train")
HARD_LIMIT_S = 150.0  # everything ends well inside the 180 s a run may take
SLEEP_EDF20_TRAIN_EPOCHS = 42_000 * 9 // 10 * 50 * 10  # 10 folds x 50 epochs

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402


class Failed(Exception):
    """A step of the benchmark could not run; no result is printed."""


class Clock:
    def __init__(self) -> None:
        self.start = time.monotonic()

    def left(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)


def spawn_and_wait(argv: list[str], out: Path, clock: Clock) -> tuple[int, object, float]:
    """Run argv with stdout+stderr in `out`; return (exit code, rusage, launch time)."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    launched = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, os.environ,
                         file_actions=actions)
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status), usage, launched
        if clock.left() <= 0:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            return -signal.SIGKILL, usage, launched
        time.sleep(0.005)


def python_step(script: str, args: list[str], log: Path, clock: Clock) -> str:
    code, _, _ = spawn_and_wait([str(BENCH / script)] + args, log, clock)
    text = log.read_text()
    if code != 0:
        raise Failed(f"{script} {' '.join(args)} exited {code}:\n{text[-2000:]}")
    return text


def generate(workload: str, seed: int, work: Path, trace: bool, clock: Clock) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
    python_step("gen.py", args + (["--trace"] if trace else []), work.parent / f"gen-{workload}.log",
                clock)
    return json.loads((work / "plan.json").read_text())


def crc(path: Path) -> int:
    value = 0
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 22):
            value = zlib.crc32(chunk, value)
    return value


class Workload:
    """One workload's plan and the CLI runs made from it."""

    def __init__(self, name: str, seed: int, work: Path, plan: dict) -> None:
        self.name, self.seed, self.work, self.plan = name, seed, work, plan
        self.runs: list[dict] = []
        self.failures: list[str] = []
        self.reference: dict[str, int] | None = None

    def run_once(self, clock: Clock, trace: bool = False) -> dict:
        k = len(self.runs)
        out = self.work / f"run{k}"
        out.mkdir()
        spec = {
            "src": str(ROOT / "src"),
            "bench": str(BENCH),
            "first_work": self.plan["first_work"],
            "trace": trace,
            "result": str(out / "result.json"),
            "spans": str(out / "spans.json"),
            "commands": [{"argv": [a.replace("{out}", str(out)) for a in c["argv"]],
                          "stdout": c["stdout"].replace("{out}", str(out))}
                         for c in self.plan["commands"]],
        }
        (out / "spec.json").write_text(json.dumps(spec))
        code, usage, launched = spawn_and_wait([str(BENCH / "child.py"), str(out / "spec.json")],
                                               out / "stderr.txt", clock)
        run = {"dir": out, "code": code, "wall": time.monotonic() - launched, "trace": trace,
               "peak_rss_mib": usage.ru_maxrss / 1024}
        result_file = out / "result.json"
        if result_file.exists():
            result = json.loads(result_file.read_text())
            run["result"] = result
            if code == 0 and "t_first" in result:
                run["setup_s"] = result["t_first"] - launched
                run["epochs_per_s"] = self.plan["epochs"] / (result["t_done"] - result["t_first"])
        if "epochs_per_s" not in run:
            self.failures.append(f"{self.name} run {k} exited {code}: "
                                 + (out / "stderr.txt").read_text()[-1500:])
        else:
            self.compare(run)
        self.runs.append(run)
        return run

    def compare(self, run: dict) -> None:
        """Outputs must be byte-identical across the runs of one session."""
        sums = {}
        for rel in self.plan["compare"]:
            path = run["dir"] / rel
            sums[rel] = crc(path) if path.exists() else None
        if self.reference is None:
            self.reference = sums
            return
        differ = [rel for rel, value in sums.items() if value != self.reference[rel]]
        if differ:
            self.failures.append(f"{self.name} run {len(self.runs)}: outputs differ from run 0: "
                                 f"{differ}")
        if not run["trace"]:  # keep only the first timed run's outputs on disk
            for rel in self.plan["compare"]:
                (run["dir"] / rel).unlink(missing_ok=True)

    def check(self, run: dict, clock: Clock) -> dict:
        text = python_step("check.py", ["--workload", self.name, "--seed", str(self.seed),
                                        "--work", str(self.work), "--out", str(run["dir"])],
                           run["dir"] / "check.log", clock)
        report = json.loads(text.strip().splitlines()[-1])
        self.failures += report["failed"]
        return report


def median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs if key in r)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise Failed(f"{path.name} not found next to {BENCH.name}/")
    return json.loads(path.read_text())


def emit(spec_metrics: list[dict], values: dict[str, float], attempted: int, failed: int,
         failures: list[str]) -> None:
    """Print the failures, then the result line; any failure makes it incorrect."""
    metrics = {}
    for m in spec_metrics:
        value = values.get(m["name"])
        if value is None or not value > 0:
            failures.append(f"metric {m['name']} has no positive value ({value})")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for message in failures:
        print(f"FAILED: {message}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": max(failed, int(bool(failures))), "metrics": metrics}))


def timed(workload: Workload, seconds: float, clock: Clock) -> tuple[dict, int, int]:
    """Repeat the workload's CLI run for `seconds`; medians of the end-to-end metrics."""
    start = time.monotonic()
    longest = 0.0
    while True:
        run = workload.run_once(clock)
        longest = max(longest, run["wall"])
        print(f"run {len(workload.runs) - 1}: exit {run['code']}, "
              f"setup {run.get('setup_s', float('nan')):.3f} s, "
              f"{run.get('epochs_per_s', float('nan')):.2f} epochs/s, "
              f"peak {run['peak_rss_mib']:.0f} MiB, wall {run['wall']:.2f} s", flush=True)
        if "epochs_per_s" not in run or time.monotonic() - start + longest > seconds:
            break
    ok = [r for r in workload.runs if "epochs_per_s" in r]
    if not ok:
        raise Failed("\n".join(workload.failures))
    report = workload.check(ok[0], clock)
    values = {
        "setup_s": median(ok, "setup_s"),
        "epochs_per_s": median(ok, "epochs_per_s"),
        "peak_rss_mib": median(ok, "peak_rss_mib"),
        "pooled_acc": report["pooled_acc"],
    }
    print(f"checks: {report['checks']} run on run 0, {len(report['failed'])} failed; "
          f"info {json.dumps(report['info'])}")
    if workload.name == "train":
        hours = SLEEP_EDF20_TRAIN_EPOCHS / values["epochs_per_s"] / 3600
        print(f"projected 10-fold x 50-epoch Sleep-EDF-20 run (~42k epochs): {hours:.1f} h "
              f"at {values['epochs_per_s']:.2f} epochs/s")
    return values, len(workload.runs), len(workload.runs) - len(ok)


def traced(name: str, seed: int, work_root: Path, clock: Clock) -> tuple[dict, int, list]:
    """Untraced and traced run of `name`, traced runs of the other workloads."""
    order = [name] + [w for w in WORKLOADS if w != name]
    loads = {}
    for w in order:
        work = work_root / w
        loads[w] = Workload(w, seed, work, generate(w, seed, work, True, clock))
    chosen = loads[name]
    print("facts " + json.dumps(chosen.plan["facts"]))
    plain = chosen.run_once(clock)
    runs = {w: loads[w].run_once(clock, trace=True) for w in order}
    if any("epochs_per_s" not in r for r in [plain, *runs.values()]):
        raise Failed("\n".join(f for w in order for f in loads[w].failures))
    report = chosen.check(runs[name], clock)
    spans = {w: json.loads((r["dir"] / "spans.json").read_text())["spans"] for w, r in runs.items()}
    keep = work_root.parent / f"trace-{name}-seed{seed}.json"
    keep.write_text(json.dumps({w: {"spans": s, "result": runs[w]["result"]}
                                for w, s in spans.items()}))

    rows = runs["predict"]["result"]["rows"]
    values = layers.model_metrics(spans["predict"], rows, "infer")
    values |= layers.model_metrics(spans["train"], runs["train"]["result"]["rows"], "train")
    values["model.infer.kernel_calls"] = layers.kernel_calls_per_batch(spans["predict"])
    values |= layers.ingest_metrics(spans["ingest"])
    values["preprocess.read_cache.MBps"] = layers.rate(spans["predict"], "preprocess.read_cache",
                                                       1e-6)
    training, step_note = layers.training_metrics(spans["train"])
    values |= training
    values["cli.self_s"] = layers.cli_self_seconds(spans[name])
    predict_cache = loads["predict"].work / "predict.ulws"
    for op, extra in (("read", []), ("write", [str(seed)])):
        target = predict_cache if op == "read" else work_root / "probe.ulws"
        text = python_step("probe.py", [op, str(target)] + extra, work_root / f"probe-{op}.log",
                           clock)
        values[f"preprocess.{op}_cache.peak_rss_ratio"] = json.loads(text.splitlines()[-1])["ratio"]

    for mode, missing in layers.missing_rows(spans["train"], rows).items():
        if missing:
            chosen.failures.append(f"train trace: no {mode} time for rows {missing}")
    if layers.missing_rows(spans["predict"], rows)["infer"]:
        chosen.failures.append("predict trace: infer rows without time")

    flops = {r["layer"]: r["flops"] for r in rows}
    moved = layers.row_bytes(runs["predict"]["result"]["config"])
    for row in rows:
        us = values[f"infer.{row['layer']}.us"]
        print(f"infer {row['layer']:<24} {us:10.1f} us/epoch  "
              f"{flops[row['layer']] / us / 1e3 if us else 0:7.3f} GFLOP/s  "
              f"{moved[row['layer']] / 1e3:9.1f} kB/epoch moved  "
              f"{moved[row['layer']] / us if us else 0:8.1f} MB/s  (FLOP/s and bytes computed)")
    print(step_note)
    print(f"tracing overhead on {name}: untraced {plain.get('epochs_per_s', 0):.2f} epochs/s, "
          f"traced {runs[name].get('epochs_per_s', 0):.2f} epochs/s")
    print(f"checks: {report['checks']} on the traced {name} run, {len(report['failed'])} failed")
    return values, sum(len(w.runs) for w in loads.values()), \
        [f for w in order for f in loads[w].failures]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    clock = Clock()
    work_root = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        if not (ROOT / "src" / "ulws" / "cli.py").is_file():
            raise Failed(f"no ulws sources under {ROOT / 'src'}")
        spec = load_spec()
        work_root.mkdir(parents=True)
        if args.trace:
            values, attempted, failures = traced(args.workload, args.seed, work_root, clock)
            emit(spec["per_layer"], values, attempted, 0, failures)
            return 0
        work = work_root / args.workload
        workload = Workload(args.workload, args.seed, work,
                            generate(args.workload, args.seed, work, False, clock))
        print("facts " + json.dumps(workload.plan["facts"]))
        values, attempted, failed = timed(workload, args.seconds, clock)
        emit(spec["end_to_end"], values, attempted, failed, workload.failures)
        return 0
    except Failed as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
