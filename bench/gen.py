"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed. The program under test
only ever sees the files written by `write_inputs`; the checker calls the
same functions again to rebuild the references it compares against.

- ingest: Sleep-EDF-style PSG/hypnogram pairs, written byte by byte from
  the EDF/EDF+ on-disk layout (256-byte header, 256 bytes per signal,
  16-bit little-endian words, TAL annotations).
- predict: a `sinusoid_dataset` cache plus a default-config checkpoint
  whose biases, BN statistics and BN affine parameters are seeded random
  values rather than their init values.
- train: a smaller `sinusoid_dataset` cache and a short train config.

    python3 bench/gen.py --workload predict --seed 3 --work .bench_work/x
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ulws.model import ModelConfig, build_model, save_checkpoint  # noqa: E402
from ulws.preprocess import write_cache  # noqa: E402
from ulws.synthetic import sinusoid_dataset  # noqa: E402

WORKLOADS = ("ingest", "predict", "train")

RATE_HZ = 100
RECORD_S = 30
CHANNELS = ["EEG Fpz-Cz", "EEG Pz-Oz", "EOG horizontal", "EMG submental"]

# ingest: full-length nights (22 h) plus one short pair whose EMG runs at
# 1 Hz, so `preprocess` takes its skip path once per run. Lengths are fixed
# so peak RSS does not move with the seed.
INGEST_NIGHTS = 3
NIGHT_RECORDS = 2640
SKIP_RECORDS = 240
WAKE_MARGIN = 60  # epochs of wake kept around the sleep span

PREDICT_EPOCHS = 512
PREDICT_SUBJECTS = 8
PREDICT_SAMPLE = 48  # epochs re-scored by the infer-mode oracle

TRAIN_EPOCHS = 128
TRAIN_SUBJECTS = 4
TRAIN_FOLDS = 2
TRAIN_CONFIG = {"epochs": 2, "batch_size": 32, "base_lr": 0.001}
# the traced run trains longer so the step tail has at least 10 steps beyond it
TRACE_TRAIN_EPOCHS = 6

STAGE_CLASS = {
    "Sleep stage W": 0,
    "Sleep stage 1": 1,
    "Sleep stage 2": 2,
    "Sleep stage 3": 3,
    "Sleep stage 4": 3,
    "Sleep stage R": 4,
}
EXCLUDED = ("Sleep stage ?", "Movement time")


# --- EDF/EDF+ writer -----------------------------------------------------------

def _field(value, width: int) -> bytes:
    text = f"{value:g}" if isinstance(value, float) else str(value)
    raw = text.encode("ascii")
    if len(raw) > width:
        raise ValueError(f"{text!r} does not fit {width} bytes")
    return raw.ljust(width)


def edf_bytes(signals: list[dict], n_records: int, record_s: float, edf_plus: bool) -> bytes:
    """One EDF file. Each signal dict holds label, spr, digital (n_records*spr
    int16 words), physical and digital ranges, transducer and unit."""
    ns = len(signals)
    head = bytearray()
    head += _field("0", 8)
    head += _field("X X X X", 80)
    head += _field("Startdate 01-JAN-1990 X X X", 80)
    head += _field("01.01.90", 8)
    head += _field("22.00.00", 8)
    head += _field(256 * (ns + 1), 8)
    head += _field("EDF+C" if edf_plus else "", 44)
    head += _field(n_records, 8)
    head += _field(float(record_s), 8)
    head += _field(ns, 4)
    for key, width in (("label", 16), ("transducer", 80), ("unit", 8), ("pmin", 8),
                       ("pmax", 8), ("dmin", 8), ("dmax", 8), ("prefilter", 80),
                       ("spr", 8)):
        for s in signals:
            head += _field(s[key], width)
    head += b" " * (32 * ns)
    # data records interleave every signal's words record by record
    body = np.concatenate(
        [np.asarray(s["digital"], dtype="<i2").reshape(n_records, s["spr"]) for s in signals],
        axis=1,
    )
    return bytes(head) + body.tobytes()


def _signal(label: str, spr: int, digital: np.ndarray) -> dict:
    return {"label": label, "spr": spr, "digital": digital, "pmin": -500.0, "pmax": 500.0,
            "dmin": -32768, "dmax": 32767, "transducer": "Ag-AgCl electrodes",
            "unit": "uV", "prefilter": "HP:0.5Hz LP:100Hz"}


def psg_bytes(rng: np.random.Generator, n_records: int, emg_rate_hz: int) -> bytes:
    """Four channels of uniform noise plus three seeded rhythms, as int16.

    Each rhythm completes whole cycles per 30 s record, so one record's
    template tiles into a continuous signal.
    """
    signals = []
    for label in CHANNELS:
        rate = emg_rate_hz if label.startswith("EMG") else RATE_HZ
        spr = RECORD_S * rate
        t = np.arange(spr) / rate
        template = np.zeros(spr)
        for cycles in rng.integers(2, max(3, spr // 5), size=3):
            template += rng.uniform(1000.0, 4000.0) * np.sin(2 * np.pi * cycles / RECORD_S * t)
        noise = rng.integers(-3000, 3001, size=n_records * spr, dtype=np.int16)
        digital = noise + np.tile(np.rint(template).astype(np.int16), n_records)
        signals.append(_signal(label, spr, digital))
    return edf_bytes(signals, n_records, RECORD_S, edf_plus=False)


def tal(onset: float, duration: float | None, text: str) -> bytes:
    head = f"+{onset:g}".encode("ascii")
    if duration is not None:
        head += b"\x15" + f"{duration:g}".encode("ascii")
    return head + b"\x14" + (text.encode("ascii") + b"\x14" if text else b"") + b"\x00"


def hypnogram_bytes(stages: list[str]) -> bytes:
    """EDF+ annotation file: one event per run of equal stages, in one record."""
    payload = tal(0, None, "")
    start = 0
    for i in range(1, len(stages) + 1):
        if i == len(stages) or stages[i] != stages[start]:
            payload += tal(start * RECORD_S, (i - start) * RECORD_S, stages[start])
            start = i
    if len(payload) % 2:
        payload += b"\x00"
    words = np.frombuffer(payload, dtype="<i2")
    signal = {"label": "EDF Annotations", "spr": len(words), "digital": words,
              "pmin": -1.0, "pmax": 1.0, "dmin": -32768, "dmax": 32767,
              "transducer": "", "unit": "", "prefilter": ""}
    return edf_bytes([signal], 1, float(len(stages) * RECORD_S), edf_plus=True)


def stage_sequence(rng: np.random.Generator, n_epochs: int) -> list[str]:
    """Wake, then ~90-min cycles of N1/N2/N3/REM with brief arousals and a
    few unscored or movement epochs, then wake to the end of the night."""
    wake_before = int(rng.integers(n_epochs // 4, n_epochs // 3))
    sleep_len = int(n_epochs * 0.375)
    seq = ["Sleep stage W"] * wake_before
    while len(seq) < wake_before + sleep_len:
        for text, lo, hi in (("Sleep stage 1", 4, 12), ("Sleep stage 2", 30, 60),
                             ("Sleep stage 3", 10, 30), ("Sleep stage 4", 0, 20),
                             ("Sleep stage 2", 10, 30), ("Sleep stage R", 10, 35)):
            seq += [text] * int(rng.integers(lo, hi + 1))
            roll = rng.random()
            if roll < 0.25:
                seq += [EXCLUDED[int(rng.integers(2))]] * int(rng.integers(1, 3))
            elif roll < 0.4:
                seq += ["Sleep stage W"] * int(rng.integers(1, 4))
    seq = seq[: wake_before + sleep_len]
    seq += ["Sleep stage W"] * (n_epochs - len(seq) - 20) + ["Sleep stage ?"] * 20
    return seq


def night_plan(seed: int) -> list[dict]:
    """Stems, lengths, EMG rates and stage sequences of every pair."""
    rng = np.random.default_rng([seed, 11])
    plan = []
    for i in range(INGEST_NIGHTS + 1):
        skip = i == INGEST_NIGHTS
        n = SKIP_RECORDS if skip else NIGHT_RECORDS
        plan.append({"stem": f"SC40{i}1", "records": n, "emg_rate": 1 if skip else RATE_HZ,
                     "stages": stage_sequence(rng, n)})
    return plan


def expected_labels(stages: list[str]) -> list[int]:
    """Labels a correct `preprocess` keeps: excluded epochs dropped, then the
    sleep span plus WAKE_MARGIN epochs of wake on each side."""
    kept = [STAGE_CLASS[s] for s in stages if s not in EXCLUDED]
    sleep = [i for i, c in enumerate(kept) if c != 0]
    return kept[max(0, sleep[0] - WAKE_MARGIN): sleep[-1] + WAKE_MARGIN + 1]


# --- caches and checkpoint --------------------------------------------------------

def predict_dataset(seed: int):
    return sinusoid_dataset(n_epochs=PREDICT_EPOCHS, n_subjects=PREDICT_SUBJECTS,
                            seed=seed)


def train_dataset(seed: int):
    return sinusoid_dataset(n_epochs=TRAIN_EPOCHS, n_subjects=TRAIN_SUBJECTS, seed=seed)


def checkpoint_params(seed: int):
    """Default-config (C=4, T=3000) parameters with non-trivial biases and BN."""
    params = build_model(ModelConfig(), seed=seed)
    rng = np.random.default_rng([seed, 17])
    for blk in params.blocks:
        for conv in (blk.main_conv1, blk.main_conv2, blk.shortcut_conv1, blk.shortcut_conv2):
            conv.bias[...] = rng.normal(0.0, 0.1, conv.bias.shape)
        for bn in (blk.bn1, blk.bn2):
            bn.gamma[...] = rng.uniform(0.5, 1.5, bn.gamma.shape)
            bn.beta[...] = rng.normal(0.0, 0.2, bn.beta.shape)
            bn.running_mean[...] = rng.normal(0.0, 0.2, bn.running_mean.shape)
            bn.running_var[...] = rng.uniform(0.05, 2.0, bn.running_var.shape)
    for dense in (params.head_hidden, params.head_out):
        dense.bias[...] = rng.normal(0.0, 0.1, dense.bias.shape)
    return params


def sample_indices(seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 23])
    return sorted(rng.choice(PREDICT_EPOCHS, size=PREDICT_SAMPLE, replace=False).tolist())


# --- plans ------------------------------------------------------------------------

def write_inputs(workload: str, seed: int, work: Path, trace: bool = False) -> dict:
    """Write the workload's inputs under `work`; return its run plan.

    A plan lists the CLI commands one run executes ("{out}" stands for the
    run's own output directory), the function whose first call ends set-up,
    the epochs one run processes, and the outputs that must come out
    byte-identical in every run of a session.
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload == "ingest":
        data = work / "edf"
        data.mkdir(exist_ok=True)
        rng = np.random.default_rng([seed, 5])
        epochs = 0
        for night in night_plan(seed):
            (data / f"{night['stem']}E0-PSG.edf").write_bytes(
                psg_bytes(rng, night["records"], night["emg_rate"]))
            (data / f"{night['stem']}EC-Hypnogram.edf").write_bytes(
                hypnogram_bytes(night["stages"]))
            if night["emg_rate"] == RATE_HZ:
                epochs += len(expected_labels(night["stages"]))
        argv = ["preprocess", "--data-dir", str(data), "--out", "{out}/cache.ulws"]
        return {"commands": [{"argv": argv, "stdout": "{out}/stdout.txt"}],
                "first_work": "ulws.edf.load_record", "epochs": epochs,
                "compare": ["cache.ulws"]}
    if workload == "predict":
        write_cache(predict_dataset(seed), work / "predict.ulws")
        save_checkpoint(checkpoint_params(seed), work / "model.ulwm")
        argv = ["predict", "--checkpoint", str(work / "model.ulwm"),
                "--cache", str(work / "predict.ulws"), "--out", "{out}/pred.csv"]
        return {"commands": [{"argv": argv, "stdout": "{out}/stdout.txt"}],
                "first_work": "ulws.model.model_forward", "epochs": PREDICT_EPOCHS,
                "compare": ["pred.csv"]}
    if workload == "train":
        write_cache(train_dataset(seed), work / "train.ulws")
        config = dict(TRAIN_CONFIG, seed=seed)
        if trace:
            config["epochs"] = TRACE_TRAIN_EPOCHS
        (work / "train.json").write_text(json.dumps(config))
        train = ["train", "--cache", str(work / "train.ulws"), "--train-config",
                 str(work / "train.json"), "--folds", str(TRAIN_FOLDS), "--fold", "all",
                 "--out", "{out}/cv"]
        evaluate = ["evaluate", "--predictions", "{out}/cv", "--strict", "--json"]
        compare = [f"cv/fold{i}/{name}" for i in range(TRAIN_FOLDS)
                   for name in ("checkpoint.ulwm", "history.jsonl", "predictions.csv")]
        # every epoch trains in all folds but the one holding it out
        epochs = (TRAIN_FOLDS - 1) * TRAIN_EPOCHS * config["epochs"]
        return {"commands": [{"argv": train, "stdout": "{out}/stdout.txt"},
                             {"argv": evaluate, "stdout": "{out}/eval.json"}],
                "first_work": "ulws.model.model_forward", "epochs": epochs,
                "compare": compare + ["eval.json"]}
    raise ValueError(f"unknown workload {workload!r}")


def machine_facts(seed: int) -> dict:
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):  # numpy without the dict form
        pass
    thread_prefixes = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "NUMEXPR_", "VECLIB_", "GOTO_")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items() if k.startswith(thread_prefixes)},
        "commit": commit,
        "seed": seed,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true", help="inputs of the traced run")
    args = parser.parse_args()
    work = Path(args.work)
    plan = write_inputs(args.workload, args.seed, work, args.trace)
    plan["facts"] = machine_facts(args.seed)
    (work / "plan.json").write_text(json.dumps(plan))


if __name__ == "__main__":
    main()
