"""Command-line front end: preprocess | count | train | evaluate | predict.

Every artifact-producing run writes a deterministic manifest (command
line, config snapshot, seeds, code version, input checksums, resolved
defaults) next to its outputs; wall-clock timestamps go to a separate
append-only run log so reruns with identical inputs stay byte-identical.
Diagnostics go to stderr, data to stdout; exit code 0 means no fatal error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import csv
import dataclasses
import io
import json
import multiprocessing
import os
import sys
import time
import zlib
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from pathlib import Path

import numpy as np

from . import __version__, complexity, evaluation
from .edf import load_record, subject_key_and_night
from .errors import ChecksumMismatch, ShapeMismatch, UlwsError
from .evaluation import N_CLASSES
from .model import ModelConfig, decode_json, load_checkpoint, predict, save_checkpoint
from .preprocess import (
    EpochDataset,
    collect_epochs,
    design_bandpass,
    read_cache,
    stream_epochs,
    write_cache,
)
from .training import FoldSplit, TrainConfig, subject_folds, split_indices, train_fold

DEFAULT_CHANNELS = ["EEG Fpz-Cz", "EEG Pz-Oz", "EOG horizontal", "EMG submental"]

SEED_ENV_VAR = "ULWS_SEED"

# constants the run manifest pins down for reproducibility
RESOLVED_DEFAULTS = {
    "bn_epsilon": 1e-3,
    "bn_decay": 0.99,
    "filter_type": "butterworth_bandpass_sos",
    "filter_order": 4,
    "filter_band_hz": [0.3, 45.0],
    "filter_applied_to": "EEG channels unless --filter-all-channels",
    "fold_aggregation": evaluation.AGGREGATION,
    "checkpoint_policy": "final epoch",
}

STAGE_NAMES = ["W", "N1", "N2", "N3", "REM"]

# mallopt parameters from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _crc_of(path: Path) -> str:
    crc = 0
    with path.open("rb") as fh:
        while block := fh.read(1 << 20):
            crc = zlib.crc32(block, crc)
    return f"{crc:08x}"


def _write_manifest(directory: Path, name: str, payload: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    payload = dict(payload, version=__version__, resolved=RESOLVED_DEFAULTS)
    (directory / f"{name}.manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    with (directory / "runlog.jsonl").open("a") as fh:
        fh.write(json.dumps({"manifest": name, "written_unix": time.time()}) + "\n")


def _model_config(args, cache: EpochDataset | None = None) -> ModelConfig:
    if args.model_config:
        return ModelConfig.from_json(Path(args.model_config).read_bytes(), args.model_config)
    if cache is None:
        return ModelConfig()
    return ModelConfig(n_input_channels=cache.n_channels, input_length=cache.epoch_samples)


def _check_fits(cfg: ModelConfig, cache: EpochDataset) -> None:
    want, have = (cfg.n_input_channels, cfg.input_length), (cache.n_channels, cache.epoch_samples)
    if want != have:
        raise ShapeMismatch(f"model expects (C, T) = {want} but cache holds {have}")


def _train_config(args) -> TrainConfig:
    path = args.train_config
    cfg = TrainConfig.from_json(Path(path).read_bytes(), path) if path else TrainConfig()
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        cfg = TrainConfig.from_dict(dict(cfg.to_dict(), seed=decode_json(env_seed, SEED_ENV_VAR)))
    return cfg


# --- preprocess -------------------------------------------------------------

def _discover_pairs(data_dir: Path) -> tuple[list[tuple[Path, Path]], int]:
    """Match *-PSG.edf with *-Hypnogram.edf by the first 7 stem characters."""
    pairs, unpaired = [], 0
    hypnograms = sorted(data_dir.glob("*-Hypnogram.edf"))
    for psg in sorted(data_dir.glob("*-PSG.edf")):
        key = psg.name[:7]
        matches = [h for h in hypnograms if h.name[:7] == key]
        if matches:
            pairs.append((psg, matches[0]))
        else:
            _warn(f"{psg.name}: no matching hypnogram, skipped")
            unpaired += 1
    return pairs, unpaired


def cmd_preprocess(args) -> int:
    data_dir = Path(args.data_dir)
    channels = [c.strip() for c in args.channels.split(",")] if args.channels else DEFAULT_CHANNELS
    pairs, skipped = _discover_pairs(data_dir)
    if not pairs and skipped == 0:
        return _fail(f"no records found in {data_dir}")
    # subject_key_and_night is the key load_record gives each record, so
    # this is the (subject, night) order without loading anything
    pairs.sort(key=lambda pair: subject_key_and_night(pair[0]))

    def skip(what: str, error: UlwsError) -> None:
        nonlocal skipped
        _warn(f"{what}: {type(error).__name__}: {error}")
        skipped += 1

    def records():
        for psg, hyp in pairs:
            try:
                yield load_record(psg, hyp, channels)
            except UlwsError as e:
                skip(psg.name, e)

    def report(chunks):
        for chunk in chunks:
            print(f"{chunk[0]} night {chunk[1]}: kept {len(chunk[3])} epochs")
            yield chunk
            del chunk  # hold no chunk while the next record loads

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    chunks = stream_epochs(records(), channels, design_bandpass(), args.filter_all_channels, skip)
    dataset = collect_epochs(report(chunks), channels, spool_dir=out.parent)
    if not dataset.n_epochs:
        return _fail("no records loaded")

    write_cache(dataset, out)
    print(f"wrote {dataset.n_epochs} epochs x {dataset.n_channels} channels to {out}")
    print(f"skipped: {skipped}")
    _write_manifest(
        out.parent,
        out.name,
        {
            "command": ["preprocess", str(data_dir), str(out)],
            "channels": channels,
            "filter_all_channels": bool(args.filter_all_channels),
            "n_epochs": dataset.n_epochs,
            "cache_crc32": _crc_of(out),
        },
    )
    return 0


# --- count --------------------------------------------------------------------

def cmd_count(args) -> int:
    cfg = _model_config(args)
    if args.conv_type:
        cfg = dataclasses.replace(cfg, conv_type=args.conv_type)
    report = complexity.count_flops(cfg)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_text())
    return 0


def _keep_batch_memory() -> None:
    """Let the model's batches reuse each other's memory (glibc only).

    Every batch allocates and frees the same set of activation arrays. With
    glibc's defaults the freed top of the heap goes back to the kernel after
    each batch, so the next batch page-faults all of its memory in again,
    and the time those faults take swings with the load on the machine.
    Arrays up to 32 MB (the largest mmap threshold glibc accepts) now come
    from the heap, and up to 512 MB of freed heap stays mapped for the next
    batch. Other C libraries lack `mallopt` or ignore it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 512 << 20)


# --- train ----------------------------------------------------------------------

def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, which `taskset` narrows."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _run_fold(
    cache_path: Path,
    cache_crc: str,
    split: FoldSplit,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
    fold_dir: Path,
    dataset: EpochDataset | None = None,
) -> float:
    """Train one fold, write its checkpoint, history and predictions; return its final test_acc.

    Without `dataset` the cache is read from `cache_path`, and its whole-file
    CRC-32 must still be `cache_crc`, the one the run started from.
    """
    if dataset is None:
        crc = _crc_of(cache_path)
        if crc != cache_crc:
            raise ChecksumMismatch(
                f"{cache_path}: CRC-32 is {crc}, but training started on {cache_crc}"
            )
        dataset = read_cache(cache_path)
    params, history = train_fold(dataset, split, mcfg, tcfg)
    fold_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, fold_dir / "checkpoint.ulwm")
    with (fold_dir / "history.jsonl").open("w") as fh:
        for row in history:
            fh.write(json.dumps(row) + "\n")
    _, test_idx = split_indices(dataset, split)
    _write_predictions(fold_dir / "predictions.csv", dataset, params, test_idx)
    return history[-1]["test_acc"] if history else float("nan")


def _train_folds(jobs: dict[int, tuple], dataset: EpochDataset) -> dict[int, float | UlwsError]:
    """Run `_run_fold(*jobs[i])` for every fold i on min(folds, usable CPUs) processes.

    This process trains `list(jobs)[0::n]` on `dataset`, which it has read already.
    Spawned workers train the rest, each reading the cache by path; spawned,
    not forked, because this process already runs BLAS threads. Once a fold
    fails no further fold starts. Returns each fold that ran mapped to its
    final test_acc or its UlwsError.
    """
    wanted = list(jobs)
    n = min(len(wanted), _usable_cpus())
    own = wanted[0::n]
    outcomes: dict[int, float | UlwsError] = {}
    with contextlib.ExitStack() as stack:
        futures = {}
        if n > 1:
            pool = stack.enter_context(ProcessPoolExecutor(
                n - 1, mp_context=multiprocessing.get_context("spawn"),
                initializer=_keep_batch_memory,
            ))
            futures = {i: pool.submit(_run_fold, *jobs[i]) for i in wanted if i not in own}
        for i in own:
            if any(f.done() and f.exception() is not None for f in futures.values()):
                break
            try:
                outcomes[i] = _run_fold(*jobs[i], dataset=dataset)
            except UlwsError as e:
                outcomes[i] = e
                break
        if not any(isinstance(outcome, UlwsError) for outcome in outcomes.values()):
            wait(futures.values(), return_when=FIRST_EXCEPTION)
        for i, future in futures.items():
            if future.cancel():  # not started: a fold failed
                continue
            try:
                outcomes[i] = future.result()
            except UlwsError as e:
                outcomes[i] = e
    return outcomes


def cmd_train(args) -> int:
    _keep_batch_memory()
    cache_path = Path(args.cache)
    dataset = read_cache(cache_path)
    cache_crc = _crc_of(cache_path)
    mcfg = _model_config(args, dataset)
    _check_fits(mcfg, dataset)
    tcfg = _train_config(args)
    folds = subject_folds(dataset.subject_keys, k=args.folds, seed=tcfg.seed)
    if args.fold == "all":
        wanted = list(range(len(folds)))
    else:
        try:
            wanted = [int(args.fold)]
        except ValueError:
            return _fail(f"--fold must be an index or 'all', got {args.fold!r}")
        if not 0 <= wanted[0] < len(folds):
            return _fail(f"fold {wanted[0]} outside [0, {len(folds)})")
    out_dir = Path(args.out)
    jobs = {
        i: (cache_path, cache_crc, folds[i], mcfg, dataclasses.replace(tcfg, seed=tcfg.seed + i),
            out_dir / f"fold{i}")
        for i in wanted
    }
    outcomes = _train_folds(jobs, dataset)
    for i in wanted:
        if i not in outcomes or isinstance(outcomes[i], UlwsError):
            failed = next(j for j in wanted if isinstance(outcomes.get(j), UlwsError))
            e = outcomes[failed]
            return _fail(f"fold {failed}: {type(e).__name__}: {e}", code=3)
        print(f"fold {i}: {len(folds[i].test_subjects)} test subjects, "
              f"final test_acc {outcomes[i]:.4f}")

    _write_manifest(
        out_dir,
        "train",
        {
            "command": ["train", str(cache_path), str(out_dir)],
            "cache_crc32": cache_crc,
            "model_config": mcfg.to_dict(),
            "train_config": tcfg.to_dict(),
            "folds": args.folds,
            "fold": args.fold,
            "per_fold_seed": "base_seed + fold_index",
        },
    )
    return 0


def _write_predictions(path: Path, dataset: EpochDataset, params, indices=None) -> None:
    """Score the epochs at `indices`, or every epoch of `dataset` without a copy."""
    if indices is None:
        x, indices = dataset.x, range(dataset.n_epochs)
    else:
        x = dataset.x[indices]
    pred, probs = predict(params, x.astype(np.float32, copy=False))
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["index", "subject", "true", "predicted"] + [f"p{k}" for k in range(N_CLASSES)]
        )
        for row, idx in enumerate(indices):
            writer.writerow(
                [int(idx), dataset.subject_keys[idx], int(dataset.y[idx]), int(pred[row])]
                + [f"{p:.8e}" for p in probs[row]]
            )


# --- evaluate ---------------------------------------------------------------------

def _prediction_files(paths: list[str], strict: bool) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            fold_files = sorted(p.glob("fold*/predictions.csv"))
            if strict:
                found = {
                    int(f.parent.name[4:])
                    for f in fold_files
                    if f.parent.name[4:].isdigit()
                }
                if found != set(range(len(found))) or not found:
                    missing = sorted(set(range(max(found, default=0) + 1)) - found)
                    raise UlwsError(f"{p}: missing fold predictions {missing or '(none found)'}")
            files.extend(fold_files)
        elif p.is_file():
            files.append(p)
        elif strict:
            raise UlwsError(f"{p}: no such predictions file")
        else:
            _warn(f"{p}: no such predictions file, skipped")
    seen: set[Path] = set()
    for f in files:
        resolved = f.resolve()
        if resolved in seen:
            raise UlwsError(f"{f}: predictions file given more than once")
        seen.add(resolved)
    return files


def _read_prediction_pairs(path: Path) -> tuple[list[int], list[int]]:
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise UlwsError(f"{path}: line {line}: not UTF-8") from None
    trues, preds = [], []
    reader = csv.DictReader(io.StringIO(text, newline=""))
    for row in reader:
        try:
            trues.append(int(row["true"]))
            preds.append(int(row["predicted"]))
        except (KeyError, TypeError, ValueError):
            raise UlwsError(
                f"{path}: line {reader.line_num}: 'true' and 'predicted' must be integers"
            ) from None
    return trues, preds


def cmd_evaluate(args) -> int:
    files = _prediction_files(args.predictions, args.strict)
    if not files:
        return _fail("no predictions to evaluate")
    pairs = [_read_prediction_pairs(f) for f in files]
    report = evaluation.aggregate_folds(pairs)

    cfg = _model_config(args)
    params_total = complexity.count_params(cfg).total_params
    flops_total = complexity.count_flops(cfg).total_flops
    payload = dict(report.to_dict(), params=params_total, flops=flops_total)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0

    header = ["ACC(%)", "MF1(%)", "kappa"] + [f"F1-{s}(%)" for s in STAGE_NAMES] + ["Params", "FLOPs"]
    values = (
        [f"{report.accuracy * 100:.1f}", f"{report.macro_f1 * 100:.1f}", f"{report.kappa:.3f}"]
        + [f"{f * 100:.1f}" for f in report.per_class_f1]
        + [str(params_total), str(flops_total)]
    )
    widths = [max(len(h), len(v)) for h, v in zip(header, values)]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    print("  ".join(v.rjust(w) for v, w in zip(values, widths)))
    print(f"epochs scored: {report.n_epochs} ({report.aggregation} over {len(files)} files)")
    return 0


# --- predict -----------------------------------------------------------------------

def cmd_predict(args) -> int:
    _keep_batch_memory()
    params = load_checkpoint(Path(args.checkpoint))
    dataset = read_cache(Path(args.cache))
    _check_fits(params.config, dataset)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_predictions(out, dataset, params)
    print(f"wrote {dataset.n_epochs} predictions to {out}")
    _write_manifest(
        out.parent,
        out.name,
        {
            "command": ["predict", str(args.checkpoint), str(args.cache), str(out)],
            "checkpoint_crc32": _crc_of(Path(args.checkpoint)),
            "cache_crc32": _crc_of(Path(args.cache)),
        },
    )
    return 0


# --- parser --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulws", description="Ultra-lightweight multimodal sleep-stage scoring pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="EDF directory -> epoch dataset cache")
    p.add_argument("--data-dir", required=True, help="directory of *-PSG.edf / *-Hypnogram.edf pairs")
    p.add_argument("--out", required=True, help="output cache file (.ulws)")
    p.add_argument("--channels", default=None,
                   help=f"comma-separated channel labels (default: {', '.join(DEFAULT_CHANNELS)})")
    p.add_argument("--filter-all-channels", action="store_true",
                   help="band-pass every channel, not only EEG")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("count", help="parameter and FLOPs accounting")
    p.add_argument("--config", dest="model_config", default=None, help="model config JSON")
    p.add_argument("--conv-type", choices=["separable", "standard"], default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("train", help="subject-wise CV training")
    p.add_argument("--cache", required=True)
    p.add_argument("--model-config", default=None)
    p.add_argument("--train-config", default=None)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--fold", default="all", help="fold index or 'all'")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="pool fold predictions and print metrics")
    p.add_argument("--predictions", nargs="+", required=True,
                   help="prediction CSV files or directories of fold*/predictions.csv")
    p.add_argument("--model-config", default=None, help="config used for Params/FLOPs columns")
    p.add_argument("--strict", action="store_true", help="fail on missing fold files")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="score a cache with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UlwsError as e:
        return _fail(f"{type(e).__name__}: {e}")
    except OSError as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
