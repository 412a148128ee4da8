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
import functools
import io
import json
import multiprocessing
import itertools
import os
import signal
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import __version__, complexity, container, evaluation, nn, preprocess
from .edf import load_record, subject_key_and_night
from .errors import (
    BadConfig,
    BadOutputPath,
    ChecksumMismatch,
    NonFiniteSignal,
    ShapeMismatch,
    UlwsError,
    WorkerDied,
)
from .evaluation import N_CLASSES
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .preprocess import (
    EpochDataset,
    SpooledEpochs,
    preprocess_record,
    read_cache,
    write_cache,
)
from .training import FoldSplit, TrainConfig, _score, subject_folds, split_indices, train_fold

DEFAULT_CHANNELS = ["EEG Fpz-Cz", "EEG Pz-Oz", "EOG horizontal", "EMG submental"]

# constants the run manifest pins down for reproducibility
RESOLVED_DEFAULTS = {
    "bn_epsilon": nn.BN_EPSILON,
    "bn_decay": nn.BN_MOMENTUM,
    "filter_type": "butterworth_bandpass_sos",
    "filter_order": preprocess.FILTER_ORDER,
    "filter_band_hz": list(preprocess.BAND_HZ),
    "filter_applied_to": "EEG channels unless --filter-all-channels",
    "fold_aggregation": evaluation.AGGREGATION,
    "checkpoint_policy": "final epoch",
}

STAGE_NAMES = ["W", "N1", "N2", "N3", "REM"]

# `train` writes each fold into --out/fold<i>: its checkpoint, its history and
# its test predictions; `evaluate` reads the predictions and checkpoints back
FOLD_PREFIX = "fold"
CHECKPOINT, HISTORY, PREDICTIONS = "checkpoint.ulwm", "history.jsonl", "predictions.csv"

# `preprocess` deals its units, one channel of one pair each, over as many
# processes as it has PSG files of at least this size, up to one per usable
# CPU. A worker takes about 1.3 s to start (python, numpy, scipy.signal), about
# what a record this size takes to ingest (6 h of four 100 Hz channels), so
# smaller inputs, and the many tiny ones of the tests, stay in one process.
LARGE_PSG_BYTES = 16 << 20
# its workers run at this niceness, from before their imports on, and yield the
# ulws process the CPU: on the benchmark's `ingest` workload this took ~9% off
# set-up against niceness 0 (8 alternating pairs)
WORKER_NICE = 19

# mallopt parameters from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _warn(message: str) -> None:
    # a file name that is not UTF-8 holds surrogate escapes, which a strict stream refuses
    print(f"warning: {message}".encode("utf-8", "backslashreplace").decode(), file=sys.stderr)


def _manifest_files(directory: Path, name: str) -> list[Path]:
    """The manifest and the run log that _write_manifest writes."""
    return [directory / f"{name}.manifest.json", directory / "runlog.jsonl"]


def _write_manifest(directory: Path, name: str, payload: dict) -> None:
    manifest, runlog = _manifest_files(directory, name)
    directory.mkdir(parents=True, exist_ok=True)
    payload = dict(payload, version=__version__, resolved=RESOLVED_DEFAULTS)
    with container.open_atomic(manifest, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    with runlog.open("a") as fh:
        fh.write(json.dumps({"manifest": name, "written_unix": time.time()}) + "\n")


def _fold_files(fold_dir: Path) -> list[Path]:
    """The checkpoint, history and predictions that _run_fold writes."""
    return [fold_dir / CHECKPOINT, fold_dir / HISTORY, fold_dir / PREDICTIONS]


def _check_out(out: Path, dirs: list[Path], files: list[Path]) -> None:
    """Refuse an --out that the command's outputs could not be written to, before
    it trains or scores anything: a directory where one of `files` goes, a
    non-directory where one of `dirs` goes, or a non-directory above --out.
    `dirs` and `files` are every path the command writes, --out among them.
    Creates nothing."""
    for parent in out.parents:
        if parent.exists() and not parent.is_dir():
            raise BadOutputPath(f"--out {out}: {parent} is not a directory")
    for path in dirs + files:
        directory = path in dirs
        if path.exists() and path.is_dir() != directory:
            which = "" if path == out else f": {path}"
            raise BadOutputPath(f"--out {out}{which} is {'not ' if directory else ''}a directory")


def _probe_dirs(out: Path, dirs: list[Path]) -> None:
    """Make each of `dirs` and a file in it, then remove what this made.

    A directory that cannot be made or written to (permissions, a read-only
    file system) then ends the command in BadOutputPath before any work,
    not after it. The file tree is left as it was.
    """
    made: list[Path] = []
    try:
        for directory in dirs:
            for path in [*reversed(directory.parents), directory]:
                if not path.is_dir():
                    path.mkdir()
                    made.append(path)
            tempfile.TemporaryFile(dir=directory).close()
    except OSError as e:
        raise BadOutputPath(
            f"--out {out}: cannot write to {directory}: {e.strerror or e}") from None
    finally:
        for path in reversed(made):
            path.rmdir()


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
    if cfg.n_classes != N_CLASSES:
        raise ShapeMismatch(f"model scores {cfg.n_classes} classes, the stages are {N_CLASSES}")


def _train_config(args) -> TrainConfig:
    path = args.train_config
    return TrainConfig.from_json(Path(path).read_bytes(), path) if path else TrainConfig()


# --- worker processes ---------------------------------------------------------

def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, which `taskset` narrows."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


_GUARD = ("a script that calls ulws.cli.main must do so under `if __name__ == \"__main__\":`, "
          "because each spawned worker imports that script again")


@contextlib.contextmanager
def _dealt(keys, job, fn, initializer, task: tuple[str, str], most: int | None = None, here=None):
    """Run `fn(*job(key))` for every key over n = min(most, usable CPUs) processes,
    `most` defaulting to len(keys), and yield an iterator of (key, outcome).

    An outcome is what the call returned or the Exception it raised;
    WorkerDied, with `task` = (worker, work) naming them, for a worker that
    exited before it returned. This process runs `keys[0]` itself, with
    `here(key)` in place of the call if given, and submits every other key
    at once to n - 1 workers, each started by `initializer`. They are
    spawned, not forked, because this process may already run BLAS
    threads, and they start while it sets up. It then walks the keys in
    order and runs itself each one whose Future it can still cancel, one
    that no worker has taken: the pool holds at most n keys for its n - 1
    workers (it queues one call beyond them), so this process keeps
    `keys[0]` and never idles while a key waits. Between keys it yields
    the workers' finished outcomes, so a caller that stops at a failure
    starts no further key, and then it waits for the rest.

    The workers start with SIGINT blocked, so Ctrl-C reaches this process
    alone. Leaving on an exception stops them without waiting for their
    work; leaving normally cancels the keys no worker has taken, waits for
    any still running, and lets idle workers exit while this process goes on.
    """
    keys = list(keys)
    n = max(1, min(len(keys) if most is None else most, _usable_cpus()))
    futures = {}  # key -> Future, for every key submitted to the workers

    def run_here(key):
        try:
            return here(key) if here else fn(*job(key))
        except Exception as e:
            return e

    def walk():
        waiting = dict(futures)  # the submitted keys whose outcome is not yielded yet
        for key in keys:
            for held in [held for held, future in waiting.items() if future.done()]:
                yield held, _worker_outcome(waiting.pop(held), *task)
            if key not in futures or futures[key].cancel():
                waiting.pop(key, None)
                yield key, run_here(key)
        for held, future in list(waiting.items()):
            yield held, _worker_outcome(future, *task)

    if n == 1:
        yield walk()
        return
    pool = ProcessPoolExecutor(n - 1, mp_context=multiprocessing.get_context("spawn"),
                               initializer=initializer)
    try:
        # the pool spawns its workers as keys are submitted, and each inherits
        # this thread's signal mask
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for key in keys[1:]:
                futures[key] = pool.submit(fn, *job(key))
        except RuntimeError:
            # multiprocessing refuses to spawn from a worker still importing its script,
            # and a worker that died on start gives BrokenProcessPool, a RuntimeError too
            raise WorkerDied(f"could not start a worker process; {_GUARD}") from None
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield walk()
    except BaseException:
        # the pool's own processes, as ProcessPoolExecutor.terminate_workers
        # (Python 3.14) stops them
        workers = list(pool._processes.values())
        pool.shutdown(wait=False, cancel_futures=True)
        for worker in workers:
            worker.terminate()
            worker.join()
        raise
    pool.shutdown(wait=not all(future.done() for future in futures.values()),
                  cancel_futures=True)


def _worker_outcome(future, worker: str, work: str):
    """The future's result or the Exception it raised; WorkerDied if its
    worker exited before giving it."""
    try:
        return future.result()
    except BrokenProcessPool:
        return WorkerDied(f"a {worker} worker exited before its {work} finished; {_GUARD}")
    except Exception as e:
        return e


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


def _psg_bytes(psg: Path) -> int:
    """The PSG file's size; 0 if it cannot be stat'ed, which loading its pair reports."""
    try:
        return psg.stat().st_size
    except OSError:
        return 0


def _ingest_unit(psg: Path, hyp: Path, channels: list[str], channel: int,
                 filter_all_channels: bool, part: Path):
    """Load one pair, preprocess its channel `channels[channel]`, and write that
    channel's float32 epochs as its slab of the pair's file `part` (see
    SpooledEpochs): (what, (key, y)), or (what, the UlwsError or OSError of
    the channel). `what` names the PSG file, or the record once it has loaded."""
    key, night = subject_key_and_night(psg)
    what = psg.name
    try:
        record = load_record(psg, hyp, channels)
        what = f"{key} night {night}"
        x, y = preprocess_record(record, channels, filter_all_channels, channel)
    except (UlwsError, OSError) as e:  # a bad, unreadable or vanished file skips its pair
        return what, e.with_traceback(None)  # the traceback would hold the record
    slab = x[:, 0]
    with open(part, "r+b") as fh:  # made by cmd_preprocess; a failed write ends the run
        fh.seek(channel * slab.nbytes)
        fh.write(slab)
    return what, (key, y)


def _pair_outcome(units: list, part: Path, channels: list[str]):
    """A pair's (what, outcome) from its units' in channel order, as one process
    preprocessing the whole record gives it: the first error that is not
    NonFiniteSignal (a load error or MissingChannel is every unit's), else the
    first NonFiniteSignal, else (key, y) if the cache can store the key."""
    errors = [unit for unit in units if isinstance(unit[1], Exception)]
    if errors:
        return next((e for e in errors if not isinstance(e[1], NonFiniteSignal)), errors[0])
    what, (key, y) = units[0]
    try:
        # a key the cache cannot store, from a file name that is not UTF-8,
        # skips its pair here rather than failing write_cache for every pair
        EpochDataset(SpooledEpochs([(part, len(y))], len(channels)), y, [key] * len(y),
                     channels).validate()
    except UlwsError as e:
        return what, e
    return what, (key, y)


def cmd_preprocess(args) -> int:
    out = Path(args.out)
    _check_out(out, [], [out, *_manifest_files(out.parent, out.name)])
    _probe_dirs(out, [out.parent])
    data_dir = Path(args.data_dir)
    channels = [c.strip() for c in args.channels.split(",")] if args.channels else DEFAULT_CHANNELS
    pairs, skipped = _discover_pairs(data_dir)
    if not pairs and skipped == 0:
        return _fail(f"no records found in {data_dir}")
    # subject_key_and_night is the key load_record gives each record, so
    # this is the (subject, night) order without loading anything
    pairs.sort(key=lambda pair: subject_key_and_night(pair[0]))
    out.parent.mkdir(parents=True, exist_ok=True)
    sizes = [_psg_bytes(psg) for psg, _ in pairs]
    filtered = [preprocess.band_passed(label, args.filter_all_channels) for label in channels]
    # a unit is one channel of one pair: band-passed channels first, the
    # longest pairs first among them, so the shortest units come last
    units = sorted(itertools.product(range(len(pairs)), range(len(channels))),
                   key=lambda unit: (not filtered[unit[1]], -sizes[unit[0]]))
    parts: dict[int, Path] = {}  # pair index -> the part file its channels' slabs go to

    def job(unit: tuple[int, int]) -> tuple:
        i, c = unit
        if i not in parts:
            fd, name = tempfile.mkstemp(suffix=".part", prefix=f"{out.name}.", dir=out.parent)
            os.close(fd)
            parts[i] = Path(name)
        return (*pairs[i], channels, c, args.filter_all_channels, parts[i])

    done = {}  # unit -> its (what, outcome)
    kept: list[tuple[Path, int]] = []  # (part file, epochs) of each kept pair in order
    ys, keys = [], []
    large = sum(size >= LARGE_PSG_BYTES for size in sizes)
    try:
        with _dealt(units, job, _ingest_unit, functools.partial(os.nice, WORKER_NICE),
                    ("preprocess", "channel"), most=large) as dealt:
            # the band-pass design imports scipy.signal (~1 s): pay that as set-up,
            # while the workers start and before the first record is read
            preprocess.bandpass()
            for unit, outcome in dealt:
                if isinstance(outcome, Exception):  # a failed write or a dead worker
                    raise outcome
                done[unit] = outcome
        for i in range(len(pairs)):
            what, outcome = _pair_outcome([done[i, c] for c in range(len(channels))], parts[i],
                                          channels)
            if isinstance(outcome, Exception):
                _warn(f"{what}: {type(outcome).__name__}: {outcome}")
                skipped += 1
            else:
                key, y = outcome
                print(f"{what}: kept {len(y)} epochs")
                kept.append((parts[i], len(y)))
                ys.append(y)
                keys += [key] * len(y)
        if not kept:
            return _fail("no records loaded")
        dataset = EpochDataset(SpooledEpochs(kept, len(channels)), np.concatenate(ys), keys,
                               channels)
        cache_crc = write_cache(dataset, out)
    finally:  # once no worker writes a part any more
        for part in parts.values():
            part.unlink(missing_ok=True)
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
            "cache_crc32": cache_crc,
        },
    )
    return 0


# --- count --------------------------------------------------------------------

def cmd_count(args) -> int:
    report = complexity.count_flops(_model_config(args))
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

def _run_fold(
    cache_path: Path,
    cache_crc: str,
    split: FoldSplit,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
    fold_dir: Path,
    dataset: EpochDataset | None = None,
) -> float:
    """Train one fold, write its checkpoint, history and predictions; return their accuracy.

    Without `dataset` the cache is read from `cache_path`, and the CRC-32 that this
    read verified must still be `cache_crc`, the one the run started from.
    """
    if dataset is None:
        dataset = read_cache(cache_path)
        if dataset.crc32 != cache_crc:
            raise ChecksumMismatch(
                f"{cache_path}: CRC-32 is {dataset.crc32}, but training started on {cache_crc}"
            )
    params, history, probs = train_fold(dataset, split, mcfg, tcfg)
    checkpoint, history_file, predictions = _fold_files(fold_dir)
    fold_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, checkpoint)
    with container.open_atomic(history_file, "w") as fh:
        for row in history:
            fh.write(json.dumps(row) + "\n")
    _, test_idx = split_indices(dataset, split)
    _write_predictions(predictions, dataset, test_idx, probs)
    return float((probs.argmax(axis=1) == dataset.y[test_idx]).mean())


def _train_folds(jobs: dict[int, tuple], dataset: EpochDataset) -> dict[int, float | Exception]:
    """Run `_run_fold(*jobs[i])` for every fold i, dealt over processes by `_dealt`.

    This process trains its folds on `dataset`, which it has read already;
    each worker reads the cache by path. Once a fold fails no further fold
    starts. Returns each fold that gave its outcome mapped to its accuracy
    or the Exception it raised; a worker that died gives WorkerDied.
    """
    outcomes: dict[int, float | Exception] = {}
    with _dealt(jobs, jobs.__getitem__, _run_fold, _keep_batch_memory, ("training", "fold"),
                here=lambda i: _run_fold(*jobs[i], dataset=dataset)) as dealt:
        for i, outcome in dealt:
            outcomes[i] = outcome
            if isinstance(outcome, Exception):
                break
    return outcomes


def cmd_train(args) -> int:
    _keep_batch_memory()
    if args.folds < 2:
        raise BadConfig(f"--folds must be at least 2, got {args.folds}")
    if args.fold != "all" and not (args.fold.isdecimal() and len(args.fold) <= len(str(args.folds))
                                   and int(args.fold) < args.folds):
        raise BadConfig(f"--fold must be 'all' or an index below {args.folds}, got {args.fold!r}")
    cache_path = Path(args.cache)
    dataset = read_cache(cache_path)
    mcfg = _model_config(args, dataset)
    _check_fits(mcfg, dataset)
    tcfg = _train_config(args)
    folds = subject_folds(dataset.subject_keys, k=args.folds, seed=tcfg.seed)
    wanted = list(range(args.folds)) if args.fold == "all" else [int(args.fold)]
    out_dir = Path(args.out)
    fold_dirs = {i: out_dir / f"{FOLD_PREFIX}{i}" for i in wanted}
    # checked once the folds are dealt, so a --folds past the cache's subject count
    # is refused before any path is checked for each of its folds
    _check_out(out_dir, [out_dir, *fold_dirs.values()],
               [f for d in fold_dirs.values() for f in _fold_files(d)]
               + _manifest_files(out_dir, "train"))
    _probe_dirs(out_dir, [out_dir, *fold_dirs.values()])
    jobs = {
        i: (cache_path, dataset.crc32, folds[i], mcfg,
            dataclasses.replace(tcfg, seed=tcfg.seed + i), fold_dirs[i])
        for i in wanted
    }
    outcomes = _train_folds(jobs, dataset)
    # a fold is left out only once another one has failed
    failed = next((i for i in wanted if isinstance(outcomes.get(i), Exception)), None)
    if failed is not None:
        e = outcomes[failed]
        return _fail(f"fold {failed}: {type(e).__name__}: {e}", code=3)
    for i in wanted:
        print(f"fold {i}: {len(folds[i].test_subjects)} test subjects, "
              f"final test_acc {outcomes[i]:.4f}")

    _write_manifest(
        out_dir,
        "train",
        {
            "command": ["train", str(cache_path), str(out_dir)],
            "cache_crc32": dataset.crc32,
            "model_config": mcfg.to_dict(),
            "train_config": tcfg.to_dict(),
            "folds": args.folds,
            "fold": args.fold,
            "per_fold_seed": "base_seed + fold_index",
        },
    )
    return 0


def _write_predictions(path: Path, dataset: EpochDataset, indices, probs: np.ndarray) -> None:
    """One CSV row per epoch at `indices`, whose class probabilities are the same row of `probs`."""
    pred = probs.argmax(axis=1)
    with container.open_atomic(path, "w", newline="") as fh:
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
            fold_files = sorted(p.glob(f"{FOLD_PREFIX}*/{PREDICTIONS}"))
            if strict:
                indices = [f.parent.name[len(FOLD_PREFIX):] for f in fold_files]
                found = {int(i) for i in indices if i.isdigit()}
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
    line_of: dict[int, int] = {}  # epoch index -> CSV line that scored it
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            try:
                index, true, pred = int(row["index"]), int(row["true"]), int(row["predicted"])
            except (KeyError, TypeError, ValueError):
                raise UlwsError(f"{path}: line {reader.line_num}: 'index', 'true' and "
                                "'predicted' must be integers") from None
            if index in line_of:
                raise UlwsError(
                    f"{path}: line {reader.line_num}: index {index} already scored on line "
                    f"{line_of[index]}"
                )
            line_of[index] = reader.line_num
            trues.append(true)
            preds.append(pred)
    except csv.Error as e:  # e.g. a field over csv.field_size_limit()
        # DictReader's own line_num is set only once a row parses
        raise UlwsError(f"{path}: line {reader.reader.line_num}: {e}") from None
    return trues, preds


def _scored_model_config(args, files: list[Path]) -> ModelConfig:
    """--model-config, else the config of the checkpoint.ulwm beside the predictions
    files, else (no file has one, as for `predict` CSVs) the default model."""
    if args.model_config:
        return _model_config(args)
    checkpoints = [f.parent / CHECKPOINT for f in files]
    configs = {load_checkpoint(c).config: c for c in checkpoints if c.is_file()}
    if len(configs) > 1:
        raise BadConfig(f"{' and '.join(map(str, configs.values()))} hold different model "
                        "configs; name the one to count with --model-config")
    return next(iter(configs), ModelConfig())


def cmd_evaluate(args) -> int:
    files = _prediction_files(args.predictions, args.strict)
    if not files:
        return _fail("no predictions to evaluate")
    pairs = [_read_prediction_pairs(f) for f in files]
    report = evaluation.aggregate_folds(pairs)

    complexity_report = complexity.count_flops(_scored_model_config(args, files))
    params_total, flops_total = complexity_report.total_params, complexity_report.total_flops
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
    out = Path(args.out)
    _check_out(out, [], [out, *_manifest_files(out.parent, out.name)])
    _probe_dirs(out, [out.parent])
    _keep_batch_memory()
    params = load_checkpoint(Path(args.checkpoint))
    dataset = read_cache(Path(args.cache))
    _check_fits(params.config, dataset)
    # NaN, infinite or overflowing weights, or a negative BN variance, raise NonFiniteOutput
    _, probs = _score(params, dataset.x, str(args.checkpoint))
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_predictions(out, dataset, range(dataset.n_epochs), probs)
    print(f"wrote {dataset.n_epochs} predictions to {out}")
    _write_manifest(
        out.parent,
        out.name,
        {
            "command": ["predict", str(args.checkpoint), str(args.cache), str(out)],
            "checkpoint_crc32": params.crc32,
            "cache_crc32": dataset.crc32,
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
    p.add_argument("--model-config", default=None,
                   help="config for the Params/FLOPs columns (default: the fold checkpoints')")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UlwsError as e:
        return _fail(f"{type(e).__name__}: {e}")
    except OSError as e:
        return _fail(str(e))
    except KeyboardInterrupt:  # the workers are stopped and the part and temp files gone
        return _fail("interrupted", 130)


if __name__ == "__main__":
    sys.exit(main())
