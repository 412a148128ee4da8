"""Command-line front end: preprocess | count | train | evaluate | predict.

Every artifact-producing run writes a deterministic manifest (command
line, config snapshot, seeds, code version, input checksums, resolved
defaults) next to its outputs; wall-clock timestamps go to a separate
append-only run log so reruns with identical inputs stay byte-identical.
Diagnostics go to stderr, data to stdout; exit code 0 means no fatal error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
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
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import __version__, complexity, container, evaluation, nn, preprocess
from .edf import subject_key_and_night
from .errors import BadConfig, BadOutputPath, ChecksumMismatch, ShapeMismatch, UlwsError, WorkerDied
from .evaluation import N_CLASSES
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .preprocess import EpochDataset, FileEpochs, read_cache, write_cache
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
# CPU. A forked worker starts and stops in 10-16 ms, but the units it takes
# must also outweigh what dealing them costs: two pairs (2 CPUs, 11 alternating
# runs) ingested as fast on one process as on two at 2.75 MiB each, and faster
# on two in 9 of 11 runs at 4.1 MiB (187 ms against 210 ms) and in 11 of 11 at
# 5.5 MiB. So smaller inputs (under ~1.5 h of four 100 Hz channels), and the
# many tiny ones of the tests, stay in one process.
LARGE_PSG_BYTES = 4 << 20
# its workers run at this niceness from their start on, and yield the ulws
# process the CPU: against niceness 0, set-up on the benchmark's `ingest`
# workload (2 CPUs, spawned workers) was lower in 10 of 10 alternating pairs
# (1.79 s against 1.92 s)
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
    non-directory where one of `dirs` goes, a non-directory above --out, or
    one of `dirs` that cannot be made or written to (permissions, a read-only
    file system). `dirs` are the directories the command writes in, `files`
    every file it writes, --out among them.

    It makes each of `dirs` and a file in it, then removes what it made, so
    the file tree is left as it was.
    """
    for parent in out.parents:
        if parent.exists() and not parent.is_dir():
            raise BadOutputPath(f"--out {out}: {parent} is not a directory")
    for path in dirs + files:
        directory = path in dirs
        if path.exists() and path.is_dir() != directory:
            which = "" if path == out else f": {path}"
            raise BadOutputPath(f"--out {out}{which} is {'not ' if directory else ''}a directory")
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


def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, found by its path among this process's
    mappings (Linux), if it has the thread-count calls; None otherwise."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].rstrip("\n") for line in fh if "openblas" in line}
    except OSError:  # no /proc on this platform
        return None
    for path in sorted(paths):
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)  # the mapped library itself, not a second copy
            if all(hasattr(lib, f"scipy_openblas_{op}_num_threads64_") for op in ("get", "set")):
                return lib
    return None


@contextlib.contextmanager
def _blas_threads(count: int):
    """Run the block with numpy's bundled OpenBLAS at `count` threads, then
    give it back the count it had. A process forked inside the block starts
    with `count` threads. Does nothing when the user chose the count, with
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, or when numpy's BLAS is another.
    """
    user_set = any(name in os.environ for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    lib = None if user_set else _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(count)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


@contextlib.contextmanager
def _dealt(jobs: dict, fn, initializer, task: tuple[str, str], most: int | None = None):
    """Run `fn(*jobs[key])` for every key of `jobs`, in its order, over
    n = min(most, usable CPUs) processes, `most` defaulting to len(jobs), and
    yield an iterator of (key, outcome).

    An outcome is what the call returned or the Exception it raised;
    WorkerDied, with `task` = (worker, work) naming them, for a worker that
    exited before it returned. This process runs `keys[0]` itself and
    submits every other key at once to n - 1 workers, each started by
    `container.start_worker` and then `initializer`. It then walks the keys
    in order and runs itself each one whose Future it can still cancel, one
    that no worker has taken: the pool holds at most n keys for its n - 1
    workers (it queues one call beyond them), so this process keeps
    `keys[0]` and never idles while a key waits. Between keys it yields the
    workers' finished outcomes, so a caller that stops at a failure starts
    no further key, and then it waits for the rest. While the pool lives,
    numpy's OpenBLAS runs max(1, usable CPUs // n) threads in each process
    (`_blas_threads`), so the n processes do not fight over the cores.

    The workers are forked, at the first submit: each is a copy of this
    process, with numpy, ulws and whatever the caller set up (the band-pass
    design, malloc's settings) already in place, so a worker starts in
    milliseconds, imports nothing and runs no script's main module again.
    Forking needs this process to have one thread, which the CLI has: a
    fork-context pool forks its workers before it starts its manager
    thread, and numpy's bundled OpenBLAS parks its own threads across a
    fork (`pthread_atfork`). No resource tracker is started: a fork-context
    pool's semaphores are unnamed.

    The workers start with SIGINT and SIGHUP blocked, so Ctrl-C and a closed
    terminal, which signal the whole process group, reach this process
    alone. Leaving on an exception stops the workers with SIGTERM without
    waiting for their work, and a busy one removes its temporary as it ends
    (`container.ending_when_terminated`); leaving normally cancels the keys
    no worker has taken, waits for any still running, then stops the idle
    workers in the same way and waits for the pool's manager thread, not
    for the workers' own exit. A worker ends too when this process dies,
    even by SIGKILL.
    """
    keys = list(jobs)
    n = max(1, min(len(keys) if most is None else most, _usable_cpus()))
    futures = {}  # key -> Future, for every key submitted to the workers

    def run_here(key):
        try:
            return fn(*jobs[key])
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
    with _blas_threads(max(1, _usable_cpus() // n)):
        pool = ProcessPoolExecutor(n - 1, mp_context=multiprocessing.get_context("fork"),
                                   initializer=container.start_worker, initargs=(initializer,))
        try:
            # the first submit forks the workers, and each inherits this thread's signal mask
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGHUP})
            try:
                for key in keys[1:]:
                    futures[key] = pool.submit(container.ending_when_terminated, fn, *jobs[key])
            except RuntimeError:  # a worker that died on start gives BrokenProcessPool
                raise WorkerDied("could not start a worker process") from None
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            yield walk()
        except BaseException:
            _stop_workers(pool)
            raise
        for future in futures.values():
            future.cancel()
        concurrent.futures.wait(futures.values())
        # an exiting interpreter wakes a manager thread still alive through a pipe
        # that the thread may have just closed, and prints the OSError
        _stop_workers(pool).join()


def _stop_workers(pool: ProcessPoolExecutor) -> threading.Thread:
    """Shut `pool` down without waiting for its work: cancel the keys no
    worker has taken, and stop the pool's own processes with SIGTERM, as
    ProcessPoolExecutor.terminate_workers (Python 3.14) stops them. An idle
    worker ends at once; a busy one removes its temporary as it ends. Returns
    the pool's manager thread, which ends once it has seen the shutdown."""
    workers, manager = list(pool._processes.values()), pool._executor_manager_thread
    pool.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        worker.terminate()
        worker.join()
    return manager


def _worker_outcome(future, worker: str, work: str):
    """The future's result or the Exception it raised; WorkerDied if its
    worker exited before giving it."""
    try:
        return future.result()
    except BrokenProcessPool:
        return WorkerDied(f"a {worker} worker exited before its {work} finished")
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


def cmd_preprocess(args) -> int:
    out = Path(args.out)
    _check_out(out, [out.parent], [out, *_manifest_files(out.parent, out.name)])
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
    parts: list[Path] = []  # each pair's part file, which its channels' rows go to
    done = {}  # unit -> its (what, outcome)
    kept: list[tuple[Path, int]] = []  # (part file, epochs) of each kept pair in order
    ys, keys = [], []
    large = sum(size >= LARGE_PSG_BYTES for size in sizes)
    try:
        for _ in pairs:
            fd, name = tempfile.mkstemp(suffix=".part", prefix=f"{out.name}.", dir=out.parent)
            os.close(fd)
            parts.append(Path(name))
        jobs = {(i, c): (*pairs[i], channels, c, args.filter_all_channels, parts[i])
                for i, c in units}
        # the band-pass design imports scipy.signal (~1 s): pay that as set-up, before
        # the first record is read and before the workers fork, so that they have it too
        preprocess.bandpass()
        with _dealt(jobs, preprocess.ingest_unit, functools.partial(os.nice, WORKER_NICE),
                    ("preprocess", "channel"), most=large) as dealt:
            for unit, outcome in dealt:
                if isinstance(outcome, Exception):  # a failed write or a dead worker
                    raise outcome
                done[unit] = outcome
        for i, part in enumerate(parts):
            what, outcome = preprocess.pair_outcome([done[i, c] for c in range(len(channels))])
            if isinstance(outcome, Exception):
                _warn(f"{what}: {type(outcome).__name__}: {outcome}")
                skipped += 1
            else:
                key, y = outcome
                print(f"{what}: kept {len(y)} epochs")
                kept.append((part, len(y)))
                ys.append(y)
                keys += [key] * len(y)
        if not kept:
            return _fail("no records loaded")
        dataset = EpochDataset(FileEpochs.of_parts(kept, len(channels)), np.concatenate(ys),
                               keys, channels)
        cache_crc = write_cache(dataset, out)
    finally:  # once no worker writes a part any more
        for part in parts:
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
) -> float:
    """Train one fold, write its checkpoint, history and predictions; return their accuracy.

    The cache is read from `cache_path`, in whichever process runs the fold, and
    the CRC-32 that this read verified must still be `cache_crc`, the one the run
    started from.
    """
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


def _train_folds(jobs: dict[int, tuple]) -> dict[int, float | Exception]:
    """Run `_run_fold(*jobs[i])` for every fold i, dealt over processes by `_dealt`.

    Every fold, in this process or a worker, reads the cache by path. Once a
    fold fails no further fold starts. Returns each fold that gave its outcome
    mapped to its accuracy or the Exception it raised; a worker that died
    gives WorkerDied.
    """
    outcomes: dict[int, float | Exception] = {}
    with _dealt(jobs, _run_fold, None, ("training", "fold")) as dealt:
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
    cache_crc = dataset.crc32
    del dataset  # each fold reads its own, so this process holds one copy while its fold trains
    wanted = list(range(args.folds)) if args.fold == "all" else [int(args.fold)]
    out_dir = Path(args.out)
    fold_dirs = {i: out_dir / f"{FOLD_PREFIX}{i}" for i in wanted}
    # checked once the folds are dealt, so a --folds past the cache's subject count
    # is refused before any path is checked for each of its folds
    _check_out(out_dir, [out_dir, *fold_dirs.values()],
               [f for d in fold_dirs.values() for f in _fold_files(d)]
               + _manifest_files(out_dir, "train"))
    jobs = {
        i: (cache_path, cache_crc, folds[i], mcfg,
            dataclasses.replace(tcfg, seed=tcfg.seed + i), fold_dirs[i])
        for i in wanted
    }
    outcomes = _train_folds(jobs)
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
            "cache_crc32": cache_crc,
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
    _check_out(out, [out.parent], [out, *_manifest_files(out.parent, out.name)])
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
    with container.terminating():
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except UlwsError as e:
            return _fail(f"{type(e).__name__}: {e}")
        except OSError as e:
            return _fail(str(e))
        except KeyboardInterrupt:  # the workers are stopped and the part and temp files gone
            return _fail("interrupted", 130)
        except container.Terminated as e:  # likewise
            return _fail("terminated", 128 + e.args[0])


if __name__ == "__main__":
    sys.exit(main())
