"""Per-layer metrics from the spans of traced runs (see tracer.py).

Every function here is pure over span lists; the traced run of each
workload supplies the layers that workload exercises:

- ingest:  edf.*, preprocess.filtfilt / preprocess_record / write_cache
- predict: infer.<row>.us, model.infer.kernel_calls, preprocess.read_cache
- train:   train.<row>.fwd_us / bwd_us, training.*, evaluation.*
"""

from __future__ import annotations

import statistics

NAME, START, END, PARENT, RUN, TAG, SIZE = range(7)

# spans of train_fold's children that are not its own work
_TRAIN_FOLD_CHILD_WORK = {"model.model_forward", "model.model_backward", "training.adam_step",
                          "model.predict"}


def durations(spans) -> list[float]:
    return [s[END] - s[START] for s in spans]


def self_times(spans) -> list[float]:
    """A span's duration minus the time its direct children cover."""
    own = durations(spans)
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer(span) -> str:
    return span[NAME].split(".", 1)[0]


def row_times(spans) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
    """Seconds per count_flops row, keyed by mode ("infer", "train", "bwd"),
    plus the epochs each mode processed.

    A kernel span counts when it is the outermost ulws.nn call; a block's
    dssc_forward / dssc_backward self time is its residual add.
    """
    context: list[str | None] = []
    for s in spans:
        if s[NAME] == "model.model_forward":
            context.append(s[TAG])
        elif s[NAME] == "model.model_backward":
            context.append("bwd")
        else:
            context.append(context[s[PARENT]] if s[PARENT] >= 0 else None)
    own = self_times(spans)
    times: dict[str, dict[str, float]] = {"infer": {}, "train": {}, "bwd": {}}
    epochs = {"infer": 0, "train": 0}
    for i, s in enumerate(spans):
        mode = context[i]
        if mode is None:
            continue
        if s[NAME] == "model.model_forward":
            epochs[mode] += s[SIZE]
        elif s[NAME] in ("model.dssc_forward", "model.dssc_backward"):
            times[mode][s[TAG]] = times[mode].get(s[TAG], 0.0) + own[i]
        elif (s[NAME].startswith("nn.") and s[TAG] is not None
              and (s[PARENT] < 0 or layer(spans[s[PARENT]]) != "nn")):
            times[mode][s[TAG]] = times[mode].get(s[TAG], 0.0) + s[END] - s[START]
    return times, epochs


def kernel_calls_per_batch(spans) -> float:
    """Outermost ulws.nn calls per infer-mode model_forward."""
    forwards = {i for i, s in enumerate(spans)
                if s[NAME] == "model.model_forward" and s[TAG] == "infer"}
    calls = 0
    for s in spans:
        if not s[NAME].startswith("nn."):
            continue
        parent = s[PARENT]
        while parent >= 0 and not spans[parent][NAME].startswith(("nn.", "model.model_forward")):
            parent = spans[parent][PARENT]
        calls += parent in forwards
    return calls / len(forwards) if forwards else 0.0


def rate(spans, name: str, scale: float) -> float:
    """Sum of SIZE over sum of duration for spans called `name`, times scale."""
    picked = [s for s in spans if s[NAME] == name]
    busy = sum(durations(picked))
    return sum(s[SIZE] for s in picked) / busy * scale if busy > 0 else 0.0


def mean_duration(spans, name: str, scale: float) -> float:
    picked = durations([s for s in spans if s[NAME] == name])
    return statistics.fmean(picked) * scale if picked else 0.0


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least 10 samples beyond it."""
    return (100 * (n - 10)) // n if n > 10 else None


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, (len(ordered) * pct) // 100)]


def training_steps(spans) -> list[float]:
    """Seconds from each train-mode forward to the end of its Adam update."""
    steps, start = [], None
    for s in spans:
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if parent != "training.train_fold":
            continue
        if s[NAME] == "model.model_forward" and s[TAG] == "train":
            start = s[START]
        elif s[NAME] == "training.adam_step" and start is not None:
            steps.append(s[END] - start)
            start = None
    return steps


def train_fold_self(spans) -> float:
    """Mean seconds per fold inside train_fold but outside forward, backward,
    Adam and test evaluation: batch gather, the L2 penalty and the loss."""
    folds = [i for i, s in enumerate(spans) if s[NAME] == "training.train_fold"]
    if not folds:
        return 0.0
    own = {i: spans[i][END] - spans[i][START] for i in folds}
    for s in spans:
        if s[PARENT] in own and s[NAME] in _TRAIN_FOLD_CHILD_WORK:
            own[s[PARENT]] -= s[END] - s[START]
    return statistics.fmean(own.values())


def test_eval_seconds(spans) -> float:
    picked = [s for s in spans if s[NAME] == "model.predict" and s[PARENT] >= 0
              and spans[s[PARENT]][NAME] == "training.train_fold"]
    return statistics.fmean(durations(picked)) if picked else 0.0


def cli_self_seconds(spans) -> float:
    """Time inside CLI commands not covered by any other layer's span."""
    own = self_times(spans)
    return sum(own[i] for i, s in enumerate(spans) if layer(s) == "cli")


def model_metrics(spans, rows: list[dict], prefix: str) -> dict[str, float]:
    times, epochs = row_times(spans)
    out = {}
    for row in rows:
        name = row["layer"]
        if prefix == "infer":
            out[f"infer.{name}.us"] = times["infer"].get(name, 0.0) / max(epochs["infer"], 1) * 1e6
        else:
            per = max(epochs["train"], 1)
            out[f"train.{name}.fwd_us"] = times["train"].get(name, 0.0) / per * 1e6
            out[f"train.{name}.bwd_us"] = times["bwd"].get(name, 0.0) / per * 1e6
    return out


def missing_rows(spans, rows: list[dict]) -> dict[str, list[str]]:
    """count_flops rows that received no time, per mode."""
    times, _ = row_times(spans)
    names = [r["layer"] for r in rows]
    return {mode: [n for n in names if times[mode].get(n, 0.0) <= 0.0] for mode in times}


def ingest_metrics(spans) -> dict[str, float]:
    records = [i for i, s in enumerate(spans) if s[NAME] == "preprocess.preprocess_record"]
    own = self_times(spans)
    return {
        "edf.read_signal.MBps": rate(spans, "edf.read_signal", 1e-6),
        "edf.parse_hypnogram.ms": mean_duration(spans, "edf.parse_hypnogram", 1e3),
        "preprocess.filtfilt.Msamples_per_s": rate(spans, "preprocess.filtfilt", 1e-6),
        "preprocess.preprocess_record.self_ms":
            statistics.fmean(own[i] for i in records) * 1e3 if records else 0.0,
        "preprocess.write_cache.MBps": rate(spans, "preprocess.write_cache", 1e-6),
    }


def training_metrics(spans) -> tuple[dict[str, float], str]:
    steps = training_steps(spans)
    tail = tail_percentile(len(steps))
    metrics = {
        "training.step.p50_ms": percentile(steps, 50) * 1e3 if steps else 0.0,
        "training.step.tail_ms": percentile(steps, tail) * 1e3 if tail is not None else 0.0,
        "training.adam_step.us": mean_duration(spans, "training.adam_step", 1e6),
        "training.test_eval.s": test_eval_seconds(spans),
        "training.train_fold.self_s": train_fold_self(spans),
        "evaluation.aggregate_folds.ms": mean_duration(spans, "evaluation.aggregate_folds", 1e3),
    }
    note = (f"training.step: {len(steps)} steps, tail is p{tail}" if tail is not None
            else f"training.step: {len(steps)} steps, too few for a tail percentile")
    return metrics, note


def row_bytes(cfg: dict) -> dict[str, int]:
    """Computed float32 bytes one epoch moves per row: every input and output
    activation once, over all input channels (weights, read once per batch,
    are left out)."""
    c, s = cfg["n_input_channels"], cfg["pool_stride"]
    elems: dict[str, int] = {}
    m, length = 1, cfg["input_length"]
    for i, f in enumerate(cfg["filters"]):
        l1 = -(-length // s)
        l2 = -(-l1 // s)
        for row, n in (("main_conv1", m * length + f * length), ("bn1", 2 * f * length),
                       ("relu1", 2 * f * length), ("maxpool1", f * length + f * l1),
                       ("main_conv2", 2 * f * l1), ("bn2", 2 * f * l1), ("relu2", 2 * f * l1),
                       ("maxpool2", f * l1 + f * l2), ("shortcut_conv1", m * l1 + f * l1),
                       ("shortcut_conv2", f * l1 + f * l2), ("residual_add", 3 * f * l2)):
            elems[f"block{i}.{row}"] = n * c
        m, length = f, l2
    h = cfg["head_hidden"]
    elems["global_avg_pool"] = (m * length + m) * c
    elems["head_hidden"] = c * m + h
    elems["head_relu"] = 2 * h
    elems["head_out"] = h + cfg["n_classes"]
    return {row: 4 * n for row, n in elems.items()}
