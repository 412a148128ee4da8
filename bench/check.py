"""Output checks for one benchmark run.

    python3 bench/check.py --workload W --seed N --work INPUT_DIR --out RUN_OUTPUT_DIR

Rebuilds every reference from the seed (see gen.py) and prints
{"checks": n, "failed": [messages], "pooled_acc": x, "info": {...}}.

pooled_acc is the share of the run's output labels that equal the
reference labels, pooled over all records or folds: the hypnogram stages
after trimming for ingest, and the argmax of `model_forward(mode="infer")`
on the same parameters for predict and train (a label counts as equal
where the reference's top-2 gap is below the tolerance).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np

import gen
from ulws.model import load_checkpoint, model_forward
from ulws.preprocess import read_cache

PROB_TOL = 1e-5
HISTORY_KEYS = {"epoch", "lr", "train_loss", "test_acc"}


class Checks:
    def __init__(self) -> None:
        self.count = 0
        self.failed: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.count += 1
        if not ok:
            self.failed.append(message)


def read_predictions(path: Path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    index = np.array([int(r[0]) for r in body], dtype=np.int64)
    subjects = [r[1] for r in body]
    true = np.array([int(r[2]) for r in body], dtype=np.int64)
    predicted = np.array([int(r[3]) for r in body], dtype=np.int64)
    probs = np.array([[float(p) for p in r[4:]] for r in body], dtype=np.float64)
    return header, index, subjects, true, predicted, probs


def agreement(checks: Checks, what: str, predicted, probs, reference) -> int:
    """Compare CSV rows with oracle probabilities; return rows whose label agrees."""
    checks.expect(float(np.abs(probs - reference).max()) <= PROB_TOL,
                  f"{what}: probabilities differ from the infer oracle by "
                  f"{float(np.abs(probs - reference).max()):.2e}")
    top2 = np.sort(reference, axis=1)[:, -2:]
    tied = (top2[:, 1] - top2[:, 0]) < PROB_TOL
    agree = (predicted == reference.argmax(axis=1)) | tied
    checks.expect(bool(agree.all()), f"{what}: {int((~agree).sum())} labels differ from the oracle")
    return int(agree.sum())


def check_csv(checks: Checks, what: str, path: Path, dataset, indices=None) -> tuple:
    """Header, row order, keys, labels and probability sums of one CSV; with
    `indices` None the rows may name any strictly increasing epoch indices."""
    header, index, subjects, true, predicted, probs = read_predictions(path)
    checks.expect(header == ["index", "subject", "true", "predicted"]
                  + [f"p{k}" for k in range(5)], f"{what}: header {header}")
    if indices is None:
        indices = index
        checks.expect(len(index) > 0 and bool(np.all(np.diff(index) > 0))
                      and index[0] >= 0 and index[-1] < dataset.n_epochs,
                      f"{what}: epoch indices out of order or range")
    checks.expect(np.array_equal(index, indices), f"{what}: rows are not one per epoch in order")
    checks.expect(subjects == [dataset.subject_keys[i] for i in indices],
                  f"{what}: subject keys differ")
    checks.expect(np.array_equal(true, dataset.y[indices]), f"{what}: true labels differ")
    checks.expect(bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_TOL)),
                  f"{what}: probability rows do not sum to 1")
    return index, predicted, probs


def check_ingest(checks: Checks, seed: int, out: Path) -> float:
    stdout = (out / "stdout.txt").read_text()
    checks.expect("skipped: 1" in stdout.splitlines(), "ingest did not print 'skipped: 1'")
    dataset = read_cache(out / "cache.ulws")
    nights = [n for n in gen.night_plan(seed) if n["emg_rate"] == gen.RATE_HZ]
    nights.sort(key=lambda n: n["stem"][:5])
    labels = [gen.expected_labels(n["stages"]) for n in nights]
    expected_y = np.concatenate([np.array(y, dtype=np.uint8) for y in labels])
    expected_keys = [n["stem"][:5] for n, y in zip(nights, labels) for _ in y]
    checks.expect(dataset.x.shape == (len(expected_y), len(gen.CHANNELS), 3000),
                  f"cache shape {dataset.x.shape}, expected {len(expected_y)} epochs")
    checks.expect(dataset.channel_labels == gen.CHANNELS, "channel labels differ")
    checks.expect(dataset.subject_keys == expected_keys, "subject keys differ")
    n = min(len(dataset.y), len(expected_y))
    checks.expect(len(dataset.y) == len(expected_y) and np.array_equal(dataset.y, expected_y),
                  "labels differ from the trimmed hypnograms")
    start = 0
    for night, y in zip(nights, labels):
        block = dataset.x[start:start + len(y)].astype(np.float64)
        start += len(y)
        if len(block) == 0:
            continue
        mean = block.mean(axis=(0, 2))
        std = block.std(axis=(0, 2))
        checks.expect(bool(np.all(np.abs(mean) < 1e-3) and np.all(np.abs(std - 1) < 1e-3)),
                      f"{night['stem']}: channel mean {mean} / std {std} not z-scored")
    return float((dataset.y[:n] == expected_y[:n]).sum()) / max(len(expected_y), len(dataset.y))


def check_predict(checks: Checks, seed: int, out: Path) -> float:
    dataset = gen.predict_dataset(seed)
    index, predicted, probs = check_csv(checks, "predict", out / "pred.csv", dataset,
                                        np.arange(dataset.n_epochs))
    sample = gen.sample_indices(seed)
    reference, _ = model_forward(dataset.x[sample], gen.checkpoint_params(seed), mode="infer")
    return agreement(checks, "predict", predicted[sample], probs[sample],
                     reference.astype(np.float64)) / len(sample)


def check_train(checks: Checks, seed: int, work: Path, out: Path) -> tuple[float, dict]:
    dataset = gen.train_dataset(seed)
    epochs = json.loads((work / "train.json").read_text())["epochs"]
    agreed = scored = 0
    pairs = []
    seen: list[np.ndarray] = []
    for fold in range(gen.TRAIN_FOLDS):
        fold_dir = out / "cv" / f"fold{fold}"
        rows = [json.loads(line) for line in (fold_dir / "history.jsonl").read_text().splitlines()]
        checks.expect([r.get("epoch") for r in rows] == list(range(epochs))
                      and all(set(r) == HISTORY_KEYS for r in rows),
                      f"fold {fold}: history.jsonl schema")
        losses = [r["train_loss"] for r in rows]
        checks.expect(all(isinstance(v, float) and math.isfinite(v) for v in losses),
                      f"fold {fold}: non-finite training loss {losses}")
        checks.expect(losses[-1] < losses[0], f"fold {fold}: training loss did not fall {losses}")
        index, predicted, probs = check_csv(checks, f"fold {fold}", fold_dir / "predictions.csv",
                                            dataset)
        seen.append(index)
        params = load_checkpoint(fold_dir / "checkpoint.ulwm")
        reference, _ = model_forward(dataset.x[index], params, mode="infer")
        agreed += agreement(checks, f"fold {fold}", predicted, probs, reference.astype(np.float64))
        scored += len(index)
        pairs.append((dataset.y[index], predicted))
    everything = np.sort(np.concatenate(seen))
    checks.expect(np.array_equal(everything, np.arange(dataset.n_epochs)),
                  "test folds do not partition the cache")
    report = json.loads((out / "eval.json").read_text())
    pooled = float(sum(int((t == p).sum()) for t, p in pairs)) / scored
    checks.expect(report.get("n_epochs") == dataset.n_epochs
                  and abs(report.get("accuracy", -1) - pooled) < 1e-12,
                  f"evaluate --json disagrees with the fold predictions: {report}")
    return agreed / scored, {"evaluate_accuracy": report.get("accuracy")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    checks = Checks()
    info: dict = {}
    out = Path(args.out)
    if args.workload == "ingest":
        pooled = check_ingest(checks, args.seed, out)
    elif args.workload == "predict":
        pooled = check_predict(checks, args.seed, out)
    else:
        pooled, info = check_train(checks, args.seed, Path(args.work), out)
    print(json.dumps({"checks": checks.count, "failed": checks.failed, "pooled_acc": pooled,
                      "info": info}))


if __name__ == "__main__":
    main()
