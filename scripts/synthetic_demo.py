#!/usr/bin/env python3
"""End-to-end demo on synthetic data: cache -> 2-fold CV -> pooled metrics -> predict.

Runs `ulws count`, `train`, `evaluate` and `predict` as a real run does,
just on a generated dataset, so it finishes in under a minute on a laptop.
`preprocess` needs EDF input and is left to the tests and the benchmark.

    python scripts/synthetic_demo.py --workdir /tmp/ulws-demo
"""

import argparse
import json
import sys
from pathlib import Path

from ulws.cli import main as ulws
from ulws.preprocess import write_cache
from ulws.synthetic import sinusoid_dataset

MODEL = {
    "n_blocks": 3,
    "filters": [4, 8, 16],
    "n_input_channels": 2,
    "input_length": 500,
    "head_hidden": 16,
}
TRAIN = {"epochs": 50, "batch_size": 8, "seed": 0}


def run(argv: list[str]) -> None:
    print("+ ulws " + " ".join(argv))
    code = ulws(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="/tmp/ulws-demo")
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    cache = work / "demo.ulws"
    dataset = sinusoid_dataset(
        n_epochs=120, n_channels=2, epoch_samples=500, n_subjects=6, seed=0
    )
    write_cache(dataset, cache)
    print(f"synthetic cache: {dataset.n_epochs} epochs, "
          f"{len(set(dataset.subject_keys))} subjects -> {cache}")

    (work / "model.json").write_text(json.dumps(MODEL, indent=2))
    (work / "train.json").write_text(json.dumps(TRAIN, indent=2))

    run(["count", "--config", str(work / "model.json")])
    run(["train", "--cache", str(cache), "--model-config", str(work / "model.json"),
         "--train-config", str(work / "train.json"), "--folds", "2", "--fold", "all",
         "--out", str(work / "cv")])
    run(["evaluate", "--predictions", str(work / "cv"),
         "--model-config", str(work / "model.json")])
    predictions = work / "predict" / "predictions.csv"
    run(["predict", "--checkpoint", str(work / "cv" / "fold0" / "checkpoint.ulwm"),
         "--cache", str(cache), "--out", str(predictions)])
    run(["evaluate", "--predictions", str(predictions),
         "--model-config", str(work / "model.json")])


if __name__ == "__main__":
    main()
