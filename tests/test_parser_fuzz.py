"""The parsers of outside input return a result or raise a typed UlwsError.

Each test mutates a valid file (flipped bytes, a truncation, or ASCII text
written over one header field) and feeds it to a parser: the EDF header and
signal reader, the hypnogram parser, `load_record` + `preprocess_record`,
`ulws preprocess` as a whole, and the predictions-CSV reader of
`ulws evaluate`; `ulws predict` as a whole gets a checkpoint whose weights
are overwritten with any float32, then sealed with a valid CRC, and
`ulws train` as a whole gets model and train configs with 1-3 keys set to
a wrong JSON type, zero, a negative, an overflow or a small size, and a
cache with 1-3 bytes flipped in its subject keys, its epochs or its labels,
then sealed with a valid CRC. No other
exception may escape, and a numpy RuntimeWarning counts as an escape. The
example budget is the Hypothesis profile's (tests/conftest.py).
"""

import contextlib
import csv
import dataclasses
import gc
import io
import json
import os
import re
import shutil
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edf_fixtures import hypnogram_bytes, psg_bytes
from ulws import container, errors
from ulws.cli import DEFAULT_CHANNELS, _read_prediction_pairs, main
from ulws.edf import load_record, parse_edf_header, parse_hypnogram, read_signal
from ulws.errors import UlwsError
from ulws.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ModelConfig,
    build_model,
    save_checkpoint,
)
from ulws.preprocess import (
    CACHE_MAGIC,
    CACHE_VERSION,
    preprocess_record,
    read_cache,
    write_cache,
)
from ulws.synthetic import sinusoid_dataset
from ulws.training import TrainConfig

# widths of the per-signal header columns, in file order
SIGNAL_COLUMNS = [16, 80, 8, 8, 8, 8, 8, 80, 8, 32]
FIXED_FIELDS = [(0, 8), (8, 80), (88, 80), (168, 8), (176, 8), (184, 8), (192, 44),
                (236, 8), (244, 8), (252, 4)]
FIELD_TEXTS = ["", "0", "1", "-1", "2", "256", "99999999", "-9999999", "1e308", "-1e308",
               "1e-300", "nan", "inf", "-inf", "0.5", "3000", "+", "x", "        "]


def header_fields(blob):
    """(offset, width) of every fixed and per-signal header field of `blob`."""
    n_signals = int(blob[252:256].decode("ascii").strip())
    fields = list(FIXED_FIELDS)
    offset = 256
    for width in SIGNAL_COLUMNS:
        fields += [(offset + i * width, width) for i in range(n_signals)]
        offset += width * n_signals
    return fields


def mutate(blob, data, fields):
    """`blob` cut short, with 1-3 bytes flipped, or with one field overwritten."""
    how = data.draw(st.sampled_from(["truncate", "flip", "overwrite"]), label="how")
    if how == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    out = bytearray(blob)
    if how == "flip":
        positions = st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=3, unique=True)
        for pos in data.draw(positions, label="flipped"):
            out[pos] ^= data.draw(st.integers(1, 255), label=f"xor at {pos}")
        return bytes(out)
    offset, width = data.draw(st.sampled_from(fields), label="field")
    printable = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=width)
    text = data.draw(st.one_of(st.sampled_from(FIELD_TEXTS), printable), label="text")
    out[offset : offset + width] = text[:width].encode("ascii").ljust(width)
    return bytes(out)


def returns_or_fails_typed(parse, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            parse(*args)
        except UlwsError:
            pass


def read_every_signal(blob):
    header = parse_edf_header(blob)
    for i in range(header.n_signals):
        read_signal(io.BytesIO(blob), header, i)


PSG = psg_bytes(3)
HYPNOGRAM = hypnogram_bytes([(0.0, 30.0, "Sleep stage W"), (30.0, 30.0, "Sleep stage 1"),
                             (60.0, 30.0, "Sleep stage 2")])


@given(data=st.data())
def test_a_mutated_psg_reads_or_fails_typed(data):
    returns_or_fails_typed(read_every_signal, mutate(PSG, data, header_fields(PSG)))


@given(data=st.data())
def test_a_mutated_hypnogram_parses_or_fails_typed(data):
    returns_or_fails_typed(parse_hypnogram, mutate(HYPNOGRAM, data, header_fields(HYPNOGRAM)))


@contextlib.contextmanager
def no_numpy_warning_or_open_file():
    """Fail on a RuntimeWarning, or a ResourceWarning for a file left open, in the block."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect(1)  # a file kept alive by a young reference cycle warns when collected
    stray = [w for w in caught if issubclass(w.category, (RuntimeWarning, ResourceWarning))]
    assert not stray, [str(w.message) for w in stray]


@pytest.fixture(scope="module")
def pair_dir(tmp_path_factory):
    """A good pair SC4001 and the pair SC4011 that each example overwrites."""
    directory = tmp_path_factory.mktemp("pairs")
    for stem in ("SC4001", "SC4011"):
        (directory / f"{stem}E0-PSG.edf").write_bytes(PSG)
        (directory / f"{stem}EC-Hypnogram.edf").write_bytes(HYPNOGRAM)
    return directory


@given(data=st.data())
def test_a_mutated_psg_preprocesses_to_finite_epochs_or_fails_typed(pair_dir, data):
    psg, hyp = pair_dir / "SC4011E0-PSG.edf", pair_dir / "SC4011EC-Hypnogram.edf"
    psg.write_bytes(mutate(PSG, data, header_fields(PSG)))
    hyp.write_bytes(HYPNOGRAM)
    with no_numpy_warning_or_open_file():
        try:
            x, _ = preprocess_record(load_record(psg, hyp, DEFAULT_CHANNELS), DEFAULT_CHANNELS)
        except UlwsError:
            return
    assert np.isfinite(x).all()


@given(data=st.data())
def test_preprocess_of_a_mutated_pair_beside_a_good_one_exits_cleanly(pair_dir, data):
    files = {"PSG": (pair_dir / "SC4011E0-PSG.edf", PSG),
             "hypnogram": (pair_dir / "SC4011EC-Hypnogram.edf", HYPNOGRAM)}
    for path, blob in files.values():
        path.write_bytes(blob)
    path, blob = files[data.draw(st.sampled_from(sorted(files)), label="mutated file")]
    path.write_bytes(mutate(blob, data, header_fields(blob)))
    out = pair_dir.parent / f"{pair_dir.name}-out" / "cache.ulws"
    out.unlink(missing_ok=True)
    with no_numpy_warning_or_open_file(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["preprocess", "--data-dir", str(pair_dir), "--out", str(out)])
    assert code in (0, 2)
    if out.exists():
        assert np.isfinite(read_cache(out).x).all()


def predictions_text():
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["index", "subject", "true", "predicted", "p0", "p1", "p2", "p3", "p4"])
    for i in range(4):
        writer.writerow([i, f"S{i % 2}", i % 5, (i + 1) % 5, 0.2, 0.2, 0.2, 0.2, 0.2])
    return out.getvalue()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "predictions.csv"


@given(data=st.data())
def test_a_mutated_predictions_csv_reads_or_fails_typed(csv_path, data):
    text = predictions_text()
    edits = st.tuples(st.integers(0, len(text)), st.integers(0, 4),
                      st.text(st.sampled_from(',"\r\n\x00 -+0123456789ab\xe9'), max_size=6))
    for pos, cut, new in data.draw(st.lists(edits, min_size=1, max_size=4), label="edits"):
        text = text[:pos] + new + text[pos + cut :]
    blob = text.encode("utf-8")
    if blob and data.draw(st.booleans(), label="flip a high bit"):  # may break the UTF-8
        pos = data.draw(st.integers(0, len(blob) - 1), label="at")
        blob = blob[:pos] + bytes([blob[pos] ^ 0x80]) + blob[pos + 1 :]
    csv_path.write_bytes(blob)
    returns_or_fails_typed(_read_prediction_pairs, csv_path)


TINY_MODEL = {"n_blocks": 2, "filters": [2, 3], "kernel_size": 3, "n_input_channels": 2,
              "input_length": 200, "head_hidden": 4}


@pytest.fixture(scope="module")
def predict_dir(tmp_path_factory):
    """A tiny model's checkpoint and a cache of 6 epochs that it fits."""
    directory = tmp_path_factory.mktemp("predict")
    save_checkpoint(build_model(ModelConfig.from_dict(TINY_MODEL), seed=0),
                    directory / "checkpoint.ulwm")
    write_cache(sinusoid_dataset(n_epochs=6, n_channels=2, epoch_samples=200, n_subjects=2,
                                 seed=3), directory / "cache.ulws")
    return directory


@given(data=st.data())
def test_predict_with_any_float32_weights_exits_cleanly(predict_dir, data):
    body = bytearray((predict_dir / "checkpoint.ulwm").read_bytes()[5:-4])  # after the version
    weights = np.frombuffer(body, "<f4", offset=4 + int.from_bytes(body[:4], "little"))
    values = st.one_of(st.floats(width=32), st.sampled_from([3e38, -3e38]))
    edits = st.lists(st.tuples(st.integers(0, len(weights) - 1), values), min_size=1, max_size=8)
    for i, value in data.draw(edits, label="weights"):
        weights[i] = value
    checkpoint = predict_dir / "mutated.ulwm"
    container.write(checkpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, [body])
    out = predict_dir / "out" / "predictions.csv"
    out.unlink(missing_ok=True)
    with no_numpy_warning_or_open_file(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["predict", "--checkpoint", str(checkpoint),
                     "--cache", str(predict_dir / "cache.ulws"), "--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            assert main(["evaluate", "--predictions", str(out), "--json"]) == 0
    if code == 2:
        assert not out.exists()
        return
    with out.open(newline="") as fh:
        probs = np.array([[float(row[f"p{k}"]) for k in range(5)] for row in csv.DictReader(fh)])
    assert probs.shape == (6, 5) and np.isfinite(probs).all()
    assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-5)


TINY_TRAIN = {"epochs": 2, "batch_size": 16, "seed": 5}
CONFIG_KEYS = [(name, field.name) for name, cls in (("model", ModelConfig), ("train", TrainConfig))
               for field in dataclasses.fields(cls)]
# wrong JSON types, zero, negatives, overflow, and sizes that keep a run near 0.1 s:
# 64 makes a batch of the whole train side, but as an epoch count it would not
CONFIG_VALUES = [None, True, "3", "standard", [], {}, [2, 3], [1, 2, 3], [3, 2],
                 0, -1, 1, 2, 3, 64, 0.5, 1e-30, 1e30, -1e30]
EPOCH_COUNTS = [v for v in CONFIG_VALUES if v != 64]


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory):
    """A 48-epoch cache of 4 subjects that TINY_MODEL fits."""
    directory = tmp_path_factory.mktemp("train")
    write_cache(sinusoid_dataset(n_epochs=48, n_channels=2, epoch_samples=200, n_subjects=4,
                                 seed=9), directory / "cache.ulws")
    return directory


def train_exits_cleanly(cache, model_config, train_config, out):
    """`ulws train` on 1 CPU, so with no workers, exits 0, or 2 or 3 with one typed
    error; with 0, its fold predictions are finite probabilities that evaluate."""
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with no_numpy_warning_or_open_file(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0}):
        code = main(["train", "--cache", str(cache), "--model-config", str(model_config),
                     "--train-config", str(train_config), "--folds", "2", "--out", str(out)])
        assert code in (0, 2, 3), err.getvalue()
        if code == 0:
            assert main(["evaluate", "--predictions", str(out), "--strict", "--json"]) == 0
    if code:
        error = re.fullmatch(r"error: (?:fold \d: )?(\w+): .*\n", err.getvalue(), re.S)
        assert error and issubclass(getattr(errors, error[1], Exception), UlwsError), err.getvalue()
        return
    for fold in range(2):
        with (out / f"fold{fold}" / "predictions.csv").open(newline="") as fh:
            probs = np.array([[float(row[f"p{k}"]) for k in range(5)]
                              for row in csv.DictReader(fh)])
        assert len(probs) and np.isfinite(probs).all()
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-5)


@given(data=st.data())
def test_train_with_mutated_configs_exits_cleanly(train_dir, data):
    configs = {"model": dict(TINY_MODEL), "train": dict(TINY_TRAIN)}
    keys = st.lists(st.sampled_from(CONFIG_KEYS), min_size=1, max_size=3, unique=True)
    for name, key in data.draw(keys, label="keys"):
        values = EPOCH_COUNTS if key == "epochs" else CONFIG_VALUES
        configs[name][key] = data.draw(st.sampled_from(values), label=f"{name}.{key}")
    for name, config in configs.items():
        (train_dir / f"{name}.json").write_text(json.dumps(config))
    train_exits_cleanly(train_dir / "cache.ulws", train_dir / "model.json",
                        train_dir / "train.json", train_dir / "run")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """A 12-epoch cache of 4 subjects that TINY_MODEL fits, and configs to train it 1 epoch."""
    directory = tmp_path_factory.mktemp("mutated-cache")
    write_cache(sinusoid_dataset(n_epochs=12, n_channels=2, epoch_samples=200, n_subjects=4,
                                 seed=9), directory / "cache.ulws")
    (directory / "model.json").write_text(json.dumps(TINY_MODEL))
    (directory / "train.json").write_text(json.dumps(dict(TINY_TRAIN, epochs=1)))
    return directory


def cache_regions(path) -> dict[str, tuple[int, int]]:
    """[start, stop) of the subject keys, the epochs and the labels in the body of the
    cache at `path`, the bytes between its version and its CRC."""
    dataset = read_cache(path)
    keys = 28 + sum(4 + len(label.encode()) for label in dataset.channel_labels)
    epochs = keys + sum(4 + len(key.encode()) for key in dataset.subject_keys)
    labels = epochs + dataset.x.nbytes
    return {"subject keys": (keys, epochs), "epochs": (epochs, labels),
            "labels": (labels, labels + dataset.n_epochs)}


@given(data=st.data())
def test_train_on_a_mutated_cache_exits_cleanly(cache_dir, data):
    body = bytearray((cache_dir / "cache.ulws").read_bytes()[5:-4])  # after the version
    regions = cache_regions(cache_dir / "cache.ulws")
    start, stop = regions[data.draw(st.sampled_from(sorted(regions)), label="region")]
    positions = st.lists(st.integers(start, stop - 1), min_size=1, max_size=3, unique=True)
    for pos in data.draw(positions, label="flipped"):
        body[pos] ^= data.draw(st.integers(1, 255), label=f"xor at {pos}")
    cache = cache_dir / "mutated.ulws"
    container.write(cache, CACHE_MAGIC, CACHE_VERSION, [body])
    train_exits_cleanly(cache, cache_dir / "model.json", cache_dir / "train.json",
                        cache_dir / "run")
