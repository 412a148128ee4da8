import csv
import json
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import threading
import warnings
import weakref
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.signal

from edf_fixtures import FixtureSignal, edf_bytes, hypnogram_bytes, psg_bytes, sine_digital
from oracles import concatenated_dataset, pairwise_accuracy, pairwise_kappa, pairwise_macro_f1
from ulws import cli, container, nn, preprocess, training
from ulws.cli import DEFAULT_CHANNELS, _keep_batch_memory, _run_fold, _train_folds, main
from ulws.edf import load_record
from ulws.errors import ChecksumMismatch, NonFiniteGradient
from ulws.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ModelConfig,
    build_model,
    load_checkpoint,
    named_arrays,
    predict,
    save_checkpoint,
)
from ulws.preprocess import EpochDataset, preprocess_record, read_cache, write_cache
from ulws.synthetic import sinusoid_dataset
from ulws.training import FoldSplit, TrainConfig, split_indices, subject_folds

TINY_MODEL = {
    "n_blocks": 2,
    "filters": [2, 3],
    "kernel_size": 3,
    "n_input_channels": 2,
    "input_length": 200,
    "head_hidden": 4,
}
TINY_TRAIN = {"epochs": 2, "batch_size": 16, "seed": 5}


def stage_events(pattern):
    events, onset = [], 0.0
    for text, n in pattern:
        events.append((onset, 30.0 * n, text))
        onset += 30.0 * n
    return events


RECORD_STAGES = [
    ("Sleep stage W", 4),
    ("Sleep stage 1", 4),
    ("Sleep stage 2", 8),
    ("Sleep stage R", 4),
    ("Sleep stage W", 4),
]


def write_record_pair(directory, stem_prefix, seed=0):
    psg = directory / f"{stem_prefix}E0-PSG.edf"
    hyp = directory / f"{stem_prefix}EC-Hypnogram.edf"
    psg.write_bytes(psg_bytes(n_epochs=24, seed=seed))
    hyp.write_bytes(hypnogram_bytes(stage_events(RECORD_STAGES)))
    return psg, hyp


# --- preprocess -------------------------------------------------------------

def test_preprocess_two_records(tmp_path, capsys):
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    write_record_pair(data_dir, "SC4001", seed=1)
    write_record_pair(data_dir, "SC4012", seed=2)
    out = tmp_path / "cache.ulws"
    code = main(["preprocess", "--data-dir", str(data_dir), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "skipped: 0" in captured.out
    ds = read_cache(out)
    assert ds.n_epochs == 48 and ds.n_channels == 4
    assert set(ds.subject_keys) == {"SC400", "SC401"}
    assert (tmp_path / "cache.ulws.manifest.json").exists()


def test_preprocess_designs_the_band_pass_once(tmp_path, monkeypatch):
    """Two records, two EEG channels each: one butter and one sosfilt_zi for the run."""
    calls = {"butter": 0, "sosfilt_zi": 0}

    def counting(name):
        original = getattr(scipy.signal, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(scipy.signal, name, counting(name))
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    write_record_pair(data_dir, "SC4001", seed=1)
    write_record_pair(data_dir, "SC4012", seed=2)
    preprocess.bandpass.cache_clear()
    try:
        assert main(["preprocess", "--data-dir", str(data_dir), "--out",
                     str(tmp_path / "cache.ulws")]) == 0
    finally:
        preprocess.bandpass.cache_clear()  # designed again, unwrapped, on its next use
    assert calls == {"butter": 1, "sosfilt_zi": 1}


def test_preprocess_skips_a_pair_whose_file_name_is_not_utf8(tmp_path, capsys):
    """The subject key of b"SC40\\xff1E0-PSG.edf" cannot be stored as UTF-8."""
    data_dir, alone = tmp_path / "edf", tmp_path / "alone"
    for directory in (data_dir, alone):
        directory.mkdir()
        write_record_pair(directory, "SC4001", seed=1)
    write_record_pair(data_dir, os.fsdecode(b"SC40\xff1"), seed=2)
    for directory in (data_dir, alone):
        assert main(["preprocess", "--data-dir", str(directory), "--out",
                     str(directory / "cache.ulws")]) == 0
    captured = capsys.readouterr()
    assert "InvalidDataset" in captured.err and "Traceback" not in captured.err
    assert "skipped: 1" in captured.out
    assert (data_dir / "cache.ulws").read_bytes() == (alone / "cache.ulws").read_bytes()


def test_preprocess_unpairable_psg_skipped(tmp_path, capsys):
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    write_record_pair(data_dir, "SC4001", seed=1)
    (data_dir / "SC4091E0-PSG.edf").write_bytes(psg_bytes(n_epochs=2, seed=3))
    out = tmp_path / "cache.ulws"
    code = main(["preprocess", "--data-dir", str(data_dir), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "skipped: 1" in captured.out
    assert "no matching hypnogram" in captured.err
    assert read_cache(out).n_epochs == 24


def test_preprocess_empty_directory(tmp_path, capsys):
    data_dir = tmp_path / "empty"
    data_dir.mkdir()
    code = main(["preprocess", "--data-dir", str(data_dir), "--out", str(tmp_path / "c")])
    assert code != 0
    assert "no records found" in capsys.readouterr().err


@pytest.mark.parametrize("onset", [3e20, 1.2e12])  # 1e12 s lies off the 30 s grid
def test_preprocess_skips_record_scored_far_past_its_end(tmp_path, capsys, onset):
    """A wake event ~1e19 or 4e10 epochs out is a typed error, not a list that long."""
    data_dir, alone = tmp_path / "edf", tmp_path / "alone"
    for directory in (data_dir, alone):
        directory.mkdir()
        write_record_pair(directory, "SC4001", seed=1)
    _, hyp = write_record_pair(data_dir, "SC4012", seed=2)
    hyp.write_bytes(hypnogram_bytes(stage_events(RECORD_STAGES) + [(onset, 30.0, "Sleep stage W")]))
    for directory in (data_dir, alone):
        assert main(["preprocess", "--data-dir", str(directory), "--out",
                     str(directory / "cache.ulws")]) == 0
    captured = capsys.readouterr()
    assert "warning: SC401 night 2: EpochAlignmentError" in captured.err
    assert "skipped: 1" in captured.out and "Traceback" not in captured.err
    assert (data_dir / "cache.ulws").read_bytes() == (alone / "cache.ulws").read_bytes()


def test_preprocess_channel_subset(tmp_path):
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    write_record_pair(data_dir, "SC4001", seed=1)
    out = tmp_path / "cache.ulws"
    code = main(
        ["preprocess", "--data-dir", str(data_dir), "--out", str(out),
         "--channels", "EEG Fpz-Cz,EOG horizontal"]
    )
    assert code == 0
    ds = read_cache(out)
    assert ds.channel_labels == ["EEG Fpz-Cz", "EOG horizontal"]
    assert ds.n_channels == 2


def stored_crc(path):
    """The CRC-32 a .ulws/.ulwm keeps in its last 4 bytes (little-endian), as 8 hex digits."""
    return f"{int.from_bytes(path.read_bytes()[-4:], 'little'):08x}"


def manifest_of(path):
    return json.loads(path.with_name(f"{path.name}.manifest.json").read_text())


def test_preprocess_filter_all_channels_changes_non_eeg(tmp_path):
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    write_record_pair(data_dir, "SC4001", seed=1)
    out_a, out_b = tmp_path / "a.ulws", tmp_path / "b.ulws"
    assert main(["preprocess", "--data-dir", str(data_dir), "--out", str(out_a)]) == 0
    assert main(["preprocess", "--data-dir", str(data_dir), "--out", str(out_b),
                 "--filter-all-channels"]) == 0
    a, b = read_cache(out_a), read_cache(out_b)
    eeg, emg = a.channel_labels.index("EEG Fpz-Cz"), a.channel_labels.index("EMG submental")
    assert np.allclose(a.x[:, eeg], b.x[:, eeg], atol=1e-5)  # EEG filtered either way
    assert not np.allclose(a.x[:, emg], b.x[:, emg], atol=1e-3)  # EMG only with the flag
    # two caches of one size: only the CRC each stores tells them apart
    assert out_a.stat().st_size == out_b.stat().st_size
    crcs = [manifest_of(out)["cache_crc32"] for out in (out_a, out_b)]
    assert crcs == [stored_crc(out_a), stored_crc(out_b)] and crcs[0] != crcs[1]


def psg_with_range(n_epochs, physical_min, physical_max, seed=0):
    """psg_bytes with the first channel's physical range replaced."""
    signals = [
        FixtureSignal(label, 3000, digital=sine_digital(3000 * n_epochs, 1.0 + 2.0 * i, 100.0,
                                                        seed=seed + i))
        for i, label in enumerate(DEFAULT_CHANNELS)
    ]
    signals[0].physical_min, signals[0].physical_max = physical_min, physical_max
    return edf_bytes(signals, n_data_records=n_epochs)


@pytest.mark.parametrize(
    "physical_range, error",
    [((float("nan"), 204.7), "MalformedField"), ((-1e300, 1e300), "InvariantViolation")],
)
def test_preprocess_skips_record_with_non_finite_values(tmp_path, capsys, physical_range, error):
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    write_record_pair(data_dir, "SC4001", seed=1)
    psg, _ = write_record_pair(data_dir, "SC4012", seed=2)
    psg.write_bytes(psg_with_range(24, *physical_range, seed=2))
    out = tmp_path / "cache.ulws"
    code = main(["preprocess", "--data-dir", str(data_dir), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "skipped: 1" in captured.out.splitlines()
    assert error in captured.err and "Traceback" not in captured.err
    ds = read_cache(out)
    assert set(ds.subject_keys) == {"SC400"} and np.isfinite(ds.x).all()


@pytest.mark.parametrize("kind", ["dangling symlink", "directory"])
def test_preprocess_skips_an_unreadable_psg(tmp_path, capsys, kind):
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    write_record_pair(data_dir, "SC4001", seed=1)
    psg, _ = write_record_pair(data_dir, "SC4011", seed=2)
    psg.unlink()
    if kind == "directory":
        psg.mkdir()
    else:
        psg.symlink_to(tmp_path / "gone.edf")
    out = tmp_path / "cache.ulws"
    assert main(["preprocess", "--data-dir", str(data_dir), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    error = {"dangling symlink": "FileNotFoundError", "directory": "IsADirectoryError"}[kind]
    assert f"warning: SC4011E0-PSG.edf: {error}: " in captured.err
    assert "skipped: 1" in captured.out.splitlines()
    assert read_cache(out).subject_keys == ["SC400"] * 24


def test_preprocess_skips_a_psg_removed_after_its_header_was_read(tmp_path, capsys, monkeypatch):
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    write_record_pair(data_dir, "SC4001", seed=1)
    gone, _ = write_record_pair(data_dir, "SC4011", seed=2)

    def load_then_remove(psg, hyp, channels):
        record = load_record(psg, hyp, channels)
        if psg == gone:
            psg.unlink()  # preprocess_record opens the PSG again to read its channels
        return record

    monkeypatch.setattr(cli, "load_record", load_then_remove)
    out = tmp_path / "cache.ulws"
    assert main(["preprocess", "--data-dir", str(data_dir), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"warning: SC401 night 1: FileNotFoundError: " in captured.err
    assert str(gone) in captured.err
    assert "skipped: 1" in captured.out.splitlines()
    assert read_cache(out).subject_keys == ["SC400"] * 24


def test_preprocess_cache_matches_library_path(tmp_path):
    """Streamed CLI cache == the library path over all records loaded, in (subject, night) order."""
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    pairs = [write_record_pair(data_dir, stem, seed=i)
             for i, stem in enumerate(["SC4022", "SC4001", "SC4012", "SC4011"])]
    out = tmp_path / "cli.ulws"
    assert main(["preprocess", "--data-dir", str(data_dir), "--out", str(out)]) == 0
    records = [load_record(psg, hyp, DEFAULT_CHANNELS) for psg, hyp in pairs]
    records.sort(key=lambda r: (r.subject_key, r.night))
    library = tmp_path / "library.ulws"
    chunks = [(r.subject_key, *preprocess_record(r, DEFAULT_CHANNELS)) for r in records]
    write_cache(concatenated_dataset(chunks, DEFAULT_CHANNELS), library)
    assert out.read_bytes() == library.read_bytes()
    # the CRC-32 of everything after the magic, as the cache stores it
    raw = out.read_bytes()
    assert manifest_of(out)["cache_crc32"] == f"{zlib.crc32(raw[4:-4]):08x}" == stored_crc(out)


def test_preprocess_skips_an_all_wake_pair(tmp_path, capsys):
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    write_record_pair(data_dir, "SC4001", seed=1)
    _, hyp = write_record_pair(data_dir, "SC4012", seed=2)
    hyp.write_bytes(hypnogram_bytes(stage_events([("Sleep stage W", 24)])))
    write_record_pair(data_dir, "SC4021", seed=3)
    out = tmp_path / "cache.ulws"
    assert main(["preprocess", "--data-dir", str(data_dir), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "warning: SC401 night 2: AllWake: record contains no sleep epochs" in captured.err
    assert captured.out.splitlines()[:2] == ["SC400 night 1: kept 24 epochs",
                                             "SC402 night 1: kept 24 epochs"]
    assert "skipped: 1" in captured.out.splitlines()
    assert read_cache(out).subject_keys == ["SC400"] * 24 + ["SC402"] * 24


def test_preprocess_skips_a_pair_with_a_constant_channel(tmp_path, capsys):
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    write_record_pair(data_dir, "SC4001", seed=1)
    psg, _ = write_record_pair(data_dir, "SC4012", seed=2)
    signals = [
        FixtureSignal(label, 3000, digital=sine_digital(3000 * 24, 1.0 + 2.0 * i, 100.0, seed=i))
        for i, label in enumerate(DEFAULT_CHANNELS)
    ]
    signals[-1].digital = np.full(3000 * 24, 7, dtype=np.int16)  # EMG: one digital word
    psg.write_bytes(edf_bytes(signals, n_data_records=24))
    out = tmp_path / "cache.ulws"
    assert main(["preprocess", "--data-dir", str(data_dir), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert ("warning: SC401 night 2: DegenerateSignal: channel 'EMG submental' constant over "
            "retained epochs") in captured.err
    assert "skipped: 1" in captured.out.splitlines()
    assert read_cache(out).subject_keys == ["SC400"] * 24


def test_preprocess_holds_no_earlier_record_or_chunk_while_a_pair_loads(tmp_path, monkeypatch):
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    for i, stem in enumerate(["SC4001", "SC4012", "SC4021"]):
        write_record_pair(data_dir, stem, seed=i)
    records, chunks, alive_at_load = [], [], []

    def tracked_load_record(*args):
        alive_at_load.append([ref() is not None for ref in records + chunks])
        record = load_record(*args)
        records.append(weakref.ref(record))
        return record

    def tracked_preprocess_record(*args):
        x, y = preprocess_record(*args)
        chunks.append(weakref.ref(x.base))  # the memory of x, which is a channel-major view
        return x, y

    monkeypatch.setattr(cli, "load_record", tracked_load_record)
    monkeypatch.setattr(cli, "preprocess_record", tracked_preprocess_record)
    assert main(["preprocess", "--data-dir", str(data_dir), "--out",
                 str(tmp_path / "cache.ulws")]) == 0
    # the raw record and the epochs of each earlier pair are gone when a pair loads
    assert alive_at_load == [[], [False, False], [False] * 4]


PEAK_PROBE = """
import sys
from ulws.cli import main
assert main(["preprocess", "--data-dir", sys.argv[1], "--out", sys.argv[2]]) == 0
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
def test_preprocess_peak_memory_is_bounded_by_one_record(tmp_path):
    """Peak RSS over 4 nights exceeds that over 1 night by less than one raw record.

    A raw record here is 4 channels x 2 h at 100 Hz in float32, 11 MiB.
    Holding the raw records, or their epochs, until all are preprocessed
    would add about three of them. The kept epochs of the 4 nights (46 MB)
    stay below one record's working set, so the one in-memory copy that
    write_cache needs does not set the peak either. VmHWM belongs to the
    child's own address space; ru_maxrss would also count this process.
    """
    n_epochs = 240
    pattern = [("Sleep stage W", 30), ("Sleep stage 2", 180), ("Sleep stage W", 30)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def peak_bytes(nights):
        data_dir = tmp_path / f"edf{nights}"
        data_dir.mkdir()
        for i in range(nights):
            (data_dir / f"SC40{i}1E0-PSG.edf").write_bytes(psg_bytes(n_epochs, seed=i))
            (data_dir / f"SC40{i}1EC-Hypnogram.edf").write_bytes(
                hypnogram_bytes(stage_events(pattern)))
        run = subprocess.run([sys.executable, "-c", PEAK_PROBE, str(data_dir),
                              str(tmp_path / f"out{nights}" / "cache.ulws")],
                             env=env, capture_output=True, text=True, check=True)
        return int(run.stdout.splitlines()[-1]) * 1024

    raw_record = len(DEFAULT_CHANNELS) * n_epochs * 3000 * 4
    assert peak_bytes(4) - peak_bytes(1) < raw_record


# --- count ---------------------------------------------------------------------

def test_count_default_config(capsys):
    assert main(["count"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "total_params 13337"


def test_count_standard_conv(tmp_path, capsys):
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"conv_type": "standard"}))
    assert main(["count", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "total_params 16997"


def test_count_json(capsys):
    assert main(["count", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_params"] == 13337
    assert payload["rows"][0]["layer"] == "block0.main_conv1"
    assert "convention" in payload


def test_count_malformed_config(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text('{"n_blocks": 3,,}')
    assert main(["count", "--config", str(bad)]) != 0
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_count_unknown_config_key(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text('{"blocks": 3}')
    assert main(["count", "--config", str(bad)]) != 0
    assert "unknown config keys" in capsys.readouterr().err


# --- train / predict / evaluate ---------------------------------------------------

@pytest.fixture(scope="module")
def toy_cache(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cache")
    ds = sinusoid_dataset(
        n_epochs=48, n_channels=2, epoch_samples=200, n_subjects=4, seed=9
    )
    path = tmp / "toy.ulws"
    write_cache(ds, path)
    return path


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cfg")
    model_cfg = tmp / "model.json"
    model_cfg.write_text(json.dumps(TINY_MODEL))
    train_cfg = tmp / "train.json"
    train_cfg.write_text(json.dumps(TINY_TRAIN))
    return model_cfg, train_cfg


def run_train(toy_cache, configs, out_dir, fold="0", folds="2"):
    model_cfg, train_cfg = configs
    return main(
        ["train", "--cache", str(toy_cache), "--model-config", str(model_cfg),
         "--train-config", str(train_cfg), "--folds", folds, "--fold", fold,
         "--out", str(out_dir)]
    )


def test_train_single_fold_outputs(toy_cache, configs, tmp_path):
    out = tmp_path / "run"
    assert run_train(toy_cache, configs, out) == 0
    assert (out / "fold0" / "checkpoint.ulwm").exists()
    assert (out / "fold0" / "history.jsonl").exists()
    assert (out / "fold0" / "predictions.csv").exists()
    assert not (out / "fold1").exists()
    rows = (out / "fold0" / "history.jsonl").read_text().strip().splitlines()
    assert len(rows) == TINY_TRAIN["epochs"]
    assert {"epoch", "lr", "train_loss", "test_acc"} == set(json.loads(rows[0]))
    manifest = json.loads((out / "train.manifest.json").read_text())
    assert manifest["train_config"]["seed"] == 5
    assert "resolved" in manifest


def test_train_rerun_is_byte_identical(toy_cache, configs, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_train(toy_cache, configs, out_a) == 0
    assert run_train(toy_cache, configs, out_b) == 0
    for rel in ["fold0/checkpoint.ulwm", "fold0/predictions.csv", "fold0/history.jsonl"]:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_train_all_folds(toy_cache, configs, tmp_path):
    out = tmp_path / "run"
    assert run_train(toy_cache, configs, out, fold="all") == 0
    for i in range(2):
        assert (out / f"fold{i}" / "checkpoint.ulwm").exists()
        assert (out / f"fold{i}" / "predictions.csv").exists()
    # the two folds' test sets partition the epochs
    n_rows = 0
    for i in range(2):
        n_rows += len((out / f"fold{i}" / "predictions.csv").read_text().strip().splitlines()) - 1
    assert n_rows == read_cache(toy_cache).n_epochs


def test_train_too_few_subjects(toy_cache, configs, tmp_path, capsys):
    code = run_train(toy_cache, configs, tmp_path / "x", folds="10")
    assert code != 0
    assert "TooFewSubjects" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"bogus": 1}, {"epochs": -1}, {"epochs": "2"},
                                 {"seed": -1}])
def test_train_bad_train_config_is_typed_error(toy_cache, configs, tmp_path, capsys, bad):
    model_cfg, _ = configs
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps(bad))
    code = main(
        ["train", "--cache", str(toy_cache), "--model-config", str(model_cfg),
         "--train-config", str(train_cfg), "--folds", "2", "--out", str(tmp_path / "run")]
    )
    assert code == 2
    assert "error: BadConfig" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("folds", ["1", "0", "-2"])
def test_train_needs_two_folds(toy_cache, configs, tmp_path, capsys, folds):
    out = tmp_path / "run"
    assert run_train(toy_cache, configs, out, fold="all", folds=folds) == 2
    err = capsys.readouterr().err
    assert "error: BadConfig" in err and "Traceback" not in err
    assert not out.exists()


# a fold of 5000 digits is past int()'s default limit on digits to convert
@pytest.mark.parametrize("fold,folds,named", [
    ("x", "2", "--fold"), ("7", "2", "--fold"), ("-1", "2", "--fold"),
    ("\u00b2", "2", "--fold"), ("9" * 5000, "2", "--fold"), ("10", "10", "--fold"),
    ("0", "1", "--folds"), ("0", "0", "--folds"), ("all", "-2", "--folds"),
], ids=["x", "7", "-1", "\u00b2", "5000-digits", "10-of-10", "folds-1", "folds-0", "folds-neg"])
def test_train_refuses_a_bad_fold_before_reading_the_cache(toy_cache, configs, tmp_path, capsys,
                                                           monkeypatch, fold, folds, named):
    def unreachable(*args, **kwargs):
        pytest.fail(f"--fold {fold[:8]!r} --folds {folds} read the cache")

    monkeypatch.setattr(cli, "read_cache", unreachable)
    out = tmp_path / "run"
    assert run_train(toy_cache, configs, out, fold=fold, folds=folds) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: BadConfig: {named} must be") and "Traceback" not in err
    assert (repr(fold) if named == "--fold" else folds) in err
    assert not out.exists()


# the last two model configs pool windows of 150 samples, whose offsets do not
# fit max pooling's int8 argmax table, and convolve with 32 taps, one past the
# bound on the GEMM columns' size
BAD_MODEL_CONFIGS = [{"kernel_size": "3"}, {"kernel_size": 3.0}, {"filters": 8},
                     {"filters": [-2, -1, 0]}, {"filters": [0, 8, 16]},
                     {"dropout_head": None}, [1, 2], dict(TINY_MODEL, pool_size=150),
                     dict(TINY_MODEL, kernel_size=32)]
BAD_CHECKPOINT_CONFIGS = {
    "broken-json": b'{"n_blocks": 2,,}',
    "byte-0xff": b'{"conv_type": "\xff"}',
    "wrong-type": json.dumps(dict(TINY_MODEL, kernel_size="3")).encode(),
    "pool-size-150": json.dumps(dict(TINY_MODEL, pool_size=150)).encode(),
    "kernel-size-32": json.dumps(dict(TINY_MODEL, kernel_size=32)).encode(),
}


def bad_config_cases():
    for bad in BAD_MODEL_CONFIGS:
        for command in ("count", "train", "evaluate"):
            yield pytest.param(command, {"model": bad}, id=f"{command}-{json.dumps(bad)}")
    yield pytest.param("train", {"train": {"seed": True}}, id="train-config-seed-true")
    for name, blob in BAD_CHECKPOINT_CONFIGS.items():
        yield pytest.param("predict", {"checkpoint": blob}, id=f"predict-checkpoint-{name}")


def checkpoint_with_config(path, blob):
    """A CRC-valid checkpoint of TINY_MODEL whose config JSON is `blob`."""
    save_checkpoint(build_model(ModelConfig.from_dict(TINY_MODEL), seed=0), path)
    body, _ = container.read(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    arrays = body[4 + int.from_bytes(body[:4], "little"):]
    container.write(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                    [len(blob).to_bytes(4, "little") + blob, arrays])


@pytest.mark.parametrize("command, bad", bad_config_cases())
def test_bad_config_is_typed_error(toy_cache, configs, tmp_path, capsys, command, bad):
    """Config files and a checkpoint's config share one typed decoder."""
    model_cfg, train_cfg = configs
    if "model" in bad:
        model_cfg = tmp_path / "model.json"
        model_cfg.write_text(json.dumps(bad["model"]))
    if "train" in bad:
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps(bad["train"]))
    checkpoint = tmp_path / "checkpoint.ulwm"
    if "checkpoint" in bad:
        checkpoint_with_config(checkpoint, bad["checkpoint"])
    predictions = tmp_path / "fold0" / "predictions.csv"
    write_predictions_csv(predictions, [0, 1, 2], [0, 1, 2])
    out = tmp_path / "out"
    argv = {
        "count": ["count", "--config", str(model_cfg)],
        "train": ["train", "--cache", str(toy_cache), "--model-config", str(model_cfg),
                  "--train-config", str(train_cfg), "--folds", "2", "--out", str(out)],
        "evaluate": ["evaluate", "--predictions", str(predictions),
                     "--model-config", str(model_cfg)],
        "predict": ["predict", "--checkpoint", str(checkpoint), "--cache", str(toy_cache),
                    "--out", str(out / "predictions.csv")],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: BadConfig" in captured.err and "Traceback" not in captured.err
    assert not captured.out and not out.exists()


def restamped(path, pos, new):
    """Put the bytes `new` at `pos` of the container at `path` and stamp its CRC-32 anew."""
    raw = bytearray(path.read_bytes())
    raw[pos : pos + len(new)] = new
    raw[-4:] = zlib.crc32(raw[4:-4]).to_bytes(4, "little")
    path.write_bytes(raw)


@pytest.mark.parametrize("command", ["train", "predict"])
@pytest.mark.parametrize("damage, error", [("label-7", "InvalidDataset"),
                                           ("nan-sample", "NonFiniteSignal"),
                                           ("rate-200", "InvalidDataset")])
def test_a_crc_valid_cache_with_bad_contents_is_a_typed_error(toy_cache, configs, tmp_path,
                                                               capsys, command, damage, error):
    cache = tmp_path / "cache.ulws"
    shutil.copyfile(toy_cache, cache)
    ds = read_cache(cache)
    if damage == "label-7":
        restamped(cache, cache.stat().st_size - 5, bytes([7]))  # the last epoch's label
    elif damage == "rate-200":
        restamped(cache, 4 + 1 + 24, (200).to_bytes(4, "little"))  # after magic, version, N, C, T
    else:
        payload = cache.stat().st_size - 4 - ds.n_epochs - ds.x.nbytes
        restamped(cache, payload + 4 * 123, np.float32(np.nan).tobytes())
    out = tmp_path / "out"
    if command == "train":
        code = run_train(cache, configs, out)
    else:
        checkpoint = tmp_path / "checkpoint.ulwm"
        save_checkpoint(build_model(ModelConfig.from_dict(TINY_MODEL), seed=0), checkpoint)
        code = main(["predict", "--checkpoint", str(checkpoint), "--cache", str(cache),
                     "--out", str(out / "predictions.csv")])
    assert code == 2
    captured = capsys.readouterr()
    assert f"error: {error}: {cache}: " in captured.err and "Traceback" not in captured.err
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("name, value", [("blocks.0.main_conv1.pointwise", np.nan),
                                         ("blocks.0.main_conv1.pointwise", np.inf),
                                         ("head_out.weight", 3e38),
                                         ("blocks.0.bn1.running_var", -nn.BN_EPSILON)])
def test_predict_with_non_finite_probabilities_is_a_typed_error(toy_cache, tmp_path, capsys,
                                                                name, value):
    """A CRC-valid checkpoint whose weights hold NaN or infinity, overflow float32, or
    give a BN running variance of -epsilon (a division by zero)."""
    params = build_model(ModelConfig.from_dict(TINY_MODEL), seed=0)
    dict(named_arrays(params, trainable_only=False))[name][...] = value
    checkpoint = tmp_path / "checkpoint.ulwm"
    save_checkpoint(params, checkpoint)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["predict", "--checkpoint", str(checkpoint), "--cache", str(toy_cache),
                     "--out", str(out / "predictions.csv")])
    assert code == 2
    captured = capsys.readouterr()
    assert f"error: NonFiniteOutput: {checkpoint}: " in captured.err
    assert "Traceback" not in captured.err
    assert not captured.out and not out.exists()


def test_train_config_seed_sets_the_checkpoints(toy_cache, configs, tmp_path):
    model_cfg, _ = configs
    other_seed = tmp_path / "train.json"
    other_seed.write_text(json.dumps(dict(TINY_TRAIN, seed=99)))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_train(toy_cache, configs, out_a) == 0
    assert run_train(toy_cache, (model_cfg, other_seed), out_b) == 0
    assert (
        (out_a / "fold0" / "checkpoint.ulwm").read_bytes()
        != (out_b / "fold0" / "checkpoint.ulwm").read_bytes()
    )
    assert json.loads((out_b / "train.manifest.json").read_text())["train_config"]["seed"] == 99


def call_with_timeout(fn, timeout_s):
    """fn() in a daemon thread: a hung pool fails the test instead of hanging the run."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:
            box["error"] = e

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"no result after {timeout_s} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def train_on_cpus(monkeypatch, cpus, run):
    """`run()` with `cpus` usable CPUs.

    Returns its result, the sizes of the pools it made, and the folds this
    process trained (spawned workers import an unpatched `train_fold`).
    """
    pools, trained = [], []
    train_fold = cli.train_fold

    def recording_train_fold(dataset, split, *args):
        trained.append(split.fold_index)
        return train_fold(dataset, split, *args)

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "train_fold", recording_train_fold)
    return call_with_timeout(run, 300), pools, trained


def test_train_outputs_do_not_depend_on_the_cpu_count(toy_cache, configs, tmp_path, capsys,
                                                      monkeypatch):
    out = tmp_path / "run"
    seen = {}
    for cpus in (1, 3):
        code, pools, trained = train_on_cpus(
            monkeypatch, cpus, lambda: run_train(toy_cache, configs, out, fold="all", folds="3"))
        assert code == 0
        # with 3 CPUs this process trains fold 0 and two workers train folds 1 and 2
        assert (pools, trained) == (([], [0, 1, 2]) if cpus == 1 else ([2], [0]))
        files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*"))
                 if f.is_file() and f.name != "runlog.jsonl"}  # runlog holds wall-clock times
        seen[cpus] = files, capsys.readouterr().out
        shutil.rmtree(out)
    assert sorted(seen[1][0]) == [f"fold{i}/{name}" for i in range(3) for name in
                                  ("checkpoint.ulwm", "history.jsonl", "predictions.csv")
                                  ] + ["train.manifest.json"]
    assert seen[1] == seen[3]
    assert [line.split(":")[0] for line in seen[1][1].splitlines()] == ["fold 0", "fold 1",
                                                                        "fold 2"]


@pytest.mark.parametrize("epochs, scored", [(2, 2), (0, 1)])
def test_train_scores_each_test_set_once_per_epoch(toy_cache, configs, tmp_path, monkeypatch,
                                                   epochs, scored):
    """The last evaluation in train_fold also gives the fold's predictions.csv."""
    model_cfg, _ = configs
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps(dict(TINY_TRAIN, epochs=epochs)))
    scored_x = []

    def recording_predict(params, x, *args):
        scored_x.append(x.copy())
        return predict(params, x, *args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(training, "predict", recording_predict)
    assert main(["train", "--cache", str(toy_cache), "--model-config", str(model_cfg),
                 "--train-config", str(train_cfg), "--folds", "2",
                 "--out", str(tmp_path / "run")]) == 0
    ds = read_cache(toy_cache)
    for split in subject_folds(ds.subject_keys, k=2, seed=TINY_TRAIN["seed"]):
        x_test = ds.x[split_indices(ds, split)[1]]
        assert sum(np.array_equal(x, x_test) for x in scored_x) == scored, split.fold_index
    assert len(scored_x) == 2 * scored


@pytest.mark.parametrize("cpus", [1, 3])
def test_train_fold_error_exits_3_on_any_cpu_count(toy_cache, configs, tmp_path, capsys,
                                                   monkeypatch, cpus):
    model_cfg, _ = configs
    diverging = tmp_path / "train.json"
    diverging.write_text(json.dumps(dict(TINY_TRAIN, base_lr=1e30)))
    argv = ["train", "--cache", str(toy_cache), "--model-config", str(model_cfg),
            "--train-config", str(diverging), "--folds", "3", "--out", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the typed error is the only report
        code, _, _ = train_on_cpus(monkeypatch, cpus, lambda: main(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert "error: fold 0: NonFiniteGradient: " in captured.err and "Traceback" not in captured.err
    assert not captured.out


@pytest.mark.parametrize("epochs", [1, 2])
def test_train_whose_test_pass_diverges_exits_3(toy_cache, configs, tmp_path, capsys, monkeypatch,
                                                epochs):
    """With one step per epoch, the step of lr 1e30 is checked first by the test pass."""
    model_cfg, _ = configs
    diverging = tmp_path / "train.json"
    diverging.write_text(json.dumps({"epochs": epochs, "batch_size": 64, "base_lr": 1e30}))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the typed error is the only report
        code = main(["train", "--cache", str(toy_cache), "--model-config", str(model_cfg),
                     "--train-config", str(diverging), "--folds", "2",
                     "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: fold 0: NonFiniteOutput: fold 0, epoch 0: ")
    assert "Traceback" not in captured.err and not captured.out
    assert not (tmp_path / "run" / "fold0").exists()


def test_failed_run_prints_no_fold_lines(toy_cache, configs, tmp_path, capsys, monkeypatch):
    """Fold 0 finishes before fold 1 fails: the run still reports the failure alone."""
    train_fold = cli.train_fold

    def failing_on_fold_1(dataset, split, *args):
        if split.fold_index == 1:
            raise NonFiniteGradient("injected")
        return train_fold(dataset, split, *args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cli, "train_fold", failing_on_fold_1)
    code = run_train(toy_cache, configs, tmp_path / "run", fold="all", folds="3")
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1] == "error: fold 1: NonFiniteGradient: injected"
    assert (tmp_path / "run" / "fold0" / "checkpoint.ulwm").exists()
    assert not (tmp_path / "run" / "fold2").exists()


def test_a_fold_error_of_any_type_exits_3_without_a_traceback(toy_cache, configs, tmp_path,
                                                              capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("injected")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cli, "train_fold", out_of_memory)
    code = run_train(toy_cache, configs, tmp_path / "run", fold="all")
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.strip().splitlines()[-1] == "error: fold 0: MemoryError: injected"
    assert "Traceback" not in captured.err and captured.out == ""


def test_a_worker_fold_error_of_any_type_is_its_outcome(toy_cache, configs, tmp_path,
                                                        monkeypatch):
    """Fold 1 names test subjects that the cache lacks, so its worker's train_fold raises."""
    ds = read_cache(toy_cache)
    split = subject_folds(ds.subject_keys, k=2)[0]
    splits = {0: split, 1: FoldSplit(1, split.train_subjects, ("nobody",))}
    mcfg, tcfg = ModelConfig.from_dict(TINY_MODEL), TrainConfig.from_dict(TINY_TRAIN)
    jobs = {i: (toy_cache, ds.crc32, splits[i], mcfg, tcfg, tmp_path / f"fold{i}")
            for i in splits}
    outcomes, pools, _ = train_on_cpus(monkeypatch, 2, lambda: _train_folds(jobs, ds))
    assert pools == [1]
    assert type(outcomes[1]) is ValueError and "empty side of the split" in str(outcomes[1])



@pytest.fixture(scope="module")
def two_channel_cache(tmp_path_factory):
    """40 epochs of the default length on 2 channels, for the default model's 2-channel form."""
    path = tmp_path_factory.mktemp("two_channel") / "two.ulws"
    write_cache(sinusoid_dataset(n_epochs=40, n_channels=2), path)
    return path


def train_zero_epochs(cache, tmp_path, monkeypatch, *model_config):
    """Train every fold of a 2-fold run for 0 epochs on 1 CPU; return the run directory."""
    tmp_path.mkdir(exist_ok=True)
    train_cfg = tmp_path / "zero.json"
    train_cfg.write_text(json.dumps(dict(TINY_TRAIN, epochs=0)))
    out = tmp_path / "run"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["train", "--cache", str(cache), "--train-config", str(train_cfg),
                 *model_config, "--folds", "2", "--out", str(out)]) == 0
    return out


def test_train_with_no_epochs_reports_the_accuracy_of_each_fold_csv(two_channel_cache, tmp_path,
                                                                    capsys, monkeypatch):
    """With 0 epochs there is no history row; the fold line scores the fold's predictions."""
    out = train_zero_epochs(two_channel_cache, tmp_path, monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    for i in range(2):
        assert (out / f"fold{i}" / "history.jsonl").read_text() == ""
        with (out / f"fold{i}" / "predictions.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        accuracy = np.mean([row["true"] == row["predicted"] for row in rows])
        assert lines[i] == f"fold {i}: 4 test subjects, final test_acc {accuracy:.4f}"

UNGUARDED_TRAIN = """
import sys
import ulws.cli
ulws.cli._usable_cpus = lambda: 2
sys.exit(ulws.cli.main(sys.argv[1:]))
"""


def test_dead_worker_exits_3_with_a_typed_error(toy_cache, configs, tmp_path):
    """Without a __main__ guard each spawned worker runs the script again and dies on start."""
    model_cfg, train_cfg = configs
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_TRAIN)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, str(script), "train", "--cache", str(toy_cache),
         "--model-config", str(model_cfg), "--train-config", str(train_cfg), "--folds", "2",
         "--out", str(tmp_path / "run")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 3
    last = run.stderr.strip().splitlines()[-1]
    assert last.startswith("error: fold 1: WorkerDied: ")
    assert 'if __name__ == "__main__":' in last
    assert "BrokenProcessPool" not in run.stderr


def test_run_fold_in_a_worker_rejects_a_changed_cache(toy_cache, configs, tmp_path):
    """A cache of the same size but other content, swapped in after the run started."""
    cache = tmp_path / "cache.ulws"
    shutil.copyfile(toy_cache, cache)
    assert run_train(cache, configs, tmp_path / "run") == 0
    run_crc = json.loads((tmp_path / "run" / "train.manifest.json").read_text())["cache_crc32"]
    ds = read_cache(cache)
    args = (cache, run_crc, subject_folds(ds.subject_keys, k=2)[1],
            ModelConfig.from_dict(TINY_MODEL), TrainConfig.from_dict(TINY_TRAIN))
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert 0.0 <= pool.submit(_run_fold, *args, tmp_path / "same").result(timeout=120) <= 1.0
        write_cache(sinusoid_dataset(n_epochs=48, n_channels=2, epoch_samples=200,
                                     n_subjects=4, seed=10), cache)
        assert cache.stat().st_size == toy_cache.stat().st_size
        assert cache.read_bytes() != toy_cache.read_bytes()
        with pytest.raises(ChecksumMismatch, match="training started on"):
            pool.submit(_run_fold, *args, tmp_path / "swapped").result(timeout=120)
    assert not (tmp_path / "swapped").exists()


def other_toy_cache(path):
    """Write a valid cache of the toy cache's size but other content to `path`."""
    write_cache(sinusoid_dataset(n_epochs=48, n_channels=2, epoch_samples=200, n_subjects=4,
                                 seed=10), path)


def test_train_manifest_names_the_cache_it_trained_on(toy_cache, configs, tmp_path, monkeypatch):
    """Another valid cache of the same size swapped in right after train has read its cache."""
    cache = tmp_path / "cache.ulws"
    shutil.copyfile(toy_cache, cache)
    trained_on = stored_crc(cache)

    def swapping_read_cache(path):
        dataset = read_cache(path)
        other_toy_cache(path)
        return dataset

    monkeypatch.setattr(cli, "read_cache", swapping_read_cache)
    assert run_train(cache, configs, tmp_path / "run") == 0
    assert cache.stat().st_size == toy_cache.stat().st_size and stored_crc(cache) != trained_on
    assert manifest_of(tmp_path / "run" / "train")["cache_crc32"] == trained_on


@pytest.mark.parametrize("command, taken, kind, out_rel, expensive", [
    ("preprocess", "taken", "dir", "taken", "load_record"),
    ("preprocess", "d/c.ulws.manifest.json", "dir", "d/c.ulws", "load_record"),
    ("train", "taken", "file", "taken", "train_fold"),
    ("train", "taken", "file", "taken/cv", "train_fold"),
    ("train", "run/fold0", "file", "run", "train_fold"),
    ("train", "run/fold0/checkpoint.ulwm", "dir", "run", "train_fold"),
    ("train", "run/fold0/history.jsonl", "dir", "run", "train_fold"),
    ("train", "run/fold0/predictions.csv", "dir", "run", "train_fold"),
    ("train", "run/train.manifest.json", "dir", "run", "train_fold"),
    ("train", "run/runlog.jsonl", "dir", "run", "train_fold"),
    ("predict", "taken", "dir", "taken", "_score"),
    ("predict", "d/p.csv.manifest.json", "dir", "d/p.csv", "_score"),
    ("predict", "d/runlog.jsonl", "dir", "d/p.csv", "_score"),
])
def test_a_bad_out_is_refused_before_any_work(toy_cache, configs, tmp_path, capsys, monkeypatch,
                                              command, taken, kind, out_rel, expensive):
    """An --out the outputs cannot go to, itself or any path the command writes
    under it, exits 2 with a typed error naming it, before the command reads a
    record, trains a fold or scores an epoch."""
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    write_record_pair(data_dir, "SC4001", seed=1)
    checkpoint = tmp_path / "model.ulwm"
    save_checkpoint(build_model(ModelConfig.from_dict(TINY_MODEL), seed=0), checkpoint)
    taken = tmp_path / taken
    taken.parent.mkdir(parents=True, exist_ok=True)
    if kind == "dir":
        taken.mkdir()
    else:
        taken.write_text("")
    out = tmp_path / out_rel

    def unreachable(*args, **kwargs):
        pytest.fail(f"{command} called {expensive} with a bad --out")

    monkeypatch.setattr(cli, expensive, unreachable)
    before = sorted(tmp_path.rglob("*"))
    model_cfg, train_cfg = configs
    argv = {
        "preprocess": ["--data-dir", str(data_dir)],
        "train": ["--cache", str(toy_cache), "--model-config", str(model_cfg),
                  "--train-config", str(train_cfg), "--folds", "2", "--fold", "0"],
        "predict": ["--checkpoint", str(checkpoint), "--cache", str(toy_cache)],
    }[command]
    code = main([command, *argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: BadOutputPath: --out {out}")
    assert str(taken) in captured.err
    assert "directory" in captured.err and "Traceback" not in captured.err
    assert sorted(tmp_path.rglob("*")) == before  # the check creates nothing


def test_importing_the_cli_leaves_scipy_signal_out():
    """Each training worker imports ulws.cli; scipy.signal would add ~1 s to its start."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    probe = "import sys, ulws.cli; print('scipy.signal' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert run.stdout.strip() == "False"


def test_predict_roundtrip(toy_cache, configs, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_train(toy_cache, configs, out) == 0
    pred_csv = tmp_path / "pred.csv"
    code = main(
        ["predict", "--checkpoint", str(out / "fold0" / "checkpoint.ulwm"),
         "--cache", str(toy_cache), "--out", str(pred_csv)]
    )
    assert code == 0
    with pred_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == read_cache(toy_cache).n_epochs
    probs = np.array([[float(r[f"p{k}"]) for k in range(5)] for r in rows])
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6

    rerun = tmp_path / "pred2.csv"
    main(["predict", "--checkpoint", str(out / "fold0" / "checkpoint.ulwm"),
          "--cache", str(toy_cache), "--out", str(rerun)])
    assert pred_csv.read_bytes() == rerun.read_bytes()


def test_predict_failing_midway_leaves_the_earlier_csv(toy_cache, tmp_path, monkeypatch, capsys):
    checkpoint = tmp_path / "checkpoint.ulwm"
    save_checkpoint(build_model(ModelConfig.from_dict(TINY_MODEL), seed=0), checkpoint)
    out = tmp_path / "out" / "pred.csv"
    argv = ["predict", "--checkpoint", str(checkpoint), "--cache", str(toy_cache),
            "--out", str(out)]
    assert main(argv) == 0
    finished = out.read_bytes()
    real_writer = csv.writer

    class FailingWriter:  # the disk fills after 10 rows
        def __init__(self, fh):
            self.writer, self.rows = real_writer(fh), 0

        def writerow(self, row):
            if self.rows == 10:
                raise OSError("No space left on device")
            self.rows += 1
            self.writer.writerow(row)

    monkeypatch.setattr(cli.csv, "writer", FailingWriter)
    assert main(argv) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == finished  # not a truncated file, and no temp file beside it
    assert sorted(p.name for p in out.parent.iterdir()) == [
        "pred.csv", "pred.csv.manifest.json", "runlog.jsonl"]


def test_predict_on_a_cache_of_no_epochs_writes_only_the_header(toy_cache, tmp_path, capsys):
    toy = read_cache(toy_cache)
    empty = EpochDataset(
        x=np.zeros((0, *toy.x.shape[1:]), dtype=np.float32),
        y=np.zeros(0, dtype=np.uint8),
        subject_keys=[],
        channel_labels=toy.channel_labels,
    )
    cache = tmp_path / "empty.ulws"
    write_cache(empty, cache)
    checkpoint = tmp_path / "checkpoint.ulwm"
    save_checkpoint(build_model(ModelConfig.from_dict(TINY_MODEL), seed=0), checkpoint)
    out = tmp_path / "predictions.csv"
    assert main(["predict", "--checkpoint", str(checkpoint), "--cache", str(cache),
                 "--out", str(out)]) == 0
    assert "wrote 0 predictions" in capsys.readouterr().out
    assert out.read_text().splitlines() == ["index,subject,true,predicted,p0,p1,p2,p3,p4"]


def test_predict_manifest_names_the_checkpoint_it_scored_with(toy_cache, configs, tmp_path):
    """Two fold checkpoints of one config have one size; their manifest CRCs still differ."""
    out = tmp_path / "run"
    assert run_train(toy_cache, configs, out, fold="all") == 0
    checkpoints = [out / f"fold{i}" / "checkpoint.ulwm" for i in range(2)]
    assert checkpoints[0].stat().st_size == checkpoints[1].stat().st_size
    manifests = []
    for i, checkpoint in enumerate(checkpoints):
        pred_csv = tmp_path / f"pred{i}.csv"
        assert main(["predict", "--checkpoint", str(checkpoint), "--cache", str(toy_cache),
                     "--out", str(pred_csv)]) == 0
        manifests.append(manifest_of(pred_csv))
    assert [m["checkpoint_crc32"] for m in manifests] == [stored_crc(c) for c in checkpoints]
    assert manifests[0]["checkpoint_crc32"] != manifests[1]["checkpoint_crc32"]
    assert [m["cache_crc32"] for m in manifests] == [stored_crc(toy_cache)] * 2


def test_predict_manifest_names_the_inputs_it_read(toy_cache, configs, tmp_path, monkeypatch):
    """Other valid inputs swapped in while predict scores: the manifest names what was scored."""
    out = tmp_path / "run"
    assert run_train(toy_cache, configs, out) == 0
    checkpoint, cache = tmp_path / "model.ulwm", tmp_path / "cache.ulws"
    shutil.copyfile(out / "fold0" / "checkpoint.ulwm", checkpoint)
    shutil.copyfile(toy_cache, cache)
    scored = {"checkpoint_crc32": stored_crc(checkpoint), "cache_crc32": stored_crc(cache)}

    def swapping_predict(params, x, *args):
        save_checkpoint(build_model(ModelConfig.from_dict(TINY_MODEL), seed=1), checkpoint)
        write_cache(sinusoid_dataset(n_epochs=48, n_channels=2, epoch_samples=200,
                                     n_subjects=4, seed=10), cache)
        return predict(params, x, *args)

    monkeypatch.setattr(training, "predict", swapping_predict)
    pred_csv = tmp_path / "pred.csv"
    assert main(["predict", "--checkpoint", str(checkpoint), "--cache", str(cache),
                 "--out", str(pred_csv)]) == 0
    assert stored_crc(checkpoint) != scored["checkpoint_crc32"]
    assert stored_crc(cache) != scored["cache_crc32"]
    manifest = manifest_of(pred_csv)
    assert {key: manifest[key] for key in scored} == scored


def test_predict_manifest_names_the_bytes_it_read(toy_cache, configs, tmp_path, monkeypatch):
    """Each input swapped for another valid file of its size right after predict reads it."""
    out = tmp_path / "run"
    assert run_train(toy_cache, configs, out) == 0
    checkpoint, cache = tmp_path / "model.ulwm", tmp_path / "cache.ulws"
    shutil.copyfile(out / "fold0" / "checkpoint.ulwm", checkpoint)
    shutil.copyfile(toy_cache, cache)
    read = {"checkpoint_crc32": stored_crc(checkpoint), "cache_crc32": stored_crc(cache)}
    sizes = [checkpoint.stat().st_size, cache.stat().st_size]

    def swapping_load_checkpoint(path):
        params = load_checkpoint(path)
        save_checkpoint(build_model(ModelConfig.from_dict(TINY_MODEL), seed=1), path)
        return params

    def swapping_read_cache(path):
        dataset = read_cache(path)
        other_toy_cache(path)
        return dataset

    monkeypatch.setattr(cli, "load_checkpoint", swapping_load_checkpoint)
    monkeypatch.setattr(cli, "read_cache", swapping_read_cache)
    pred_csv = tmp_path / "pred.csv"
    assert main(["predict", "--checkpoint", str(checkpoint), "--cache", str(cache),
                 "--out", str(pred_csv)]) == 0
    assert [checkpoint.stat().st_size, cache.stat().st_size] == sizes
    assert stored_crc(checkpoint) != read["checkpoint_crc32"]
    assert stored_crc(cache) != read["cache_crc32"]
    manifest = manifest_of(pred_csv)
    assert {key: manifest[key] for key in read} == read


def test_predict_shape_mismatch(toy_cache, configs, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_train(toy_cache, configs, out) == 0
    other = sinusoid_dataset(n_epochs=8, n_channels=3, epoch_samples=200, seed=1)
    other_path = tmp_path / "other.ulws"
    write_cache(other, other_path)
    code = main(
        ["predict", "--checkpoint", str(out / "fold0" / "checkpoint.ulwm"),
         "--cache", str(other_path), "--out", str(tmp_path / "nope.csv")]
    )
    assert code != 0
    assert "ShapeMismatch" in capsys.readouterr().err


@pytest.mark.parametrize("n_classes", [3, 7])
def test_train_rejects_a_model_that_does_not_score_five_stages(toy_cache, configs, tmp_path,
                                                                capsys, n_classes):
    _, train_cfg = configs
    model_cfg = tmp_path / "model.json"
    model_cfg.write_text(json.dumps(dict(TINY_MODEL, n_classes=n_classes)))
    out = tmp_path / "run"
    assert main(["train", "--cache", str(toy_cache), "--model-config", str(model_cfg),
                 "--train-config", str(train_cfg), "--folds", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: ShapeMismatch: model scores {n_classes} classes" in captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert not out.exists()


def test_predict_rejects_a_checkpoint_that_does_not_score_five_stages(toy_cache, tmp_path,
                                                                       capsys):
    checkpoint = tmp_path / "seven.ulwm"
    save_checkpoint(build_model(ModelConfig.from_dict(dict(TINY_MODEL, n_classes=7)), seed=0),
                    checkpoint)
    out = tmp_path / "out"
    assert main(["predict", "--checkpoint", str(checkpoint), "--cache", str(toy_cache),
                 "--out", str(out / "pred.csv")]) == 2
    captured = capsys.readouterr()
    assert "error: ShapeMismatch: model scores 7 classes" in captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_a_checkpoint_whose_config_outsizes_its_payload_is_a_typed_error(toy_cache, tmp_path,
                                                                          capsys, command):
    # CRC-valid, but the config asks for ~10**16 floats: refused before any allocation
    checkpoint = tmp_path / "fold0" / "checkpoint.ulwm"
    checkpoint.parent.mkdir()
    blob = json.dumps(dict(TINY_MODEL, head_hidden=10**15)).encode()
    container.write(checkpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                    [len(blob).to_bytes(4, "little") + blob, bytes(64)])
    predictions = checkpoint.parent / "predictions.csv"
    write_predictions_csv(predictions, [0, 1, 2], [0, 1, 2])
    out = tmp_path / "out"
    argv = {
        "predict": ["predict", "--checkpoint", str(checkpoint), "--cache", str(toy_cache),
                    "--out", str(out / "pred.csv")],
        "evaluate": ["evaluate", "--predictions", str(predictions)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: ChecksumMismatch: {checkpoint}: payload is 64 bytes" in captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert not out.exists()


def write_predictions_csv(path, y_true, y_pred):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "subject", "true", "predicted", "p0", "p1", "p2", "p3", "p4"])
        for i, (t, p) in enumerate(zip(y_true, y_pred)):
            onehot = ["1.0" if k == p else "0.0" for k in range(5)]
            writer.writerow([i, f"S{i % 3}", t, p] + onehot)


def test_evaluate_perfect_predictions(tmp_path, capsys):
    y = [0, 1, 2, 3, 4] * 4
    write_predictions_csv(tmp_path / "fold0" / "predictions.csv", y, y)
    assert main(["evaluate", "--predictions", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accuracy"] == 1.0
    assert payload["kappa"] == 1.0
    assert payload["params"] == 13337


def test_evaluate_table_output(tmp_path, capsys):
    y = [0, 1, 2, 3, 4] * 4
    write_predictions_csv(tmp_path / "fold0" / "predictions.csv", y, y)
    assert main(["evaluate", "--predictions", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "ACC(%)" in out and "kappa" in out and "100.0" in out and "1.000" in out


def test_evaluate_two_folds_match_pooled_oracle(tmp_path, capsys):
    rng = np.random.default_rng(3)
    folds = []
    for i in range(2):
        y_true = rng.integers(0, 5, size=30).tolist()
        y_pred = rng.integers(0, 5, size=30).tolist()
        write_predictions_csv(tmp_path / f"fold{i}" / "predictions.csv", y_true, y_pred)
        folds.append((y_true, y_pred))
    assert main(["evaluate", "--predictions", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    pooled_true = folds[0][0] + folds[1][0]
    pooled_pred = folds[0][1] + folds[1][1]
    assert payload["accuracy"] == pytest.approx(pairwise_accuracy(pooled_true, pooled_pred))
    assert payload["macro_f1"] == pytest.approx(pairwise_macro_f1(pooled_true, pooled_pred))
    assert payload["kappa"] == pytest.approx(pairwise_kappa(pooled_true, pooled_pred))
    assert payload["n_epochs"] == 60


def test_evaluate_an_oversized_csv_field_is_a_typed_error(tmp_path, capsys):
    predictions = tmp_path / "fold0" / "predictions.csv"
    write_predictions_csv(predictions, [0, 1, 2], [0, 1, 2])
    with predictions.open("a", newline="") as fh:
        csv.writer(fh).writerow([3, "x" * 200_000, 0, 0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert main(["evaluate", "--predictions", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"error: UlwsError: {predictions}: line 5: field larger than" in captured.err
    assert "Traceback" not in captured.err and not captured.out


def test_evaluate_strict_missing_fold(tmp_path, capsys):
    y = [0, 1]
    write_predictions_csv(tmp_path / "fold1" / "predictions.csv", y, y)  # fold0 absent
    assert main(["evaluate", "--predictions", str(tmp_path), "--strict"]) != 0
    assert "missing fold predictions" in capsys.readouterr().err
    assert main(["evaluate", "--predictions", str(tmp_path)]) == 0


def test_evaluate_missing_file_nonstrict_vs_strict(tmp_path, capsys):
    y = [0, 1, 2]
    good = tmp_path / "fold0" / "predictions.csv"
    write_predictions_csv(good, y, y)
    missing = tmp_path / "nope.csv"
    assert main(["evaluate", "--predictions", str(good), str(missing)]) == 0
    assert main(["evaluate", "--predictions", str(good), str(missing), "--strict"]) != 0


def test_evaluate_rejects_a_file_given_twice(tmp_path, capsys):
    y = [0, 1, 2, 3, 4]
    fold0 = tmp_path / "fold0" / "predictions.csv"
    write_predictions_csv(fold0, y, y)
    again = tmp_path / "fold0" / ".." / "fold0" / "predictions.csv"
    for argv in ([str(tmp_path), str(fold0)], [str(fold0), str(again)]):
        assert main(["evaluate", "--predictions", *argv, "--json"]) == 2
        err = capsys.readouterr().err
        assert "given more than once" in err and "predictions.csv" in err



def test_evaluate_counts_the_model_of_the_fold_checkpoints(two_channel_cache, tmp_path, capsys,
                                                           monkeypatch):
    """Without --model-config, Params/FLOPs are those of the model that made the predictions."""
    out = train_zero_epochs(two_channel_cache, tmp_path, monkeypatch)
    capsys.readouterr()
    assert main(["evaluate", "--predictions", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["params"], payload["flops"]) == (9241, 4153173)
    assert main(["evaluate", "--predictions", str(out)]) == 0
    assert "9241  4153173" in capsys.readouterr().out


def test_evaluate_rejects_predictions_of_different_models(toy_cache, configs, tmp_path, capsys,
                                                          monkeypatch):
    model_cfg, _ = configs
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps(dict(TINY_MODEL, head_hidden=5)))
    runs = [train_zero_epochs(toy_cache, tmp_path / name, monkeypatch, "--model-config", str(cfg))
            for name, cfg in [("a", model_cfg), ("b", other_cfg)]]
    capsys.readouterr()
    argv = ["evaluate", "--predictions", *(str(run / "fold0" / "predictions.csv") for run in runs)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "hold different model configs" in err and "--model-config" in err
    assert "Traceback" not in err
    assert main(argv + ["--model-config", str(model_cfg)]) == 0

@pytest.mark.parametrize(
    "text, line",
    [
        ("index,subject,true,predicted\n0,S0,1,1\n1,S0,2,two\n", 3),  # not an integer
        ("index,subject,true\n0,S0,1\n", 2),  # no predicted column
        (b"index,subject,true,predicted\n0,S0,1,1\n1,S\xff,2,2\n", 3),  # not UTF-8
        ("subject,true,predicted\nS0,1,1\n", 2),  # no index column
        ("index,subject,true,predicted\n0,S0,1,1\n1,S0,2,2\n0,S0,1,1\n", 4),  # index repeats
    ],
)
def test_evaluate_bad_prediction_rows_are_typed(tmp_path, capsys, text, line):
    path = tmp_path / "predictions.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["evaluate", "--predictions", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: UlwsError: {path}: line {line}:" in err and "Traceback" not in err


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
def test_predict_batches_reuse_freed_memory():
    resource = pytest.importorskip("resource")
    _keep_batch_memory()
    params = build_model(ModelConfig(), seed=0)
    x = np.random.default_rng(0).standard_normal((64, 4, 3000)).astype(np.float32)
    predict(params, x)  # maps the heap that the batches then share
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    predict(params, x)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # a batch of 8 default-model epochs holds up to ~15 MB at once; mapped
    # afresh for each batch, that is thousands of 4 KiB page faults per call
    assert faults < 1000
