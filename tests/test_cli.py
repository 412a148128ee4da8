import csv
import json
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import threading
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from edf_fixtures import FixtureSignal, edf_bytes, hypnogram_bytes, psg_bytes, sine_digital
from oracles import pairwise_accuracy, pairwise_kappa, pairwise_macro_f1
from ulws import cli, container
from ulws.cli import DEFAULT_CHANNELS, _crc_of, _keep_batch_memory, _run_fold, main
from ulws.edf import load_record
from ulws.errors import ChecksumMismatch
from ulws.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ModelConfig,
    build_model,
    predict,
    save_checkpoint,
)
from ulws.preprocess import build_epoch_dataset, read_cache, write_cache
from ulws.synthetic import sinusoid_dataset
from ulws.training import TrainConfig, subject_folds

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
    [((float("nan"), 204.7), "MalformedField"), ((-1e300, 1e300), "NonFiniteSignal")],
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


def test_preprocess_cache_matches_library_path(tmp_path):
    """Streamed CLI cache == write_cache(build_epoch_dataset(all records loaded))."""
    data_dir = tmp_path / "edf"
    data_dir.mkdir()
    pairs = [write_record_pair(data_dir, stem, seed=i)
             for i, stem in enumerate(["SC4022", "SC4001", "SC4012", "SC4011"])]
    out = tmp_path / "cli.ulws"
    assert main(["preprocess", "--data-dir", str(data_dir), "--out", str(out)]) == 0
    records = [load_record(psg, hyp, DEFAULT_CHANNELS) for psg, hyp in pairs]
    library = tmp_path / "library.ulws"
    write_cache(build_epoch_dataset(records, DEFAULT_CHANNELS), library)
    assert out.read_bytes() == library.read_bytes()
    manifest = json.loads((tmp_path / "cli.ulws.manifest.json").read_text())
    assert manifest["cache_crc32"] == f"{zlib.crc32(out.read_bytes()):08x}"


def test_crc_of_reads_in_blocks_and_matches_whole_file(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(0).bytes(3 * (1 << 20) + 17))
    assert _crc_of(path) == f"{zlib.crc32(path.read_bytes()):08x}"


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


def test_count_standard_conv(capsys):
    assert main(["count", "--conv-type", "standard"]) == 0
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


@pytest.mark.parametrize("bad", [{"bogus": 1}, {"epochs": -1}, {"epochs": "2"}])
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


BAD_MODEL_CONFIGS = [{"kernel_size": "3"}, {"kernel_size": 3.0}, {"filters": 8},
                     {"dropout_head": None}, [1, 2]]
BAD_CHECKPOINT_CONFIGS = {
    "broken-json": b'{"n_blocks": 2,,}',
    "byte-0xff": b'{"conv_type": "\xff"}',
    "wrong-type": json.dumps(dict(TINY_MODEL, kernel_size="3")).encode(),
}


def bad_config_cases():
    for bad in BAD_MODEL_CONFIGS:
        for command in ("count", "train", "evaluate"):
            yield pytest.param(command, {"model": bad}, id=f"{command}-{json.dumps(bad)}")
    yield pytest.param("train", {"train": {"seed": True}}, id="train-config-seed-true")
    for seed in ("abc", "7.0"):
        yield pytest.param("train", {"env": seed}, id=f"ULWS_SEED={seed}")
    for name, blob in BAD_CHECKPOINT_CONFIGS.items():
        yield pytest.param("predict", {"checkpoint": blob}, id=f"predict-checkpoint-{name}")


def checkpoint_with_config(path, blob):
    """A CRC-valid checkpoint of TINY_MODEL whose config JSON is `blob`."""
    save_checkpoint(build_model(ModelConfig.from_dict(TINY_MODEL), seed=0), path)
    body = bytes(container.read(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint"))
    arrays = body[4 + int.from_bytes(body[:4], "little"):]
    container.write(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                    [len(blob).to_bytes(4, "little") + blob, arrays])


@pytest.mark.parametrize("command, bad", bad_config_cases())
def test_bad_config_is_typed_error(toy_cache, configs, tmp_path, capsys, monkeypatch,
                                   command, bad):
    """Config files, ULWS_SEED and a checkpoint's config share one typed decoder."""
    model_cfg, train_cfg = configs
    if "model" in bad:
        model_cfg = tmp_path / "model.json"
        model_cfg.write_text(json.dumps(bad["model"]))
    if "train" in bad:
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps(bad["train"]))
    if "env" in bad:
        monkeypatch.setenv("ULWS_SEED", bad["env"])
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


def test_train_seed_env_override(toy_cache, configs, tmp_path, monkeypatch):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("ULWS_SEED", "5")  # same as config -> identical
    assert run_train(toy_cache, configs, out_a) == 0
    monkeypatch.setenv("ULWS_SEED", "99")
    assert run_train(toy_cache, configs, out_b) == 0
    assert (
        (out_a / "fold0" / "checkpoint.ulwm").read_bytes()
        != (out_b / "fold0" / "checkpoint.ulwm").read_bytes()
    )


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow on the way to NaN
@pytest.mark.parametrize("cpus", [1, 3])
def test_train_fold_error_exits_3_on_any_cpu_count(toy_cache, configs, tmp_path, capsys,
                                                   monkeypatch, cpus):
    model_cfg, _ = configs
    diverging = tmp_path / "train.json"
    diverging.write_text(json.dumps(dict(TINY_TRAIN, base_lr=1e30)))
    argv = ["train", "--cache", str(toy_cache), "--model-config", str(model_cfg),
            "--train-config", str(diverging), "--folds", "3", "--out", str(tmp_path / "run")]
    code, _, _ = train_on_cpus(monkeypatch, cpus, lambda: main(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert "error: fold 0: NonFiniteGradient: " in captured.err and "Traceback" not in captured.err
    assert not captured.out


def test_run_fold_in_a_worker_rejects_a_changed_cache(toy_cache, tmp_path):
    ds = read_cache(toy_cache)
    stale_crc = f"{int(_crc_of(toy_cache), 16) ^ 1:08x}"
    args = (toy_cache, stale_crc, subject_folds(ds.subject_keys, k=2)[0],
            ModelConfig.from_dict(TINY_MODEL), TrainConfig.from_dict(TINY_TRAIN), tmp_path / "fold0")
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        with pytest.raises(ChecksumMismatch, match="training started on"):
            pool.submit(_run_fold, *args).result(timeout=120)
    assert not (tmp_path / "fold0").exists()


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


@pytest.mark.parametrize(
    "text, line",
    [
        ("index,subject,true,predicted\n0,S0,1,1\n1,S0,2,two\n", 3),  # not an integer
        ("index,subject,true\n0,S0,1\n", 2),  # no predicted column
        (b"index,subject,true,predicted\n0,S0,1,1\n1,S\xff,2,2\n", 3),  # not UTF-8
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
    # a batch of 32 default-model epochs touches ~100 MB; mapped afresh for
    # each batch, that is tens of thousands of 4 KiB page faults per call
    assert faults < 1000
