"""Acceptance suite: one test per shipped criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The full-data
reproduction (criterion 9) only runs when ULWS_SLEEPEDF_DIR points at a
locally downloaded recording set; it is a multi-hour job and is excluded
from routine runs.
"""

import io
import os
import zlib

import numpy as np
import pytest

from edf_fixtures import FixtureSignal, edf_bytes, hypnogram_bytes
from oracles import best_lag, fd_gradient, fd_relative_error, sos_gain
from oracles import (
    pairwise_accuracy,
    pairwise_f1,
    pairwise_kappa,
    pairwise_macro_f1,
)
from ulws import nn
from ulws.edf import parse_edf_header, read_digital, read_signal
from ulws.errors import ChecksumMismatch
from ulws.evaluation import (
    accuracy,
    cohen_kappa,
    confusion,
    macro_f1,
    per_class_f1,
)
from ulws.complexity import count_flops
from ulws.model import (
    ModelConfig,
    build_model,
    dssc_forward,
    model_backward,
    model_forward,
    model_loss,
    named_arrays,
    predict,
    save_checkpoint,
    trainable_scalar_count,
    variant_configs,
)
from ulws.preprocess import (
    EpochDataset,
    bandpass,
    filtfilt,
    read_cache,
    write_cache,
)
from ulws.synthetic import sinusoid_dataset
from ulws.training import (
    FoldSplit,
    TrainConfig,
    split_indices,
    subject_folds,
    train_fold,
)

EXPECTED_PARAMS = {
    "default": 13_337,
    "blocks2": 12_841,
    "blocks4": 34_713,
    "ks7_ps4": 13_661,
    "filters_4_8_16": 5_873,
    "filters_16_32_64": 34_217,
    "filters_16_32_64_128": 101_545,
    "standard_conv": 16_997,
}
EXPECTED_FLOPS = {
    "default": 7.89e6,
    "blocks2": 17.39e6,
    "blocks4": 10.39e6,
    "ks7_ps4": 9.19e6,
    "filters_4_8_16": 2.54e6,
    "filters_16_32_64": 27.22e6,
    "filters_16_32_64_128": 36.92e6,
    "standard_conv": 15.03e6,
}

TINY = ModelConfig(
    n_blocks=2, filters=(2, 3), kernel_size=3, n_input_channels=2,
    input_length=32, head_hidden=4, dropout_block=0.0, dropout_head=0.0,
)


class report:
    """Prints `criterion <n> (<name>): PASS|FAIL` around a block of asserts."""

    def __init__(self, number, name):
        self.label = f"criterion {number} ({name})"

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"\n{self.label}: {'PASS' if exc_type is None else 'FAIL'}")
        return False


def test_criterion_1_parameter_count_identity():
    with report(1, "parameter-count identity"):
        for name, cfg in variant_configs().items():
            got = count_flops(cfg).total_params
            assert got == EXPECTED_PARAMS[name], f"{name}: {got}"
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n_blocks = int(rng.integers(1, 5))
            start = int(rng.integers(1, 9))
            cfg = ModelConfig(
                n_blocks=n_blocks,
                filters=tuple(start * 2**i for i in range(n_blocks)),
                kernel_size=int(rng.choice([1, 3, 5, 7])),
                pool_size=int(rng.choice([2, 4])),
                pool_stride=int(rng.choice([2, 4])),
                conv_type=str(rng.choice(["separable", "standard"])),
                n_input_channels=int(rng.integers(1, 6)),
                input_length=int(rng.integers(64, 512)),
                head_hidden=int(rng.integers(4, 65)),
            )
            assert count_flops(cfg).total_params == trainable_scalar_count(
                build_model(cfg, seed=0)
            )


def test_criterion_2_flops_bands():
    with report(2, "FLOPs accounting within 10%"):
        for name, cfg in variant_configs().items():
            total = count_flops(cfg).total_flops
            ref = EXPECTED_FLOPS[name]
            assert abs(total - ref) <= 0.10 * ref, f"{name}: {total} vs {ref}"


def test_criterion_3_gradient_correctness():
    with report(3, "gradient correctness"):
        # full model, 64-bit, tiny config, every trainable parameter
        params = build_model(TINY, seed=1, dtype=np.float64)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 2, 32))
        y = np.array([0, 3])

        def loss():
            _, cache = model_forward(x, params, mode="train")
            return model_loss(cache, y)

        _, cache = model_forward(x, params, mode="train")
        grads = model_backward(cache, y)
        worst = 0.0
        for name, arr in named_arrays(params):
            worst = max(worst, fd_relative_error(grads[name], fd_gradient(loss, arr)))
        assert worst < 1e-4, f"full-model worst {worst:.3e}"

        # per-kernel checks on random small shapes
        rng = np.random.default_rng(11)
        xs = rng.standard_normal((3, 4, 16))
        sep = nn.SepConvParams(
            rng.standard_normal((3, 4)), rng.standard_normal((4, 3)),
            rng.standard_normal(3), stride=2,
        )
        g_out = rng.standard_normal(nn.sepconv1d_forward(xs, sep)[0].shape)

        def sep_loss():
            return float((nn.sepconv1d_forward(xs, sep)[0] * g_out).sum())

        _, sep_cache = nn.sepconv1d_forward(xs, sep)
        gx, gdw, gpw, gb = nn.sepconv1d_backward(sep_cache, g_out)
        for analytic, arr in [(gx, xs), (gdw, sep.depthwise), (gpw, sep.pointwise), (gb, sep.bias)]:
            assert fd_relative_error(analytic, fd_gradient(sep_loss, arr)) < 1e-5

        std = nn.ConvParams(rng.standard_normal((3, 4, 2)), rng.standard_normal(2), 1)
        g_std = rng.standard_normal(nn.conv1d_forward(xs, std)[0].shape)

        def std_loss():
            return float((nn.conv1d_forward(xs, std)[0] * g_std).sum())

        _, std_cache = nn.conv1d_forward(xs, std)
        gx, gk, gb = nn.conv1d_backward(std_cache, g_std)
        for analytic, arr in [(gx, xs), (gk, std.kernel), (gb, std.bias)]:
            assert fd_relative_error(analytic, fd_gradient(std_loss, arr)) < 1e-5

        bn = nn.BatchNormParams(
            gamma=rng.standard_normal(4), beta=rng.standard_normal(4),
            running_mean=np.zeros(4), running_var=np.ones(4),
        )
        g_bn = rng.standard_normal(xs.shape)

        def bn_loss():
            out, _ = nn.batchnorm_forward(xs, bn, "train")
            return float((out * g_bn).sum())

        _, bn_cache = nn.batchnorm_forward(xs, bn, "train")
        gx, ggamma, gbeta = nn.batchnorm_backward(bn_cache, g_bn)
        for analytic, arr in [(gx, xs), (ggamma, bn.gamma), (gbeta, bn.beta)]:
            assert fd_relative_error(analytic, fd_gradient(bn_loss, arr)) < 1e-5

        dense = nn.DenseParams(rng.standard_normal((6, 3)), rng.standard_normal(3))
        xd = rng.standard_normal((4, 6))
        g_d = rng.standard_normal((4, 3))

        def dense_loss():
            return float((nn.dense_forward(xd, dense)[0] * g_d).sum())

        _, xd_cache = nn.dense_forward(xd, dense)
        gx, gw, gb = nn.dense_backward(dense, xd_cache, g_d)
        for analytic, arr in [(gx, xd), (gw, dense.weight), (gb, dense.bias)]:
            assert fd_relative_error(analytic, fd_gradient(dense_loss, arr)) < 1e-5


def overfit_fixture():
    """The 64-epoch class-sinusoid training fixture plus held-out subjects."""
    train = sinusoid_dataset(n_epochs=64, n_channels=4, n_subjects=8, seed=0)
    extra = sinusoid_dataset(n_epochs=10, n_channels=4, n_subjects=2, seed=1)
    extra_subjects = [k.replace("S", "T") for k in extra.subject_keys]
    merged = EpochDataset(
        x=np.concatenate([train.x, extra.x]),
        y=np.concatenate([train.y, extra.y]),
        subject_keys=train.subject_keys + extra_subjects,
        channel_labels=train.channel_labels,
    )
    split = FoldSplit(
        0,
        tuple(sorted(set(train.subject_keys))),
        tuple(sorted(set(extra_subjects))),
    )
    return merged, split


def test_criterion_4_overfit_oracle():
    with report(4, "synthetic overfit oracle"):
        dataset, split = overfit_fixture()

        # determinism under the fixed seed (short runs, byte-compared)
        short = TrainConfig(epochs=2, batch_size=16, seed=0)
        p1, h1, _ = train_fold(dataset, split, ModelConfig(), short)
        p2, h2, _ = train_fold(dataset, split, ModelConfig(), short)
        assert h1 == h2
        for (name, a), (_, b) in zip(named_arrays(p1), named_arrays(p2)):
            assert np.array_equal(a, b), name

        # 64 training epochs, comfortably inside the 200-epoch budget
        tcfg = TrainConfig(epochs=64, batch_size=16, seed=0)
        params, _, _ = train_fold(dataset, split, ModelConfig(), tcfg)
        train_idx, _ = split_indices(dataset, split)
        assert len(train_idx) == 64
        pred, _ = predict(params, dataset.x[train_idx])
        acc = float((pred == dataset.y[train_idx].astype(np.int64)).mean())
        print(f"\n  training accuracy after 64 epochs: {acc:.3f}")
        assert acc >= 0.95


def test_criterion_5_metrics_oracle():
    with report(5, "metrics against pairwise oracle"):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            y_true = rng.integers(0, 5, size=n).tolist()
            y_pred = rng.integers(0, 5, size=n).tolist()
            cm = confusion(y_true, y_pred)
            assert accuracy(cm) == pairwise_accuracy(y_true, y_pred)
            got_f1 = per_class_f1(cm)
            for c in range(5):
                assert got_f1[c] == pairwise_f1(y_true, y_pred, c)
            assert macro_f1(cm) == pairwise_macro_f1(y_true, y_pred)
            assert cohen_kappa(cm) == pytest.approx(
                pairwise_kappa(y_true, y_pred), abs=1e-12
            )
        # fixed fixtures
        half = confusion([0] * 50 + [1] * 50, [0] * 100)
        assert cohen_kappa(half) == 0.0
        perfect = confusion([0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
        assert cohen_kappa(perfect) == 1.0


def test_criterion_6_shape_topology():
    with report(6, "shape and topology"):
        for pool in (2, 4):
            cfg = ModelConfig(
                n_blocks=1, filters=(2,), pool_size=pool, pool_stride=pool,
                n_input_channels=1, input_length=8,
            )
            block = build_model(cfg, seed=0).blocks[0]
            for length in range(1, 4097):
                y, _ = dssc_forward(np.zeros((1, 1, length), np.float32), block, "infer")
                expected = nn.ceil_div(nn.ceil_div(length, pool), pool)
                assert y.shape == (1, 2, expected), (length, pool)

        def extractor_size(c):
            params = build_model(ModelConfig(n_input_channels=c), seed=0)
            return sum(
                arr.size
                for name, arr in named_arrays(params, trainable_only=False)
                if name.startswith("blocks.")
            )

        assert len({extractor_size(c) for c in (1, 2, 4, 8)}) == 1


def test_criterion_7_data_path_integrity(tmp_path):
    with report(7, "data-path integrity"):
        # EDF round trip, bit-exact
        rng = np.random.default_rng(5)
        sigs = [
            FixtureSignal("EEG Fpz-Cz", 300,
                          digital=rng.integers(-2048, 2048, size=1200).astype(np.int16)),
            FixtureSignal("EOG horizontal", 300,
                          digital=rng.integers(-2048, 2048, size=1200).astype(np.int16)),
        ]
        blob = edf_bytes(sigs, n_data_records=4, record_duration_s=3.0)
        header = parse_edf_header(blob)
        assert header.header_bytes == 768
        assert header.labels == ["EEG Fpz-Cz", "EOG horizontal"]
        assert header.physical_min == [-204.8, -204.8]
        for i, s in enumerate(sigs):
            assert np.array_equal(read_digital(io.BytesIO(blob), header, i), s.digital)

        # hand-derived affine conversion
        probe = FixtureSignal("X", 3, digital=np.array([0, -2048, 2047], np.int16))
        probe_blob = edf_bytes([probe], n_data_records=1)
        trace = read_signal(io.BytesIO(probe_blob), parse_edf_header(probe_blob), 0)
        assert trace.samples[0] == np.float32(0.0)
        assert trace.samples[1] == np.float32(-204.8)
        assert trace.samples[2] == np.float32(204.7)

        # filter battery
        sos = bandpass().sos
        assert sos_gain(sos, 0.0, 100.0) < 1e-12
        assert 0.99 <= sos_gain(sos, 10.0, 100.0) <= 1.01
        xa, xb = rng.standard_normal(4000), rng.standard_normal(4000)
        lhs = filtfilt(2.0 * xa - 0.5 * xb)
        rhs = 2.0 * filtfilt(xa) - 0.5 * filtfilt(xb)
        assert np.abs(lhs - rhs).max() <= 1e-5 * np.abs(lhs).max()
        t = np.arange(6000) / 100.0
        tone = np.sin(2 * np.pi * 10.0 * t)
        filtered = filtfilt(tone)
        core = slice(500, 5500)
        amp_ratio = np.abs(filtered[core]).max() / np.abs(tone[core]).max()
        assert amp_ratio == pytest.approx(1.0, abs=0.02)
        assert best_lag(tone[core], filtered[core], max_lag=20) == 0
        dc = filtfilt(np.full(4000, 3.0))
        assert np.abs(dc[500:-500]).max() < 1e-3 * 3.0

        # cache round trip with CRC verification
        ds = sinusoid_dataset(n_epochs=6, n_channels=2, epoch_samples=90, seed=2)
        cache_path = tmp_path / "roundtrip.ulws"
        write_cache(ds, cache_path)
        assert read_cache(cache_path).equals(ds)
        corrupted = bytearray(cache_path.read_bytes())
        corrupted[len(corrupted) // 2] ^= 0x10
        cache_path.write_bytes(bytes(corrupted))
        with pytest.raises(ChecksumMismatch):
            read_cache(cache_path)


def test_criterion_8_cv_integrity():
    with report(8, "subject-wise CV integrity"):
        ds = sinusoid_dataset(
            n_epochs=200, n_channels=2, epoch_samples=60, n_subjects=20, seed=4
        )
        folds = subject_folds(ds.subject_keys, k=10, seed=0)
        assert len(folds) == 10
        tested = []
        for fold in folds:
            assert len(fold.test_subjects) == 2
            assert not set(fold.train_subjects) & set(fold.test_subjects)
            tested.extend(fold.test_subjects)
            train_idx, test_idx = split_indices(ds, fold)
            train_subjects = {ds.subject_keys[i] for i in train_idx}
            test_subjects = {ds.subject_keys[i] for i in test_idx}
            assert not train_subjects & test_subjects
            assert len(train_idx) + len(test_idx) == ds.n_epochs
        assert sorted(tested) == sorted(set(ds.subject_keys))


@pytest.mark.skipif(
    "ULWS_SLEEPEDF_DIR" not in os.environ,
    reason="full reproduction needs ULWS_SLEEPEDF_DIR pointing at Sleep-EDF-20 "
    "(multi-hour CPU run; criteria 1-8 are the CI gate)",
)
def test_criterion_9_full_reproduction():
    from ulws.cli import main

    with report(9, "full 10-fold reproduction"):
        data_dir = os.environ["ULWS_SLEEPEDF_DIR"]
        work = os.environ.get("ULWS_WORKDIR", "/tmp/ulws-repro")
        os.makedirs(work, exist_ok=True)
        cache = os.path.join(work, "sleepedf20.ulws")
        assert main(["preprocess", "--data-dir", data_dir, "--out", cache]) == 0
        assert main(["train", "--cache", cache, "--folds", "10", "--fold", "all",
                     "--out", os.path.join(work, "cv")]) == 0
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["evaluate", "--predictions", os.path.join(work, "cv"),
                         "--json"]) == 0
        import json

        metrics = json.loads(buf.getvalue())
        assert abs(metrics["accuracy"] * 100 - 86.9) <= 2.0
        assert abs(metrics["kappa"] - 0.82) <= 0.04
