import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from ulws import nn, training
from ulws.errors import BadConfig, NonFiniteGradient, TooFewSubjects
from ulws.model import (
    ModelConfig,
    build_model,
    conv_kernels,
    model_backward,
    model_forward,
    named_arrays,
    predict,
    save_checkpoint,
)
from ulws.synthetic import sinusoid_dataset
from ulws.training import (
    AdamState,
    FoldSplit,
    TrainConfig,
    adam_step,
    add_l2_gradients,
    cosine_lr,
    init_adam,
    l2_penalty,
    make_batches,
    split_indices,
    subject_folds,
    train_fold,
)

TINY = ModelConfig(
    n_blocks=2, filters=(2, 3), kernel_size=3, n_input_channels=2,
    input_length=200, head_hidden=8,
)


# --- config --------------------------------------------------------------------

def test_train_config_dict_lists_every_field_in_order():
    cfg = TrainConfig(base_lr=0.01, seed=3)
    assert list(cfg.to_dict()) == [f.name for f in dataclasses.fields(TrainConfig)]
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "bad",
    [{"seed": True}, {"epochs": 2.0}, {"base_lr": "0.1"}, {"base_lr": float("nan")},
     {"base_lr": 10**400}],
)
def test_train_config_from_dict_checks_json_types(bad):
    with pytest.raises(BadConfig):
        TrainConfig.from_dict(bad)


# --- learning-rate schedule -----------------------------------------------

def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 50, 1e-3) == pytest.approx(1e-3)
    assert cosine_lr(25, 50, 1e-3) == pytest.approx(5e-4)
    expected_last = 1e-3 * 0.5 * (1 + math.cos(49 * math.pi / 50))
    assert cosine_lr(49, 50, 1e-3) == pytest.approx(expected_last)
    assert expected_last == pytest.approx(9.87e-7, rel=1e-3)


def test_cosine_schedule_bounds():
    with pytest.raises(ValueError):
        cosine_lr(50, 50, 1e-3)
    with pytest.raises(ValueError):
        cosine_lr(-1, 50, 1e-3)


# --- regularized loss -----------------------------------------------------

def test_l2_penalty_zero_lambda_and_zero_kernels():
    params = build_model(TINY, seed=0, dtype=np.float64)
    assert l2_penalty(params, 0.0) == 0.0
    for name, arr in named_arrays(params):
        if name.endswith((".depthwise", ".pointwise", ".kernel")):
            arr[...] = 0.0
    assert l2_penalty(params, 0.001) == 0.0


def test_l2_penalty_single_kernel_value():
    params = build_model(TINY, seed=0, dtype=np.float64)
    for name, arr in named_arrays(params):
        if name.endswith((".depthwise", ".pointwise", ".kernel")):
            arr[...] = 0.0
    params.blocks[0].main_conv1.depthwise[0, 0] = 2.0
    assert l2_penalty(params, 0.001) == pytest.approx(0.004)

    grads = {name: np.zeros_like(arr) for name, arr in named_arrays(params)}
    add_l2_gradients(grads, params, 0.001)
    assert grads["blocks.0.main_conv1.depthwise"][0, 0] == pytest.approx(0.004)
    # biases, BN and dense layers are exempt
    assert not grads["blocks.0.main_conv1.bias"].any()
    assert not grads["blocks.0.bn1.gamma"].any()
    assert not grads["head_hidden.weight"].any()


@pytest.mark.parametrize("conv_type", ["separable", "standard"])
def test_l2_set_is_every_conv_leaf_but_its_bias(conv_type):
    params = build_model(dataclasses.replace(TINY, conv_type=conv_type), seed=0)
    conv_leaves = {
        id(arr)
        for blk in params.blocks
        for conv in (blk.main_conv1, blk.main_conv2, blk.shortcut_conv1, blk.shortcut_conv2)
        for _, arr in conv.leaves()
        if arr is not conv.bias
    }
    assert len(conv_leaves) == len(params.blocks) * 4 * (2 if conv_type == "separable" else 1)
    expected = [(name, arr) for name, arr in named_arrays(params) if id(arr) in conv_leaves]
    got = list(conv_kernels(params))
    assert [name for name, _ in got] == [name for name, _ in expected]
    assert all(a is b for (_, a), (_, b) in zip(got, expected, strict=True))


def test_a_renamed_conv_leaf_stays_in_the_l2_set(monkeypatch):
    params = build_model(TINY, seed=0, dtype=np.float64)
    before = l2_penalty(params, 0.001)
    monkeypatch.setattr(
        nn.SepConvParams, "leaves",
        lambda self: [("depthwise", self.depthwise), ("mix", self.pointwise), ("bias", self.bias)],
    )
    names = [name for name, _ in conv_kernels(params)]
    assert "blocks.0.main_conv1.mix" in names
    assert not any(name.endswith(".pointwise") for name in names)
    assert l2_penalty(params, 0.001) == before


def test_l2_never_decreases_loss():
    params = build_model(TINY, seed=1, dtype=np.float64)
    assert l2_penalty(params, 0.001) >= 0.0


# --- Adam -------------------------------------------------------------------

def test_adam_zero_gradient_keeps_parameters():
    params = build_model(TINY, seed=2)
    before = {n: a.copy() for n, a in named_arrays(params)}
    grads = {n: np.zeros_like(a) for n, a in named_arrays(params)}
    adam_step(params, grads, init_adam(params), lr=0.1, config=TrainConfig())
    for name, arr in named_arrays(params):
        assert np.array_equal(arr, before[name]), name


def test_adam_first_step_magnitude():
    # scalar theta=0, g=1, lr=0.1: bias correction makes step ~ -lr * sign(g)
    cfg = TrainConfig(base_lr=0.1)
    m = np.zeros(1)
    v = np.zeros(1)
    g = np.ones(1)
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    theta = -0.1 * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    assert theta[0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_moves_against_gradient_and_updates_state():
    params = build_model(TINY, seed=3, dtype=np.float64)
    state = init_adam(params)
    grads = {n: np.ones_like(a) for n, a in named_arrays(params)}
    before = {n: a.copy() for n, a in named_arrays(params)}
    adam_step(params, grads, state, lr=0.01, config=TrainConfig())
    assert state.t == 1
    for name, arr in named_arrays(params):
        assert np.all(arr < before[name]), name  # positive grad -> decrease


def test_adam_bounded_update():
    params = build_model(TINY, seed=4, dtype=np.float64)
    state = init_adam(params)
    rng = np.random.default_rng(0)
    tcfg = TrainConfig()
    lr = 1e-3
    bound = lr / (1 - tcfg.adam_beta1) * 1.01
    for step in range(5):
        grads = {n: rng.standard_normal(a.shape) for n, a in named_arrays(params)}
        before = {n: a.copy() for n, a in named_arrays(params)}
        adam_step(params, grads, state, lr, tcfg)
        for name, arr in named_arrays(params):
            assert np.abs(arr - before[name]).max() <= bound


def test_adam_rejects_non_finite_gradient():
    params = build_model(TINY, seed=5)
    grads = {n: np.zeros_like(a) for n, a in named_arrays(params)}
    grads["head_out.bias"][0] = np.nan
    with pytest.raises(NonFiniteGradient):
        adam_step(params, grads, init_adam(params), lr=0.01, config=TrainConfig())


# --- batching ------------------------------------------------------------------

def test_make_batches_covers_everything_once():
    batches = make_batches(5, 2, seed=0)
    assert [len(b) for b in batches] == [2, 2, 1]
    assert sorted(np.concatenate(batches).tolist()) == [0, 1, 2, 3, 4]


def test_make_batches_deterministic_and_epoch_dependent():
    a = make_batches(64, 8, seed=[5, 0])
    b = make_batches(64, 8, seed=[5, 0])
    c = make_batches(64, 8, seed=[5, 1])
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


# --- subject folds -----------------------------------------------------------------

def test_subject_folds_partition_twenty_subjects():
    subjects = [f"SC4{i:02d}" for i in range(20)]
    folds = subject_folds(subjects, k=10, seed=1)
    assert len(folds) == 10
    seen = []
    for fold in folds:
        assert len(fold.test_subjects) == 2
        assert not set(fold.train_subjects) & set(fold.test_subjects)
        assert set(fold.train_subjects) | set(fold.test_subjects) == set(subjects)
        seen.extend(fold.test_subjects)
    assert sorted(seen) == sorted(subjects)  # each subject tested exactly once


def test_subject_folds_too_few():
    with pytest.raises(TooFewSubjects):
        subject_folds([f"S{i}" for i in range(9)], k=10)


@pytest.mark.parametrize("k", [1, 0, -2])
def test_subject_folds_need_two_folds(k):
    with pytest.raises(BadConfig):
        subject_folds([f"S{i}" for i in range(4)], k=k)


def test_subject_folds_keep_nights_together():
    keys = ["SC400", "SC400", "SC401", "SC401"] * 5  # two nights each
    folds = subject_folds(keys, k=2, seed=0)
    for fold in folds:
        assert set(fold.test_subjects).isdisjoint(fold.train_subjects)


# --- training loop --------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_dataset():
    return sinusoid_dataset(
        n_epochs=64, n_channels=2, epoch_samples=200, n_subjects=8, seed=1
    )


def tiny_split(dataset):
    subjects = sorted(set(dataset.subject_keys))
    return FoldSplit(0, tuple(subjects[:6]), tuple(subjects[6:]))


def test_train_fold_zero_epochs(tiny_dataset):
    params, history, _ = train_fold(
        tiny_dataset, tiny_split(tiny_dataset), TINY, TrainConfig(epochs=0, seed=0)
    )
    init = build_model(TINY, seed=0)
    assert history == []
    assert np.array_equal(params.head_hidden.weight, init.head_hidden.weight)


def test_train_fold_overfits_synthetic_sinusoids(tiny_dataset):
    cfg = ModelConfig(
        n_blocks=3, filters=(4, 8, 16), n_input_channels=2,
        input_length=200, head_hidden=16,
    )
    tcfg = TrainConfig(epochs=150, seed=0)
    params, history, _ = train_fold(tiny_dataset, tiny_split(tiny_dataset), cfg, tcfg)
    train_idx, _ = split_indices(tiny_dataset, tiny_split(tiny_dataset))
    pred, _ = predict(params, tiny_dataset.x[train_idx])
    accuracy = float((pred == tiny_dataset.y[train_idx].astype(np.int64)).mean())
    assert accuracy >= 0.95

    # smoothed monotonicity: 10-epoch window means never rise beyond the
    # stochastic-regularization noise floor, and the loss clearly converges
    losses = [row["train_loss"] for row in history]
    window = 10
    means = [np.mean(losses[i : i + window]) for i in range(0, len(losses) - window, window)]
    assert all(b <= 1.05 * a for a, b in zip(means, means[1:]))
    assert means[-1] < 0.5 * means[0]


@pytest.mark.parametrize("epochs", [0, 2])
def test_train_fold_returns_its_final_test_probabilities(tiny_dataset, epochs):
    split = tiny_split(tiny_dataset)
    params, history, probs = train_fold(
        tiny_dataset, split, TINY, TrainConfig(epochs=epochs, seed=3)
    )
    _, test_idx = split_indices(tiny_dataset, split)
    assert np.array_equal(probs, predict(params, tiny_dataset.x[test_idx])[1])
    if history:
        y_test = tiny_dataset.y[test_idx].astype(np.int64)
        assert history[-1]["test_acc"] == float((probs.argmax(axis=1) == y_test).mean())


def test_train_fold_history_schema(tiny_dataset):
    _, history, _ = train_fold(
        tiny_dataset, tiny_split(tiny_dataset), TINY, TrainConfig(epochs=2, seed=3)
    )
    assert [sorted(row) for row in history] == [
        ["epoch", "lr", "test_acc", "train_loss"]] * 2
    assert history[0]["epoch"] == 0 and history[1]["epoch"] == 1
    assert history[0]["lr"] == pytest.approx(1e-3)


def test_train_fold_deterministic(tiny_dataset, tmp_path):
    split = tiny_split(tiny_dataset)
    tcfg = TrainConfig(epochs=3, seed=7)
    blobs = []
    for run in range(2):
        params, _, _ = train_fold(tiny_dataset, split, TINY, tcfg)
        path = tmp_path / f"run{run}.ulwm"
        save_checkpoint(params, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_train_fold_requires_both_sides(tiny_dataset):
    subjects = sorted(set(tiny_dataset.subject_keys))
    bad = FoldSplit(0, tuple(subjects), ())
    with pytest.raises(ValueError):
        train_fold(tiny_dataset, bad, TINY, TrainConfig(epochs=1, seed=0))


def test_train_fold_refuses_a_subject_on_both_sides(tiny_dataset):
    # a raise, not an assert, so that python -O keeps the check
    subjects = sorted(set(tiny_dataset.subject_keys))
    leaky = FoldSplit(0, tuple(subjects[1:]), tuple(subjects[:2]))
    with pytest.raises(ValueError, match=rf"\['{subjects[1]}'\] on both sides"):
        train_fold(tiny_dataset, leaky, TINY, TrainConfig(epochs=1, seed=0))


# --- the memory of a training step ------------------------------------------------------

def test_train_fold_holds_one_step_of_caches(tiny_dataset, monkeypatch):
    """Each forward pass and each test pass starts with no earlier step's ModelCache alive."""
    caches = []

    def check_earlier_caches_freed():
        alive = [i for i, ref in enumerate(caches) if ref() is not None]
        assert alive == [], f"train-mode caches {alive} of {len(caches)} still alive"

    def tracking_forward(x, params, mode="infer", rng=None):
        check_earlier_caches_freed()
        probs, cache = model_forward(x, params, mode, rng)
        if mode == "train":
            caches.append(weakref.ref(cache))
        return probs, cache

    def tracking_predict(params, x, *args, **kwargs):
        check_earlier_caches_freed()
        return predict(params, x, *args, **kwargs)

    monkeypatch.setattr(training, "model_forward", tracking_forward)
    monkeypatch.setattr(training, "predict", tracking_predict)
    split = tiny_split(tiny_dataset)
    tcfg = TrainConfig(epochs=2, batch_size=16, seed=0)
    train_fold(tiny_dataset, split, TINY, tcfg)
    n_train = len(split_indices(tiny_dataset, split)[0])
    assert len(caches) == tcfg.epochs * math.ceil(n_train / tcfg.batch_size)


def test_backward_peak_stays_near_the_live_set_its_forward_left():
    """A default-model step of 32 epochs: model_backward peaks less than an
    eighth above the live set model_forward left.

    The backward frees each layer's cache once its backward call has read it.
    Holding them all until it returned, it peaked 29.4 MiB above a 62.7 MiB
    live set, in block 0's bn1 backward.
    """
    cfg = ModelConfig()
    params = build_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, cfg.n_input_channels, cfg.input_length)).astype(np.float32)
    labels = rng.integers(0, cfg.n_classes, 32)
    tracemalloc.start()
    try:
        _, cache = model_forward(x, params, mode="train", rng=rng)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model_backward(cache, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - live < live / 8, (live, peak)


def test_train_fold_test_pass_copies_no_test_set():
    """With 0 epochs, quadrupling a fold's test side raises train_fold's traced
    peak by less than one batch of rows: the test pass gathers its batches of x."""
    tcfg = TrainConfig(epochs=0, seed=0)

    def peak(n_test):
        ds = sinusoid_dataset(n_epochs=32 + n_test, n_channels=2, epoch_samples=200, seed=1)
        ds = dataclasses.replace(ds, subject_keys=["A"] * 32 + ["B"] * n_test)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            train_fold(ds, FoldSplit(0, ("A",), ("B",)), TINY, tcfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    row_bytes = TINY.n_input_channels * TINY.input_length * 4
    assert peak(256) - peak(64) < tcfg.batch_size * row_bytes


STEP_PEAK_PROBE = """
import sys
import numpy as np
from ulws.model import ModelConfig, build_model, model_backward, model_forward
from ulws.training import TrainConfig, adam_step, init_adam

cfg = ModelConfig(kernel_size=int(sys.argv[1]))
params = build_model(cfg, seed=0)
rng = np.random.default_rng(0)
x = rng.standard_normal((32, cfg.n_input_channels, cfg.input_length)).astype(np.float32)
labels = rng.integers(0, cfg.n_classes, 32)
_, cache = model_forward(x, params, mode="train", rng=rng)
adam_step(params, model_backward(cache, labels), init_adam(params), 1e-3, TrainConfig())
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc/self/status")
def test_train_step_peak_memory_does_not_grow_with_the_kernel():
    """One default-model step of 32 epochs peaks less than 4 MiB higher at kernel_size 31 than at 3.

    A conv's GEMM columns are (K*M + 1)/M times its input. Built for the whole
    batch at once, block 0's second conv alone would take 190 MB at 31; built
    COLUMNS_BYTES at a time, the columns add about 1 MiB at any kernel size.
    The per-sample weight gradients are summed one chunk at a time too: kept
    for the whole batch, they took 15.2 MiB more at 31; chunked, the step
    peaks 1.2-1.6 MiB higher. VmHWM belongs to the child's own address space.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def peak_bytes(kernel_size):
        run = subprocess.run([sys.executable, "-c", STEP_PEAK_PROBE, str(kernel_size)],
                             env=env, capture_output=True, text=True, check=True, timeout=300)
        return int(run.stdout.splitlines()[-1]) * 1024

    assert peak_bytes(31) - peak_bytes(3) < 4 * 2**20
