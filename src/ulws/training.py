"""Optimizer loop: L2-regularized cross-entropy, Adam, cosine-annealed
learning rate, deterministic mini-batching, and the subject-wise CV split.

Given identical data, configs and seeds, every function here is bit-wise
reproducible on one platform: batch order, dropout masks and parameter
updates all derive from explicitly seeded generators, and the optimizer
walks parameters in a fixed traversal order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadConfig, NonFiniteGradient, NonFiniteOutput, TooFewSubjects
from .model import (
    JsonConfig,
    ModelConfig,
    ModelParams,
    build_model,
    conv_kernels,
    model_backward,
    model_forward,
    model_loss,
    named_arrays,
    predict,
)
from .preprocess import EpochDataset


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    base_lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 50
    l2_lambda: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.base_lr <= 0 or self.adam_eps <= 0:
            raise BadConfig("learning rate and epsilon must be positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise BadConfig("adam betas must lie in (0, 1)")
        if self.l2_lambda < 0:
            raise BadConfig("l2_lambda must be >= 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise BadConfig("batch_size must be >= 1 and epochs >= 0")
        if self.seed < 0:
            raise BadConfig(f"seed must be >= 0, got {self.seed}")


def cosine_lr(epoch: int, total_epochs: int, base_lr: float) -> float:
    """Cosine annealing from base_lr to 0, stepped once per epoch."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


# --- L2 regularization ------------------------------------------------------
# The penalty covers convolution kernels only (depthwise + pointwise, or
# the standard kernel in that variant); biases, BN and dense layers are
# exempt.

def l2_penalty(params: ModelParams, lam: float) -> float:
    if lam == 0.0:
        return 0.0
    total = 0.0
    for _, arr in conv_kernels(params):
        total += float((arr.astype(np.float64) ** 2).sum())
    return lam * total


def add_l2_gradients(grads: dict[str, np.ndarray], params: ModelParams, lam: float) -> None:
    if lam == 0.0:
        return
    for name, arr in conv_kernels(params):
        grads[name] = grads[name] + 2.0 * lam * arr


# --- Adam --------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def init_adam(params: ModelParams) -> AdamState:
    state = AdamState()
    for name, arr in named_arrays(params):
        state.m[name] = np.zeros_like(arr)
        state.v[name] = np.zeros_like(arr)
    return state


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    config: TrainConfig,
) -> None:
    """One in-place Adam update; raises on non-finite gradients."""
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    state.t += 1
    correction1 = 1.0 - b1**state.t
    correction2 = 1.0 - b2**state.t
    for name, arr in named_arrays(params):
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in {name} at step {state.t}")
        m = state.m[name]
        v = state.v[name]
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        arr[...] = arr - lr * m_hat / (np.sqrt(v_hat) + eps)


# --- batching and folds -------------------------------------------------------

def make_batches(n: int, batch_size: int, seed) -> list[np.ndarray]:
    """Seeded permutation of range(n) chunked into batch_size lists."""
    perm = np.random.default_rng(seed).permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


@dataclass(frozen=True)
class FoldSplit:
    fold_index: int
    train_subjects: tuple[str, ...]
    test_subjects: tuple[str, ...]


def subject_folds(subject_keys, k: int = 10, seed: int = 0) -> list[FoldSplit]:
    """Deal shuffled subjects round-robin into k disjoint test groups.

    Every recording of a subject follows the subject, so no identity ever
    appears on both sides of a split.
    """
    if k < 2:
        raise BadConfig(f"k-fold CV needs at least 2 folds, got {k}")
    subjects = sorted(set(subject_keys))
    if len(subjects) < k:
        raise TooFewSubjects(f"{len(subjects)} subjects cannot fill {k} folds")
    shuffled = list(subjects)
    np.random.default_rng(seed).shuffle(shuffled)
    folds = []
    for i in range(k):
        test = tuple(sorted(shuffled[i::k]))
        train = tuple(sorted(s for s in subjects if s not in set(test)))
        folds.append(FoldSplit(fold_index=i, train_subjects=train, test_subjects=test))
    return folds


def split_indices(dataset: EpochDataset, split: FoldSplit) -> tuple[np.ndarray, np.ndarray]:
    keys = np.asarray(dataset.subject_keys)
    train_mask = np.isin(keys, split.train_subjects)
    test_mask = np.isin(keys, split.test_subjects)
    return np.flatnonzero(train_mask), np.flatnonzero(test_mask)


# --- training loop -------------------------------------------------------------

def _score(params: ModelParams, x_test: np.ndarray, where: str) -> tuple[np.ndarray, np.ndarray]:
    """predict(params, x_test), or NonFiniteOutput naming `where` if a probability is not finite."""
    # a diverged model's NaN and overflow are reported once, by the check below
    with np.errstate(all="ignore"):
        pred, probs = predict(params, x_test)
    if not np.isfinite(probs).all():
        raise NonFiniteOutput(f"{where}: the model's probabilities hold NaN or infinity")
    return pred, probs


def train_fold(
    dataset: EpochDataset,
    split: FoldSplit,
    mcfg: ModelConfig,
    tcfg: TrainConfig,
) -> tuple[ModelParams, list[dict], np.ndarray]:
    """Train on the split's train subjects, track test accuracy per epoch.

    Returns the final-epoch parameters (no early stopping or checkpoint
    selection), a history of per-epoch rows
    {"epoch", "lr", "train_loss", "test_acc"}, and the test epochs' class
    probabilities (in `split_indices` order) from the evaluation that gave
    the last row's test_acc; with 0 epochs, from the initial parameters.
    A test pass that gives NaN or infinite probabilities raises
    NonFiniteOutput, and no numpy warning is emitted on the way.
    """
    train_idx, test_idx = split_indices(dataset, split)
    if len(train_idx) == 0 or len(test_idx) == 0:
        raise ValueError(
            f"fold {split.fold_index}: empty side of the split "
            f"(train {len(train_idx)}, test {len(test_idx)})"
        )
    if leaked := sorted(set(split.train_subjects) & set(split.test_subjects)):
        raise ValueError(f"fold {split.fold_index}: subjects {leaked} on both sides of the split")

    x = dataset.x.astype(np.float32, copy=False)
    y = dataset.y.astype(np.int64)
    x_test, y_test = x[test_idx], y[test_idx]

    params = build_model(mcfg, seed=tcfg.seed)
    state = init_adam(params)
    dropout_rng = np.random.default_rng([tcfg.seed, 1])

    history, probs = [], None
    for epoch in range(tcfg.epochs):
        lr = cosine_lr(epoch, tcfg.epochs, tcfg.base_lr)
        loss_sum, n_seen = 0.0, 0
        for batch in make_batches(len(train_idx), tcfg.batch_size, [tcfg.seed, 2, epoch]):
            rows = train_idx[batch]
            xb, yb = x[rows], y[rows]
            # a diverging step is reported once, by adam_step's NonFiniteGradient
            with np.errstate(over="ignore", invalid="ignore"):
                _, cache = model_forward(xb, params, mode="train", rng=dropout_rng)
                loss = model_loss(cache, yb) + l2_penalty(params, tcfg.l2_lambda)
                grads = model_backward(cache, yb)
                add_l2_gradients(grads, params, tcfg.l2_lambda)
                adam_step(params, grads, state, lr, tcfg)
            # so that the next forward pass, or the test pass, holds one batch's caches, not two
            del cache, grads
            loss_sum += loss * len(batch)
            n_seen += len(batch)
        pred, probs = _score(params, x_test, f"fold {split.fold_index}, epoch {epoch}")
        row = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": loss_sum / n_seen,
            "test_acc": float((pred == y_test).mean()),
        }
        history.append(row)
    if probs is None:
        _, probs = _score(params, x_test, f"fold {split.fold_index}, initial parameters")
    return params, history, probs
