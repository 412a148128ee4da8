"""The engine's forward pass against `oracles.reference_forward`, an
independent float64 ULW-SleepNet in the paper's layer order.

Every variant of the study grid, and configs drawn by Hypothesis (kernel
sizes 1-31, pools up to 8 wide at strides 1, 2 and 4, odd input lengths,
1-4 channels), run with dropout 0 and random conv and head biases, BN
parameters and running statistics, so that no layer is the identity:

- a float64 engine gives the reference's probabilities within 1e-12, in
  infer mode and in train mode, and decays its running statistics towards
  the reference's batch statistics;
- a float32 engine gives them within 1e-5.

Tier-1 runs the property with the "default" profile; CI's fuzz step runs it
with the "ci" profile, 2,000 examples:

    python -m pytest tests/test_reference_model.py --hypothesis-profile=ci
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import reference_forward
from ulws.model import (
    CONV_SEPARABLE,
    CONV_STANDARD,
    ModelConfig,
    build_model,
    model_forward,
    named_arrays,
    variant_configs,
)
from ulws.nn import BN_MOMENTUM


def randomized(config: ModelConfig, seed: int, dtype):
    """build_model's params with random biases, BN parameters and running
    statistics, the same values, rounded to `dtype`, for either dtype."""
    params = build_model(config, seed, dtype)
    rng = np.random.default_rng(seed)
    for name, arr in named_arrays(params, trainable_only=False):
        if name.endswith(("bias", "beta", "running_mean")):
            arr[...] = rng.normal(0.0, 0.3, arr.shape)
        elif name.endswith(("gamma", "running_var")):
            arr[...] = rng.uniform(0.5, 2.0, arr.shape)
    return params


def check_against_reference(config: ModelConfig, batch: int, length: int, seed: int) -> None:
    x = np.random.default_rng(seed).normal(size=(batch, config.n_input_channels, length))
    for mode in ("infer", "train"):
        params = randomized(config, seed, np.float64)
        arrays = dict(named_arrays(params, trainable_only=False))
        before = {name: arr.copy() for name, arr in arrays.items() if ".running_" in name}
        want, stats = reference_forward(x, params, mode)
        got, _ = model_forward(x, params, mode)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # train mode decays every BN layer's running statistics towards its batch's
        bn_layers = {name.rsplit(".", 1)[0] for name in before}
        assert set(stats) == (set() if mode == "infer" else bn_layers)
        for layer, (mean, var) in stats.items():
            for stat, batch_stat in (("running_mean", mean), ("running_var", var)):
                name = f"{layer}.{stat}"
                decayed = BN_MOMENTUM * before[name] + (1 - BN_MOMENTUM) * batch_stat
                np.testing.assert_allclose(arrays[name], decayed, rtol=0, atol=1e-12)

        params = randomized(config, seed, np.float32)
        x32 = x.astype(np.float32)
        want, _ = reference_forward(x32, params, mode)
        got, _ = model_forward(x32, params, mode)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


@pytest.mark.parametrize("variant", variant_configs())
def test_every_variant_agrees_with_the_reference(variant):
    config = dataclasses.replace(variant_configs()[variant], dropout_block=0.0, dropout_head=0.0)
    check_against_reference(config, batch=2, length=601, seed=0)


@st.composite
def configs(draw) -> ModelConfig:
    n_blocks = draw(st.integers(1, 3))
    filters = sorted(draw(st.sets(st.integers(1, 8), min_size=n_blocks, max_size=n_blocks)))
    return ModelConfig(
        n_blocks=n_blocks,
        filters=tuple(filters),
        kernel_size=draw(st.integers(1, 31)),
        pool_size=draw(st.integers(1, 8)),
        pool_stride=draw(st.sampled_from([1, 2, 4])),
        conv_type=draw(st.sampled_from([CONV_SEPARABLE, CONV_STANDARD])),
        n_input_channels=draw(st.integers(1, 4)),
        head_hidden=draw(st.integers(1, 8)),
        n_classes=draw(st.integers(2, 5)),
        dropout_block=0.0,
        dropout_head=0.0,
    )


@given(config=configs(), batch=st.integers(2, 3), length=st.integers(0, 100).map(lambda n: 2 * n + 1),
       seed=st.integers(0, 2**32 - 1))
def test_drawn_configs_agree_with_the_reference(config, batch, length, seed):
    check_against_reference(config, batch, length, seed)
