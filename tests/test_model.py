import dataclasses
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_gradient, fd_relative_error
from ulws import nn
from ulws.errors import BadConfig, ChecksumMismatch, ShapeMismatch
from ulws.model import (
    ModelConfig,
    build_model,
    dssc_forward,
    extractor_forward,
    load_checkpoint,
    model_backward,
    model_forward,
    model_loss,
    named_arrays,
    predict,
    save_checkpoint,
    trainable_scalar_count,
    variant_configs,
)

TINY = ModelConfig(
    n_blocks=2, filters=(2, 3), kernel_size=3, n_input_channels=2,
    input_length=32, head_hidden=4, dropout_block=0.0, dropout_head=0.0,
)


def tiny_block(pool_size=2, pool_stride=2, in_channels=1, out_channels=2, seed=0):
    cfg = ModelConfig(
        n_blocks=1, filters=(out_channels,), pool_size=pool_size,
        pool_stride=pool_stride, n_input_channels=in_channels, input_length=16,
    )
    params = build_model(cfg, seed=seed, dtype=np.float64)
    return params.blocks[0]


# --- config validation ---------------------------------------------------------

def test_config_rejects_filter_count_mismatch():
    with pytest.raises(BadConfig):
        ModelConfig(n_blocks=3, filters=(8, 16))


def test_config_rejects_non_increasing_filters():
    with pytest.raises(BadConfig):
        ModelConfig(n_blocks=2, filters=(16, 16))


def test_config_rejects_unknown_keys():
    with pytest.raises(BadConfig):
        ModelConfig.from_dict({"n_blocks": 3, "bogus": 1})


@pytest.mark.parametrize(
    "bad",
    [{"kernel_size": "3"}, {"kernel_size": 3.0}, {"kernel_size": True}, {"filters": 8},
     {"filters": [2.0, 4]}, {"dropout_head": None}, {"dropout_head": float("inf")},
     {"conv_type": 1}, [1, 2], "{}"],
)
def test_config_from_dict_checks_json_types(bad):
    with pytest.raises(BadConfig):
        ModelConfig.from_dict(bad)


def test_config_pool_size_fits_the_int8_argmax():
    with pytest.raises(BadConfig, match="pool_size must be <= 128, got 129"):
        ModelConfig(pool_size=129)
    assert ModelConfig(pool_size=128).pool_size == 128
    # the widest window's last offset, 127, still routes its gradient
    x = np.zeros((1, 1, 128))
    x[0, 0, 127] = 1.0
    _, cache = nn.maxpool1d_forward(x, pool_size=128, stride=128)
    assert cache.argmax[0, 0, 0] == 127
    assert np.array_equal(nn.maxpool1d_backward(cache, np.ones((1, 1, 1))), x)


def test_config_kernel_size_bounds_the_conv_columns():
    with pytest.raises(BadConfig, match="kernel_size must be <= 31, got 32"):
        ModelConfig(kernel_size=32)
    assert ModelConfig(kernel_size=31).kernel_size == 31


def test_config_keeps_an_integer_in_a_float_field():
    d = ModelConfig.from_dict({"dropout_head": 0}).to_dict()
    assert d["dropout_head"] == 0 and type(d["dropout_head"]) is int


def test_config_from_json_names_its_source():
    with pytest.raises(BadConfig, match=r"model\.json: line 1 column 2"):
        ModelConfig.from_json(b"{,}", "model.json")
    with pytest.raises(BadConfig, match=r"model\.json: .* byte 0xff in position 1"):
        ModelConfig.from_json(b"[\xff]", "model.json")
    with pytest.raises(BadConfig, match=r"ModelConfig: unknown config keys"):
        ModelConfig.from_json('{"bogus": 1}', "model.json")


def test_config_round_trips_through_dict():
    cfg = ModelConfig(n_blocks=2, filters=(4, 8), conv_type="standard")
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# --- initialization ---------------------------------------------------------------

def test_build_model_deterministic():
    a = build_model(ModelConfig(), seed=3)
    b = build_model(ModelConfig(), seed=3)
    for (name_a, arr_a), (_, arr_b) in zip(
        named_arrays(a, trainable_only=False), named_arrays(b, trainable_only=False)
    ):
        assert np.array_equal(arr_a, arr_b), name_a


def test_build_model_seed_changes_weights():
    a = build_model(ModelConfig(), seed=3)
    b = build_model(ModelConfig(), seed=4)
    assert not np.array_equal(a.head_hidden.weight, b.head_hidden.weight)


def test_default_model_trainable_count():
    assert trainable_scalar_count(build_model(ModelConfig(), seed=0)) == 13337


def test_bn_initialized_to_identity_stats():
    params = build_model(ModelConfig(), seed=0)
    bn = params.blocks[0].bn1
    assert np.all(bn.gamma == 1) and np.all(bn.beta == 0)
    assert np.all(bn.running_mean == 0) and np.all(bn.running_var == 1)
    assert np.all(params.blocks[0].main_conv1.bias == 0)


# --- dssc block ----------------------------------------------------------------------

def test_dssc_halves_length_twice():
    block = tiny_block()
    x = np.zeros((1, 1, 3000))
    y, _ = dssc_forward(x, block, "infer")
    assert y.shape == (1, 2, 750)


def test_dssc_zeroed_main_stream_equals_shortcut():
    block = tiny_block(seed=5)
    for bn in (block.bn1, block.bn2):
        bn.gamma[...] = 0.0
        bn.beta[...] = 0.0
    x = np.random.default_rng(0).standard_normal((2, 1, 40))
    y, _ = dssc_forward(x, block, "infer")
    s, _ = nn.conv1d_forward(x, block.shortcut_conv1)
    s, _ = nn.conv1d_forward(s, block.shortcut_conv2)
    assert np.array_equal(y, s)


@pytest.mark.parametrize("conv_type", ["separable", "standard"])
@pytest.mark.parametrize("pool_stride", [1, 2, 4])
def test_shortcut_skips_the_outputs_its_second_conv_would_not_read(pool_stride, conv_type):
    """shortcut_conv1 takes both strides, so shortcut_conv2 (width 1) reads all
    it computes; an infer-mode block is bit-identical to two pool_stride strides."""
    cfg = ModelConfig(n_blocks=2, filters=(3, 5), pool_stride=pool_stride, conv_type=conv_type,
                      n_input_channels=1, input_length=61)
    rng = np.random.default_rng(pool_stride)
    for i, block in enumerate(build_model(cfg, seed=1).blocks):
        assert (block.shortcut_conv1.stride, block.shortcut_conv2.stride) == (pool_stride**2, 1)
        for conv in (block.shortcut_conv1, block.shortcut_conv2):
            conv.bias[...] = rng.standard_normal(conv.bias.shape)
        two_strides = dataclasses.replace(
            block,
            shortcut_conv1=dataclasses.replace(block.shortcut_conv1, stride=pool_stride),
            shortcut_conv2=dataclasses.replace(block.shortcut_conv2, stride=pool_stride),
        )
        x = rng.standard_normal((3, (1, 3)[i], 61)).astype(np.float32)
        y, _ = dssc_forward(x, block, "infer")
        assert y.tobytes() == dssc_forward(x, two_strides, "infer")[0].tobytes()


def test_dssc_odd_lengths_agree():
    block = tiny_block()
    y, _ = dssc_forward(np.zeros((1, 1, 5)), block, "infer")
    assert y.shape[2] == 2  # ceil(ceil(5/2)/2)


@settings(max_examples=120, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=100),
    pool_stride=st.sampled_from([2, 4]),
    pool_size=st.sampled_from([2, 4]),
)
def test_dssc_stream_lengths_agree_property(length, pool_stride, pool_size):
    block = tiny_block(pool_size=pool_size, pool_stride=pool_stride)
    y, _ = dssc_forward(np.zeros((1, 1, length)), block, "infer")
    expected = nn.ceil_div(nn.ceil_div(length, pool_stride), pool_stride)
    assert y.shape == (1, 2, expected)


# --- extractor -------------------------------------------------------------------------

def test_extractor_shared_parameters_identical_channels():
    params = build_model(ModelConfig(), seed=1)
    x = np.random.default_rng(2).standard_normal((3, 1, 3000)).astype(np.float32)
    f1, _ = extractor_forward(x, params, "infer")
    f2, _ = extractor_forward(x.copy(), params, "infer")
    assert np.array_equal(f1, f2)
    assert f1.shape == (3, 32)  # width F_n


def test_extractor_prepool_length_is_47():
    params = build_model(ModelConfig(), seed=1)
    x = np.zeros((1, 1, 3000), dtype=np.float32)
    _, cache = extractor_forward(x, params, "infer")
    assert cache.gap_length == 47  # 3000 -> 1500,750,375,188,94,47


def test_extractor_storage_invariant_in_channels():
    few = build_model(ModelConfig(n_input_channels=1), seed=0)
    many = build_model(ModelConfig(n_input_channels=8), seed=0)

    def extractor_size(params):
        return sum(
            arr.size
            for name, arr in named_arrays(params, trainable_only=False)
            if name.startswith("blocks.")
        )

    assert extractor_size(few) == extractor_size(many)
    assert many.head_hidden.weight.shape[0] == 8 * 32
    assert few.head_hidden.weight.shape[0] == 1 * 32


# --- full model --------------------------------------------------------------------------

def test_model_probability_rows_sum_to_one():
    params = build_model(ModelConfig(), seed=2)
    x = np.random.default_rng(3).standard_normal((4, 4, 3000)).astype(np.float32)
    probs, _ = model_forward(x, params, "infer")
    assert probs.shape == (4, 5)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6


def test_model_concat_width_128():
    params = build_model(ModelConfig(), seed=2)
    assert params.head_hidden.weight.shape == (128, 64)


def test_model_channel_permutation_symmetry():
    params = build_model(TINY, seed=4, dtype=np.float64)
    x = np.random.default_rng(5).standard_normal((3, 2, 32))
    probs, _ = model_forward(x, params, "infer")

    # swap the two input channels AND the matching blocks of head rows
    f_n = TINY.filters[-1]
    w = params.head_hidden.weight
    w[...] = np.concatenate([w[f_n:], w[:f_n]], axis=0)
    probs_swapped, _ = model_forward(x[:, ::-1, :].copy(), params, "infer")
    assert np.allclose(probs, probs_swapped, atol=1e-12)


def test_model_rejects_wrong_channel_count():
    params = build_model(TINY, seed=0)
    with pytest.raises(ShapeMismatch):
        model_forward(np.zeros((1, 3, 32), dtype=np.float32), params, "infer")


def test_model_infer_is_pure():
    params = build_model(TINY, seed=0)
    x = np.random.default_rng(1).standard_normal((2, 2, 32)).astype(np.float32)
    p1, _ = model_forward(x, params, "infer")
    p2, _ = model_forward(x, params, "infer")
    assert np.array_equal(p1, p2)


# --- gradients ------------------------------------------------------------------------------

@pytest.mark.parametrize("conv_type", ["separable", "standard"])
def test_full_model_gradient_check(conv_type):
    params = build_model(dataclasses.replace(TINY, conv_type=conv_type), seed=1, dtype=np.float64)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 2, 32))
    y = np.array([0, 3])

    def loss():
        _, cache = model_forward(x, params, mode="train")
        return model_loss(cache, y)

    _, cache = model_forward(x, params, mode="train")
    grads = model_backward(cache, y)
    assert set(grads) == {name for name, _ in named_arrays(params)}
    worst = 0.0
    for name, arr in named_arrays(params):
        err = fd_relative_error(grads[name], fd_gradient(loss, arr))
        worst = max(worst, err)
    assert worst < 1e-4, f"worst relative error {worst:.3e}"


@pytest.mark.parametrize("conv_type", ["separable", "standard"])
def test_backward_computes_no_gradient_for_the_model_input(conv_type, monkeypatch):
    """Block 0's input convs skip their input gradient, which nothing reads, and
    every parameter gradient stays bit for bit what it is when they compute it."""
    from ulws import model
    from ulws.model import extractor_backward

    params = build_model(dataclasses.replace(TINY, conv_type=conv_type), seed=4)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 2, 32)).astype(np.float32)
    y = np.array([0, 2, 4])
    names = {id(getattr(blk, f)): f"blocks.{i}.{f}" for i, blk in enumerate(params.blocks)
             for f in ("main_conv1", "main_conv2", "shortcut_conv1", "shortcut_conv2")}
    calls = {}
    conv1d_backward = nn.conv1d_backward

    def recording(cache, grad_out, input_grad=True):
        calls[names[id(cache.params)]] = input_grad
        return conv1d_backward(cache, grad_out, input_grad=input_grad)

    monkeypatch.setattr(nn, "conv1d_backward", recording)
    _, cache = model_forward(x, params, mode="train")
    grads = model_backward(cache, y)
    assert set(calls) == set(names.values())
    assert {name for name, wanted in calls.items() if not wanted} == {
        "blocks.0.main_conv1", "blocks.0.shortcut_conv1"}
    feats_grad = rng.standard_normal((6, TINY.filters[-1])).astype(np.float32)
    _, cache = model_forward(x, params, mode="train")  # a backward consumes its cache
    assert extractor_backward(cache.extractor, feats_grad, {}) is None

    dssc_backward = model.dssc_backward

    def with_input_grad(*args, **kwargs):
        return dssc_backward(*args, **dict(kwargs, input_grad=True))

    monkeypatch.setattr(model, "dssc_backward", with_input_grad)
    calls.clear()
    _, cache = model_forward(x, params, mode="train")
    reference = model_backward(cache, y)
    assert all(calls.values())
    assert set(reference) == set(grads)
    for name, g in grads.items():
        assert np.array_equal(g, reference[name]), name


def test_backward_frees_each_layer_cache_it_has_used():
    """model_backward pops every block cache and dropout mask off the extractor's
    cache and empties each block cache's fields as it goes."""
    params = build_model(dataclasses.replace(TINY, dropout_block=0.2), seed=4)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 2, 32)).astype(np.float32)
    _, cache = model_forward(x, params, mode="train", rng=rng)
    blocks = list(cache.extractor.blocks)
    assert all(mask is not None for mask in cache.extractor.dropout_masks)
    model_backward(cache, np.array([0, 2, 4]))
    assert cache.extractor.blocks == [] and cache.extractor.dropout_masks == []
    for blk in blocks:
        assert all(getattr(blk, f.name) is None for f in dataclasses.fields(blk))


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_backward_refuses_a_used_or_infer_mode_cache(mode, monkeypatch):
    """A second backward on one cache, or a backward on an infer-mode cache, raises
    ValueError before any gradient is computed: a raise, so python -O keeps it."""
    from ulws.model import extractor_backward

    params = build_model(TINY, seed=4)
    x = np.random.default_rng(9).standard_normal((3, 2, 32)).astype(np.float32)
    y = np.array([0, 2, 4])
    _, cache = model_forward(x, params, mode=mode)
    if mode == "train":
        model_backward(cache, y)

    def unreachable(*args, **kwargs):
        pytest.fail("a gradient was computed from a refused cache")

    for kernel in ("softmax_xent_backward", "global_avg_pool_backward", "relu_backward"):
        monkeypatch.setattr(nn, kernel, unreachable)
    refused = "needs the cache of a train-mode forward pass, and each cache serves one"
    with pytest.raises(ValueError, match=refused):
        model_backward(cache, y)
    grads = {}
    with pytest.raises(ValueError, match=refused):
        extractor_backward(cache.extractor, np.ones((6, TINY.filters[-1]), np.float32), grads)
    assert grads == {}


def test_degenerate_forward_head_bias_gradient():
    # zero input and gamma=0 kill everything before the head: logits reduce
    # to head biases, so the head_out bias gradient is (softmax - onehot)/B
    params = build_model(TINY, seed=2, dtype=np.float64)
    for blk in params.blocks:
        blk.bn1.gamma[...] = 0.0
        blk.bn2.gamma[...] = 0.0
        for conv in (blk.shortcut_conv1, blk.shortcut_conv2):
            conv.depthwise[...] = 0.0
            conv.pointwise[...] = 0.0
            conv.bias[...] = 0.0
    x = np.zeros((2, 2, 32))
    y = np.array([1, 4])
    probs, cache = model_forward(x, params, mode="train")
    grads = model_backward(cache, y)
    onehot = np.zeros((2, 5))
    onehot[np.arange(2), y] = 1.0
    assert np.allclose(grads["head_out.bias"], (probs - onehot).mean(axis=0), atol=1e-12)


def test_channel_duplication_doubles_extractor_gradient():
    # adjoint of sharing: a second identical channel receiving the same
    # upstream feature gradient doubles every extractor parameter gradient
    # (repeating every row leaves the batch mean and variance unchanged)
    from ulws.model import extractor_backward

    params = build_model(TINY, seed=3, dtype=np.float64)
    rng = np.random.default_rng(8)
    x1 = rng.standard_normal((2, 1, 32))
    g1 = rng.standard_normal((2, TINY.filters[-1]))

    grads1: dict = {}
    _, cache1 = extractor_forward(x1, params, mode="train")
    extractor_backward(cache1, g1, grads1)

    grads2: dict = {}
    _, cache2 = extractor_forward(np.concatenate([x1, x1]), params, mode="train")
    extractor_backward(cache2, np.concatenate([g1, g1]), grads2)

    for name, g in grads1.items():
        assert np.allclose(grads2[name], 2.0 * g, atol=1e-10), name


# --- checkpoints -------------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    params = build_model(TINY, seed=5)
    rng = np.random.default_rng(0)
    for _, arr in named_arrays(params, trainable_only=False):
        arr[...] = rng.standard_normal(arr.shape).astype(np.float32)
    path = tmp_path / "model.ulwm"
    save_checkpoint(params, path)
    again = load_checkpoint(path)
    assert again.config == params.config
    for (name, a), (_, b) in zip(
        named_arrays(params, trainable_only=False),
        named_arrays(again, trainable_only=False),
    ):
        assert np.array_equal(a, b), name


def test_checkpoint_corruption_detected(tmp_path):
    params = build_model(TINY, seed=5)
    path = tmp_path / "model.ulwm"
    save_checkpoint(params, path)
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        load_checkpoint(path)


# CRC-32 of each study variant's checkpoint file, built with seed 0
CHECKPOINT_CRC32 = {
    "default": 0xbf807dfe,
    "blocks2": 0x55b2a7fe,
    "blocks4": 0x9364d583,
    "ks7_ps4": 0x2cab08b3,
    "filters_4_8_16": 0x83b1b7e6,
    "filters_16_32_64": 0x17d4d188,
    "filters_16_32_64_128": 0xfa218d92,
    "standard_conv": 0xbb967725,
}


@pytest.mark.parametrize("variant", list(CHECKPOINT_CRC32))
def test_checkpoint_bytes_are_pinned(tmp_path, variant):
    """A change of leaf order, initialisation or layout changes these bytes."""
    path = tmp_path / "model.ulwm"
    save_checkpoint(build_model(variant_configs()[variant], seed=0), path)
    assert zlib.crc32(path.read_bytes()) == CHECKPOINT_CRC32[variant]


def test_predict_does_not_depend_on_the_batch_size():
    params = build_model(ModelConfig(), seed=6)
    x = np.random.default_rng(9).standard_normal((44, 4, 3000)).astype(np.float32)
    _, probs = predict(params, x)  # 44 epochs leave a short last batch at 8 and 32
    # one-row batches too: the head scores a multiple of 8 rows, never a matrix-vector product
    for batch_size in (1, 3, 32, 256):
        assert np.array_equal(predict(params, x, batch_size)[1], probs), batch_size
    # nor on where the batches end: sets of every size, at offsets off the batch grid
    for n in range(1, 17):
        assert np.array_equal(predict(params, x[n : 2 * n])[1], probs[n : 2 * n]), n


def test_model_infer_keeps_no_backward_state():
    params = build_model(ModelConfig(), seed=0)
    x = np.random.default_rng(1).standard_normal((2, 4, 3000)).astype(np.float32)
    _, cache = model_forward(x, params, "infer")
    blocks = cache.extractor.blocks
    assert len(blocks) == 3
    for blk in blocks:
        assert blk.bn1 is None and blk.bn2 is None
        assert blk.pool1.argmax is None and blk.pool2.argmax is None
    _, cache = model_forward(x, params, "train", rng=np.random.default_rng(2))
    assert all(blk.pool1.argmax is not None for blk in cache.extractor.blocks)


def test_predict_scores_the_rows_it_is_given():
    """predict(x, rows=idx) scores x[idx] bit for bit, in any order and with repeats."""
    params = build_model(TINY, seed=6)
    x = np.random.default_rng(9).standard_normal((20, 2, 32)).astype(np.float32)
    rows = np.array([19, 3, 3, 0, 7, 12, 5, 11, 2, 18, 1])
    for batch_size in (1, 3, 8):
        labels, probs = predict(params, x, batch_size, rows=rows)
        want_labels, want_probs = predict(params, x[rows], batch_size)
        assert np.array_equal(probs, want_probs) and np.array_equal(labels, want_labels)
    assert predict(params, x, rows=rows[:0])[1].shape == (0, TINY.n_classes)


def test_predict_batches_match_single_pass():
    params = build_model(TINY, seed=6)
    x = np.random.default_rng(9).standard_normal((7, 2, 32)).astype(np.float32)
    labels_batched, probs_batched = predict(params, x, batch_size=3)
    probs_once, _ = model_forward(x, params, "infer")
    assert np.allclose(probs_batched, probs_once, atol=1e-7)
    assert np.array_equal(labels_batched, probs_once.argmax(axis=1))


# --- study variants ------------------------------------------------------------------------------

def test_variant_configs_are_valid():
    variants = variant_configs()
    assert len(variants) == 8
    assert variants["standard_conv"].conv_type == "standard"
    assert variants["ks7_ps4"].kernel_size == 7
    assert variants["ks7_ps4"].pool_size == 4
