import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    broadcast_batchnorm,
    fd_gradient,
    fd_relative_error,
    one_gemm_conv,
    relu_then_maxpool,
)
from ulws import nn
from ulws.errors import DegenerateBatch, ShapeMismatch

F64 = np.float64


def sep_params(depthwise, pointwise, bias=None, stride=1):
    dw = np.asarray(depthwise, dtype=F64)
    pw = np.asarray(pointwise, dtype=F64)
    b = np.zeros(pw.shape[1], F64) if bias is None else np.asarray(bias, F64)
    return nn.SepConvParams(dw, pw, b, stride)


# --- separable convolution ---------------------------------------------------

def test_sepconv_identity_configuration():
    x = np.arange(24, dtype=F64).reshape(1, 2, 12)
    p = sep_params([[0, 0], [1, 1], [0, 0]], np.eye(2))
    y, _ = nn.conv1d_forward(x, p)
    assert np.array_equal(y, x)


def test_sepconv_hand_convolution():
    x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
    p = sep_params([[1.0], [1.0], [1.0]], [[2.0]])
    y, _ = nn.conv1d_forward(x, p)
    # depthwise SAME conv gives [3, 6, 9, 7]; pointwise doubles it
    assert np.allclose(y, [[[6.0, 12.0, 18.0, 14.0]]])


def test_sepconv_strided_output_length():
    x = np.zeros((1, 1, 5))
    p = sep_params([[1.0], [1.0], [1.0]], [[1.0]], stride=2)
    y, _ = nn.conv1d_forward(x, p)
    assert y.shape == (1, 1, 3)  # ceil(5 / 2)


def test_sepconv_channel_mismatch():
    x = np.zeros((1, 3, 5))
    with pytest.raises(ShapeMismatch):
        nn.conv1d_forward(x, sep_params([[1.0], [1.0], [1.0]], [[1.0]]))


def test_sepconv_backward_zero_grad():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 8))
    p = sep_params(rng.standard_normal((3, 3)), rng.standard_normal((3, 4)),
                   rng.standard_normal(4))
    y, cache = nn.conv1d_forward(x, p)
    gx, gdw, gpw, gb = nn.conv1d_backward(cache, np.zeros_like(y))
    assert not gx.any() and not gdw.any() and not gpw.any() and not gb.any()


def test_sepconv_identity_adjoint():
    x = np.arange(10, dtype=F64).reshape(1, 1, 10)
    p = sep_params([[0.0], [1.0], [0.0]], [[1.0]])
    y, cache = nn.conv1d_forward(x, p)
    g = np.arange(10, dtype=F64).reshape(1, 1, 10) + 5
    gx, _, _, _ = nn.conv1d_backward(cache, g)
    assert np.array_equal(gx, g)


@pytest.mark.parametrize("stride,k,m,n,length", [(1, 3, 2, 4, 9), (2, 3, 3, 2, 11),
                                                 (1, 1, 2, 3, 7), (4, 5, 1, 2, 13)])
def test_sepconv_gradients_match_finite_differences(stride, k, m, n, length):
    rng = np.random.default_rng(42)
    x = rng.standard_normal((2, m, length))
    p = sep_params(rng.standard_normal((k, m)), rng.standard_normal((m, n)),
                   rng.standard_normal(n), stride)
    g_out = rng.standard_normal(nn.conv1d_forward(x, p)[0].shape)

    def loss():
        y, _ = nn.conv1d_forward(x, p)
        return float((y * g_out).sum())

    _, cache = nn.conv1d_forward(x, p)
    gx, gdw, gpw, gb = nn.conv1d_backward(cache, g_out)
    for analytic, arr in [(gx, x), (gdw, p.depthwise), (gpw, p.pointwise), (gb, p.bias)]:
        assert fd_relative_error(analytic, fd_gradient(loss, arr)) < 1e-5


# --- standard convolution -------------------------------------------------------

def test_conv_k1_equals_pointwise_sepconv():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 6))
    pw = rng.standard_normal((3, 4))
    bias = rng.standard_normal(4)
    y_std, _ = nn.conv1d_forward(x, nn.ConvParams(pw[None, :, :].copy(), bias.copy(), 1))
    y_sep, _ = nn.conv1d_forward(x, sep_params(np.ones((1, 3)), pw, bias))
    assert np.allclose(y_std, y_sep, atol=1e-12)


def test_sepconv_k1_is_diagonally_prescaled_standard_conv():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 3, 6))
    diag = rng.standard_normal(3)
    pw = rng.standard_normal((3, 4))
    bias = rng.standard_normal(4)
    y_sep, _ = nn.conv1d_forward(x, sep_params(diag[None, :], pw, bias))
    folded = (diag[:, None] * pw)[None, :, :]  # K=1 standard kernel
    y_std, _ = nn.conv1d_forward(x, nn.ConvParams(folded, bias.copy(), 1))
    assert np.allclose(y_sep, y_std, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("stride", [1, 2, 4])
@pytest.mark.parametrize("kernel", [1, 3, 7])
def test_sepconv_is_the_standard_conv_of_its_taps(kernel, stride, dtype):
    """conv1d_forward and conv1d_backward give a separable conv the output and
    input gradient of the standard conv whose kernel is its taps, bit for bit."""
    rng = np.random.default_rng(10 * kernel + stride)

    def draw(*shape):
        return rng.standard_normal(shape).astype(dtype)

    for m, n, length in [(1, 1, 5), (3, 16, 31), (16, 5, 64), (16, 16, 47)]:
        x = draw(3, m, length)
        sep = nn.SepConvParams(draw(kernel, m), draw(m, n), draw(n), stride)
        std = nn.ConvParams(sep.taps(), sep.bias, sep.stride)
        y_sep, sep_cache = nn.conv1d_forward(x, sep)
        y_std, std_cache = nn.conv1d_forward(x, std)
        assert y_sep.dtype == dtype and np.array_equal(y_sep, y_std)
        g = draw(*y_sep.shape)
        gx_sep, *sep_grads = nn.conv1d_backward(sep_cache, g)
        gx_std, *std_grads = nn.conv1d_backward(std_cache, g)
        assert np.array_equal(gx_sep, gx_std)
        assert np.array_equal(sep_grads[-1], std_grads[-1])  # the bias
        for params, grads in [(sep, sep_grads), (std, std_grads)]:
            assert [g.shape for g in grads] == [a.shape for _, a in params.leaves()]


def test_conv_hand_values():
    x = np.array([[[1.0, 2.0, 3.0]]])
    kernel = np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1)
    y, _ = nn.conv1d_forward(x, nn.ConvParams(kernel, np.zeros(1), 1))
    assert np.allclose(y, [[[-2.0, -2.0, 2.0]]])


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 2, 10))
    p = nn.ConvParams(rng.standard_normal((3, 2, 4)), rng.standard_normal(4), 2)
    g_out = rng.standard_normal(nn.conv1d_forward(x, p)[0].shape)

    def loss():
        y, _ = nn.conv1d_forward(x, p)
        return float((y * g_out).sum())

    _, cache = nn.conv1d_forward(x, p)
    gx, gk, gb = nn.conv1d_backward(cache, g_out)
    for analytic, arr in [(gx, x), (gk, p.kernel), (gb, p.bias)]:
        assert fd_relative_error(analytic, fd_gradient(loss, arr)) < 1e-5


@settings(max_examples=60)
@given(
    length=st.integers(min_value=1, max_value=64),
    stride=st.sampled_from([1, 2, 4]),
    kernel=st.sampled_from([1, 3, 7]),
)
def test_same_stride_arithmetic(length, stride, kernel):
    x = np.zeros((1, 1, length))
    y_conv, _ = nn.conv1d_forward(x, nn.ConvParams(np.zeros((kernel, 1, 1)), np.zeros(1), stride))
    assert y_conv.shape[2] == nn.ceil_div(length, stride)
    y_pool, _ = nn.maxpool1d_forward(x, pool_size=2, stride=stride)
    assert y_pool.shape[2] == nn.ceil_div(length, stride)


def padded_windows(x, kernel, stride, pad_left, pad_right, fill=0.0):
    """Reference: window t of every output, read from an explicitly padded copy."""
    out_length = nn.ceil_div(x.shape[2], stride)
    xp = np.pad(x, ((0, 0), (0, 0), (pad_left, pad_right)), constant_values=fill)
    return [xp[:, :, t : t + (out_length - 1) * stride + 1 : stride] for t in range(kernel)]


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=24),
    stride=st.sampled_from([1, 2, 4]),
    kernel=st.integers(min_value=1, max_value=31),  # up to the config bound, past the input
    m=st.sampled_from([1, 3]),
    dtype=st.sampled_from([np.float32, F64]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_windowed_kernels_match_padded_reference(length, stride, kernel, m, dtype, seed):
    """Both convolutions equal depthwise-then-pointwise (or tap-by-tap) sums over
    an explicitly padded float64 copy, to 1e-5 relative from float32 inputs;
    backward is the adjoint of the map's linear part."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape).astype(dtype)

    x = draw(2, m, length)
    out_length = nn.ceil_div(length, stride)
    total = max((out_length - 1) * stride + kernel - length, 0)
    windows = padded_windows(x.astype(F64), kernel, stride, total // 2, total - total // 2)

    sep = nn.SepConvParams(draw(kernel, m), draw(m, 2), draw(2), stride)
    dw = sum(sep.depthwise[t].astype(F64)[None, :, None] * w for t, w in enumerate(windows))
    std = nn.ConvParams(draw(kernel, m, 2), draw(2), stride)
    cases = [
        (nn.conv1d_forward(x, sep), nn.conv1d_backward, sep.bias,
         np.einsum("mn,bml->bnl", sep.pointwise.astype(F64), dw)),
        (nn.conv1d_forward(x, std), nn.conv1d_backward, std.bias,
         sum(np.einsum("mn,bml->bnl", std.kernel[t].astype(F64), w)
             for t, w in enumerate(windows))),
    ]
    pool = min(kernel, 4)
    pool_windows = padded_windows(x, pool, stride, 0, max(0, (out_length - 1) * stride + pool - length),
                                  fill=-np.inf)
    cases.append((nn.maxpool1d_forward(x, pool, stride), nn.maxpool1d_backward, np.zeros(m, dtype),
                  np.max(pool_windows, axis=0)))
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for (y, cache), backward, bias, reference in cases:
        reference = reference + bias[:, None]
        assert y.dtype == dtype
        np.testing.assert_allclose(y, reference, rtol=tol, atol=tol * np.abs(reference).max())
        g = draw(*y.shape)
        gx = backward(cache, g)
        gx = gx[0] if isinstance(gx, tuple) else gx
        # the maps less their biases are linear in x here (pooling selects); taking
        # the bias back off y rounds in proportion to both
        inner = (y - bias[:, None]).astype(F64) * g
        scale = ((np.abs(y) + np.abs(bias[:, None])) * np.abs(g)).sum(dtype=F64)
        assert inner.sum() == pytest.approx((x.astype(F64) * gx).sum(), abs=tol * scale)


THREAD_PROBE = """
import hashlib
import numpy as np
from ulws import nn

rng = np.random.default_rng(0)
digest = hashlib.sha256()

def draw(*shape):
    return rng.standard_normal(shape).astype(np.float32)

# deep products: the weight gradient sums 1500 samples, the forward 15 * 32 + 1
# taps, the columns' gradient 480 output channels
for m, n, length, kernel in [(8, 8, 1500, 3), (32, 32, 94, 15), (4, 480, 200, 3)]:
    x = draw(16, m, length)
    for forward, backward, p in [
        (nn.conv1d_forward, nn.conv1d_backward,
         nn.SepConvParams(draw(kernel, m), draw(m, n), draw(n))),
        (nn.conv1d_forward, nn.conv1d_backward, nn.ConvParams(draw(kernel, m, n), draw(n))),
    ]:
        y, cache = forward(x, p)
        for a in (y, *backward(cache, draw(*y.shape))):
            digest.update(a.tobytes())
print(digest.hexdigest())
"""


def test_conv_rounding_does_not_depend_on_the_blas_thread_count():
    """Every conv product is at most GEMM_DEPTH deep, so OpenBLAS sums it the
    same way on 1 and on 2 threads (with 1 CPU both runs are single-threaded)."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        digests.append(run.stdout)
    assert digests[0] == digests[1]


# (B, M, N, K, length, stride): 3 samples to a chunk with a short last one; one
# sample to a chunk; products deeper than GEMM_DEPTH in the weight gradient and,
# in the last, in the forward too
CHUNKED_SHAPES = [(7, 8, 6, 3, 3000, 1), (4, 8, 5, 31, 1200, 2), (3, 16, 4, 31, 600, 2)]


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("conv_type", ["separable", "standard"])
@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("shape", CHUNKED_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_chunked_conv_equals_one_gemm_over_the_batch(shape, dtype, conv_type, input_grad):
    """Columns built a few samples at a time give the one-GEMM results bit for bit;
    without input_grad there is no grad_x, and the leaves' gradients are the same."""
    b, m, n, k, length, stride = shape
    sample_bytes = (k * m + 1) * nn.ceil_div(length, stride) * np.dtype(dtype).itemsize
    assert nn.ceil_div(b, max(1, nn.COLUMNS_BYTES // sample_bytes)) >= 3  # chunks
    rng = np.random.default_rng(b * k)

    def draw(*shape):
        return rng.standard_normal(shape).astype(dtype)

    x = draw(b, m, length)
    if conv_type == "separable":
        p = nn.SepConvParams(draw(k, m), draw(m, n), draw(n), stride)
        taps = p.depthwise[:, :, None] * p.pointwise
        forward, backward = nn.conv1d_forward, nn.conv1d_backward
    else:
        p = nn.ConvParams(draw(k, m, n), draw(n), stride)
        taps = p.kernel
        forward, backward = nn.conv1d_forward, nn.conv1d_backward
    y, cache = forward(x, p)
    g = draw(*y.shape)
    ref_y, ref_grad_x, ref_grad_weight = one_gemm_conv(x, taps, p.bias, stride, g, nn.GEMM_DEPTH)
    grads = backward(cache, g) if input_grad else backward(cache, g, input_grad=False)
    assert np.array_equal(y, ref_y) and y.dtype == dtype
    if input_grad:
        assert np.array_equal(grads[0], ref_grad_x)
    else:
        assert grads[0] is None
        assert all(np.array_equal(a, b) for a, b in zip(grads[1:], backward(cache, g)[1:],
                                                         strict=True))
    assert np.array_equal(grads[-1], ref_grad_weight[-1])
    ref_grad_taps = ref_grad_weight[:-1].reshape(taps.shape)
    if conv_type == "separable":
        assert np.array_equal(grads[1], (ref_grad_taps * p.pointwise).sum(axis=2))
        assert np.array_equal(grads[2], (ref_grad_taps * p.depthwise[:, :, None]).sum(axis=0))
    else:
        assert np.array_equal(grads[1], ref_grad_taps)


# --- batch norm ---------------------------------------------------------------------

def bn_params(n, dtype=F64):
    return nn.BatchNormParams(
        gamma=np.ones(n, dtype), beta=np.zeros(n, dtype),
        running_mean=np.zeros(n, dtype), running_var=np.ones(n, dtype),
    )


def test_batchnorm_train_normalizes():
    rng = np.random.default_rng(3)
    x = 3.0 + 2.0 * rng.standard_normal((4, 3, 50))
    y, _ = nn.batchnorm_forward(x, bn_params(3), "train")
    assert np.abs(y.mean(axis=(0, 2))).max() < 1e-5
    assert np.abs(y.var(axis=(0, 2)) - 1.0).max() < 1e-3  # epsilon-limited


def test_batchnorm_infer_fresh_stats_is_identity_up_to_epsilon():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 10))
    y, _ = nn.batchnorm_forward(x, bn_params(3), "infer")
    assert np.allclose(y, x / np.sqrt(1 + 1e-3), atol=1e-12)


def test_batchnorm_gamma_zero_gives_beta():
    p = bn_params(2)
    p.gamma[...] = 0.0
    p.beta[...] = np.array([1.5, -2.0])
    x = np.random.default_rng(5).standard_normal((3, 2, 7))
    y, _ = nn.batchnorm_forward(x, p, "train")
    assert np.allclose(y, np.array([1.5, -2.0])[None, :, None] * np.ones_like(x))


def test_batchnorm_degenerate_batch():
    with pytest.raises(DegenerateBatch):
        nn.batchnorm_forward(np.zeros((1, 2, 1)), bn_params(2), "train")


def test_batchnorm_running_stats_update():
    p = bn_params(1)
    x = np.full((2, 1, 5), 6.0)
    x[0] = 2.0  # batch mean 4, batch variance 4
    nn.batchnorm_forward(x, p, "train")
    decay = nn.BN_MOMENTUM
    assert p.running_mean[0] == pytest.approx(decay * 0.0 + (1 - decay) * 4.0)
    assert p.running_var[0] == pytest.approx(decay * 1.0 + (1 - decay) * 4.0)


def test_batchnorm_backward_constant_grad_annihilated():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 2, 20))
    _, cache = nn.batchnorm_forward(x, bn_params(2), "train")
    gx, _, gbeta = nn.batchnorm_backward(cache, np.ones_like(x))
    assert np.abs(gx.sum(axis=(0, 2))).max() < 1e-4  # mean-removal adjoint
    assert np.allclose(gbeta, 60.0)  # per-channel sum of grad_out, exactly


def test_batchnorm_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 6))
    p = bn_params(3)
    p.gamma[...] = rng.standard_normal(3)
    p.beta[...] = rng.standard_normal(3)
    g_out = rng.standard_normal(x.shape)

    def loss():
        y, _ = nn.batchnorm_forward(x, p, "train")
        return float((y * g_out).sum())

    _, cache = nn.batchnorm_forward(x, p, "train")
    gx, ggamma, gbeta = nn.batchnorm_backward(cache, g_out)
    for analytic, arr in [(gx, x), (ggamma, p.gamma), (gbeta, p.beta)]:
        assert fd_relative_error(analytic, fd_gradient(loss, arr)) < 1e-5


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("channels", [1, 8, 32])
def test_batchnorm_train_equals_broadcast_oracle(channels, dtype):
    """Train mode, a channel at a time, is bit-equal to (C, 1) broadcasts: the
    output, all three gradients and the decayed running statistics."""
    rng = np.random.default_rng(channels)
    x = (1.5 + 2.0 * rng.standard_normal((6, channels, 301))).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    p = nn.BatchNormParams(*(rng.standard_normal(channels).astype(dtype) for _ in range(3)),
                           running_var=rng.uniform(0.5, 2.0, channels).astype(dtype))
    reference = broadcast_batchnorm(x, p.gamma, p.beta, p.running_mean, p.running_var, g,
                                    nn.BN_EPSILON, nn.BN_MOMENTUM)
    y, cache = nn.batchnorm_forward(x, p, "train")
    got = (y, *nn.batchnorm_backward(cache, g), p.running_mean, p.running_var)
    for name, a, b in zip(["y", "grad_x", "grad_gamma", "grad_beta", "running_mean",
                           "running_var"], got, reference, strict=True):
        assert a.dtype == b.dtype == dtype and np.array_equal(a, b), name


def test_batchnorm_infer_keeps_no_state():
    x = np.random.default_rng(8).standard_normal((2, 2, 5))
    assert nn.batchnorm_forward(x, bn_params(2), "infer")[1] is None


# --- relu / maxpool / gap / dense ------------------------------------------------------

def test_relu_examples():
    x = np.array([[[-1.0, 0.0, 2.0]]])
    y, mask = nn.relu_forward(x)
    assert np.array_equal(y, [[[0.0, 0.0, 2.0]]])
    assert np.array_equal(nn.relu_backward(mask, np.ones_like(x)), [[[0.0, 0.0, 1.0]]])


def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 2, 6))
    x[np.abs(x) < 0.1] = 0.5  # stay clear of the kink
    g_out = rng.standard_normal(x.shape)

    def loss():
        y, _ = nn.relu_forward(x)
        return float((y * g_out).sum())

    _, mask = nn.relu_forward(x)
    assert fd_relative_error(nn.relu_backward(mask, g_out), fd_gradient(loss, x)) < 1e-6


def test_maxpool_examples():
    y, _ = nn.maxpool1d_forward(np.array([[[1.0, 3.0, 2.0, 0.0]]]))
    assert np.array_equal(y, [[[3.0, 2.0]]])
    y, _ = nn.maxpool1d_forward(np.array([[[5.0, 1.0, 2.0, 2.0, 9.0]]]))
    assert np.array_equal(y, [[[5.0, 2.0, 9.0]]])  # right pad is -inf, never wins


def test_maxpool_all_negative_window():
    y, _ = nn.maxpool1d_forward(np.array([[[-5.0, -3.0, -2.0]]]))
    assert np.array_equal(y, [[[-3.0, -2.0]]])


def test_maxpool_backward_routes_to_argmax():
    x = np.array([[[1.0, 3.0, 2.0, 0.0]]])
    _, cache = nn.maxpool1d_forward(x)
    gx = nn.maxpool1d_backward(cache, np.array([[[1.0, 1.0]]]))
    assert np.array_equal(gx, [[[0.0, 1.0, 1.0, 0.0]]])


def test_maxpool_tie_goes_to_first():
    x = np.array([[[2.0, 2.0]]])
    _, cache = nn.maxpool1d_forward(x)
    gx = nn.maxpool1d_backward(cache, np.array([[[1.0]]]))
    assert np.array_equal(gx, [[[1.0, 0.0]]])


def test_maxpool_overlapping_windows_accumulate():
    # pool window 4, stride 2: a sample shared by two windows can win both,
    # so its gradient must accumulate
    x = np.array([[[0.0, 1.0, 9.0, 0.0, 0.0, 0.0]]])
    y, cache = nn.maxpool1d_forward(x, pool_size=4, stride=2)
    assert np.array_equal(y, [[[9.0, 9.0, 0.0]]])
    gx = nn.maxpool1d_backward(cache, np.array([[[1.0, 1.0, 1.0]]]))
    assert np.array_equal(gx, [[[0.0, 0.0, 2.0, 0.0, 1.0, 0.0]]])


# every window shape a config allows: tiled (2/2), overlapping (4/2),
# gapped (1/2) and stride 1, over even and odd lengths
POOL_WINDOWS = dict(pool_size=st.integers(min_value=1, max_value=5),
                    stride=st.sampled_from([1, 2, 4]),
                    length=st.integers(min_value=1, max_value=25),
                    dtype=st.sampled_from([np.float32, F64]),
                    seed=st.integers(min_value=0, max_value=2**16))


def tie_heavy(rng, shape, dtype):
    return rng.choice(np.array([-1.0, -0.0, 0.0, 1.0], dtype=dtype), size=shape)


@settings(max_examples=150, deadline=None)
@given(**POOL_WINDOWS)
def test_relu_after_maxpool_matches_relu_before_it(pool_size, stride, length, dtype, seed):
    """The stage order conv -> BN -> maxpool -> ReLU gives the values and input
    gradients of conv -> BN -> ReLU -> maxpool: ReLU is monotone."""
    rng = np.random.default_rng(seed)
    x = tie_heavy(rng, (2, 3, length), dtype)
    pooled, pool_cache = nn.maxpool1d_forward(x, pool_size, stride)
    y, mask = nn.relu_forward(pooled)
    g = rng.integers(-3, 4, size=y.shape).astype(dtype)  # integers: every sum order is exact
    gx = nn.maxpool1d_backward(pool_cache, nn.relu_backward(mask, g))
    y_ref, gx_ref = relu_then_maxpool(x, g, pool_size, stride)
    assert np.array_equal(y, y_ref) and np.array_equal(gx, gx_ref)


@settings(max_examples=100, deadline=None)
@given(**POOL_WINDOWS)
def test_maxpool_infer_mode_keeps_no_argmax(pool_size, stride, length, dtype, seed):
    rng = np.random.default_rng(seed)
    x = tie_heavy(rng, (2, 3, length), dtype)
    y_train, train_cache = nn.maxpool1d_forward(x, pool_size, stride, "train")
    y_infer, infer_cache = nn.maxpool1d_forward(x, pool_size, stride, "infer")
    assert y_infer.dtype == y_train.dtype and y_infer.tobytes() == y_train.tobytes()
    assert infer_cache.argmax is None and train_cache.argmax is not None


def test_global_avg_pool():
    x = np.array([[[2.0, 4.0, 6.0]]])
    y, length = nn.global_avg_pool_forward(x)
    assert np.array_equal(y, [[4.0]])
    gx = nn.global_avg_pool_backward(length, np.array([[3.0]]))
    assert np.allclose(gx, [[[1.0, 1.0, 1.0]]])
    y1, _ = nn.global_avg_pool_forward(np.array([[[7.0]]]))
    assert np.array_equal(y1, [[7.0]])


def test_dense_examples():
    p = nn.DenseParams(np.array([[1.0, 0.0], [0.0, 3.0]]), np.array([1.0, 1.0]))
    y, _ = nn.dense_forward(np.array([[1.0, 2.0]]), p)
    assert np.array_equal(y, [[2.0, 7.0]])
    identity = nn.DenseParams(np.eye(2), np.zeros(2))
    x = np.array([[3.0, -1.0]])
    y, _ = nn.dense_forward(x, identity)
    assert np.array_equal(y, x)


def test_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 4))
    p = nn.DenseParams(rng.standard_normal((4, 2)), rng.standard_normal(2))
    g_out = rng.standard_normal((3, 2))

    def loss():
        y, _ = nn.dense_forward(x, p)
        return float((y * g_out).sum())

    _, cached_x = nn.dense_forward(x, p)
    gx, gw, gb = nn.dense_backward(p, cached_x, g_out)
    for analytic, arr in [(gx, x), (gw, p.weight), (gb, p.bias)]:
        assert fd_relative_error(analytic, fd_gradient(loss, arr)) < 1e-6


# --- dropout -----------------------------------------------------------------------------

def test_dropout_infer_is_identity():
    x = np.random.default_rng(11).standard_normal((2, 3, 4))
    y, mask = nn.dropout_forward(x, 0.5, "infer")
    assert y is x and mask is None


def test_dropout_rate_zero_is_identity_in_train():
    x = np.random.default_rng(12).standard_normal((2, 3))
    y, mask = nn.dropout_forward(x, 0.0, "train", np.random.default_rng(0))
    assert y is x and mask is None


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(13)
    x = np.ones(1_000_000, dtype=np.float64)
    y, mask = nn.dropout_forward(x, 0.5, "train", rng)
    assert y.mean() == pytest.approx(1.0, abs=0.01)
    g = nn.dropout_backward(mask, np.ones_like(x))
    assert np.array_equal(g, mask)


def test_dropout_deterministic_under_seed():
    x = np.ones((100, 100))
    y1, _ = nn.dropout_forward(x, 0.3, "train", np.random.default_rng(99))
    y2, _ = nn.dropout_forward(x, 0.3, "train", np.random.default_rng(99))
    assert np.array_equal(y1, y2)


# --- softmax cross-entropy -----------------------------------------------------------------

def test_softmax_uniform_logits():
    loss = nn.softmax_xent_forward(np.zeros((4, 5)), np.array([0, 1, 2, 3]))
    assert loss == pytest.approx(np.log(5.0), abs=1e-9)
    assert np.allclose(nn.softmax(np.zeros((4, 5))), 0.2)


def test_softmax_extreme_logits_stable():
    logits = np.array([[1000.0, 0.0, 0.0, 0.0, 0.0]])
    loss = nn.softmax_xent_forward(logits, np.array([0]))
    assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(nn.softmax(logits)))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(14)
    logits = 10 * rng.standard_normal((8, 5))
    probs = nn.softmax(logits)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6


def test_softmax_backward_matches_finite_differences():
    rng = np.random.default_rng(15)
    logits = rng.standard_normal((3, 5))
    labels = np.array([0, 2, 4])

    def loss():
        return nn.softmax_xent_forward(logits, labels)

    analytic = nn.softmax_xent_backward(nn.softmax(logits), labels)
    assert fd_relative_error(analytic, fd_gradient(loss, logits)) < 1e-6


# --- determinism ------------------------------------------------------------------------------

def test_kernels_bit_deterministic():
    """Equal inputs give equal bits, and a row scores the same alone as in a
    batch of 32: each sample is its own GEMM, whatever the batch around it."""
    rng = np.random.default_rng(16)

    def draw(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    x = draw(32, 8, 301)
    for stride in (1, 2):
        for forward in (
            partial(nn.conv1d_forward, p=nn.SepConvParams(draw(3, 8), draw(8, 16), draw(16), stride)),
            partial(nn.conv1d_forward, p=nn.ConvParams(draw(3, 8, 16), draw(16), stride)),
        ):
            y, _ = forward(x)
            assert np.array_equal(forward(x)[0], y)
            for b in (0, 13, 31):
                assert np.array_equal(forward(x[b : b + 1])[0], y[b : b + 1])


# --- layout contract ------------------------------------------------------------------------
#
# Every forward and backward returns C-contiguous arrays in the input's dtype and
# writes to none of the arrays it was given (inputs, parameters, caches, grad_out),
# except the running statistics that train-mode batch norm decays by design
# (test_batchnorm_running_stats_update pins that decay).

def contract_case(name, dtype):
    """(x, parameter arrays, forward(x) -> (y, state), backward(state, g))."""
    rng = np.random.default_rng(17)

    def a(*shape):
        return rng.standard_normal(shape).astype(dtype)

    x = a(3, 4, 11)  # odd length: clipped taps and a short last pooling window
    kind, _, variant = name.partition("_")
    stride = 2 if variant == "s2" else 1
    if kind == "sepconv":
        m = 1 if variant == "m1" else 4
        p = nn.SepConvParams(a(3, m), a(m, 5), a(5), stride)
        forward = partial(nn.conv1d_forward, p=p)
        return x[:, :m].copy(), [p.depthwise, p.pointwise, p.bias], forward, nn.conv1d_backward
    if kind == "conv":
        p = nn.ConvParams(a(3, 4, 5), a(5), stride)
        return x, [p.kernel, p.bias], partial(nn.conv1d_forward, p=p), nn.conv1d_backward
    if kind == "bn":
        p = bn_params(4, dtype)
        p.gamma[...], p.beta[...] = a(4), a(4)
        p.running_mean[...], p.running_var[...] = a(4), 1.0 + a(4) ** 2
        forward = partial(nn.batchnorm_forward, p=p, mode=variant)
        running = [p.running_mean, p.running_var] if variant == "infer" else []
        return x, [p.gamma, p.beta, *running], forward, nn.batchnorm_backward
    if kind == "relu":
        return x, [], nn.relu_forward, nn.relu_backward
    if kind == "maxpool":
        pool, stride = {"tiled": (2, 2), "overlap": (3, 2), "gapped": (1, 2), "s1": (2, 1)}[variant]
        forward = partial(nn.maxpool1d_forward, pool_size=pool, stride=stride)
        return x, [], forward, nn.maxpool1d_backward
    assert kind == "dropout"
    forward = partial(nn.dropout_forward, rate=0.4, mode="train", rng=np.random.default_rng(1))
    return x, [], forward, nn.dropout_backward


CONTRACT_CASES = [
    "sepconv_s1", "sepconv_s2", "sepconv_m1", "conv_s1", "conv_s2", "bn_train", "bn_infer",
    "relu", "maxpool_tiled", "maxpool_overlap", "maxpool_gapped", "maxpool_s1", "dropout",
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", CONTRACT_CASES)
def test_kernel_layout_contract(name, dtype):
    x, param_arrays, forward, backward = contract_case(name, dtype)
    given = [x] + param_arrays
    before = [arr.copy() for arr in given]

    y, state = forward(x)
    state_arrays, grads = [], ()
    if state is not None:  # infer-mode batch norm keeps nothing to run backward from
        g = np.random.default_rng(18).standard_normal(y.shape).astype(dtype)
        # a mask, or a cache whose array fields the backward pass reads
        state_arrays = ([state] if isinstance(state, np.ndarray)
                        else [v for v in vars(state).values() if isinstance(v, np.ndarray)])
        if name.startswith(("sepconv", "conv")):  # backward rebuilds the columns from x
            assert len(state_arrays) == 1 and state_arrays[0] is x
        given += [g, y] + state_arrays
        before += [arr.copy() for arr in [g, y] + state_arrays]
        grads = backward(state, g)
        grads = grads if isinstance(grads, tuple) else (grads,)
        assert grads[0].shape == x.shape

    for out in (y, *grads):
        assert out.dtype == dtype
    for out in (y, *state_arrays, *grads):
        assert out.flags.c_contiguous
    for arr, copy in zip(given, before):
        assert np.array_equal(arr, copy)
