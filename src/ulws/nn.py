"""Differentiable 1D kernels: forward passes with cached-activation backwards.

All kernels are pure functions over numpy arrays in (batch, channels,
length) order, follow the dtype of their inputs (float32 for training,
float64 for gradient checking), and use fixed reduction orders so equal
inputs give bit-identical outputs, with any number of BLAS threads (see
GEMM_DEPTH).

Layout contract:

- Every array a kernel returns (activation, gradient, mask, argmax table)
  is channels-first and C-contiguous, so the next kernel streams through
  memory with unit stride.
- Scratch and output buffers are allocated in the input's dtype and
  filled with `out=` / in-place ufuncs; no kernel writes to an array it
  was given, except train-mode batch norm, which decays its running
  statistics.
- Caches hold no more than the backward pass needs: a convolution keeps
  its unpadded input and rebuilds its GEMM columns from it. In infer mode,
  batch norm keeps nothing and max pooling builds no argmax table, so a
  backward pass needs a train-mode forward.
- A convolution builds its GEMM columns, which are (K*M + 1)/M times its
  input, a few samples at a time: at most COLUMNS_BYTES of them (or one
  sample's, if that is more) exist at once, in the forward and in the
  backward pass.
- Batch norm's elementwise passes take one channel and a scalar at a
  time, in both modes: no (C, 1) operand is broadcast over (B, C, L).

Padding is SAME everywhere: output length is ceil(L / stride), zeros split
evenly with the extra sample on the right. A convolution's columns hold 0
where a tap reads the padding; no padded copy of the input is made. Max
pooling skips the samples past the right edge, which is the same as
padding with -inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DegenerateBatch, ShapeMismatch

Mode = Literal["train", "infer"]


def ceil_div(n: int, d: int) -> int:
    return -(-n // d)


def _same_pad(length: int, kernel: int, stride: int) -> tuple[int, int]:
    """(pad_left, out_length) for SAME padding; pad_right is the remainder."""
    out_length = ceil_div(length, stride)
    total = max((out_length - 1) * stride + kernel - length, 0)
    return total // 2, out_length


def _tap_slices(
    tap: int, stride: int, pad_left: int, length: int, out_length: int
) -> tuple[slice, slice]:
    """(output slice, input slice) of the outputs j whose `tap` reads input
    sample j * stride + tap - pad_left inside [0, length); the reads that
    would land in the zero padding are left out.
    """
    first = max(0, ceil_div(pad_left - tap, stride))
    stop = max(first, min(out_length, ceil_div(length + pad_left - tap, stride)))
    start = first * stride + tap - pad_left
    return slice(first, stop), slice(start, start + (stop - first) * stride, stride)


# --- convolution as one GEMM per sample -------------------------------------
#
# Both conv types are the standard convolution y_b = W^T @ columns(x_b) with a
# (K*M + 1, N) weight W: rows k*M + m hold the taps, the last row the bias.
# A separable conv's taps are depthwise[k, m] * pointwise[m, n]. So one kernel
# pair, conv1d_forward/conv1d_backward, runs both; each params class gives its
# (K, M, N) taps, its leaves in checkpoint order, and the chain rule from the
# taps' gradient back to its leaves.

# The deepest BLAS product. OpenBLAS splits a deeper one differently on one
# thread and on several, so its rounding would follow the thread count (with
# OpenBLAS 0.3.31 on an AVX-512 Xeon: equal up to 442 deep, not from 451).
GEMM_DEPTH = 256

# The most bytes of columns a convolution builds at once: it builds and
# multiplies them for a few samples at a time, at least one. Each sample's
# product is the same BLAS call at any chunk size, so the results are too.
COLUMNS_BYTES = 1 << 20


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b, summing the inner dimension in slices of GEMM_DEPTH, in order."""
    out = np.matmul(a[..., :GEMM_DEPTH], b[..., :GEMM_DEPTH, :], out=out)
    for start in range(GEMM_DEPTH, a.shape[-1], GEMM_DEPTH):
        out += np.matmul(a[..., start : start + GEMM_DEPTH], b[..., start : start + GEMM_DEPTH, :])
    return out


def _columns(x: np.ndarray, kernel: int, stride: int, pad_left: int, out_length: int) -> np.ndarray:
    """(B, K*M + 1, L_out): row k*M + m of output j is x[:, m, j*stride + k - pad_left],
    0 where that sample is SAME padding; the last row is ones, for the bias."""
    b, m, length = x.shape
    cols = np.empty((b, kernel * m + 1, out_length), dtype=x.dtype)
    taps = cols[:, :-1].reshape(b, kernel, m, out_length)
    for tap in range(kernel):
        o, i = _tap_slices(tap, stride, pad_left, length, out_length)
        taps[:, tap, :, : o.start] = 0
        taps[:, tap, :, o] = x[:, :, i]
        taps[:, tap, :, o.stop :] = 0
    cols[:, -1] = 1
    return cols


def _uncolumns(grad_cols: np.ndarray, kernel: int, stride: int, pad_left: int,
               grad_x: np.ndarray) -> None:
    """Add the adjoint of _columns without its ones row, (B, K*M, L_out), into (B, M, L) grad_x."""
    b, km, out_length = grad_cols.shape
    taps = grad_cols.reshape(b, kernel, km // kernel, out_length)
    for tap in range(kernel):
        o, i = _tap_slices(tap, stride, pad_left, grad_x.shape[2], out_length)
        grad_x[:, :, i] += taps[:, tap, :, o]


def _chunks(x: np.ndarray, kernel: int, out_length: int) -> list[slice]:
    """Slices of x's samples whose columns take at most COLUMNS_BYTES, at least one sample each."""
    b, m, _ = x.shape
    sample_bytes = (kernel * m + 1) * out_length * x.itemsize
    rows = max(1, COLUMNS_BYTES // max(sample_bytes, 1))
    return [slice(start, start + rows) for start in range(0, b, rows)]


def _gemm_forward(x: np.ndarray, taps: np.ndarray, bias: np.ndarray,
                  stride: int) -> tuple[np.ndarray, int]:
    """(y, pad_left) of the SAME convolution of x with (K, M, N) taps plus bias."""
    k, m, n = taps.shape
    if x.shape[1] != m:
        raise ShapeMismatch(f"input has {x.shape[1]} channels, kernel expects {m}")
    left, out_length = _same_pad(x.shape[2], k, stride)
    weight_t = np.concatenate([taps.reshape(k * m, n), bias[None]]).T
    y = np.empty((x.shape[0], n, out_length), dtype=np.result_type(weight_t, x))
    for rows in _chunks(x, k, out_length):
        _matmul(weight_t, _columns(x[rows], k, stride, left, out_length), out=y[rows])
    return y, left


def _gemm_backward(x: np.ndarray, taps: np.ndarray, stride: int, pad_left: int,
                   grad_out: np.ndarray, input_grad: bool = True
                   ) -> tuple[np.ndarray | None, np.ndarray]:
    """(grad_x, grad_weight): the weight's gradient is (K*M + 1, N), its last row the bias's.
    grad_x is None, and no columns' gradient is computed, without input_grad."""
    k, m, n = taps.shape
    b, _, out_length = grad_out.shape
    taps_2d = taps.reshape(k * m, n)
    # each sample's weight gradient, summed over the batch in one pass, so the sum's
    # order does not follow the chunks
    grad_weights = np.empty((b, k * m + 1, n), dtype=np.result_type(x, grad_out))
    grad_x = np.zeros((b, m, x.shape[2]), np.result_type(taps, grad_out)) if input_grad else None
    for rows in _chunks(x, k, out_length):
        g = grad_out[rows]
        cols = _columns(x[rows], k, stride, pad_left, out_length)
        _matmul(cols, g.swapaxes(1, 2), out=grad_weights[rows])
        del cols  # the columns' gradient takes their place
        if input_grad:
            _uncolumns(_matmul(taps_2d, g), k, stride, pad_left, grad_x[rows])
    return grad_x, grad_weights.sum(axis=0)


@dataclass
class SepConvParams:
    depthwise: np.ndarray  # (K, M)
    pointwise: np.ndarray  # (M, N)
    bias: np.ndarray  # (N,)
    stride: int = 1

    def leaves(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) of each trainable parameter, in checkpoint order."""
        return [("depthwise", self.depthwise), ("pointwise", self.pointwise), ("bias", self.bias)]

    def taps(self) -> np.ndarray:
        """(K, M, N): a depthwise K-tap per-channel filter, then a 1x1 channel mix."""
        if self.pointwise.shape[0] != self.depthwise.shape[1]:
            raise ShapeMismatch(
                f"pointwise {self.pointwise.shape} vs depthwise {self.depthwise.shape}")
        return self.depthwise[:, :, None] * self.pointwise

    def tap_grads(self, grad_taps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(grad_depthwise, grad_pointwise): the chain rule through the tap products."""
        return ((grad_taps * self.pointwise).sum(axis=2),
                (grad_taps * self.depthwise[:, :, None]).sum(axis=0))


@dataclass
class ConvParams:
    kernel: np.ndarray  # (K, M, N)
    bias: np.ndarray  # (N,)
    stride: int = 1

    def leaves(self) -> list[tuple[str, np.ndarray]]:
        return [("kernel", self.kernel), ("bias", self.bias)]

    def taps(self) -> np.ndarray:
        return self.kernel

    def tap_grads(self, grad_taps: np.ndarray) -> tuple[np.ndarray]:
        return (grad_taps,)


ConvLike = SepConvParams | ConvParams


@dataclass
class ConvCache:  # the backward pass rebuilds the columns from x
    params: ConvLike
    x: np.ndarray  # the unpadded input
    pad_left: int


def conv1d_forward(x: np.ndarray, p: ConvLike) -> tuple[np.ndarray, ConvCache]:
    """SAME convolution of x with p's taps, plus its bias, for either conv type."""
    y, left = _gemm_forward(x, p.taps(), p.bias, p.stride)
    return y, ConvCache(p, x, left)


def conv1d_backward(cache: ConvCache, grad_out: np.ndarray,
                    input_grad: bool = True) -> tuple[np.ndarray | None, ...]:
    """(grad_x, then the gradient of each of the params' leaves, in their order);
    grad_x is None without input_grad, which leaves the leaves' gradients as they are."""
    p = cache.params
    taps = p.taps()
    grad_x, grad_w = _gemm_backward(cache.x, taps, p.stride, cache.pad_left, grad_out, input_grad)
    return grad_x, *p.tap_grads(grad_w[:-1].reshape(taps.shape)), grad_w[-1]


# --- batch normalization -----------------------------------------------------

BN_EPSILON = 1e-3
BN_MOMENTUM = 0.99  # decay of the running statistics


@dataclass
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def leaves(self) -> list[tuple[str, np.ndarray]]:
        return [("gamma", self.gamma), ("beta", self.beta)]

    def statistics(self) -> list[tuple[str, np.ndarray]]:
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]


@dataclass
class BatchNormCache:
    params: BatchNormParams
    centered: np.ndarray  # the input minus its batch mean
    inv_std: np.ndarray


def batchnorm_forward(
    x: np.ndarray, p: BatchNormParams, mode: Mode
) -> tuple[np.ndarray, BatchNormCache | None]:
    """Normalize per channel over (batch, length).

    Train mode normalizes by the batch statistics and decays the running
    ones towards them in place; its output and backward pass never read the
    running statistics, so a finite-difference check may call it repeatedly.
    Infer mode applies the running statistics as one per-channel affine map
    and keeps no state. Both modes then run one output loop, y = source *
    scale + shift: infer mode scales the input and adds the running
    statistics' shift, train mode scales the centred input and adds beta.
    """
    b, _, length = x.shape
    eps = np.asarray(BN_EPSILON, dtype=x.dtype)
    if mode == "infer":
        inv_std = 1.0 / np.sqrt(p.running_var + eps)
        scale = p.gamma * inv_std
        source, shift, cache = x, p.beta - p.running_mean * scale, None
    else:
        if b * length < 2:
            raise DegenerateBatch(f"need at least 2 values per feature, got {b * length}")
        mean = x.mean(axis=(0, 2))
        centered = np.empty(x.shape, dtype=np.result_type(x, mean))
        for ch in range(x.shape[1]):
            np.subtract(x[:, ch], mean[ch], out=centered[:, ch])
        # einsum reduces the products without materialising them
        var = np.einsum("bcl,bcl->c", centered, centered) / (b * length)
        mom = BN_MOMENTUM
        p.running_mean[...] = mom * p.running_mean + (1 - mom) * mean
        p.running_var[...] = mom * p.running_var + (1 - mom) * var
        inv_std = 1.0 / np.sqrt(var + eps)
        scale = p.gamma * inv_std
        source, shift, cache = centered, p.beta, BatchNormCache(p, centered, inv_std)
    # this pass, like the centring, takes one channel and a scalar at a time:
    # numpy broadcasts a (C, 1) operand over (B, C, L) 2-3x slower than that
    y = np.empty(x.shape, dtype=np.result_type(source, scale))
    for ch in range(x.shape[1]):
        np.multiply(source[:, ch], scale[ch], out=y[:, ch])
        y[:, ch] += shift[ch]
    return y, cache


def batchnorm_backward(
    cache: BatchNormCache, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grad_x, grad_gamma, grad_beta) of a train-mode forward, routing the
    gradient through the batch mean and variance as well."""
    p, centered, inv_std = cache.params, cache.centered, cache.inv_std
    scale = p.gamma * inv_std
    grad_beta = grad_out.sum(axis=(0, 2))
    grad_gamma = np.einsum("bcl,bcl->c", grad_out, centered) * inv_std  # sum of g * x_hat
    # grad_x = scale * (g - mean(g) - x_hat * mean(g * x_hat)), x_hat = centered * inv_std,
    # a channel at a time, as in the forward pass
    n = grad_out.shape[0] * grad_out.shape[2]
    slope = scale * inv_std * grad_gamma / n
    offset = scale * grad_beta / n
    grad_x = np.empty(grad_out.shape, dtype=np.result_type(grad_out, scale))
    for ch in range(grad_out.shape[1]):
        np.multiply(grad_out[:, ch], scale[ch], out=grad_x[:, ch])
        correction = np.multiply(centered[:, ch], slope[ch])
        correction += offset[ch]
        grad_x[:, ch] -= correction
    return grad_x, grad_gamma, grad_beta


# --- activations, pooling, head ----------------------------------------------

def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.maximum(x, 0)
    return y, y > 0  # subgradient 0 at exactly 0


def relu_backward(mask: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    grad_x = mask.astype(grad_out.dtype)  # a plain cast beats a mixed-type multiply
    grad_x *= grad_out
    return grad_x


# the widest max-pool window whose offsets fit the int8 argmax table
MAX_POOL_SIZE = np.iinfo(np.int8).max + 1


@dataclass
class MaxPoolCache:
    argmax: np.ndarray | None  # within-window offset of the (first) maximum; None in infer mode
    pool_size: int
    stride: int
    in_length: int


def maxpool1d_forward(
    x: np.ndarray, pool_size: int = 2, stride: int = 2, mode: Mode = "train"
) -> tuple[np.ndarray, MaxPoolCache]:
    """Max over windows of `pool_size` samples every `stride` samples.

    Train mode also records each window's argmax for the backward pass;
    infer mode computes only the maxima, one np.maximum per window offset.
    """
    length = x.shape[2]
    out_length = ceil_div(length, stride)
    y = x[:, :, 0 : (out_length - 1) * stride + 1 : stride].copy()
    argmax = None if mode == "infer" else np.zeros(y.shape, dtype=np.int8)
    for k in range(1, pool_size):
        o, i = _tap_slices(k, stride, 0, length, out_length)
        cand, best = x[:, :, i], y[:, :, o]
        if argmax is not None:
            # strict: ties resolve to the first maximum, so the argmax is the
            # largest offset that beat every earlier one. Offset 1 meets only
            # zeros, so its comparison is written straight in.
            if k == 1:
                np.greater(cand, best, out=argmax[:, :, o])
            else:
                won = np.greater(cand, best).view(np.int8)
                won *= k
                np.maximum(argmax[:, :, o], won, out=argmax[:, :, o])
        np.maximum(best, cand, out=best)
    return y, MaxPoolCache(argmax, pool_size, stride, length)


def maxpool1d_backward(cache: MaxPoolCache, grad_out: np.ndarray) -> np.ndarray:
    b, c, out_length = grad_out.shape
    # windows that tile the input write each sample once; gaps stay zero and
    # overlapping windows accumulate
    tiled = cache.pool_size == cache.stride
    overlapping = cache.pool_size > cache.stride
    grad_x = (np.empty if tiled else np.zeros)((b, c, cache.in_length), dtype=grad_out.dtype)
    for k in range(cache.pool_size):
        o, i = _tap_slices(k, cache.stride, 0, cache.in_length, out_length)
        won = cache.argmax[:, :, o] == k
        if overlapping:
            grad_x[:, :, i] += grad_out[:, :, o] * won
        else:
            np.multiply(grad_out[:, :, o], won, out=grad_x[:, :, i])
    return grad_x


def global_avg_pool_forward(x: np.ndarray) -> tuple[np.ndarray, int]:
    return x.mean(axis=2), x.shape[2]


def global_avg_pool_backward(in_length: int, grad_out: np.ndarray) -> np.ndarray:
    return np.repeat((grad_out / in_length)[:, :, None], in_length, axis=2)


@dataclass
class DenseParams:
    weight: np.ndarray  # (In, Out)
    bias: np.ndarray  # (Out,)

    def leaves(self) -> list[tuple[str, np.ndarray]]:
        return [("weight", self.weight), ("bias", self.bias)]


def dense_forward(x: np.ndarray, p: DenseParams) -> tuple[np.ndarray, np.ndarray]:
    if x.shape[1] != p.weight.shape[0]:
        raise ShapeMismatch(f"input width {x.shape[1]} != weight rows {p.weight.shape[0]}")
    return x @ p.weight + p.bias, x


def dense_backward(
    p: DenseParams, x: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return grad_out @ p.weight.T, x.T @ grad_out, grad_out.sum(axis=0)


def dropout_forward(
    x: np.ndarray, rate: float, mode: Mode, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: kept elements are scaled by 1/(1-rate) so the
    expectation is unchanged; infer mode (and rate 0) is the identity."""
    if mode == "infer" or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    draw_dtype = np.float32 if x.dtype == np.float32 else np.float64
    mask = rng.random(x.shape, dtype=draw_dtype)
    np.greater_equal(mask, rate, out=mask)  # 1 where kept, 0 where dropped
    mask /= 1.0 - rate
    mask = mask.astype(x.dtype, copy=False)
    return x * mask, mask


def dropout_backward(mask: np.ndarray | None, grad_out: np.ndarray) -> np.ndarray:
    return grad_out if mask is None else grad_out * mask


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise max-subtracted softmax."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_xent_forward(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy over the batch, by max-subtracted log-sum-exp."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(labels)), labels].mean())


def softmax_xent_backward(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    grad = probs.copy()
    grad[np.arange(len(labels)), labels] -= 1.0
    return grad / len(labels)
