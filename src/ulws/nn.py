"""Differentiable 1D kernels: forward passes with cached-activation backwards.

All kernels are pure functions over numpy arrays in (batch, channels,
length) order, follow the dtype of their inputs (float32 for training,
float64 for gradient checking), and use fixed reduction orders so equal
inputs give bit-identical outputs.

Layout contract:

- Every array a kernel returns (activation, gradient, mask, argmax table)
  is channels-first and C-contiguous, so the next kernel streams through
  memory with unit stride.
- Scratch and output buffers are allocated in the input's dtype and
  filled with `out=` / in-place ufuncs; no kernel writes to an array it
  was given, except train-mode batch norm, which decays its running
  statistics.
- Caches hold no more than the backward pass needs: a convolution keeps
  its unpadded input. In infer mode, batch norm keeps nothing and max
  pooling builds no argmax table, so a backward pass needs a train-mode
  forward.

Padding is SAME everywhere: output length is ceil(L / stride), zeros split
evenly with the extra sample on the right. Taps that would read the zero
padding are skipped rather than padded for. Max pooling skips the samples
past the right edge, which is the same as padding with -inf.
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


def _taps_centre_first(kernel: int, stride: int, pad_left: int, length: int, out_length: int):
    """(tap, output slice, input slice) for every tap, centre tap first.

    The centre tap is tap `pad_left`: output j reads input j * stride, which
    is inside the input for every output, so it can initialise an output
    buffer that the other taps then accumulate into.
    """
    for tap in sorted(range(kernel), key=lambda t: t != pad_left):
        yield (tap, *_tap_slices(tap, stride, pad_left, length, out_length))


# --- separable convolution -------------------------------------------------

@dataclass
class SepConvParams:
    depthwise: np.ndarray  # (K, M)
    pointwise: np.ndarray  # (M, N)
    bias: np.ndarray  # (N,)
    stride: int = 1


@dataclass
class SepConvCache:
    params: SepConvParams
    x: np.ndarray  # the unpadded input
    dw_out: np.ndarray
    pad_left: int


def sepconv1d_forward(x: np.ndarray, p: SepConvParams) -> tuple[np.ndarray, SepConvCache]:
    """Depthwise K-tap per-channel filter, then 1x1 channel mix plus bias."""
    b, m, length = x.shape
    k, mk = p.depthwise.shape
    if mk != m or p.pointwise.shape[0] != m:
        raise ShapeMismatch(f"input has {m} channels, kernel expects {mk}")
    left, out_length = _same_pad(length, k, p.stride)
    taps = _taps_centre_first(k, p.stride, left, length, out_length)
    _, _, centre = next(taps)  # the centre tap reaches every output
    dw = np.empty((b, m, out_length), dtype=x.dtype)
    np.multiply(x[:, :, centre], p.depthwise[left][:, None], out=dw)
    term = np.empty_like(dw)
    for tap, o, i in taps:
        np.multiply(x[:, :, i], p.depthwise[tap][:, None], out=term[:, :, o])
        dw[:, :, o] += term[:, :, o]
    if m == 1:  # one input channel: the channel mix is an outer product
        y = np.multiply(dw, p.pointwise.T)
    else:
        y = np.matmul(p.pointwise.T, dw)
    y += p.bias[:, None]
    return y, SepConvCache(p, x, dw, left)


def sepconv1d_backward(
    cache: SepConvCache, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Adjoints of both stages: (grad_x, grad_depthwise, grad_pointwise, grad_bias)."""
    p, x = cache.params, cache.x
    length, out_length = x.shape[2], grad_out.shape[2]

    grad_bias = grad_out.sum(axis=(0, 2))
    grad_pointwise = np.matmul(cache.dw_out, grad_out.swapaxes(1, 2)).sum(axis=0)
    grad_dw = np.matmul(p.pointwise, grad_out)  # (B, M, L_out)

    grad_depthwise = np.empty_like(p.depthwise)
    # at stride 1 the centre tap alone reaches every input sample, so it goes
    # first and initialises grad_x; otherwise every tap accumulates into zeros
    unit_stride = p.stride == 1
    grad_x = (np.empty_like if unit_stride else np.zeros_like)(x)
    term = np.empty_like(grad_dw)
    for tap, o, i in _taps_centre_first(p.depthwise.shape[0], p.stride, cache.pad_left,
                                        length, out_length):
        g = grad_dw[:, :, o]
        grad_depthwise[tap] = np.einsum("bml,bml->m", x[:, :, i], g)
        if unit_stride and tap == cache.pad_left:
            np.multiply(g, p.depthwise[tap][:, None], out=grad_x)
        else:
            np.multiply(g, p.depthwise[tap][:, None], out=term[:, :, o])
            grad_x[:, :, i] += term[:, :, o]
    return grad_x, grad_depthwise, grad_pointwise, grad_bias


# --- standard convolution ----------------------------------------------------

@dataclass
class ConvParams:
    kernel: np.ndarray  # (K, M, N)
    bias: np.ndarray  # (N,)
    stride: int = 1


@dataclass
class ConvCache:
    params: ConvParams
    x: np.ndarray  # the unpadded input
    pad_left: int


def conv1d_forward(x: np.ndarray, p: ConvParams) -> tuple[np.ndarray, ConvCache]:
    b, m, length = x.shape
    k, mk, n = p.kernel.shape
    if mk != m:
        raise ShapeMismatch(f"input has {m} channels, kernel expects {mk}")
    left, out_length = _same_pad(length, k, p.stride)
    taps = _taps_centre_first(k, p.stride, left, length, out_length)
    _, _, centre = next(taps)  # the centre tap reaches every output
    y = np.matmul(p.kernel[left].T, x[:, :, centre])
    for tap, o, i in taps:
        y[:, :, o] += np.matmul(p.kernel[tap].T, x[:, :, i])
    y += p.bias[:, None]
    return y, ConvCache(p, x, left)


def conv1d_backward(
    cache: ConvCache, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p, x = cache.params, cache.x
    length, out_length = x.shape[2], grad_out.shape[2]

    grad_bias = grad_out.sum(axis=(0, 2))
    g_t = grad_out.swapaxes(1, 2)  # (B, L_out, N)
    grad_kernel = np.empty_like(p.kernel)
    grad_x = np.zeros_like(x)
    for tap in range(p.kernel.shape[0]):
        o, i = _tap_slices(tap, p.stride, cache.pad_left, length, out_length)
        grad_kernel[tap] = np.matmul(x[:, :, i], g_t[:, o]).sum(axis=0)
        grad_x[:, :, i] += np.matmul(p.kernel[tap], grad_out[:, :, o])
    return grad_x, grad_kernel, grad_bias


# --- batch normalization -----------------------------------------------------

BN_EPSILON = 1e-3
BN_MOMENTUM = 0.99  # decay of the running statistics


@dataclass
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


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
    and keeps no state.
    """
    b, _, length = x.shape
    eps = np.asarray(BN_EPSILON, dtype=x.dtype)
    if mode == "infer":
        inv_std = 1.0 / np.sqrt(p.running_var + eps)
        scale = p.gamma * inv_std
        y = np.multiply(x, scale[:, None])
        y += (p.beta - p.running_mean * scale)[:, None]
        return y, None
    if b * length < 2:
        raise DegenerateBatch(f"need at least 2 values per feature, got {b * length}")
    mean = x.mean(axis=(0, 2))
    centered = np.subtract(x, mean[:, None])
    # einsum reduces the products without materialising them
    var = np.einsum("bcl,bcl->c", centered, centered) / (b * length)
    mom = BN_MOMENTUM
    p.running_mean[...] = mom * p.running_mean + (1 - mom) * mean
    p.running_var[...] = mom * p.running_var + (1 - mom) * var
    inv_std = 1.0 / np.sqrt(var + eps)
    y = np.multiply(centered, (p.gamma * inv_std)[:, None])
    y += p.beta[:, None]
    return y, BatchNormCache(p, centered, inv_std)


def batchnorm_backward(
    cache: BatchNormCache, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grad_x, grad_gamma, grad_beta) of a train-mode forward, routing the
    gradient through the batch mean and variance as well."""
    p, centered, inv_std = cache.params, cache.centered, cache.inv_std
    scale = p.gamma * inv_std
    grad_beta = grad_out.sum(axis=(0, 2))
    grad_gamma = np.einsum("bcl,bcl->c", grad_out, centered) * inv_std  # sum of g * x_hat
    grad_x = np.multiply(grad_out, scale[:, None])
    # grad_x = scale * (g - mean(g) - x_hat * mean(g * x_hat)), x_hat = centered * inv_std
    n = grad_out.shape[0] * grad_out.shape[2]
    correction = np.multiply(centered, (scale * inv_std * grad_gamma / n)[:, None])
    correction += (scale * grad_beta / n)[:, None]
    grad_x -= correction
    return grad_x, grad_gamma, grad_beta


# --- activations, pooling, head ----------------------------------------------

def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.maximum(x, 0)
    return y, y > 0  # subgradient 0 at exactly 0


def relu_backward(mask: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    grad_x = mask.astype(grad_out.dtype)  # a plain cast beats a mixed-type multiply
    grad_x *= grad_out
    return grad_x


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
