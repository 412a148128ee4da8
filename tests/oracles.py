"""Independent oracles the tests check the library against.

Each is deliberately written against first principles (loops, direct
polynomial evaluation, central differences) rather than reusing any code
path under test.
"""

from __future__ import annotations

import numpy as np

FD_STEP_SCALE = 1e-4
# mixed tolerance: relative error for healthy gradients, absolute for the
# handful of parameters whose true gradient is ~0 (e.g. conv biases that a
# train-mode BN absorbs exactly)
FD_DENOM_FLOOR = 1e-6


def fd_gradient(loss_fn, arr: np.ndarray) -> np.ndarray:
    """Central finite differences of loss_fn w.r.t. every element of arr.

    Step is FD_STEP_SCALE * max(1, |theta|); arr is restored exactly.
    """
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        h = FD_STEP_SCALE * max(1.0, abs(float(orig)))
        arr[idx] = orig + h
        loss_plus = loss_fn()
        arr[idx] = orig - h
        loss_minus = loss_fn()
        arr[idx] = orig
        grad[idx] = (loss_plus - loss_minus) / (2.0 * h)
    return grad


def fd_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), FD_DENOM_FLOOR)
    return float((np.abs(analytic - numeric) / denom).max())


def sos_gain(sos: np.ndarray, freq_hz: float, sample_rate_hz: float) -> float:
    """|H(e^{j 2 pi f / fs})| of a biquad cascade by direct polynomial evaluation.

    Rows are scipy's (b0, b1, b2, a0, a1, a2).
    """
    z = np.exp(-2j * np.pi * freq_hz / sample_rate_hz)  # z^{-1}
    h = 1.0 + 0.0j
    for b0, b1, b2, a0, a1, a2 in np.asarray(sos, dtype=np.float64):
        h *= (b0 + b1 * z + b2 * z * z) / (a0 + a1 * z + a2 * z * z)
    return abs(h)


def best_lag(reference: np.ndarray, shifted: np.ndarray, max_lag: int) -> int:
    """Brute-force cross-correlation lag search over [-max_lag, max_lag]."""
    n = len(reference)
    best, best_score = 0, -np.inf
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            a, b = reference[lag:], shifted[: n - lag]
        else:
            a, b = reference[: n + lag], shifted[-lag:]
        score = float(np.dot(a, b))
        if score > best_score:
            best, best_score = lag, score
    return best


# --- a stage's ReLU and max pooling in their first order -----------------------

def relu_then_maxpool(x: np.ndarray, grad_out: np.ndarray, pool_size: int, stride: int):
    """(y, grad_x) of ReLU followed by max pooling, window by window.

    Windows start every `stride` samples and are cut at the right edge. Ties
    go to the first maximum of the rectified window, and ReLU's subgradient
    at 0 is 0, so a window whose maximum is not positive passes no gradient.
    """
    b, c, length = x.shape
    out_length = -(-length // stride)
    y = np.empty((b, c, out_length), dtype=x.dtype)
    grad_x = np.zeros_like(x)
    for n, ch, j in np.ndindex(b, c, out_length):
        window = range(j * stride, min(j * stride + pool_size, length))
        rectified = [max(float(x[n, ch, t]), 0.0) for t in window]
        winner = window[rectified.index(max(rectified))]
        y[n, ch, j] = rectified[winner - window.start]
        if x[n, ch, winner] > 0:
            grad_x[n, ch, winner] += grad_out[n, ch, j]
    return y, grad_x


# --- a convolution and train-mode batch norm over the whole batch at once ------

def _sliced_matmul(a: np.ndarray, b: np.ndarray, depth: int) -> np.ndarray:
    out = np.matmul(a[..., :depth], b[..., :depth, :])
    for start in range(depth, a.shape[-1], depth):
        out += np.matmul(a[..., start : start + depth], b[..., start : start + depth, :])
    return out


def one_gemm_conv(x, taps, bias, stride, grad_out, depth):
    """(y, grad_x, grad_weight) of the SAME convolution of x with (K, M, N) taps
    plus bias, through one (B, K*M + 1, L_out) block of columns for the batch.

    The columns are cut tap by tap from a zero-padded copy of x, with a last
    row of ones for the bias. Every product sums its inner dimension in slices
    of `depth`, in order, so its rounding is fixed. grad_x is scattered tap by
    tap onto a padded buffer and cropped; grad_weight is (K*M + 1, N), the
    per-sample products summed over the batch, its last row the bias's.
    """
    b, m, length = x.shape
    k, _, n = taps.shape
    out_length = -(-length // stride)
    total = max((out_length - 1) * stride + k - length, 0)
    left = total // 2
    padded = np.pad(x, ((0, 0), (0, 0), (left, total - left)))
    span = (out_length - 1) * stride + 1
    cols = np.concatenate([padded[:, :, t : t + span : stride] for t in range(k)]
                          + [np.ones((b, 1, out_length), dtype=x.dtype)], axis=1)
    weight = np.concatenate([taps.reshape(k * m, n), bias[None]])
    y = _sliced_matmul(weight.T, cols, depth)
    grad_weight = _sliced_matmul(cols, grad_out.swapaxes(1, 2), depth).sum(axis=0)
    grad_cols = _sliced_matmul(taps.reshape(k * m, n), grad_out, depth)
    grad_padded = np.zeros(padded.shape, dtype=grad_cols.dtype)
    for t in range(k):
        grad_padded[:, :, t : t + span : stride] += grad_cols[:, t * m : (t + 1) * m]
    return y, grad_padded[:, :, left : left + length], grad_weight


def broadcast_batchnorm(x, gamma, beta, running_mean, running_var, grad_out, eps, momentum):
    """(y, grad_x, grad_gamma, grad_beta, running_mean, running_var) of train-mode
    batch norm, each per-channel operand a (C, 1) column broadcast over (B, C, L)."""
    b, _, length = x.shape
    eps = np.asarray(eps, dtype=x.dtype)
    mean = x.mean(axis=(0, 2))
    centered = x - mean[:, None]
    var = np.einsum("bcl,bcl->c", centered, centered) / (b * length)
    running_mean = momentum * running_mean + (1 - momentum) * mean
    running_var = momentum * running_var + (1 - momentum) * var
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = gamma * inv_std
    y = centered * scale[:, None] + beta[:, None]
    grad_beta = grad_out.sum(axis=(0, 2))
    grad_gamma = np.einsum("bcl,bcl->c", grad_out, centered) * inv_std
    n = b * length
    correction = centered * (scale * inv_std * grad_gamma / n)[:, None]
    correction += (scale * grad_beta / n)[:, None]
    grad_x = grad_out * scale[:, None] - correction
    return y, grad_x, grad_gamma, grad_beta, running_mean, running_var


# --- metrics by direct pairwise counting (no confusion matrix) --------------

def pairwise_accuracy(y_true, y_pred) -> float:
    hits = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    return hits / len(y_true)


def pairwise_f1(y_true, y_pred, cls: int) -> float:
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p == cls)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t != cls and p == cls)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p != cls)
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def pairwise_macro_f1(y_true, y_pred, n_classes: int = 5) -> float:
    return sum(pairwise_f1(y_true, y_pred, c) for c in range(n_classes)) / n_classes


def pairwise_kappa(y_true, y_pred, n_classes: int = 5) -> float:
    n = len(y_true)
    p_o = pairwise_accuracy(y_true, y_pred)
    p_e = 0.0
    for c in range(n_classes):
        row = sum(1 for t in y_true if t == c)
        col = sum(1 for p in y_pred if p == c)
        p_e += row * col / (n * n)
    if p_e == 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


# --- ingest as first written: whole file in memory, scipy's filtfilt ---------

def preprocess_whole_record(psg_path, hyp_path, channels, filter_all_channels=False):
    """(x, y) of one PSG/hypnogram pair, every wanted channel decoded at once.

    The file's bytes are read whole; each channel is converted with
    `(d - digital_min) * scale + physical_min` in float64 and rounded to
    float32; band-passed channels go through scipy's `sosfiltfilt`; all
    retained epochs sit in one float64 (n, C, T) array that is z-scored per
    channel on `x[:, c]` and cast to float32 once. Only for valid pairs.
    The header and hypnogram parsers, the label expansion and trimming and
    the band-pass design are the library's; reading, decoding, filtering,
    epoching and z-scoring are not.
    """
    from pathlib import Path

    import scipy.signal

    from ulws.edf import parse_edf_header, parse_hypnogram
    from ulws.preprocess import (
        EPOCH_SAMPLES,
        bandpass,
        expand_events,
        trim_wake,
    )

    data = Path(psg_path).read_bytes()
    header = parse_edf_header(data)
    spr = header.samples_per_record
    words = np.frombuffer(data, "<i2", count=header.n_data_records * sum(spr),
                          offset=header.header_bytes).reshape(header.n_data_records, sum(spr))
    signals = {}
    for label in channels:
        i = header.labels.index(label)
        digital = words[:, sum(spr[:i]) : sum(spr[: i + 1])].reshape(-1)
        scale = (header.physical_max[i] - header.physical_min[i]) / (
            header.digital_max[i] - header.digital_min[i])
        physical = (digital.astype(np.float64) - header.digital_min[i]) * scale
        signals[label] = (physical + header.physical_min[i]).astype(np.float32)

    events = parse_hypnogram(Path(hyp_path).read_bytes())
    t = EPOCH_SAMPLES
    per_epoch = expand_events(events, max(len(s) for s in signals.values()) // t)
    entries = [(i, lab) for i, lab in enumerate(per_epoch) if lab is not None]
    start, stop = trim_wake([lab for _, lab in entries])
    retained = entries[start:stop]

    sos = bandpass().sos.copy()
    x = np.empty((len(retained), len(channels), t), dtype=np.float64)
    for c, label in enumerate(channels):
        samples = signals[label]
        if filter_all_channels or label.upper().startswith("EEG"):
            samples = scipy.signal.sosfiltfilt(sos, samples.astype(np.float64), padtype="odd",
                                               padlen=bandpass().padlen)
        for row, (epoch_idx, _) in enumerate(retained):
            x[row, c] = samples[epoch_idx * t : (epoch_idx + 1) * t]
        mean, std = x[:, c].mean(), x[:, c].std()
        x[:, c] -= mean
        x[:, c] /= std
    return x.astype(np.float32), np.array([int(lab) for _, lab in retained], dtype=np.uint8)


# --- many records' epochs in one array -----------------------------------------

def concatenated_dataset(chunks, channels):
    """The EpochDataset of (subject_key, x, y) chunks, joined in memory by np.concatenate."""
    from ulws.preprocess import EpochDataset

    return EpochDataset(
        x=np.concatenate([x for _, x, _ in chunks]),
        y=np.concatenate([y for *_, y in chunks]),
        subject_keys=[key for key, _, y in chunks for _ in y],
        channel_labels=list(channels),
    )
