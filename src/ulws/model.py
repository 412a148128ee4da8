"""Dual-stream separable-convolution network for multimodal epoch scoring.

Each physiological channel runs through one shared feature extractor (a
stack of dual-stream blocks followed by global average pooling); the
per-channel feature vectors are concatenated into a small dense head.
Extractor parameters are stored once no matter how many input channels
the model consumes.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import container, nn
from .errors import BadConfig, ChecksumMismatch, ShapeMismatch

CHECKPOINT_MAGIC = b"ULWM"
CHECKPOINT_VERSION = 1

CONV_SEPARABLE = "separable"
CONV_STANDARD = "standard"

# an infer-mode head scores a multiple of this many rows (see model_forward)
HEAD_ROWS = 8


def decode_json(blob: bytes | str, source) -> object:
    """Parse a UTF-8 JSON document; a malformed one raises BadConfig naming `source`."""
    try:
        return json.loads(blob if isinstance(blob, str) else str(blob, "utf-8"))
    except json.JSONDecodeError as e:
        raise BadConfig(f"{source}: line {e.lineno} column {e.colno}: {e.msg}") from None
    except (UnicodeDecodeError, RecursionError) as e:
        raise BadConfig(f"{source}: {e}") from None


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", tuple: "a list of integers"}


def _json_fits(value, default) -> bool:
    """Whether `value` has the JSON type of `default`: booleans are not
    integers, and a float field takes any number a finite float can hold."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_json_fits(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is type(default)


class JsonConfig:
    """The JSON form of a frozen config dataclass.

    Each field takes the JSON type of its default. `from_dict` checks keys
    and types, `__post_init__` ranges. Values are kept as given (an integer
    in a float field stays one), so `to_dict` returns what came in.
    """

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise BadConfig(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        if unknown := set(d) - set(defaults):
            raise BadConfig(f"{cls.__name__}: unknown config keys: {sorted(unknown)}")
        for name, value in d.items():
            if not _json_fits(value, defaults[name]):
                kind = _JSON_KINDS[type(defaults[name])]
                raise BadConfig(f"{cls.__name__}.{name} must be {kind}, got {value!r}")
        return cls(**d)

    @classmethod
    def from_json(cls, blob: bytes | str, source):
        """The one way in for config files and a checkpoint's config."""
        return cls.from_dict(decode_json(blob, source))


@dataclass(frozen=True)
class ModelConfig(JsonConfig):
    n_blocks: int = 3
    kernel_size: int = 3
    pool_size: int = 2
    pool_stride: int = 2
    filters: tuple[int, ...] = (8, 16, 32)
    conv_type: str = CONV_SEPARABLE
    n_input_channels: int = 4
    input_length: int = 3000
    head_hidden: int = 64
    n_classes: int = 5
    dropout_block: float = 0.1
    dropout_head: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        if self.n_blocks < 1:
            raise BadConfig(f"n_blocks must be >= 1, got {self.n_blocks}")
        if len(self.filters) != self.n_blocks:
            raise BadConfig(
                f"filters {self.filters} must have exactly n_blocks={self.n_blocks} entries"
            )
        if any(nxt <= prev for prev, nxt in zip(self.filters, self.filters[1:])):
            raise BadConfig(f"filters must be strictly increasing, got {self.filters}")
        if min(self.filters) < 1:
            raise BadConfig(f"filters must be >= 1, got {self.filters}")
        if self.kernel_size < 1 or self.pool_size < 1:
            raise BadConfig("kernel_size and pool_size must be >= 1")
        if self.pool_size > nn.MAX_POOL_SIZE:
            raise BadConfig(f"pool_size must be <= {nn.MAX_POOL_SIZE}, got {self.pool_size}")
        if self.kernel_size > 31:  # covers the paper's 3 and the study grid's 7
            raise BadConfig(f"kernel_size must be <= 31, got {self.kernel_size}")
        if self.pool_stride not in (1, 2, 4):
            raise BadConfig(f"pool_stride must be 1, 2 or 4, got {self.pool_stride}")
        if self.conv_type not in (CONV_SEPARABLE, CONV_STANDARD):
            raise BadConfig(f"conv_type must be separable or standard, got {self.conv_type!r}")
        if self.n_input_channels < 1 or self.input_length < 1:
            raise BadConfig("n_input_channels and input_length must be >= 1")
        if self.head_hidden < 1 or self.n_classes < 2:
            raise BadConfig("head_hidden must be >= 1 and n_classes >= 2")
        for rate in (self.dropout_block, self.dropout_head):
            if not 0.0 <= rate < 1.0:
                raise BadConfig(f"dropout rates must lie in [0, 1), got {rate}")


def variant_configs() -> dict[str, ModelConfig]:
    """The study grid: the default plus each single-axis variation."""
    return {
        "default": ModelConfig(),
        "blocks2": ModelConfig(n_blocks=2, filters=(16, 32)),
        "blocks4": ModelConfig(n_blocks=4, filters=(8, 16, 32, 64)),
        "ks7_ps4": ModelConfig(kernel_size=7, pool_size=4, pool_stride=2),
        "filters_4_8_16": ModelConfig(filters=(4, 8, 16)),
        "filters_16_32_64": ModelConfig(filters=(16, 32, 64)),
        "filters_16_32_64_128": ModelConfig(n_blocks=4, filters=(16, 32, 64, 128)),
        "standard_conv": ModelConfig(conv_type=CONV_STANDARD),
    }


# --- parameters -------------------------------------------------------------

@dataclass
class DsscParams:
    """One dual-stream block.

    Main stream: two (conv -> BN -> maxpool -> ReLU) stages at stride 1.
    ReLU is monotone, so it commutes with max pooling; after the pool it
    runs at the pooled length.
    Shortcut: two width-1 convolutions with biases, no BN or activation,
    each strided by pool_stride in the paper. Width 1 lets the first take
    both strides (pool_stride**2) and the second none, which computes only
    the outputs the second would read. The block output is their
    element-wise sum.
    """

    main_conv1: nn.ConvLike
    bn1: nn.BatchNormParams
    main_conv2: nn.ConvLike
    bn2: nn.BatchNormParams
    shortcut_conv1: nn.ConvLike
    shortcut_conv2: nn.ConvLike
    pool_size: int
    pool_stride: int


@dataclass
class ModelParams:
    config: ModelConfig
    blocks: list[DsscParams]
    head_hidden: nn.DenseParams
    head_out: nn.DenseParams
    crc32: str | None = None  # the CRC-32 load_checkpoint verified; None if not loaded


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _make_conv(
    rng: np.random.Generator, conv_type: str, k: int, m: int, n: int, stride: int, dtype
) -> nn.ConvLike:
    if conv_type == CONV_SEPARABLE:
        return nn.SepConvParams(
            depthwise=_glorot(rng, (k, m), k, k, dtype),
            pointwise=_glorot(rng, (m, n), m, n, dtype),
            bias=np.zeros(n, dtype=dtype),
            stride=stride,
        )
    return nn.ConvParams(
        kernel=_glorot(rng, (k, m, n), k * m, k * n, dtype),
        bias=np.zeros(n, dtype=dtype),
        stride=stride,
    )


def _make_bn(n: int, dtype) -> nn.BatchNormParams:
    return nn.BatchNormParams(
        gamma=np.ones(n, dtype=dtype),
        beta=np.zeros(n, dtype=dtype),
        running_mean=np.zeros(n, dtype=dtype),
        running_var=np.ones(n, dtype=dtype),
    )


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Initialize all parameter arrays; deterministic under the seed."""
    rng = np.random.default_rng(seed)
    blocks = []
    m = 1  # the extractor sees one physiological channel at a time
    for f in config.filters:
        blocks.append(
            DsscParams(
                main_conv1=_make_conv(rng, config.conv_type, config.kernel_size, m, f, 1, dtype),
                bn1=_make_bn(f, dtype),
                main_conv2=_make_conv(rng, config.conv_type, config.kernel_size, f, f, 1, dtype),
                bn2=_make_bn(f, dtype),
                shortcut_conv1=_make_conv(rng, config.conv_type, 1, m, f, config.pool_stride**2, dtype),
                shortcut_conv2=_make_conv(rng, config.conv_type, 1, f, f, 1, dtype),
                pool_size=config.pool_size,
                pool_stride=config.pool_stride,
            )
        )
        m = f
    concat_width = config.n_input_channels * config.filters[-1]
    head_hidden = nn.DenseParams(
        weight=_glorot(rng, (concat_width, config.head_hidden), concat_width, config.head_hidden, dtype),
        bias=np.zeros(config.head_hidden, dtype=dtype),
    )
    head_out = nn.DenseParams(
        weight=_glorot(rng, (config.head_hidden, config.n_classes), config.head_hidden, config.n_classes, dtype),
        bias=np.zeros(config.n_classes, dtype=dtype),
    )
    return ModelParams(config=config, blocks=blocks, head_hidden=head_hidden, head_out=head_out)


_BLOCK_LAYERS = ("main_conv1", "main_conv2", "shortcut_conv1", "shortcut_conv2", "bn1", "bn2")


def _layers(params: ModelParams) -> list[tuple[str, object]]:
    """(name, params object) of each parameterised layer, in checkpoint order."""
    blocks = [(f"blocks.{i}.{name}", getattr(blk, name))
              for i, blk in enumerate(params.blocks) for name in _BLOCK_LAYERS]
    return blocks + [("head_hidden", params.head_hidden), ("head_out", params.head_out)]


def named_arrays(params: ModelParams, trainable_only: bool = True):
    """(name, array) pairs in a fixed traversal order: each layer's leaves().

    With trainable_only off, BN running statistics follow each BN layer's
    leaves (they are part of a checkpoint but never see the optimizer).
    """
    for name, layer in _layers(params):
        stats = not trainable_only and isinstance(layer, nn.BatchNormParams)
        for leaf, arr in layer.leaves() + (layer.statistics() if stats else []):
            yield f"{name}.{leaf}", arr


def trainable_scalar_count(params: ModelParams) -> int:
    return sum(arr.size for _, arr in named_arrays(params, trainable_only=True))


def conv_kernels(params: ModelParams):
    """(name, array) of each conv leaf but its bias, in named_arrays order: the L2 set."""
    for name, layer in _layers(params):
        if isinstance(layer, nn.ConvLike):
            yield from ((f"{name}.{leaf}", a) for leaf, a in layer.leaves() if a is not layer.bias)


# --- forward / backward ------------------------------------------------------

def _store_grads(grads: dict[str, np.ndarray], name: str, layer, returned: tuple) -> np.ndarray | None:
    """Store a backward kernel's leaf gradients, returned[1:], as `name`.<leaf>; return grad_x."""
    for (leaf, _), g in zip(layer.leaves(), returned[1:], strict=True):
        grads[f"{name}.{leaf}"] = g
    return returned[0]


@dataclass
class DsscCache:
    conv1: nn.ConvCache
    bn1: nn.BatchNormCache | None  # None in infer mode
    pool1: nn.MaxPoolCache  # no argmax table in infer mode
    relu1: np.ndarray
    conv2: nn.ConvCache
    bn2: nn.BatchNormCache | None  # None in infer mode
    pool2: nn.MaxPoolCache  # no argmax table in infer mode
    relu2: np.ndarray
    shortcut1: nn.ConvCache
    shortcut2: nn.ConvCache


def dssc_forward(x: np.ndarray, p: DsscParams, mode: nn.Mode) -> tuple[np.ndarray, DsscCache]:
    """Main stream plus strided shortcut; both land on length ceil(L/ps^2)."""
    h, c1 = nn.conv1d_forward(x, p.main_conv1)
    h, b1 = nn.batchnorm_forward(h, p.bn1, mode)
    h, p1 = nn.maxpool1d_forward(h, p.pool_size, p.pool_stride, mode)
    h, r1 = nn.relu_forward(h)
    h, c2 = nn.conv1d_forward(h, p.main_conv2)
    h, b2 = nn.batchnorm_forward(h, p.bn2, mode)
    h, p2 = nn.maxpool1d_forward(h, p.pool_size, p.pool_stride, mode)
    h, r2 = nn.relu_forward(h)
    s, s1 = nn.conv1d_forward(x, p.shortcut_conv1)
    s, s2 = nn.conv1d_forward(s, p.shortcut_conv2)
    if h.shape != s.shape:
        raise ShapeMismatch(f"main {h.shape} vs shortcut {s.shape}")
    return h + s, DsscCache(c1, b1, p1, r1, c2, b2, p2, r2, s1, s2)


def dssc_backward(
    cache: DsscCache, grad_out: np.ndarray, prefix: str, grads: dict[str, np.ndarray],
    input_grad: bool,
) -> np.ndarray | None:
    """Store this block's parameter gradients in `grads`; return grad_x, or None
    without input_grad, where the block's input convs compute no input gradient."""

    def backward(name: str, kernel, layer_cache, g: np.ndarray, **kw) -> np.ndarray | None:
        return _store_grads(grads, f"{prefix}.{name}", layer_cache.params,
                            kernel(layer_cache, g, **kw))

    g = nn.relu_backward(cache.relu2, grad_out)
    g = nn.maxpool1d_backward(cache.pool2, g)
    g = backward("bn2", nn.batchnorm_backward, cache.bn2, g)
    g = backward("main_conv2", nn.conv1d_backward, cache.conv2, g)
    g = nn.relu_backward(cache.relu1, g)
    g = nn.maxpool1d_backward(cache.pool1, g)
    g = backward("bn1", nn.batchnorm_backward, cache.bn1, g)
    g = backward("main_conv1", nn.conv1d_backward, cache.conv1, g, input_grad=input_grad)

    gs = backward("shortcut_conv2", nn.conv1d_backward, cache.shortcut2, grad_out)
    gs = backward("shortcut_conv1", nn.conv1d_backward, cache.shortcut1, gs, input_grad=input_grad)
    return g + gs if input_grad else None


@dataclass
class ExtractorCache:
    blocks: list[DsscCache]
    dropout_masks: list[np.ndarray | None]
    gap_length: int


def extractor_forward(
    x_c: np.ndarray,
    params: ModelParams,
    mode: nn.Mode,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ExtractorCache]:
    """Single-channel rows (N, 1, T) -> pooled features (N, F_n).

    model_forward stacks all C physiological channels of a batch into the
    leading axis and runs this extractor exactly once: that is what
    parameter sharing means operationally, and in train mode the batch
    statistics pool over every channel's rows.
    """
    if x_c.ndim != 3 or x_c.shape[1] != 1:
        raise ShapeMismatch(f"extractor consumes (N, 1, T) rows, got {x_c.shape}")
    cfg = params.config
    block_caches, masks = [], []
    h = x_c
    for i, blk in enumerate(params.blocks):
        h, cache = dssc_forward(h, blk, mode)
        block_caches.append(cache)
        if i < len(params.blocks) - 1:
            h, mask = nn.dropout_forward(h, cfg.dropout_block, mode, rng)
            masks.append(mask)
    feats, gap_length = nn.global_avg_pool_forward(h)
    return feats, ExtractorCache(block_caches, masks, gap_length)


def extractor_backward(
    cache: ExtractorCache, grad_feats: np.ndarray, grads: dict[str, np.ndarray]
) -> None:
    """Store the extractor's parameter gradients in `grads`; nothing reads the input's."""
    g = nn.global_avg_pool_backward(cache.gap_length, grad_feats)
    for i in reversed(range(1, len(cache.blocks))):
        g = dssc_backward(cache.blocks[i], g, f"blocks.{i}", grads, input_grad=True)
        g = nn.dropout_backward(cache.dropout_masks[i - 1], g)
    dssc_backward(cache.blocks[0], g, "blocks.0", grads, input_grad=False)


@dataclass
class ModelCache:
    config: ModelConfig
    extractor: ExtractorCache
    dense1_x: np.ndarray  # in infer mode, this, relu_mask and dense2_x hold the head's padding
    relu_mask: np.ndarray
    dropout_mask: np.ndarray | None
    dense2_x: np.ndarray
    head_hidden: nn.DenseParams
    head_out: nn.DenseParams
    logits: np.ndarray
    probs: np.ndarray


def model_forward(
    x: np.ndarray,
    params: ModelParams,
    mode: nn.Mode = "infer",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ModelCache]:
    """(B, C, T) -> class probabilities (B, n_classes).

    The C channels are folded into the batch axis, pushed through the
    shared extractor once, and the per-channel feature vectors come back
    concatenated in channel order for the dense head. In infer mode the
    head runs on zero rows past the B real ones, up to a multiple of
    HEAD_ROWS, so an epoch scores the same bit for bit in a batch of any
    size; logits and probs keep the real rows only.
    """
    cfg = params.config
    if x.ndim != 3 or x.shape[1] != cfg.n_input_channels:
        raise ShapeMismatch(
            f"expected (B, {cfg.n_input_channels}, T) input, got {x.shape}"
        )
    b, c, t = x.shape
    stacked = np.ascontiguousarray(x).reshape(b * c, 1, t)
    feats, extractor_cache = extractor_forward(stacked, params, mode, rng)
    concat = feats.reshape(b, c * cfg.filters[-1])
    if mode == "infer" and b % HEAD_ROWS:
        # BLAS rounds the head's products by their row count: zero rows up to a
        # multiple of HEAD_ROWS keep each epoch's scores apart from its batch's size
        pad = np.zeros((HEAD_ROWS - b % HEAD_ROWS, concat.shape[1]), dtype=concat.dtype)
        concat = np.concatenate([concat, pad])

    h, dense1_x = nn.dense_forward(concat, params.head_hidden)
    h, relu_mask = nn.relu_forward(h)
    h, dropout_mask = nn.dropout_forward(h, cfg.dropout_head, mode, rng)
    logits, dense2_x = nn.dense_forward(h, params.head_out)
    logits = logits[:b]
    probs = nn.softmax(logits)
    return probs, ModelCache(
        cfg, extractor_cache, dense1_x, relu_mask, dropout_mask, dense2_x,
        params.head_hidden, params.head_out, logits, probs,
    )


def model_backward(cache: ModelCache, labels: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of mean cross-entropy w.r.t. every trainable array.

    Extractor gradients sum the per-channel contributions (the adjoint of
    parameter sharing), which the channel-stacked batch axis does for free.
    """
    grads: dict[str, np.ndarray] = {}
    g = nn.softmax_xent_backward(cache.probs, np.asarray(labels))
    g = _store_grads(grads, "head_out", cache.head_out,
                     nn.dense_backward(cache.head_out, cache.dense2_x, g))
    g = nn.dropout_backward(cache.dropout_mask, g)
    g = nn.relu_backward(cache.relu_mask, g)
    g = _store_grads(grads, "head_hidden", cache.head_hidden,
                     nn.dense_backward(cache.head_hidden, cache.dense1_x, g))

    extractor_backward(cache.extractor, g.reshape(-1, cache.config.filters[-1]), grads)
    return grads


def model_loss(cache: ModelCache, labels: np.ndarray) -> float:
    """Mean cross-entropy of a finished forward pass."""
    return nn.softmax_xent_forward(cache.logits, np.asarray(labels))


def predict(params: ModelParams, x: np.ndarray, batch_size: int = 8):
    """Infer-mode forward over all epochs: (predicted labels, probabilities).

    Rows are scored independently and the head pads every batch to a
    multiple of HEAD_ROWS rows, so the batch size changes memory and speed
    but not the result: each epoch's probabilities are the same bit for bit
    wherever its batch ends. At 8 epochs the default model's largest
    activation, block 0's convolution output, is ~3 MB, so a batch's
    working set stays near the CPU's caches; at 32 it is 12 MB, and at 256
    it is 98 MB, above the size that malloc serves from its heap, so every
    such array is mapped and page-faulted afresh and predict got slower,
    not faster.
    """
    probs = np.concatenate(
        [np.zeros((0, params.config.n_classes), dtype=x.dtype)]
        + [model_forward(x[i : i + batch_size], params, mode="infer")[0]
           for i in range(0, len(x), batch_size)]
    )
    return probs.argmax(axis=1), probs


# --- checkpoint io -----------------------------------------------------------
#
# magic "ULWM" | u8 version | u32 config-JSON length | config JSON
# | parameter arrays as raw float32 LE in named_arrays(trainable_only=False)
#   order | u32 CRC-32 of everything after the magic


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    config_blob = json.dumps(params.config.to_dict(), sort_keys=True).encode("utf-8")
    parts = [len(config_blob).to_bytes(4, "little") + config_blob]
    parts += [
        np.ascontiguousarray(arr, dtype="<f4")
        for _, arr in named_arrays(params, trainable_only=False)
    ]
    container.write(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, parts)


def load_checkpoint(path: str | Path) -> ModelParams:
    from .complexity import count_flops  # complexity imports this module

    body, crc = container.read(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "model checkpoint")
    n_cfg = int.from_bytes(body[:4], "little")
    config = ModelConfig.from_json(body[4 : 4 + n_cfg], f"{path}: config")
    pos = 4 + n_cfg
    # sized before anything is allocated: the trainable scalars plus each
    # block's bn1 and bn2 running mean and variance, float32 each
    expected = 4 * (count_flops(config).total_params + 4 * sum(config.filters))
    if len(body) - pos != expected:
        raise ChecksumMismatch(
            f"{path}: payload is {len(body) - pos} bytes, its config needs {expected}"
        )
    params = build_model(config, seed=0, dtype=np.float32)
    for _, arr in named_arrays(params, trainable_only=False):
        arr[...] = np.frombuffer(body, dtype="<f4", count=arr.size, offset=pos).reshape(arr.shape)
        pos += arr.size * 4
    params.crc32 = crc
    return params
