"""Closed-form per-layer parameter and FLOPs accounting.

Parameter counts are exact (trainable scalars only: conv kernels and
biases, BN gamma/beta, dense weights; BN running statistics excluded) and
must agree with the built model to the integer.

FLOPs follow a documented convention for one inference forward pass of a
single epoch over all input channels plus the head:
  - 2 FLOPs per multiply-accumulate for convolutions and dense layers,
  - +1 per output element for a bias add,
  - 2 per element for inference-form batch norm,
  - 1 per element for ReLU and for the residual add,
  - (pool_size - 1) per output element for max pooling,
  - L + 1 per feature for global average pooling.
All intermediate lengths use the same ceil(L / stride) arithmetic as the
kernels themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadConfig
from .model import CONV_SEPARABLE, ModelConfig
from .nn import ceil_div

CONVENTION = (
    "params: trainable scalars only (BN running stats excluded); "
    "flops: one inference pass of one epoch over all channels plus head, "
    "2/MAC for conv and dense, +1/elem bias, 2/elem inference BN, "
    "1/elem ReLU, (pool_size-1)/elem maxpool, 1/elem residual add, "
    "(L+1)/feature global average pool"
)


@dataclass(frozen=True)
class LayerRow:
    name: str
    params: int
    flops: int


@dataclass
class ComplexityReport:
    rows: list[LayerRow]
    total_params: int
    total_flops: int

    def to_dict(self) -> dict:
        return {
            "rows": [{"layer": r.name, "params": r.params, "flops": r.flops} for r in self.rows],
            "total_params": self.total_params,
            "total_flops": self.total_flops,
            "convention": CONVENTION,
        }

    def format_text(self) -> str:
        width = max(len(r.name) for r in self.rows) if self.rows else 10
        lines = [f"{'layer':<{width}}  {'params':>10}  {'flops':>12}"]
        for r in self.rows:
            lines.append(f"{r.name:<{width}}  {r.params:>10}  {r.flops:>12}")
        lines.append(f"convention: {CONVENTION}")
        lines.append(f"total_flops {self.total_flops}")
        lines.append(f"total_params {self.total_params}")
        return "\n".join(lines)


def _conv_params(conv_type: str, k: int, m: int, n: int) -> int:
    if conv_type == CONV_SEPARABLE:
        return k * m + m * n + n
    return k * m * n + n


def count_flops(config: ModelConfig) -> ComplexityReport:
    """Per-layer params and FLOPs for one forward pass at `config.input_length`."""
    if not isinstance(config, ModelConfig):
        raise BadConfig(f"expected ModelConfig, got {type(config)}")
    c = config.n_input_channels
    rows: list[LayerRow] = []

    def row(name: str, params: int, flops: int, shared: bool = True) -> None:
        # extractor work repeats for each of the C channels; its parameters do not
        rows.append(LayerRow(name, params, flops * c if shared else flops))

    def conv_row(name: str, k: int, m: int, n: int, out_length: int) -> None:
        # either conv type multiplies each weight scalar once per output sample, then adds the bias
        params = _conv_params(config.conv_type, k, m, n)
        row(name, params, (2 * params - n) * out_length)

    m, length = 1, config.input_length
    for i, f in enumerate(config.filters):
        ks, ps, stride = config.kernel_size, config.pool_size, config.pool_stride
        pooled1 = ceil_div(length, stride)
        pooled2 = ceil_div(pooled1, stride)
        pre = f"block{i}"
        conv_row(f"{pre}.main_conv1", ks, m, f, length)
        row(f"{pre}.bn1", 2 * f, 2 * f * length)
        row(f"{pre}.relu1", 0, f * length)
        row(f"{pre}.maxpool1", 0, (ps - 1) * f * pooled1)
        conv_row(f"{pre}.main_conv2", ks, f, f, pooled1)
        row(f"{pre}.bn2", 2 * f, 2 * f * pooled1)
        row(f"{pre}.relu2", 0, f * pooled1)
        row(f"{pre}.maxpool2", 0, (ps - 1) * f * pooled2)
        conv_row(f"{pre}.shortcut_conv1", 1, m, f, pooled1)
        conv_row(f"{pre}.shortcut_conv2", 1, f, f, pooled2)
        row(f"{pre}.residual_add", 0, f * pooled2)
        m, length = f, pooled2

    f_n = config.filters[-1]
    row("global_avg_pool", 0, f_n * (length + 1))
    concat = c * f_n
    h = config.head_hidden
    row("head_hidden", concat * h + h, 2 * concat * h + h, shared=False)
    row("head_relu", 0, h, shared=False)
    row("head_out", h * config.n_classes + config.n_classes,
        2 * h * config.n_classes + config.n_classes, shared=False)
    return ComplexityReport(
        rows=rows,
        total_params=sum(r.params for r in rows),
        total_flops=sum(r.flops for r in rows),
    )

