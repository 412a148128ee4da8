"""In-memory span tracer that wraps ulws's public functions from outside.

Each public function of a layer module is replaced, in every layer
module's namespace that binds it, by a wrapper that records a span
[name, start, end, parent, run_id, tag, size]. Wrapping the name where
the caller looks it up matters: `training` imports `predict` by name, so
replacing only `ulws.model.predict` would miss its calls.

Model spans are tagged with the `complexity.count_flops` row they belong
to. Convolution, batch-norm and dense calls are keyed by the identity of
the parameter object they receive; ReLU and max-pool forwards by the
identity of the mask or cache they return, which the enclosing block's
cache names; backward calls by the cache or mask they receive. The self
time of `dssc_forward` / `dssc_backward` is the block's residual add.

No ulws code changes and nothing is recomputed: the program runs once and
the spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types

LAYERS = ("cli", "edf", "preprocess", "nn", "model", "training", "evaluation")

NAME, START, END, PARENT, RUN, TAG, SIZE = range(7)

_BLOCK_FIELDS = ("main_conv1", "bn1", "main_conv2", "bn2", "shortcut_conv1", "shortcut_conv2")
_CACHE_FIELDS = ("relu1", "pool1", "relu2", "pool2")
_CACHE_ROWS = {"relu1": "relu1", "pool1": "maxpool1", "relu2": "relu2", "pool2": "maxpool2"}

# how each row-bearing ulws.nn kernel names its row
_KEYED_BY_RESULT = {"relu_forward", "maxpool1d_forward"}
_KEYED_BY_PARAMS = {"sepconv1d_forward", "conv1d_forward", "batchnorm_forward", "dense_forward"}
_KEYED_BY_CACHE_PARAMS = {"sepconv1d_backward", "conv1d_backward", "batchnorm_backward"}
_KEYED_BY_FIRST_ARG = {"relu_backward", "maxpool1d_backward", "dense_backward"}


def ulws_modules() -> dict[str, types.ModuleType]:
    return {layer: importlib.import_module(f"ulws.{layer}") for layer in LAYERS}


def patch_everywhere(original, replacement) -> list[tuple[dict, str, object]]:
    """Rebind every layer-module name that refers to `original`; return undo records."""
    undo = []
    for module in ulws_modules().values():
        for name, value in list(vars(module).items()):
            if value is original:
                undo.append((vars(module), name, value))
                vars(module)[name] = replacement
    return undo


def restore(undo: list[tuple[dict, str, object]]) -> None:
    for namespace, name, value in reversed(undo):
        namespace[name] = value


def public_functions(module: types.ModuleType):
    for name, value in vars(module).items():
        if (isinstance(value, types.FunctionType) and value.__module__ == module.__name__
                and not name.startswith("_") and not inspect.isgeneratorfunction(value)):
            yield name, value


class Tracer:
    """Collects spans while installed; `install`/`uninstall` patch and restore."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.config = None  # ModelConfig of the last traced model_forward
        self._stack: list[int] = []
        self._run = -1
        self._undo: list = []
        self._rows: dict[int, str] = {}  # id(param object / cache / mask) -> row
        self._blocks: dict[int, int] = {}  # id(DsscParams) -> block index
        self._pending: list[tuple[list, int]] = []  # (span, id of returned cache)

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        for layer, module in ulws_modules().items():
            for name, fn in list(public_functions(module)):
                self._undo += patch_everywhere(fn, self._wrap(f"{layer}.{name}", fn))
        return self

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        if after is None and name.startswith("nn."):
            after = self._after_nn
        root = name == "cli.main"
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if root and not stack:
                self._run += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._run, None, 0]
            if before is not None:
                before(span, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.monotonic()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    # -- row attribution -----------------------------------------------------

    def _register(self, params) -> None:
        self.config = params.config
        rows = self._rows
        for i, blk in enumerate(params.blocks):
            self._blocks[id(blk)] = i
            for field in _BLOCK_FIELDS:
                rows[id(getattr(blk, field))] = f"block{i}.{field}"
        rows[id(params.head_hidden)] = "head_hidden"
        rows[id(params.head_out)] = "head_out"

    def _resolve(self, named: dict[int, str]) -> None:
        """Tag pending ReLU/max-pool forwards by the object they returned."""
        self._rows.update(named)
        for span, obj_id in self._pending:
            span[TAG] = named.get(obj_id, span[TAG])
        self._pending.clear()

    def _before_model_model_forward(self, span, args, kwargs) -> None:
        self._register(args[1] if len(args) > 1 else kwargs["params"])
        span[TAG] = args[2] if len(args) > 2 else kwargs.get("mode", "infer")
        span[SIZE] = len(args[0])

    def _after_model_model_forward(self, span, args, kwargs, result) -> None:
        self._resolve({id(result[1].relu_mask): "head_relu"})

    def _before_model_dssc_forward(self, span, args, kwargs) -> None:
        span[TAG] = f"block{self._blocks.get(id(args[1]), '?')}.residual_add"

    def _after_model_dssc_forward(self, span, args, kwargs, result) -> None:
        block = span[TAG].split(".")[0]
        cache = result[1]
        self._resolve({id(getattr(cache, f)): f"{block}.{_CACHE_ROWS[f]}" for f in _CACHE_FIELDS})

    def _before_model_dssc_backward(self, span, args, kwargs) -> None:
        prefix = args[2] if len(args) > 2 else kwargs["prefix"]
        span[TAG] = f"block{prefix.split('.')[-1]}.residual_add"

    def _after_nn(self, span, args, kwargs, result) -> None:
        kernel = span[NAME][3:]
        if kernel in _KEYED_BY_RESULT:
            self._pending.append((span, id(result[1])))
        elif kernel in _KEYED_BY_PARAMS:
            span[TAG] = self._rows.get(id(args[1]))
        elif kernel in _KEYED_BY_CACHE_PARAMS:
            span[TAG] = self._rows.get(id(args[0].params))
        elif kernel in _KEYED_BY_FIRST_ARG:
            span[TAG] = self._rows.get(id(args[0]))
        elif kernel.startswith("global_avg_pool"):
            span[TAG] = "global_avg_pool"

    # -- sizes for throughput metrics -------------------------------------

    def _after_edf_read_signal(self, span, args, kwargs, result) -> None:
        span[SIZE] = int(result.samples.size) * 2  # 16-bit words read from the file

    def _after_preprocess_filtfilt(self, span, args, kwargs, result) -> None:
        span[SIZE] = int(result.size)

    def _after_preprocess_write_cache(self, span, args, kwargs, result) -> None:
        span[SIZE] = int(args[0].x.nbytes)

    def _after_preprocess_read_cache(self, span, args, kwargs, result) -> None:
        span[SIZE] = int(result.x.nbytes)
