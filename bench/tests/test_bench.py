"""Tests of the benchmark itself: generators, row attribution, metric names.

    python3 -m pytest bench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
from ulws import edf, model, nn  # noqa: E402
from ulws.complexity import count_flops  # noqa: E402
from ulws.model import ModelConfig, build_model  # noqa: E402
from ulws.preprocess import preprocess_record  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# scripts/synthetic_demo.py's model
SMALL = ModelConfig(n_blocks=3, filters=(4, 8, 16), n_input_channels=2, input_length=500,
                    head_hidden=16)


# --- generators ---------------------------------------------------------------

def test_edf_generators_are_deterministic_under_a_seed():
    first = gen.psg_bytes(np.random.default_rng(4), 6, 100)
    assert first == gen.psg_bytes(np.random.default_rng(4), 6, 100)
    assert first != gen.psg_bytes(np.random.default_rng(5), 6, 100)
    assert gen.night_plan(4) == gen.night_plan(4)
    assert gen.night_plan(4) != gen.night_plan(5)


@pytest.mark.parametrize("workload", ["predict", "train"])
def test_cache_and_checkpoint_generators_are_deterministic(tmp_path, workload):
    gen.write_inputs(workload, 3, tmp_path / "a")
    gen.write_inputs(workload, 3, tmp_path / "b")
    gen.write_inputs(workload, 4, tmp_path / "c")
    for f in (tmp_path / "a").iterdir():
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name
    cache = {"predict": "predict.ulws", "train": "train.ulws"}[workload]
    assert (tmp_path / "a" / cache).read_bytes() != (tmp_path / "c" / cache).read_bytes()


def test_checkpoint_has_non_trivial_batch_norm():
    params = gen.checkpoint_params(0)
    for blk in params.blocks:
        for bn in (blk.bn1, blk.bn2):
            assert not np.allclose(bn.gamma, 1) and not np.allclose(bn.beta, 0)
            assert not np.allclose(bn.running_mean, 0) and not np.allclose(bn.running_var, 1)


def test_generated_night_parses_and_preprocesses_to_expected_labels(tmp_path):
    rng = np.random.default_rng(0)
    stages = gen.stage_sequence(rng, 400)
    psg, hyp = tmp_path / "SC4001E0-PSG.edf", tmp_path / "SC4001EC-Hypnogram.edf"
    psg.write_bytes(gen.psg_bytes(rng, 400, 100))
    hyp.write_bytes(gen.hypnogram_bytes(stages))
    record = edf.load_record(psg, hyp, gen.CHANNELS)
    assert (record.subject_key, record.night) == ("SC400", 1)
    x, y = preprocess_record(record, gen.CHANNELS)
    assert y.tolist() == gen.expected_labels(stages)
    assert len(y) < len([s for s in stages if s not in gen.EXCLUDED])  # trimming cut epochs
    assert set(stages) >= {"Sleep stage W", "Sleep stage R", "Sleep stage ?"}


def test_one_hertz_emg_pair_is_rejected(tmp_path):
    psg = tmp_path / "SC4031E0-PSG.edf"
    psg.write_bytes(gen.psg_bytes(np.random.default_rng(0), 10, 1))
    header = edf.parse_edf_header(psg.read_bytes())
    assert header.sample_rate_hz(header.signal_index("EMG submental")) == 1.0


# --- tracing and row attribution -----------------------------------------------

def traced_small_model():
    params = build_model(SMALL, seed=0)
    x = np.random.default_rng(0).standard_normal((3, 2, 500)).astype(np.float32)
    with tracer.Tracer() as t:
        model.predict(params, x)
        _, cache = model.model_forward(x, params, mode="train", rng=np.random.default_rng(1))
        model.model_backward(cache, np.array([0, 1, 2]))
    return t


def test_every_count_flops_row_gets_time_in_each_mode():
    t = traced_small_model()
    rows = [{"layer": r.name} for r in count_flops(SMALL).rows]
    assert layers.missing_rows(t.spans, rows) == {"infer": [], "train": [], "bwd": []}
    times, epochs = layers.row_times(t.spans)
    assert epochs == {"infer": 3, "train": 3}
    assert set(times["infer"]) == {r["layer"] for r in rows}


def test_tracer_restores_every_function():
    before = {name: dict(vars(m)) for name, m in tracer.ulws_modules().items()}
    traced_small_model()
    for name, module in tracer.ulws_modules().items():
        assert vars(module) == before[name], name
    assert model.nn is nn and nn.relu_forward.__module__ == "ulws.nn"


def test_kernel_calls_count_outermost_nn_calls_per_infer_batch():
    t = traced_small_model()
    # per block: 4 convs, 2 BN, 2 ReLU, 2 max-pool; 2 dropouts; GAP, 2 dense, ReLU, dropout, softmax
    assert layers.kernel_calls_per_batch(t.spans) == 3 * 10 + 2 + 6


def test_self_times_and_tail_percentile():
    spans = [["cli.main", 0.0, 10.0, -1, 0, None, 0], ["edf.read_signal", 1.0, 4.0, 0, 0, None, 0],
             ["nn.relu_forward", 2.0, 3.0, 1, 0, None, 0]]
    assert layers.self_times(spans) == [7.0, 2.0, 1.0]
    assert layers.cli_self_seconds(spans) == 7.0
    assert layers.tail_percentile(10) is None
    assert layers.tail_percentile(24) == 58
    assert 24 - (24 * 58) // 100 >= 10


# --- BENCHMARK.json -------------------------------------------------------------

def test_metric_names_and_counts():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    assert {"setup_s", "epochs_per_s", "peak_rss_mib", "pooled_acc"} <= set(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)


def test_per_layer_rows_are_the_default_count_flops_rows():
    rows = [r.name for r in count_flops(ModelConfig()).rows]
    assert len(rows) == 37
    names = {m["name"] for m in SPEC["per_layer"]}
    for row in rows:
        assert {f"infer.{row}.us", f"train.{row}.fwd_us", f"train.{row}.bwd_us"} <= names
    assert len([n for n in names if n.startswith(("infer.", "train."))]) == 3 * len(rows)
    assert set(layers.row_bytes(ModelConfig().to_dict())) == set(rows)
