import numpy as np
import pytest

from ulws.complexity import count_flops
from ulws.errors import BadConfig
from ulws.model import (
    ModelConfig,
    build_model,
    named_arrays,
    trainable_scalar_count,
    variant_configs,
)

# reference figures for the eight study configurations
EXPECTED_PARAMS = {
    "default": 13_337,
    "blocks2": 12_841,
    "blocks4": 34_713,
    "ks7_ps4": 13_661,
    "filters_4_8_16": 5_873,
    "filters_16_32_64": 34_217,
    "filters_16_32_64_128": 101_545,
    "standard_conv": 16_997,
}
EXPECTED_FLOPS = {
    "default": 7.89e6,
    "blocks2": 17.39e6,
    "blocks4": 10.39e6,
    "ks7_ps4": 9.19e6,
    "filters_4_8_16": 2.54e6,
    "filters_16_32_64": 27.22e6,
    "filters_16_32_64_128": 36.92e6,
    "standard_conv": 15.03e6,
}

# the exact totals of the convention above, which the rounded figures cannot pin
EXACT_FLOPS = {
    "default": 8_305_573,
    "blocks2": 18_105_765,
    "blocks4": 10_841_509,
    "ks7_ps4": 9_614_245,
    "filters_4_8_16": 2_753_381,
    "filters_16_32_64": 28_060_709,
    "filters_16_32_64_128": 37_818_405,
    "standard_conv": 15_453_253,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_PARAMS))
def test_exact_parameter_counts(name):
    cfg = variant_configs()[name]
    assert count_flops(cfg).total_params == EXPECTED_PARAMS[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_FLOPS))
def test_flops_within_ten_percent(name):
    cfg = variant_configs()[name]
    total = count_flops(cfg).total_flops
    assert abs(total - EXPECTED_FLOPS[name]) <= 0.10 * EXPECTED_FLOPS[name]


def test_exact_flops_of_every_variant():
    assert {name: count_flops(cfg).total_flops
            for name, cfg in variant_configs().items()} == EXACT_FLOPS


def random_config(rng: np.random.Generator) -> ModelConfig:
    n_blocks = int(rng.integers(1, 5))
    start = int(rng.integers(1, 9))
    filters = tuple(start * 2**i for i in range(n_blocks))
    return ModelConfig(
        n_blocks=n_blocks,
        filters=filters,
        kernel_size=int(rng.choice([1, 3, 5, 7])),
        pool_size=int(rng.choice([2, 4])),
        pool_stride=int(rng.choice([2, 4])),
        conv_type=str(rng.choice(["separable", "standard"])),
        n_input_channels=int(rng.integers(1, 6)),
        input_length=int(rng.integers(64, 512)),
        head_hidden=int(rng.integers(4, 65)),
    )


def test_count_matches_built_model_for_random_configs():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        cfg = random_config(rng)
        built = trainable_scalar_count(build_model(cfg, seed=0))
        assert count_flops(cfg).total_params == built, cfg


def test_checkpoint_floats_are_the_params_plus_bn_running_stats():
    # load_checkpoint sizes a payload by this identity before it builds the model
    rng = np.random.default_rng(2025)
    configs = [*variant_configs().values(), *(random_config(rng) for _ in range(30))]
    for cfg in configs:
        stored = sum(arr.size for _, arr in named_arrays(build_model(cfg, seed=0),
                                                         trainable_only=False))
        assert stored == count_flops(cfg).total_params + 4 * sum(cfg.filters), cfg


def test_report_totals_equal_row_sums():
    report = count_flops(ModelConfig())
    assert report.total_params == sum(r.params for r in report.rows)
    assert report.total_flops == sum(r.flops for r in report.rows)


def test_extractor_params_independent_of_channels():
    def rows(cfg):
        return {r.name: r.params for r in count_flops(cfg).rows}

    one = rows(ModelConfig(n_input_channels=1))
    four = rows(ModelConfig(n_input_channels=4))
    for name in one:
        if name.startswith("block"):
            assert one[name] == four[name]
    # the head input width is the only C-dependent row
    assert four["head_hidden"] - one["head_hidden"] == (4 - 1) * 32 * 64


def test_extractor_flops_scale_linearly_in_channels():
    def flops(cfg):
        return {r.name: r.flops for r in count_flops(cfg).rows}

    one = flops(ModelConfig(n_input_channels=1))
    three = flops(ModelConfig(n_input_channels=3))
    for name in one:
        if name.startswith("block") or name == "global_avg_pool":
            assert three[name] == 3 * one[name], name


def test_flops_text_report_format():
    text = count_flops(ModelConfig()).format_text()
    lines = text.splitlines()
    assert lines[-1] == "total_params 13337"
    assert lines[-2].startswith("total_flops ")


def test_bad_config_rejected():
    with pytest.raises(BadConfig):
        ModelConfig(n_blocks=0, filters=())
    with pytest.raises(BadConfig):
        count_flops("not a config")
