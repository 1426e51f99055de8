import hashlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regimetrics import (
    MappedSeries,
    Pcg32,
    ProcessConfig,
    ScenarioConfig,
    ValidationError,
    compare_regimes,
    generate_series,
    indicator_series,
    paired_scenarios,
    write_scenario,
)
from regimetrics import prng
from regimetrics.cli import main
from regimetrics.prng import symmetric_draws
from regimetrics.synth import _triangle

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def scenario(**overrides):
    defaults = dict(
        seed=11,
        periods=30,
        processes=(
            ProcessConfig("logging", channels=2, base_level=120.0, amplitude=15.0,
                          period_length=12, noise_scale=4.0),
            ProcessConfig("river-delivery", channels=1, base_level=60.0, amplitude=8.0,
                          period_length=6, noise_scale=2.0),
            ProcessConfig("production", channels=2, base_level=200.0, amplitude=25.0,
                          period_length=12, noise_scale=6.0),
        ),
        intervention_period=7,
        intervention_cost_per_period=10.0,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


# --- pcg32 substreams -------------------------------------------------------


def test_pcg32_matches_published_demo_vector():
    # first round of the reference pcg32 demo: seed 42, sequence 54
    generator = Pcg32(42, 54)
    outputs = [generator.next_uint32() for _ in range(6)]
    assert outputs == [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]


def test_pcg32_doubles_lie_in_unit_interval():
    generator = Pcg32(7, 0)
    values = [generator.next_double() for _ in range(1000)]
    assert all(0.0 <= value < 1.0 for value in values)
    symmetric = Pcg32(7, 1)
    values = [symmetric.next_unit_interval_symmetric() for _ in range(1000)]
    assert all(-1.0 <= value < 1.0 for value in values)


def test_pcg32_streams_are_distinct():
    a = Pcg32(123, 0)
    b = Pcg32(123, 1)
    assert [a.next_uint32() for _ in range(8)] != [b.next_uint32() for _ in range(8)]


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda: Pcg32(1, stream=-1), "stream must be non-negative, got -1"),
        (lambda: symmetric_draws(-1, 1, 1), "seed must be a 64-bit unsigned integer, got -1"),
        (lambda: symmetric_draws(1 << 64, 1, 1),
         f"seed must be a 64-bit unsigned integer, got {1 << 64}"),
    ],
    ids=["negative-stream", "negative-seed", "seed-past-64-bits"],
)
def test_generators_refuse_out_of_range_arguments(draw, message):
    with pytest.raises(ValueError) as excinfo:
        draw()
    assert str(excinfo.value) == message


def test_pcg32_rejects_out_of_range_seed():
    with pytest.raises(ValueError):
        Pcg32(-1)
    with pytest.raises(ValueError):
        Pcg32(1 << 64)


def scalar_draws(seed, streams, periods):
    draws = np.empty((periods, streams))
    for c in range(streams):
        generator = Pcg32(seed, stream=c)
        draws[:, c] = [generator.next_unit_interval_symmetric() for _ in range(periods)]
    return draws


def scalar_series(config):
    # generate_series one value at a time from the scalar Pcg32
    columns = []
    stream = 0
    for proc in config.processes:
        for c in range(proc.channels):
            generator = Pcg32(config.seed, stream=stream)
            column = []
            for t in range(1, config.periods + 1):
                value = proc.base_level + proc.amplitude * _triangle(t, proc.period_length)
                draw = generator.next_unit_interval_symmetric()
                if proc.noise_scale:
                    value += proc.noise_scale * draw
                if c == 0 and config.intervention_period is not None:
                    if t >= config.intervention_period:
                        value += config.intervention_cost_per_period
                column.append(value)
            columns.append(column)
            stream += 1
    return np.array(columns).T


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


seeds = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


@PROPERTY
@given(seeds, st.integers(1, 40), st.integers(0, 30), st.integers(1, 3000))
@example(seed=0, streams=1, periods=1, budget=1)
@example(seed=2**64 - 1, streams=3, periods=7, budget=300)
def test_symmetric_draws_match_scalar_pcg32(seed, streams, periods, budget):
    # a small budget puts chunk boundaries every few periods
    with mock.patch.object(prng, "_CHUNK_BYTES", budget):
        draws = symmetric_draws(seed, streams, periods)
    assert same_bits(draws, scalar_draws(seed, streams, periods))


def test_symmetric_draws_match_scalar_pcg32_for_many_streams():
    assert same_bits(symmetric_draws(2**64 - 1, 300, 3), scalar_draws(2**64 - 1, 300, 3))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_symmetric_draws_cross_default_chunk_boundaries(offset):
    chunk = prng._chunk_periods(2)
    periods = 2 * chunk + offset
    assert same_bits(symmetric_draws(5, 2, periods), scalar_draws(5, 2, periods))


@st.composite
def process_configs(draw, index):
    return ProcessConfig(
        f"p{index}",
        channels=draw(st.integers(1, 4)),
        base_level=draw(st.floats(-1e6, 1e6)),
        amplitude=draw(st.one_of(st.just(0.0), st.floats(-100, 100))),
        period_length=draw(st.integers(1, 15)),
        noise_scale=draw(st.one_of(st.just(0.0), st.floats(0, 1e3))),
    )


@st.composite
def scenario_configs(draw):
    periods = draw(st.integers(1, 25))
    count = draw(st.integers(1, 4))
    intervention = draw(st.one_of(st.none(), st.integers(1, periods)))
    return ScenarioConfig(
        seed=draw(seeds),
        periods=periods,
        processes=tuple(draw(process_configs(i)) for i in range(count)),
        intervention_period=intervention,
        intervention_cost_per_period=draw(st.floats(-50, 50)),
    )


@PROPERTY
@given(scenario_configs(), st.integers(1, 3000))
@example(config=scenario(seed=0, periods=1, intervention_period=1), budget=1)
@example(
    config=scenario(
        seed=2**64 - 1,
        processes=(ProcessConfig("flat", channels=3, amplitude=2.5, period_length=4),),
    ),
    budget=700,
)
def test_generate_series_matches_scalar_generation(config, budget):
    with mock.patch.object(prng, "_CHUNK_BYTES", budget):
        generated = generate_series(config)
        baseline, treated = paired_scenarios(config)
    assert same_bits(generated.events, scalar_series(config))
    assert same_bits(treated.events, generated.events)
    assert same_bits(baseline.events, scalar_series(replace(config, intervention_period=None)))


def test_generate_writes_pinned_files(tmp_path):
    # digests of the files the per-value generator wrote for this scenario
    write_scenario(scenario(), tmp_path / "scenario.json")
    assert main(["generate", "--config", str(tmp_path / "scenario.json"),
                 "--output-dir", str(tmp_path / "out")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in ("events_baseline.csv", "events_treated.csv")
    }
    assert digests == {
        "events_baseline.csv": "f0ca1ad6276ab8e0df4789471eb64ab1017a202664e917a9d1d03e9fca6dce60",
        "events_treated.csv": "67fa7211dc7e15cc2924996153ca4e6e58c8a065a5b9b881bd3581c086bf5b34",
    }


# --- generation -------------------------------------------------------------


def test_degenerate_config_yields_constant_channels():
    config = scenario(
        processes=(ProcessConfig("flat", channels=2, base_level=42.0, amplitude=0.0,
                                 period_length=4, noise_scale=0.0),),
        intervention_period=None,
        intervention_cost_per_period=0.0,
    )
    model = generate_series(config)
    assert np.array_equal(model.events, np.full((30, 2), 42.0))


def test_same_config_is_bit_identical():
    config = scenario()
    first = generate_series(config)
    second = generate_series(config)
    assert first.events.tobytes() == second.events.tobytes()
    assert first.channel_labels == second.channel_labels


def test_output_shape_and_labels():
    model = generate_series(scenario())
    assert model.events.shape == (30, 5)
    assert model.channel_labels == (
        "logging.1",
        "logging.2",
        "river-delivery.1",
        "production.1",
        "production.2",
    )


def test_intervention_adds_exact_cost_on_designated_channels():
    # noise-free so the pairwise run difference is exact
    config = scenario(
        processes=(
            ProcessConfig("a", channels=2, base_level=100.0, amplitude=7.0,
                          period_length=5, noise_scale=0.0),
            ProcessConfig("b", channels=1, base_level=50.0, amplitude=3.0,
                          period_length=9, noise_scale=0.0),
        ),
        intervention_period=7,
        intervention_cost_per_period=10.0,
    )
    baseline, treated = paired_scenarios(config)
    difference = treated.events - baseline.events
    designated = [0, 2]  # first channel of each process
    for t in range(config.periods):
        for j in range(3):
            expected = 10.0 if (j in designated and t + 1 >= 7) else 0.0
            assert difference[t, j] == expected


def test_noisy_cells_untouched_by_intervention_are_bit_identical():
    baseline, treated = paired_scenarios(scenario())
    designated = [0, 2, 3]  # first channel of logging, river-delivery, production
    affected = np.zeros((30, 5), dtype=bool)
    affected[6:, designated] = True
    assert np.array_equal(baseline.events[~affected], treated.events[~affected])
    assert not np.array_equal(baseline.events[affected], treated.events[affected])


def test_zero_cost_intervention_pairs_identically():
    baseline, treated = paired_scenarios(scenario(intervention_cost_per_period=0.0))
    assert np.array_equal(baseline.events, treated.events)


def test_pairs_agree_before_the_intervention():
    baseline, treated = paired_scenarios(scenario())
    assert np.array_equal(baseline.events[:6], treated.events[:6])


def test_pipeline_deltas_vanish_while_windows_precede_intervention():
    config = scenario(periods=30, intervention_period=20)
    baseline, treated = paired_scenarios(config)
    k = 12
    ind_base = indicator_series(MappedSeries.from_model(baseline), k)
    ind_treated = indicator_series(MappedSeries.from_model(treated), k)
    comparison = compare_regimes(ind_base, ind_treated)
    untouched = comparison.periods <= config.intervention_period
    assert untouched.any()
    assert np.array_equal(comparison.delta[untouched], np.zeros(untouched.sum()))
    assert np.any(comparison.delta[~untouched] != 0.0)


# --- config validation ------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        dict(seed=-1),
        dict(seed=1 << 64),
        dict(periods=0),
        dict(intervention_period=0),
        dict(intervention_period=31),
        dict(processes=()),
    ],
)
def test_invalid_scenario_rejected(overrides):
    with pytest.raises(ValidationError):
        scenario(**overrides)


def test_duplicate_process_names_rejected():
    with pytest.raises(ValidationError, match="unique"):
        scenario(processes=(ProcessConfig("x"), ProcessConfig("x")))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(name=""),
        dict(name="p", channels=0),
        dict(name="p", period_length=0),
        dict(name="p", noise_scale=-1.0),
        dict(name="p", base_level=float("nan")),
    ],
)
def test_invalid_process_rejected(kwargs):
    with pytest.raises(ValidationError):
        ProcessConfig(**kwargs)
