"""The chunked window kernel behind indicator_series and window_correlation.

The shapes here are large enough that the kernel walks several chunks of
periods, so chunk boundaries are exercised by the real budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimetrics import (
    CompetencyMapping,
    EnterpriseModel,
    MappedSeries,
    RAW,
    STANDARDIZED,
    ValidationError,
    apply_mapping,
    indicator_series,
    integral_indicator,
    naive_oracle,
    window_correlation,
)
from regimetrics.engine import _CHUNK_BYTES

MODES = (RAW, STANDARDIZED)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def series_of(values):
    values = np.asarray(values, dtype=float)
    labels = tuple(f"c{j}" for j in range(values.shape[1]))
    return MappedSeries(values=values, channel_labels=labels)


def periods_per_chunk(n, k):
    return _CHUNK_BYTES // (8 * n * (n + 2 * k))


def assert_matches_oracle(series, k, mode, result):
    for row, t in enumerate(result.periods):
        _, oracle = naive_oracle(series, int(t), k, mode)
        scale = max(1.0, float(oracle.max(initial=0.0)))
        error = float(np.abs(result.values[row] - oracle).max())
        assert error <= 1e-9 * scale, f"period {t}: {error:.3e}"


# --- chunk boundaries at a real shape ---------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_every_period_matches_oracle_across_chunks(mode):
    rng = np.random.RandomState(12_000)
    k, series = 3, series_of(100.0 * rng.rand(12_000, 8))
    assert series.t_max - k > 2 * periods_per_chunk(8, k)
    result = indicator_series(series, k, mode)
    assert result.values.shape == (series.t_max - k, 8)
    assert_matches_oracle(series, k, mode, result)


@pytest.mark.parametrize("mode", MODES)
def test_prefix_rows_are_bit_identical(mode):
    rng = np.random.RandomState(8)
    k, series = 12, series_of(50.0 + 20.0 * rng.rand(12_000, 8))
    step = periods_per_chunk(8, k)
    full = indicator_series(series, k, mode).values
    for m in (k + 1, k + step, k + step + 1, k + 2 * step + 7, series.t_max - 1):
        prefix = indicator_series(series_of(series.values[:m]), k, mode).values
        assert prefix.tobytes() == full[: m - k].tobytes(), f"prefix of {m} periods"


@pytest.mark.parametrize("mode", MODES)
def test_window_correlation_is_the_kernel_of_indicator_series(mode):
    rng = np.random.RandomState(3)
    k, series = 5, series_of(10.0 * rng.rand(40, 6))
    result = indicator_series(series, k, mode)
    for row, t in enumerate(result.periods):
        corr = window_correlation(series, int(t), k, mode)
        assert np.array_equal(corr.r, corr.r.T)
        v = integral_indicator(corr)
        assert np.abs(v - result.values[row]).max() <= 1e-12 * max(1.0, float(v.max()))


# --- degenerate channels and extreme magnitudes ------------------------------


@pytest.mark.parametrize("constant", [0.1, 1.0 / 3.0, -7e-5])
def test_constant_column_is_degenerate_in_kernel_and_oracle(constant):
    rng = np.random.RandomState(1)
    values = rng.rand(30, 3)
    values[:, 1] = constant
    series, k = series_of(values), 12
    result = indicator_series(series, k, STANDARDIZED)
    assert np.all(result.values[:, 1] == 0.0)
    for t in (k + 1, 20, series.t_max):
        corr = window_correlation(series, t, k, STANDARDIZED)
        assert corr.degenerate.tolist() == [False, True, False]
        oracle_corr, oracle = naive_oracle(series, t, k, STANDARDIZED)
        assert oracle_corr.degenerate.tolist() == [False, True, False]
        assert oracle[1] == 0.0


def test_standardized_is_scale_free_at_extreme_magnitudes():
    rng = np.random.RandomState(200)
    values = rng.rand(60, 4)
    k = 6
    unit = indicator_series(series_of(values), k, STANDARDIZED).values
    for scale in (1e200, 1e-200, 1.7e308 / 2.0):
        scaled = indicator_series(series_of(values * scale), k, STANDARDIZED).values
        assert np.abs(scaled - unit).max() <= 1e-9 * unit.max()


def test_raw_overflow_names_period_and_channels():
    rng = np.random.RandomState(4)
    values = rng.rand(20, 3)
    values[10, 1] = 1e200  # period 11; windows of periods 12..14 hold it
    series = series_of(values)
    with pytest.raises(ValidationError, match=r"period 12: .*overflow.*\(channels c1\)"):
        indicator_series(series, 3, RAW)
    with pytest.raises(ValidationError, match=r"period 13: .*\(channels c1\)"):
        window_correlation(series, 13, 3, RAW)
    assert np.isfinite(indicator_series(series, 3, STANDARDIZED).values).all()


# --- property suites ---------------------------------------------------------


@st.composite
def exact_series(draw):
    """Series whose window sums are exact, so any summation order agrees.

    Each column is a multiple of 2**-6 below 2**20 in magnitude, scaled
    by its own power of two; it is random, near-constant (a spread of one
    or two units on a large base), constant at an arbitrary float, or
    masked to zero.
    """
    n = draw(st.integers(1, 5))
    k = draw(st.integers(2, 6))
    t_max = draw(st.integers(k + 1, k + 12))
    units = st.integers(-(2**26), 2**26)
    columns = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "near_constant", "constant", "masked"]))
        if kind == "random":
            column = np.array(draw(st.lists(units, min_size=t_max, max_size=t_max)), dtype=float)
        elif kind == "near_constant":
            base = draw(units)
            steps = draw(st.lists(st.integers(0, 2), min_size=t_max, max_size=t_max))
            column = np.array([base + s for s in steps], dtype=float)
        elif kind == "constant":
            value = draw(st.floats(-1e100, 1e100, allow_nan=False))
            column = np.full(t_max, value)
        else:
            column = np.zeros(t_max)
        if kind != "constant":
            column = np.ldexp(column, draw(st.integers(-200, 200)) - 6)
        columns.append(column)
    return series_of(np.column_stack(columns)), k


@PROPERTY
@given(exact_series(), st.sampled_from(MODES))
def test_kernel_matches_oracle_on_generated_series(instance, mode):
    series, k = instance
    result = indicator_series(series, k, mode)
    assert_matches_oracle(series, k, mode, result)
    for t in (k + 1, series.t_max):
        corr = window_correlation(series, t, k, mode)
        assert np.array_equal(corr.r, corr.r.T)


@PROPERTY
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=n, max_size=n),
            min_size=3,
            max_size=14,
        )
    ),
    st.data(),
)
def test_standardized_guarantees_on_adversarial_floats(rows, data):
    series = series_of(rows)
    n = series.n
    k = data.draw(st.integers(2, series.t_max - 1))
    result = indicator_series(series, k, STANDARDIZED)
    assert abs(result.total - float(result.values.sum())) <= 1e-9 * max(1.0, result.total)
    assert result.values.max() <= n * (1.0 + 1e-9)
    if series.t_max > k + 1:
        prefix = indicator_series(series_of(series.values[:-1]), k, STANDARDIZED)
        assert prefix.values.tobytes() == result.values[:-1].tobytes()
    for row, t in enumerate(result.periods):
        corr = window_correlation(series, int(t), k, STANDARDIZED)
        window = series.values[t - k - 1 : t - 1]
        assert corr.degenerate.tolist() == (window.max(axis=0) == window.min(axis=0)).tolist()
        assert np.array_equal(corr.r, corr.r.T)
        assert np.abs(corr.r).max() <= 1.0 + 1e-9
        nondegenerate = ~corr.degenerate
        assert np.all(np.abs(np.diagonal(corr.r)[nondegenerate] - 1.0) <= 1e-9)
        assert np.all(result.values[row][nondegenerate] >= 1.0 - 1e-9)
        assert np.all(result.values[row][corr.degenerate] == 0.0)


@PROPERTY
@given(st.integers(1, 6), st.integers(2, 6), st.integers(1, 10), st.sampled_from(MODES))
def test_all_masked_mapping_gives_zero_indicators(n, k, extra, mode):
    rng = np.random.RandomState(n * 100 + k)
    model = EnterpriseModel(
        events=1.0 + rng.rand(k + extra, n), channel_labels=tuple(f"e{j}" for j in range(n))
    )
    mapping = CompetencyMapping(
        flags=np.zeros((1, n), dtype=int), competency_ids=("1.1",), costs=np.zeros(1), budget=0.0
    )
    series = apply_mapping(model, mapping)
    assert series.masked_channels == tuple(range(n))
    result = indicator_series(series, k, mode)
    assert result.periods.tolist() == list(range(k + 1, k + extra + 1))
    assert np.array_equal(result.values, np.zeros((extra, n)))
    assert result.total == 0.0
    corr = window_correlation(series, k + 1, k, mode)
    assert corr.degenerate.tolist() == [mode == STANDARDIZED] * n
