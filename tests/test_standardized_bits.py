"""Standardized windows keep their bits: the kernel against per-window arithmetic.

The kernel takes each window's largest magnitude from doubling spans over
the series and window sums as one add per row, oldest first, and finds a
degenerate window by its centred squares summing to zero.
``reference_indicators`` below is the per-window form those replace:
numpy's max, min, mean and sum along the window axis of a (periods, k, n)
stack, with a degenerate window found by its max equal to its min. For
two or more channels that axis reduction adds the rows in the same order,
so both must give the same bytes.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import regimetrics.engine as engine
from regimetrics import STANDARDIZED, MappedSeries, indicator_series

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def reference_standardize(block, k):
    """Z-scores of a (periods, k, n) window stack, reduced along the window axis."""
    hi, lo = block.max(axis=1), block.min(axis=1)
    degenerate = hi == lo
    _, exponent = np.frexp(np.maximum(hi, -lo))
    scaled = np.ldexp(block, -exponent[:, None, :])
    for _ in range(2):
        scaled -= scaled.mean(axis=1)[:, None, :]
    variance = np.square(scaled).sum(axis=1) / (k - 1)
    scaled /= np.sqrt(np.where(degenerate, 1.0, variance))[:, None, :]
    return scaled


def reference_indicators(values, k):
    """Standardized indicator rows of every evaluable period, all windows at once."""
    windows = sliding_window_view(values[:-1], k, axis=0).transpose(0, 2, 1)
    scaled = reference_standardize(windows, k)
    r = np.matmul(scaled.transpose(0, 2, 1), scaled)
    r /= k - 1
    return np.abs(r).sum(axis=2)


# Cells at the edges of the float range, where a window's prescale matters.
EXTREMES = [1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 2.5e-310, -1.1e-308, 0.0]


@st.composite
def columns(draw, t_max):
    kind = draw(st.sampled_from(["random", "extreme", "constant", "near_constant"]))
    if kind == "random":
        cells = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    elif kind == "extreme":
        cells = st.one_of(st.sampled_from(EXTREMES), st.floats(-1.0, 1.0))
    elif kind == "constant":
        value = draw(st.one_of(st.sampled_from(EXTREMES), st.floats(-1e300, 1e300)))
        return np.full(t_max, value)
    else:
        # One or two ulps above a base, so a window is constant or barely not.
        base = draw(st.one_of(st.sampled_from(EXTREMES), st.floats(-1e300, 1e300)))
        steps = np.array(draw(st.lists(st.integers(0, 2), min_size=t_max, max_size=t_max)))
        column = np.full(t_max, base)
        for step in (1, 2):
            column = np.where(steps >= step, np.nextafter(column, np.inf), column)
        return column
    return np.array(draw(st.lists(cells, min_size=t_max, max_size=t_max)))


@st.composite
def standardized_cases(draw):
    n = draw(st.integers(2, 5))
    k = draw(st.integers(2, 20))
    t_max = draw(st.integers(k + 1, k + 40))
    values = np.column_stack([draw(columns(t_max)) for _ in range(n)])
    chunk = draw(st.integers(1, 9))  # periods per kernel chunk
    return values, k, chunk


@PROPERTY
@given(standardized_cases())
def test_standardized_rows_are_the_per_window_bits(case):
    values, k, chunk = case
    n = values.shape[1]
    series = MappedSeries(values=values, channel_labels=tuple(f"c{j}" for j in range(n)))
    with mock.patch.object(engine, "_CHUNK_BYTES", chunk * 8 * n * (n + 2 * k)):
        assert engine._chunk_periods(n, k) == chunk
        result = indicator_series(series, k, STANDARDIZED)
    assert result.values.tobytes() == reference_indicators(values, k).tobytes()


def test_doubling_max_is_the_window_max_of_magnitudes():
    rng = np.random.RandomState(40)
    # Few distinct values, so ties and repeated maxima are common.
    rows = np.abs(rng.randint(-3, 4, size=(90, 3)) * np.array([1.0, 1e-310, 1e300]))
    for k in range(2, 41):
        windows = sliding_window_view(rows, k, axis=0)
        assert np.array_equal(engine._window_max(rows, k), windows.max(axis=2)), k


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def hostile_rows(draw):
    """Rows of 1..4 channels, each any finite doubles, constant, or 0-2 ulps off a base."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(2, 19))
    t_max = draw(st.integers(k, k + 12))
    columns = []
    for _ in range(n):
        kind = draw(st.sampled_from(["any", "constant", "steps"]))
        if kind == "any":
            columns.append(draw(st.lists(FINITE, min_size=t_max, max_size=t_max)))
            continue
        column = np.full(t_max, draw(st.one_of(st.sampled_from(EXTREMES), FINITE)))
        if kind == "steps":  # towards zero, so no step leaves the float range
            steps = np.array(draw(st.lists(st.integers(0, 2), min_size=t_max, max_size=t_max)))
            for step in (1, 2):
                column = np.where(steps >= step, np.nextafter(column, 0.0), column)
        columns.append(column)
    return np.column_stack(columns), k


@PROPERTY
@given(hostile_rows())
def test_a_window_is_degenerate_exactly_when_it_is_constant(case):
    rows, k = case
    z, degenerate = engine._standardize(rows, k)
    windows = sliding_window_view(rows, k, axis=0)
    assert np.array_equal(degenerate, windows.max(axis=2) == windows.min(axis=2))
    assert np.all(z.transpose(0, 2, 1)[degenerate] == 0.0)
    assert np.all(np.isfinite(z))
