import numpy as np
import pytest

from regimetrics import (
    CorrelationMatrix,
    IndicatorSeries,
    InsufficientHistoryError,
    MappedSeries,
    RAW,
    RegimeComparison,
    STANDARDIZED,
    ValidationError,
    compare_regimes,
    indicator_series,
    integral_indicator,
    naive_oracle,
    window_correlation,
)

MODES = (RAW, STANDARDIZED)


def series_of(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or tuple(f"ch{i}" for i in range(values.shape[1]))
    return MappedSeries(values=values, channel_labels=labels)


def block_correlation(columns, mode=RAW):
    """R of the one window whose channel columns are given."""
    block = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    k = block.shape[0]
    return window_correlation(series_of(block), t=k + 1, k=k, mode=mode)


def matrix_scale(r):
    return max(1.0, float(np.abs(r).max(initial=0.0)))


# --- window construction ----------------------------------------------------


def test_block_rows_run_backwards_from_t():
    # the window of t holds periods t-1 .. t-k and nothing else
    series = series_of([[1.0], [2.0], [3.0], [4.0], [5.0]])
    assert window_correlation(series, t=4, k=3).r[0, 0] == (9.0 + 4.0 + 1.0) / 2
    assert window_correlation(series, t=6, k=3).r[0, 0] == (25.0 + 16.0 + 9.0) / 2


def test_window_at_boundary_is_insufficient():
    series = series_of(np.ones((5, 1)))
    with pytest.raises(InsufficientHistoryError):
        window_correlation(series, t=3, k=3)


def test_block_indexing_matches_direct_oracle():
    rng = np.random.RandomState(17)
    values = rng.rand(6, 4)
    series = series_of(values)
    corr = window_correlation(series, t=6, k=4)
    # row l (1-based) of the block is the channel vector of period t - l
    block = np.array([values[6 - l - 1] for l in range(1, 5)])
    assert np.abs(corr.r - block.T @ block / 3).max() <= 1e-12


# --- pairwise coefficients --------------------------------------------------


def test_zero_channel_has_zero_coefficients():
    corr = block_correlation([[0.0, 0.0, 0.0], [4.0, 5.0, 6.0]])
    assert corr.r[0, 0] == 0.0
    assert corr.r[0, 1] == 0.0


def test_pairwise_hand_computed_dot_product():
    corr = block_correlation([[1.0, 2.0, 3.0], [2.0, 0.0, 1.0]])
    assert corr.r[0, 1] == pytest.approx(2.5, abs=1e-12)


def test_standardized_self_coefficient_is_one(make_series):
    series = make_series(5, 10, 3)
    corr = window_correlation(series, t=9, k=5, mode=STANDARDIZED)
    for j in range(3):
        assert corr.r[j, j] == pytest.approx(1.0, abs=1e-9)


def test_window_correlation_rejects_unknown_mode():
    series = series_of(np.ones((5, 1)))
    with pytest.raises(ValidationError, match="mode"):
        window_correlation(series, t=4, k=2, mode="pearson")


# --- correlation matrices ---------------------------------------------------


def test_zero_block_gives_zero_matrix():
    corr = block_correlation([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(corr.r, np.zeros((2, 2)))


def test_two_channel_hand_computed_gram():
    corr = block_correlation([[1.0, 2.0, 3.0], [2.0, 0.0, 1.0]])
    expected = np.array([[7.0, 2.5], [2.5, 2.5]])
    assert np.abs(corr.r - expected).max() <= 1e-12


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode", MODES)
def test_matrix_product_matches_triple_loop(seed, mode):
    rng = np.random.RandomState(seed)
    t_max, n, k = 9, 4, 5
    series = series_of(rng.rand(t_max, n))
    t = 8
    corr = window_correlation(series, t, k, mode)
    oracle_corr, _ = naive_oracle(series, t, k, mode)
    assert np.abs(corr.r - oracle_corr.r).max() <= 1e-12


def test_correlation_matrix_entries_match_pairwise():
    columns = [[1.0, 2.0, 3.0], [2.0, 0.0, 1.0], [5.0, 5.0, 4.0]]
    corr = block_correlation(columns)
    for i in range(3):
        for j in range(3):
            pairwise = sum(a * b for a, b in zip(columns[i], columns[j])) / 2
            assert corr.r[i, j] == pytest.approx(pairwise, rel=1e-12)


def test_correlation_matrix_rejects_asymmetric_input():
    with pytest.raises(ValidationError, match="symmetric"):
        CorrelationMatrix(t=3, k=2, r=np.array([[1.0, 0.5], [0.2, 1.0]]))


@pytest.mark.parametrize(
    "r, options, message",
    [
        # The kernel's chunk check is the one place that bounds standardized coefficients.
        ([[1.0, 1.5], [1.5, 1.0]], {"mode": STANDARDIZED},
         "period 3: standardized coefficients must lie within [-1, 1] (channels 0, 1)"),
        (np.ones((2, 3)), {}, "r must be square, got shape (2, 3)"),
        ([[1.0, np.inf], [np.inf, 1.0]], {}, "r must contain only finite values"),
        (np.eye(2), {"degenerate": [False]}, "degenerate flags must match the channel count"),
    ],
    ids=["standardized-bound", "not-square", "not-finite", "flag-count"],
)
def test_correlation_matrix_refusals(r, options, message):
    with pytest.raises(ValidationError) as excinfo:
        CorrelationMatrix(t=3, k=2, r=np.asarray(r, dtype=float), **options)
    assert str(excinfo.value) == message


# --- integral indicators ----------------------------------------------------


def test_identity_matrix_indicator():
    corr = CorrelationMatrix(t=3, k=2, r=np.eye(3))
    assert integral_indicator(corr).tolist() == [1.0, 1.0, 1.0]


def test_indicator_takes_absolute_row_sums():
    corr = CorrelationMatrix(t=3, k=2, r=np.array([[2.5, -1.0], [-1.0, 0.5]]))
    assert integral_indicator(corr).tolist() == [3.5, 1.5]


def test_zero_matrix_indicator():
    corr = CorrelationMatrix(t=3, k=2, r=np.zeros((4, 4)))
    assert integral_indicator(corr).tolist() == [0.0] * 4


# --- indicator series -------------------------------------------------------


def test_all_zero_series_gives_zero_indicators():
    series = series_of(np.zeros((8, 3)))
    result = indicator_series(series, k=3)
    assert np.array_equal(result.values, np.zeros((5, 3)))
    assert result.total == 0.0
    assert result.periods.tolist() == [4, 5, 6, 7, 8]


def test_single_channel_standardized_indicator_is_one(make_series):
    series = make_series(9, 12, 1)
    result = indicator_series(series, k=4, mode=STANDARDIZED)
    assert np.abs(result.values - 1.0).max() <= 1e-9


def test_series_total_matches_naive_summation(make_series):
    series = make_series(21, 10, 3)
    k = 3
    result = indicator_series(series, k=k)
    oracle_total = 0.0
    for t in range(k + 1, series.t_max + 1):
        _, indicators = naive_oracle(series, t, k)
        oracle_total += float(indicators.sum())
    assert abs(result.total - oracle_total) <= 1e-9 * max(1.0, abs(oracle_total))


def test_series_requires_more_periods_than_window():
    series = series_of(np.ones((4, 2)))
    with pytest.raises(InsufficientHistoryError):
        indicator_series(series, k=4)


def test_warmup_periods_are_excluded():
    series = series_of(np.arange(14.0).reshape(7, 2))
    result = indicator_series(series, k=5)
    assert result.periods.tolist() == [6, 7]


@pytest.mark.parametrize("mode", MODES)
def test_indicator_series_is_deterministic(make_series, mode):
    series = make_series(33, 15, 4)
    first = indicator_series(series, k=5, mode=mode)
    second = indicator_series(series, k=5, mode=mode)
    assert first.values.tobytes() == second.values.tobytes()
    assert first.total == second.total


# --- regime comparison ------------------------------------------------------


def test_compare_single_period_pair():
    comparison = compare_regimes(([1], [87.34]), ([1], [110.64]))
    assert comparison.delta[0] == pytest.approx(23.30, abs=1e-9)


def test_compare_identical_regimes_is_null():
    periods = [4, 5, 6]
    values = [10.0, 11.0, 12.0]
    comparison = compare_regimes((periods, values), (periods, values))
    assert np.array_equal(comparison.delta, np.zeros(3))
    assert comparison.delta_total == 0.0


def test_compare_total_delta_of_printed_totals():
    comparison = compare_regimes(([1], [5069.93]), ([1], [5491.28]))
    assert comparison.delta_total == pytest.approx(421.35, abs=1e-9)


def test_compare_rejects_mismatched_periods():
    with pytest.raises(ValidationError, match="period"):
        compare_regimes(([1, 2], [0.0, 0.0]), ([1, 3], [0.0, 0.0]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IndicatorSeries([4, 5], [[1.0]], 3, RAW, ("a",)),
         "one value row per period required"),
        (lambda: IndicatorSeries([4, 4], [[1.0], [2.0]], 3, RAW, ("a",)),
         "periods must be strictly increasing"),
        (lambda: IndicatorSeries([4], [[-1.0]], 3, RAW, ("a",)),
         "indicator components must be non-negative"),
        (lambda: IndicatorSeries([4], [[1.0]], 3, RAW, ("a", "b")),
         "one channel label per column required"),
        (lambda: RegimeComparison([1, 2], [1.0], [1.0, 2.0], [0.0, 1.0]),
         "all comparison columns must have the same length"),
        (lambda: compare_regimes(([1, 2], [1.0]), ([1, 2], [1.0, 2.0])),
         "a regime column is (periods, values) of equal length"),
    ],
    ids=["row-count", "periods-not-increasing", "negative", "label-count",
         "comparison-column-length", "regime-column-length"],
)
def test_result_types_refuse_inconsistent_columns(build, message):
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_compare_accepts_indicator_series(make_series):
    series_a = make_series(1, 12, 3)
    series_b = make_series(2, 12, 3)
    ind_a = indicator_series(series_a, k=4)
    ind_b = indicator_series(series_b, k=4)
    comparison = compare_regimes(ind_a, ind_b)
    assert comparison.basic_total == pytest.approx(ind_a.total, rel=1e-12)
    assert comparison.treated_total == pytest.approx(ind_b.total, rel=1e-12)
    assert comparison.delta_total == pytest.approx(
        ind_b.total - ind_a.total, rel=1e-9, abs=1e-9
    )


def test_compare_rejects_indicator_series_of_different_modes(make_series):
    series = make_series(1, 12, 3)
    raw, standardized = (indicator_series(series, 4, mode) for mode in ("raw", "standardized"))
    message = "regimes differ in mode: basic 'raw', treated 'standardized'"
    with pytest.raises(ValidationError, match=message):
        compare_regimes(raw, standardized)
    # A (periods, values) column states no mode, so it pairs with either.
    compare_regimes(raw, (standardized.periods, standardized.per_period_totals()))


# --- naive oracle -----------------------------------------------------------


def test_oracle_zero_series():
    series = series_of(np.zeros((5, 2)))
    corr, indicators = naive_oracle(series, t=4, k=3)
    assert np.array_equal(corr.r, np.zeros((2, 2)))
    assert np.array_equal(indicators, np.zeros(2))


def test_oracle_hand_computed_single_channel():
    series = series_of([[2.0], [4.0]])
    corr, indicators = naive_oracle(series, t=3, k=2)
    assert corr.r[0, 0] == 20.0
    assert indicators[0] == 20.0


# --- structural properties --------------------------------------------------


def random_instance(seed):
    """Random small series with occasional constant and masked channels."""
    rng = np.random.RandomState(seed)
    n = rng.randint(1, 7)
    k = rng.randint(2, 7)
    t_max = rng.randint(k + 1, 31)
    values = rng.rand(t_max, n) * rng.choice([1.0, 10.0, 1000.0])
    if n > 1 and rng.rand() < 0.3:
        values[:, rng.randint(n)] = 0.0  # masked channel
    if n > 1 and rng.rand() < 0.3:
        values[:, rng.randint(n)] = rng.rand() * 5  # constant channel
    series = MappedSeries(values=values, channel_labels=tuple(f"c{i}" for i in range(n)))
    t = int(rng.randint(k + 1, t_max + 1))
    return series, t, k


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(15))
def test_symmetry_within_tolerance(seed, mode):
    series, t, k = random_instance(seed)
    corr = window_correlation(series, t, k, mode)
    assert np.abs(corr.r - corr.r.T).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(15))
def test_positive_semidefinite(seed, mode):
    series, t, k = random_instance(seed + 50)
    corr = window_correlation(series, t, k, mode)
    floor = -1e-8 * max(1.0, float(np.diagonal(corr.r).max(initial=0.0)))
    assert np.linalg.eigvalsh(corr.r).min() >= floor


@pytest.mark.parametrize("seed", range(15))
def test_standardized_bounds(seed):
    series, t, k = random_instance(seed + 100)
    corr = window_correlation(series, t, k, STANDARDIZED)
    assert np.abs(corr.r).max() <= 1.0 + 1e-9
    diag = np.diagonal(corr.r)
    nondegenerate = ~corr.degenerate
    if nondegenerate.any():
        assert np.abs(diag[nondegenerate] - 1.0).max() <= 1e-9
    if corr.degenerate.any():
        assert np.abs(diag[corr.degenerate]).max() == 0.0
    indicators = integral_indicator(corr)
    n = corr.n
    assert indicators.max(initial=0.0) <= n + n * 1e-9
    if nondegenerate.any():
        assert indicators[nondegenerate].min() >= 1.0 - 1e-9


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(8))
def test_permutation_equivariance(seed, mode):
    rng = np.random.RandomState(seed + 300)
    series, t, k = random_instance(seed + 200)
    perm = rng.permutation(series.n)
    permuted = MappedSeries(
        values=series.values[:, perm],
        channel_labels=tuple(series.channel_labels[j] for j in perm),
    )
    corr = window_correlation(series, t, k, mode)
    corr_perm = window_correlation(permuted, t, k, mode)
    assert np.abs(corr_perm.r - corr.r[np.ix_(perm, perm)]).max(initial=0.0) <= 1e-12
    v = integral_indicator(corr)
    v_perm = integral_indicator(corr_perm)
    assert np.abs(v_perm - v[perm]).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_raw_mode_scaling(seed):
    rng = np.random.RandomState(seed + 400)
    t_max, n, k = 12, 4, 5
    series = series_of(1.0 + rng.rand(t_max, n) * 9.0)
    c = 3.7
    j = rng.randint(n)
    scaled_values = series.values.copy()
    scaled_values[:, j] *= c
    scaled = series_of(scaled_values)
    t = 10
    r = window_correlation(series, t, k, RAW).r
    r_scaled = window_correlation(scaled, t, k, RAW).r
    for i in range(n):
        factor = c * c if i == j else c
        assert r_scaled[i, j] == pytest.approx(factor * r[i, j], rel=1e-12)
        assert r_scaled[j, i] == pytest.approx(factor * r[j, i], rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_standardized_mode_affine_invariance(seed):
    rng = np.random.RandomState(seed + 500)
    t_max, n, k = 14, 3, 6
    series = series_of(rng.rand(t_max, n) * 50)
    scale = 0.1 + rng.rand(n) * 10
    shift = rng.randn(n) * 100
    transformed = series_of(series.values * scale + shift)
    t = 12
    r = window_correlation(series, t, k, STANDARDIZED).r
    r_affine = window_correlation(transformed, t, k, STANDARDIZED).r
    assert np.abs(r_affine - r).max() < 1e-9
    v = integral_indicator(window_correlation(series, t, k, STANDARDIZED))
    v_affine = integral_indicator(window_correlation(transformed, t, k, STANDARDIZED))
    assert np.abs(v_affine - v).max() < 1e-9


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(10))
def test_engine_agrees_with_naive_oracle(seed, mode):
    series, t, k = random_instance(seed + 600)
    corr = window_correlation(series, t, k, mode)
    indicators = integral_indicator(corr)
    oracle_corr, oracle_ind = naive_oracle(series, t, k, mode)
    scale = matrix_scale(oracle_corr.r)
    assert np.abs(corr.r - oracle_corr.r).max(initial=0.0) <= 1e-9 * scale
    assert np.abs(indicators - oracle_ind).max(initial=0.0) <= 1e-9 * max(
        1.0, float(oracle_ind.max(initial=0.0))
    )


@pytest.mark.parametrize("mode", MODES)
def test_total_additivity(make_series, mode):
    series = make_series(77, 20, 4)
    result = indicator_series(series, k=6, mode=mode)
    recomputed = float(result.values.sum())
    assert abs(result.total - recomputed) <= 1e-9 * max(1.0, abs(recomputed))


def test_masked_channel_is_degenerate_and_silent():
    rng = np.random.RandomState(8)
    values = rng.rand(10, 3) * 20
    values[:, 1] = 0.0
    series = series_of(values)
    corr = window_correlation(series, 8, 4, STANDARDIZED)
    assert corr.degenerate.tolist() == [False, True, False]
    assert np.array_equal(corr.r[1], np.zeros(3))
    assert np.array_equal(corr.r[:, 1], np.zeros(3))
    assert integral_indicator(corr)[1] == 0.0
