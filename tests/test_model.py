import numpy as np
import pytest

from regimetrics import (
    BudgetError,
    CompetencyMapping,
    EnterpriseModel,
    InsufficientHistoryError,
    InvalidWindowError,
    MappedSeries,
    ParseError,
    ValidationError,
    apply_mapping,
    check_budget,
    default_catalog,
    parse_mapping,
    window_correlation,
)


def mapping_for(flags, ids=None, costs=None, budget=1e9):
    flags = np.array(flags)
    m = flags.shape[0]
    return CompetencyMapping(
        flags=flags,
        competency_ids=ids or tuple(f"1.{i + 1}" for i in range(m)),
        costs=np.zeros(m) if costs is None else np.array(costs, dtype=float),
        budget=budget,
    )


def model_from(values, labels=None):
    values = np.array(values, dtype=float)
    labels = labels or tuple(f"ch{i + 1}" for i in range(values.shape[1]))
    return EnterpriseModel(events=values, channel_labels=labels)


# --- model validation -------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CompetencyMapping([1, 0], ("1.1",), [1.0], 1.0),
         "flags must be 2-dimensional, got shape (2,)"),
        (lambda: CompetencyMapping([[1, 0]], ("1.1", "1.2"), [1.0], 1.0),
         "expected 1 competency ids, got 2"),
        (lambda: CompetencyMapping([[1], [0]], ("1.1", "1.1"), [1.0, 2.0], 1.0),
         "competency ids must be unique"),
        (lambda: CompetencyMapping([[1]], ("1.1",), [1.0, 2.0], 1.0), "expected 1 costs, got 2"),
        (lambda: MappedSeries(np.ones((2, 2)), ("a", "b"), masked_channels=(2,)),
         "masked channel index out of range"),
        (lambda: apply_mapping(np.ones((2, 1)), mapping_for([[1]])),
         "source must be EnterpriseModel or MappedSeries, got ndarray"),
        (lambda: EnterpriseModel(np.ones(3), ("a",)),
         "events must be 2-dimensional, got shape (3,)"),
        (lambda: EnterpriseModel(np.ones((0, 2)), ("a", "b")),
         "events must be at least 1x1, got 0x2"),
    ],
    ids=["flags-1d", "id-count", "repeated-ids", "cost-count", "masked-index", "source-type",
         "events-1d", "no-rows"],
)
def test_model_types_refuse_bad_shapes(build, message):
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_model_rejects_non_finite_events():
    with pytest.raises(ValidationError, match="finite"):
        model_from([[1.0, np.nan]])


def test_model_rejects_duplicate_labels():
    with pytest.raises(ValidationError, match="unique"):
        model_from([[1.0, 2.0]], labels=("a", "a"))


def test_model_rejects_label_count_mismatch():
    with pytest.raises(ValidationError):
        model_from([[1.0, 2.0]], labels=("a",))


def test_model_events_are_read_only():
    model = model_from([[1.0, 2.0]])
    with pytest.raises(ValueError):
        model.events[0, 0] = 99.0


def test_mapping_rejects_non_binary_flags():
    with pytest.raises(ValidationError, match="0 or 1"):
        mapping_for([[0, 2]])


def test_mapping_rejects_negative_costs():
    with pytest.raises(ValidationError, match="non-negative"):
        mapping_for([[1, 0]], costs=[-1.0])


def test_mapping_validates_ids_against_catalog(tmp_path):
    def mapping_file(cid):
        path = tmp_path / f"mapping_{cid}.csv"
        path.write_text(f"# budget: 10\ncompetency_id,channel_label,flag\n{cid},a,1\n")
        return path

    with pytest.raises(ParseError, match="9.9"):
        parse_mapping(mapping_file("9.9"), ("a", "b"), catalog=default_catalog())
    mapping = parse_mapping(mapping_file("2.4"), ("a", "b"), catalog=default_catalog())
    assert mapping.competency_ids == ("2.4",)


# --- apply_mapping ----------------------------------------------------------


def test_full_mask_is_identity():
    model = model_from([[1.0, 2.0], [3.0, 4.0]])
    series = apply_mapping(model, mapping_for([[1, 1]]))
    assert np.array_equal(series.values, model.events)
    assert series.masked_channels == ()


def test_empty_mask_zeroes_everything():
    model = model_from([[1.0, 2.0], [3.0, 4.0]])
    series = apply_mapping(model, mapping_for([[0, 0]]))
    assert np.array_equal(series.values, np.zeros((2, 2)))
    assert series.masked_channels == (0, 1)


def test_partial_mask_against_elementwise_oracle():
    rng = np.random.RandomState(3)
    model = model_from(rng.rand(6, 3) * 100)
    # competencies cover the first and third channels only
    mapping = mapping_for([[1, 0, 0], [0, 0, 1]])
    series = apply_mapping(model, mapping)
    keep = (True, False, True)
    for t in range(model.t_max):
        for j in range(model.n):
            expected = model.events[t, j] if keep[j] else 0.0
            assert series.values[t, j] == expected
    assert series.masked_channels == (1,)


def test_apply_mapping_dimension_mismatch():
    model = model_from([[1.0, 2.0]])
    with pytest.raises(ValidationError, match="channels"):
        apply_mapping(model, mapping_for([[1, 1, 1]]))


def test_apply_mapping_budget_violation_carries_cost():
    model = model_from([[1.0, 2.0]])
    mapping = mapping_for([[1, 1]], costs=[30.0], budget=25.0)
    with pytest.raises(BudgetError) as excinfo:
        apply_mapping(model, mapping)
    assert excinfo.value.total_cost == 30.0
    assert excinfo.value.budget == 25.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_apply_mapping_is_idempotent(seed):
    rng = np.random.RandomState(seed)
    model = model_from(rng.randn(8, 5) * 40)
    mapping = mapping_for(rng.randint(0, 2, size=(3, 5)))
    once = apply_mapping(model, mapping)
    twice = apply_mapping(once, mapping)
    assert np.array_equal(once.values, twice.values)
    assert once.masked_channels == twice.masked_channels


# --- check_budget -----------------------------------------------------------


def test_budget_single_competency_installation():
    # one active competency costing 28,208 against a 5,669,650 budget
    mapping = mapping_for([[1, 0]], ids=("1.1",), costs=[28_208.0], budget=5_669_650.0)
    report = check_budget(mapping)
    assert report.total_cost == 28_208.0
    assert report.satisfied
    assert report.active == ("1.1",)


def test_budget_no_active_competencies():
    mapping = mapping_for([[0, 0]], costs=[1000.0], budget=0.0)
    report = check_budget(mapping)
    assert report.total_cost == 0.0
    assert report.satisfied


def test_budget_violation_is_a_report_not_an_error():
    mapping = mapping_for([[1, 0], [0, 1]], costs=[10.0, 20.0], budget=25.0)
    report = check_budget(mapping)
    assert report.total_cost == 30.0
    assert not report.satisfied


@pytest.mark.parametrize("seed", range(5))
def test_budget_total_cost_is_monotone(seed):
    rng = np.random.RandomState(seed)
    m, n = 6, 4
    flags = rng.randint(0, 2, size=(m, n))
    flags[2] = 0  # guarantee one inactive competency
    costs = rng.rand(m) * 100
    base = check_budget(mapping_for(flags, costs=costs)).total_cost
    activated = flags.copy()
    activated[2, rng.randint(n)] = 1
    grown = check_budget(mapping_for(activated, costs=costs)).total_cost
    assert grown >= base


# --- window extraction and standardization ----------------------------------


def series_from(columns):
    values = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    return MappedSeries(values=values, channel_labels=tuple(f"ch{i}" for i in range(values.shape[1])))


def zscores(block):
    """Per-column z-scores with divisor k - 1, for nondegenerate columns."""
    return (block - block.mean(axis=0)) / block.std(axis=0, ddof=1)


def test_window_holds_the_k_periods_before_t():
    series = series_from([[10.0, 20.0, 30.0, 40.0, 50.0]])
    corr = window_correlation(series, t=4, k=3)
    assert corr.r[0, 0] == (30.0**2 + 20.0**2 + 10.0**2) / 2


def test_window_requires_history():
    series = series_from([[1.0, 2.0, 3.0]])
    with pytest.raises(InsufficientHistoryError):
        window_correlation(series, t=3, k=3)


def test_window_requires_k_of_at_least_two():
    series = series_from([[1.0, 2.0, 3.0]])
    with pytest.raises(InvalidWindowError):
        window_correlation(series, t=3, k=1)


def test_window_cannot_reach_past_series_end():
    series = series_from([[1.0, 2.0, 3.0]])
    with pytest.raises(ValidationError, match="beyond"):
        window_correlation(series, t=6, k=2)


def test_standardize_constant_channel_is_degenerate():
    series = series_from([[5.0] * 6, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
    corr = window_correlation(series, t=6, k=4, mode="standardized")
    assert np.array_equal(corr.r[0], np.zeros(2))
    assert corr.degenerate.tolist() == [True, False]


def test_standardize_hand_computed_zscores():
    # channel a = 1, 2, 3 and b = 3, 1, 2: mean 2 and sample std 1 each,
    # so z_a = -1, 0, 1 and z_b = 1, -1, 0, and r_ab = (-1 + 0 + 0) / 2
    series = series_from([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
    corr = window_correlation(series, t=4, k=3, mode="standardized")
    assert corr.r.tolist() == [[1.0, -0.5], [-0.5, 1.0]]
    assert not corr.degenerate.any()


@pytest.mark.parametrize("seed", range(4))
def test_standardized_windows_have_zero_mean_unit_std(seed, make_series):
    # Pearson coefficients are the Gram of zero-mean, unit-std columns
    series = make_series(seed, 12, 4)
    corr = window_correlation(series, t=10, k=6, mode="standardized")
    window = series.values[3:9]
    assert np.abs(corr.r - np.corrcoef(window, rowvar=False)).max() <= 1e-9
    assert np.abs(np.diagonal(corr.r) - 1.0).max() <= 1e-9


def test_standardize_is_idempotent():
    rng = np.random.RandomState(11)
    series = series_from(rng.rand(7, 3).T * 50)
    once = window_correlation(series, t=7, k=5, mode="standardized")
    # feed the standardized window back in as a 5-period series
    reseries = MappedSeries(
        values=zscores(series.values[1:6]), channel_labels=series.channel_labels
    )
    again = window_correlation(reseries, t=6, k=5, mode="standardized")
    assert np.abs(again.r - once.r).max() <= 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_standardize_invariant_under_positive_affine_transform(seed, make_series):
    series = make_series(seed, 10, 3)
    rng = np.random.RandomState(seed + 100)
    scale = 0.5 + rng.rand(3) * 5
    shift = rng.randn(3) * 20
    transformed = MappedSeries(
        values=series.values * scale + shift, channel_labels=series.channel_labels
    )
    original = window_correlation(series, t=9, k=6, mode="standardized")
    mapped = window_correlation(transformed, t=9, k=6, mode="standardized")
    assert np.abs(original.r - mapped.r).max() <= 1e-9
    assert np.array_equal(original.degenerate, mapped.degenerate)
