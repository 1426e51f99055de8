import numpy as np
import pytest

from regimetrics import (
    STANDARDIZED,
    RegimeComparison,
    ValidationError,
    compare_regimes,
    emit_report,
    indicator_series,
    load_reference,
    verify_bundled_reference,
    verify_reference,
)
from regimetrics.io import read_comparison_table
from regimetrics.reference import (
    BASE_FIVE_YEAR_COST,
    CONTROL_SETUP_COST,
    TOTAL_FIVE_YEAR_COST,
    _check_reference_periods,
)

# Exact column sums of the bundled table in integer cents, computed
# independently by summing the printed 2-decimal values.
EXPECTED_BASIC_SUM_CENTS = 506_994
EXPECTED_DDESCR_SUM_CENTS = 549_129
EXPECTED_DV_SUM_CENTS = 42_135

# Rows whose printed delta differs from the column difference by one cent.
ROUNDED_ROWS = {11, 12, 20, 24, 26, 27, 34, 46}


def cents(values):
    return np.rint(np.asarray(values) * 100).astype(int)


def perturbed(table, **overrides):
    fields = dict(
        periods=table.periods, basic=table.basic, treated=table.treated, delta=table.delta
    )
    fields.update(overrides)
    return RegimeComparison(**fields)


def check_by_id(report, check_id):
    return next(check for check in report if check.check_id == check_id)


def test_row_18_values():
    table, _ = load_reference()
    assert table.basic[17] == 114.43
    assert table.treated[17] == 132.62
    assert table.delta[17] == 18.19


def test_row_29_values():
    table, _ = load_reference()
    assert table.basic[28] == 76.26
    assert table.treated[28] == 76.26
    assert table.delta[28] == 0.00


def test_printed_totals():
    assert load_reference()[1] == (5069.93, 5491.28, 421.35)


def test_exact_column_sums_match_frozen_cents():
    table, _ = load_reference()
    assert cents(table.basic).sum() == EXPECTED_BASIC_SUM_CENTS
    assert cents(table.treated).sum() == EXPECTED_DDESCR_SUM_CENTS
    assert cents(table.delta).sum() == EXPECTED_DV_SUM_CENTS


def test_per_row_rounding_discrepancies_are_one_cent():
    table, _ = load_reference()
    diff = cents(table.delta) - (cents(table.treated) - cents(table.basic))
    assert set(table.periods[diff != 0].tolist()) == ROUNDED_ROWS
    assert np.abs(diff).max() == 1


def test_row_11_rounding_case():
    # recomputed 74.76 - 58.42 = 16.34 while the table prints 16.35
    table, _ = load_reference()
    row = 10
    recomputed = table.treated[row] - table.basic[row]
    assert round(recomputed, 2) == 16.34
    assert table.delta[row] == 16.35
    assert abs(table.delta[row] - recomputed) <= 0.02


def test_bundled_table_passes_all_checks():
    report = verify_bundled_reference()
    assert report.ok
    assert [check.check_id for check in report] == [
        "row-deltas",
        "column-sums",
        "total-delta",
        "cost-identity",
    ]


def test_perturbed_row_delta_fails_naming_the_row():
    table, totals = load_reference()
    dv = table.delta.copy()
    dv[21] += 0.5  # period t=22
    report = verify_reference(perturbed(table, delta=dv), totals)
    row_check = check_by_id(report, "row-deltas")
    assert not row_check.passed
    assert "t=22" in row_check.detail
    assert not report.ok


def test_perturbed_totals_fail_column_sums():
    table, _ = load_reference()
    report = verify_reference(table, (5070.93, 5492.28, 421.35))
    assert not check_by_id(report, "column-sums").passed


def test_inconsistent_printed_delta_fails_total_check():
    table, _ = load_reference()
    report = verify_reference(table, (5069.93, 5491.28, 420.00))
    assert not check_by_id(report, "total-delta").passed


def test_cost_identity_constants():
    assert BASE_FIVE_YEAR_COST + CONTROL_SETUP_COST == TOTAL_FIVE_YEAR_COST
    assert (BASE_FIVE_YEAR_COST, CONTROL_SETUP_COST, TOTAL_FIVE_YEAR_COST) == (
        5_641_442,
        28_208,
        5_669_650,
    )


def test_structure_requires_57_dense_rows():
    table, _ = load_reference()
    with pytest.raises(ValidationError, match="57"):
        _check_reference_periods(table.periods[:-1])
    shuffled = table.periods.copy()
    shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
    with pytest.raises(ValidationError, match="1..57"):
        _check_reference_periods(shuffled)


# --- tables written at full precision ---------------------------------------


def emitted_table(tmp_path, make_series, seed, t_max, n, k, mode="raw"):
    basic = indicator_series(make_series(seed, t_max, n), k, mode)
    treated = indicator_series(make_series(seed + 1, t_max, n), k, mode)
    destination = tmp_path / f"out{seed}"
    emit_report(destination, k, mode, comparison=compare_regimes(basic, treated))
    return read_comparison_table(destination / "comparison.csv")


@pytest.mark.parametrize("seed", range(12))
def test_emitted_comparison_tables_pass_with_zero_slack(tmp_path, make_series, seed):
    rng = np.random.RandomState(seed)
    k = int(rng.randint(2, 8))
    t_max = int(rng.randint(k + 1, 400))
    n = int(rng.randint(1, 9))
    mode = STANDARDIZED if seed % 2 else "raw"
    table, totals = emitted_table(tmp_path, make_series, seed, t_max, n, k, mode)
    report = verify_reference(table, totals)
    assert [check.check_id for check in report] == ["row-deltas", "column-sums", "total-delta"]
    assert report.ok, [check.detail for check in report]
    assert check_by_id(report, "row-deltas").detail.endswith("within 0")
    assert check_by_id(report, "column-sums").detail.endswith("(slack 0)")
    assert check_by_id(report, "total-delta").detail.endswith("at full precision")


@pytest.mark.parametrize("column", ["basic", "treated", "delta"])
def test_one_ulp_in_a_full_precision_cell_fails(tmp_path, make_series, column):
    table, totals = emitted_table(tmp_path, make_series, 5, 40, 3, 4)
    values = getattr(table, column).copy()
    values[7] = np.nextafter(values[7], np.inf)
    report = verify_reference(perturbed(table, **{column: values}), totals)
    assert not report.ok
    assert f"t={table.periods[7]}" in check_by_id(report, "row-deltas").detail


def test_one_ulp_in_a_full_precision_total_fails(tmp_path, make_series):
    table, totals = emitted_table(tmp_path, make_series, 6, 40, 3, 4)
    for index, check_id in ((0, "column-sums"), (1, "column-sums"), (2, "total-delta")):
        nudged = list(totals)
        nudged[index] = np.nextafter(nudged[index], np.inf)
        assert not check_by_id(verify_reference(table, tuple(nudged)), check_id).passed


def test_one_cell_off_the_cent_grid_removes_the_printing_slack():
    table, totals = load_reference()
    basic = table.basic.copy()
    basic[0] = np.nextafter(basic[0], np.inf)
    report = verify_reference(perturbed(table, basic=basic), totals)
    rows = check_by_id(report, "row-deltas")
    assert not rows.passed
    assert all(f"t={t}" in rows.detail for t in ROUNDED_ROWS)
    assert not check_by_id(report, "column-sums").passed
