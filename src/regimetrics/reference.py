"""Arithmetic audit of comparison tables, and the bundled reference table.

A comparison table (``t,v_basic,v_ddescr,dv`` rows and a ``# totals:``
directive) is a RegimeComparison plus its totals triple, whether
``compare`` wrote it or it is the bundled paper fixture.
``verify_reference`` checks any such table's own arithmetic: per-row
deltas, column sums against the totals, and the total delta. The slack
comes from the table itself. A table whose every cell and total is a
whole number of cents is a 2-decimal printing: each row delta may be
off by 0.02, each column sum by 0.3, and the total delta is checked in
cents. Any other table is full precision and gets zero slack: every
check must hold exactly in floating point, as it does for the files
``compare`` writes.

The package ships a 57-period table of indicator totals for a baseline
operating regime versus a descriptor-controlled one. Its source events
are not available, so nothing recomputes it. Two checks belong to it
alone and run only when it is audited: its periods run 1..57, and the
five-year cost identity holds. Failed checks are reported findings,
never exceptions, so fault-injection tests can exercise them.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .engine import RegimeComparison
from .errors import ValidationError
from .io import read_comparison_table

REFERENCE_ROWS = 57

# Five-year operating cost, descriptor-control setup cost, and their sum
# (thousand rubles).
BASE_FIVE_YEAR_COST = 5_641_442
CONTROL_SETUP_COST = 28_208
TOTAL_FIVE_YEAR_COST = 5_669_650

# Rows are printed with 2 decimals, so a recomputed delta can disagree
# with the printed one by one cent of rounding on each operand.
ROW_ROUNDING_SLACK = 0.02
# Column sums accumulate per-row rounding; the observed deviation of the
# bundled table is 0.01 per column, 0.3 is the documented policy bound.
COLUMN_SUM_SLACK = 0.3

_FLOAT_GUARD = 1e-12

_BUNDLED_REFERENCE = "reference_regimes.csv"


@dataclass(frozen=True)
class ReferenceCheck:
    check_id: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[ReferenceCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def __iter__(self):
        return iter(self.checks)


def _check_reference_periods(periods) -> None:
    """The bundled table's structure: exactly the dense periods 1..57."""
    if not np.array_equal(periods, np.arange(1, REFERENCE_ROWS + 1)):
        raise ValidationError(
            f"reference table must have exactly {REFERENCE_ROWS} rows with periods "
            f"1..{REFERENCE_ROWS}, got {np.size(periods)} rows"
        )


def load_reference() -> tuple[RegimeComparison, tuple[float, float, float]]:
    """The bundled reference table and its printed totals."""
    resource = resources.files(__package__).joinpath("data", _BUNDLED_REFERENCE)
    with resources.as_file(resource) as path:
        comparison, totals = read_comparison_table(path)
    _check_reference_periods(comparison.periods)
    return comparison, totals


def _whole_cents(values) -> bool:
    values = np.asarray(values, dtype=float)
    return bool(np.all(np.round(values, 2) == values))


def _cents(value: float) -> int:
    return round(value * 100)


def verify_reference(comparison: RegimeComparison, totals) -> VerificationReport:
    """Audit a comparison table's internal arithmetic against its totals.

    Three checks: (a) every per-row delta agrees with the column
    difference; (b) each column sum matches its total; (c) the totals
    satisfy ddescr - basic = delta. A 2-decimal printing (every cell and
    total a whole number of cents) is allowed 0.02 per row and 0.3 per
    column, and (c) is checked in cents; any other table must pass all
    three exactly. All outcomes are findings in the report.
    """
    if totals is None:
        raise ValidationError("comparison table has no '# totals:' directive to audit")
    basic_total, treated_total, delta_total = (float(v) for v in totals)
    columns = (comparison.basic, comparison.treated, comparison.delta)
    printed = all(map(_whole_cents, (*columns, totals)))
    row_slack, column_slack, guard = (
        (ROW_ROUNDING_SLACK, COLUMN_SUM_SLACK, _FLOAT_GUARD) if printed else (0, 0, 0)
    )
    show = "{:.2f}".format if printed else repr
    checks = []

    row_error = np.abs(comparison.delta - (comparison.treated - comparison.basic))
    bad_rows = comparison.periods[row_error > row_slack + guard]
    checks.append(
        ReferenceCheck(
            check_id="row-deltas",
            passed=bad_rows.size == 0,
            detail=(
                f"all {comparison.periods.size} rows within {row_slack}"
                if bad_rows.size == 0
                else f"rows off by more than {row_slack}: "
                + ", ".join(f"t={t}" for t in bad_rows)
            ),
        )
    )

    sum_basic = float(comparison.basic.sum())
    sum_ddescr = float(comparison.treated.sum())
    basic_ok = abs(sum_basic - basic_total) <= column_slack
    ddescr_ok = abs(sum_ddescr - treated_total) <= column_slack
    checks.append(
        ReferenceCheck(
            check_id="column-sums",
            passed=basic_ok and ddescr_ok,
            detail=(
                f"basic {show(sum_basic)} vs printed {show(basic_total)}, "
                f"ddescr {show(sum_ddescr)} vs printed {show(treated_total)} "
                f"(slack {column_slack})"
            ),
        )
    )

    unit = _cents if printed else float
    delta_exact = unit(treated_total) - unit(basic_total) == unit(delta_total)
    checks.append(
        ReferenceCheck(
            check_id="total-delta",
            passed=delta_exact,
            detail=(
                f"{show(treated_total)} - {show(basic_total)} "
                f"{'=' if delta_exact else '!='} {show(delta_total)} at "
                f"{'2-decimal' if printed else 'full'} precision"
            ),
        )
    )
    return VerificationReport(checks=tuple(checks))


def verify_bundled_reference() -> VerificationReport:
    """Audit the bundled table: its arithmetic, then the five-year cost identity."""
    report = verify_reference(*load_reference())
    cost_ok = BASE_FIVE_YEAR_COST + CONTROL_SETUP_COST == TOTAL_FIVE_YEAR_COST
    cost = ReferenceCheck(
        check_id="cost-identity",
        passed=cost_ok,
        detail=(
            f"{BASE_FIVE_YEAR_COST:,} + {CONTROL_SETUP_COST:,} "
            f"{'=' if cost_ok else '!='} {TOTAL_FIVE_YEAR_COST:,} thousand rubles"
        ),
    )
    return VerificationReport(checks=report.checks + (cost,))
