"""
Auditing comparison tables
==========================

The package ships a 57-period reference comparison of a baseline regime
against a descriptor-controlled one, with printed 2-decimal values and
column totals. Its source events are not available, so the audit checks
internal arithmetic only: per-row deltas against the column difference
(within printed-rounding slack), column sums against the printed totals,
the totals' own difference, and the five-year cost identity.

The same three arithmetic checks run on any comparison table. A table
written at full precision, like the one ``compare`` emits, gets zero
slack: one ulp changed in a single cell is caught.
"""

import tempfile
from pathlib import Path

import numpy as np

from regimetrics import (
    MappedSeries,
    RegimeComparison,
    compare_regimes,
    emit_report,
    indicator_series,
    load_reference,
    verify_bundled_reference,
    verify_reference,
)
from regimetrics.io import read_comparison_table


def show(report):
    for check in report:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.check_id}: {check.detail}")
    print(f"all checks pass: {report.ok}\n")


table, totals = load_reference()
print(f"{table.periods.size} rows, printed totals {totals}\n")

print("first and last rows:")
for index in (0, 1, 2, 54, 55, 56):
    print(
        f"  t={table.periods[index]:2d}  basic {table.basic[index]:7.2f}  "
        f"ddescr {table.treated[index]:7.2f}  dv {table.delta[index]:6.2f}"
    )

# Eight rows differ from the recomputed delta by exactly one cent of
# printed rounding; the audit allows up to two.
recomputed = table.treated - table.basic
off_by_a_cent = table.periods[np.abs(table.delta - recomputed) > 0.005]
print(f"\nrows where the printed delta carries rounding: {off_by_a_cent.tolist()}\n")
show(verify_bundled_reference())

# A full-precision table: two seeded random regimes compared, written and read back.
rng = np.random.RandomState(5)
labels = ("a", "b", "c")
basic, treated = (
    indicator_series(MappedSeries(values=rng.rand(30, 3), channel_labels=labels), 4)
    for _ in range(2)
)
with tempfile.TemporaryDirectory() as tmp:
    emit_report(tmp, 4, "raw", comparison=compare_regimes(basic, treated))
    emitted, emitted_totals = read_comparison_table(Path(tmp) / "comparison.csv")
print("comparison.csv written by emit_report:")
show(verify_reference(emitted, emitted_totals))

nudged = emitted.delta.copy()
nudged[3] = np.nextafter(nudged[3], np.inf)
corrupted = RegimeComparison(emitted.periods, emitted.basic, emitted.treated, nudged)
print("the same table with one dv cell moved by one ulp:")
show(verify_reference(corrupted, emitted_totals))
