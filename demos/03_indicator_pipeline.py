"""
From events to integral indicators, step by step
================================================

The full chain: event matrix -> competency mapping -> masked series ->
window correlation matrix -> per-channel integral indicators ->
per-period series and grand total.
"""

import numpy as np

from regimetrics import (
    CompetencyMapping,
    EnterpriseModel,
    STANDARDIZED,
    apply_mapping,
    check_budget,
    indicator_series,
    integral_indicator,
    window_correlation,
)

rng = np.random.RandomState(7)

# A small enterprise: 10 periods, 4 event channels (thousand rubles).
model = EnterpriseModel(
    events=np.round(100.0 + 30.0 * rng.rand(10, 4), 2),
    channel_labels=("logging.1", "logging.2", "delivery.1", "production.1"),
)
print("event matrix:")
print(model.events, "\n")

# Three competencies cover three of the four channels; delivery.1 is
# left uncovered and will be masked to zero.
mapping = CompetencyMapping(
    flags=np.array([[1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 0, 1]]),
    competency_ids=("1.1", "2.2", "3.3"),
    costs=np.array([28_208.0, 150.0, 75.0]),
    budget=5_669_650.0,
)
budget = check_budget(mapping)
print(f"budget check: {budget.total_cost:g} of {budget.budget:g} used, "
      f"satisfied={budget.satisfied}, active={budget.active}")

series = apply_mapping(model, mapping)
masked = [series.channel_labels[j] for j in series.masked_channels]
print(f"masked channels: {masked}\n")

# One window: the k=4 periods preceding t=8, each channel z-scored
# inside the window before the scaled Gram product.
print("window at t=8 (periods 4..7):")
print(series.values[3:7], "\n")
corr = window_correlation(series, t=8, k=4, mode=STANDARDIZED)
print(f"degenerate channels: {corr.degenerate.tolist()}")
print("correlation matrix (masked channel row/column collapse to zero):")
print(np.round(corr.r, 3), "\n")

indicators = integral_indicator(corr)
print(f"integral indicators at t=8: {np.round(indicators, 3)}")
print("(absolute row sums; each nondegenerate channel contributes at least "
      "its unit self-correlation)\n")

# The per-period series walks every evaluable t and sums everything.
result = indicator_series(series, k=4, mode=STANDARDIZED)
print(f"evaluable periods: {result.periods.tolist()} (first {result.k} are warm-up)")
for t, row in zip(result.periods, result.values):
    print(f"  t={t:2d}  V = {np.round(row, 3)}  sum = {row.sum():.3f}")
print(f"grand total: {result.total:.3f}")
