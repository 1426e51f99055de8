"""
Comparing operating regimes
===========================

Run the indicator pipeline over a baseline scenario and over the same
scenario with a staffing intervention, then difference the two
indicator columns period by period. Windows that end before the
intervention show a delta of exactly zero; once windows start covering
intervention periods the regimes separate.
"""

from pathlib import Path

from regimetrics import (
    MappedSeries,
    ProcessConfig,
    STANDARDIZED,
    ScenarioConfig,
    compare_regimes,
    emit_report,
    indicator_series,
    paired_scenarios,
)

config = ScenarioConfig(
    seed=99,
    periods=36,
    processes=(
        ProcessConfig("logging", channels=2, base_level=120.0, amplitude=15.0,
                      period_length=12, noise_scale=4.0),
        ProcessConfig("river-delivery", channels=1, base_level=60.0, amplitude=8.0,
                      period_length=6, noise_scale=2.0),
        ProcessConfig("production", channels=2, base_level=200.0, amplitude=25.0,
                      period_length=12, noise_scale=6.0),
    ),
    intervention_period=12,
    intervention_cost_per_period=10.0,
)
k = 6

baseline, treated = paired_scenarios(config)
ind_base = indicator_series(MappedSeries.from_model(baseline), k, STANDARDIZED)
ind_treated = indicator_series(MappedSeries.from_model(treated), k, STANDARDIZED)
comparison = compare_regimes(ind_base, ind_treated)

print(f"window k={k}, mode=standardized, intervention at period {config.intervention_period}\n")
print("  t   baseline    treated      delta")
for t, basic, treated_v, delta in zip(
    comparison.periods, comparison.basic, comparison.treated, comparison.delta
):
    marker = "" if t > config.intervention_period else "   (window precedes intervention)"
    print(f" {t:3d}  {basic:9.3f}  {treated_v:9.3f}  {delta:9.3f}{marker}")

print(f"\ntotals: baseline {comparison.basic_total:.3f}, "
      f"treated {comparison.treated_total:.3f}, delta {comparison.delta_total:.3f}")

# The same comparison as emitted report files (table, plot data, metadata).
destination = Path(__file__).parent / "output" / "comparison"
for path in emit_report(destination, k, STANDARDIZED, comparison=comparison, seed=config.seed):
    print(f"wrote {path}")
