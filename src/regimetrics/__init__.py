"""Sliding-window correlation indicators for enterprise operating regimes.

The package models an enterprise as a dense grid of time periods with a
matrix of financial event values, maps event channels onto a competency
catalog under a budget constraint, computes windowed correlation
matrices and their absolute-row-sum integral indicators, and compares
operating regimes period by period. A seeded synthetic generator and a
bundled reference comparison table support end-to-end runs and
verification without any external data.

The public names are loaded on first use (PEP 562), so ``import
regimetrics`` loads no numpy until a name that needs it is used.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "catalog": "DescriptorCatalog DescriptorEntry default_catalog load_catalog save_catalog",
        "engine": "DEFAULT_WINDOW CorrelationMatrix IndicatorSeries RegimeComparison "
        "compare_regimes indicator_series integral_indicator naive_oracle window_correlation",
        "errors": "BudgetError InsufficientHistoryError InvalidWindowError ParseError "
        "RegimetricsError ValidationError",
        "io": "emit_report parse_events parse_mapping parse_scenario write_events "
        "write_mapping write_scenario",
        "model": "MODES RAW STANDARDIZED BudgetReport CompetencyMapping EnterpriseModel "
        "MappedSeries apply_mapping check_budget",
        "prng": "Pcg32",
        "reference": "ReferenceCheck VerificationReport load_reference "
        "verify_bundled_reference verify_reference",
        "synth": "ProcessConfig ScenarioConfig generate_series paired_scenarios",
    }.items()
    for name in names.split()
}


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})


__all__ = [*_EXPORTS, "__version__"]
