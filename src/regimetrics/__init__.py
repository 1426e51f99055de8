"""Sliding-window correlation indicators for enterprise operating regimes.

The package models an enterprise as a dense grid of time periods with a
matrix of financial event values, maps event channels onto a competency
catalog under a budget constraint, computes windowed correlation
matrices and their absolute-row-sum integral indicators, and compares
operating regimes period by period. A seeded synthetic generator and a
bundled reference comparison table support end-to-end runs and
verification without any external data.
"""

from .catalog import (
    DescriptorCatalog,
    DescriptorEntry,
    default_catalog,
    load_catalog,
    save_catalog,
)
from .engine import (
    DEFAULT_WINDOW,
    CorrelationMatrix,
    IndicatorSeries,
    RegimeComparison,
    compare_regimes,
    indicator_series,
    integral_indicator,
    naive_oracle,
    window_correlation,
)
from .errors import (
    BudgetError,
    InsufficientHistoryError,
    InvalidWindowError,
    ParseError,
    RegimetricsError,
    ValidationError,
)
from .io import (
    emit_report,
    parse_events,
    parse_mapping,
    parse_scenario,
    write_events,
    write_mapping,
    write_scenario,
)
from .model import (
    MODES,
    RAW,
    STANDARDIZED,
    BudgetReport,
    CompetencyMapping,
    EnterpriseModel,
    MappedSeries,
    apply_mapping,
    check_budget,
)
from .prng import Pcg32
from .reference import (
    ReferenceCheck,
    VerificationReport,
    load_reference,
    verify_bundled_reference,
    verify_reference,
)
from .synth import ProcessConfig, ScenarioConfig, generate_series, paired_scenarios

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "BudgetReport",
    "CompetencyMapping",
    "CorrelationMatrix",
    "DEFAULT_WINDOW",
    "DescriptorCatalog",
    "DescriptorEntry",
    "EnterpriseModel",
    "IndicatorSeries",
    "InsufficientHistoryError",
    "InvalidWindowError",
    "MappedSeries",
    "MODES",
    "ParseError",
    "Pcg32",
    "ProcessConfig",
    "RAW",
    "ReferenceCheck",
    "RegimeComparison",
    "RegimetricsError",
    "STANDARDIZED",
    "ScenarioConfig",
    "ValidationError",
    "VerificationReport",
    "apply_mapping",
    "check_budget",
    "compare_regimes",
    "default_catalog",
    "emit_report",
    "generate_series",
    "indicator_series",
    "integral_indicator",
    "load_catalog",
    "load_reference",
    "naive_oracle",
    "paired_scenarios",
    "parse_events",
    "parse_mapping",
    "parse_scenario",
    "save_catalog",
    "verify_bundled_reference",
    "verify_reference",
    "window_correlation",
    "write_events",
    "write_mapping",
    "write_scenario",
    "__version__",
]
