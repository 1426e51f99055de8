"""Enterprise event series, competency mappings, and window bounds.

An enterprise is modelled as a dense time grid of periods 1..t_max and an
event matrix of financial expense/income values (thousand rubles), one
column per event channel. A competency mapping is a binary matrix saying
which channels evidence which catalog competencies; applying it masks the
channels no competency covers. A window is the k periods preceding a
given period; ``_check_window_length`` decides which window lengths are
valid and ``_check_window_bounds`` which periods have a window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetError,
    InsufficientHistoryError,
    InvalidWindowError,
    ValidationError,
)

RAW = "raw"
STANDARDIZED = "standardized"
MODES = (RAW, STANDARDIZED)


def _frozen_array(values, dtype=float, ndim: int | None = None, name: str = "array") -> np.ndarray:
    """``values`` as a read-only array of ``dtype``, shared where that is safe.

    The ownership rule: a plain ndarray (no subclass) of ``dtype`` that
    is already read-only and owns its data is returned as is. Whoever
    froze it gave up writing to it, so it is shared, not copied; a
    writeable view taken before the freeze, or the flag set back, would
    break that promise. The package freezes the arrays it makes
    (``apply_mapping``'s masked copy, the kernel's rows, the generator's
    events, the reader's events and a comparison table's columns) as soon
    as they are filled and before passing them on, so each is held once.
    Anything else is copied: a view, whose base may be written, and a
    writeable array, which stays the caller's and writeable, and whose
    later changes never reach the copy.
    """
    arr = values
    owned = type(arr) is np.ndarray and arr.flags.owndata and not arr.flags.writeable
    if not owned or arr.dtype != np.dtype(dtype):
        arr = np.array(values, dtype=dtype)
        arr.setflags(write=False)
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def _labelled_matrix(values, labels, name: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """A frozen, finite, at least 1x1 matrix and one unique label per column."""
    values = _frozen_array(values, ndim=2, name=name)
    t_max, n = values.shape
    if t_max < 1 or n < 1:
        raise ValidationError(f"{name} must be at least 1x1, got {t_max}x{n}")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{name} must contain only finite values")
    labels = tuple(str(label) for label in labels)
    if len(labels) != n:
        raise ValidationError(f"expected {n} channel labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise ValidationError("channel labels must be unique")
    return values, labels


def _check_amounts(name: str, amounts) -> None:
    """Costs and budgets are finite, non-negative amounts (thousand rubles)."""
    amounts = np.asarray(amounts, dtype=float)
    if not np.all(np.isfinite(amounts)) or np.any(amounts < 0):
        raise ValidationError(f"{name} must be finite and non-negative")


def validate_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class EnterpriseModel:
    """Time grid plus event matrix, shape (t_max, n), thousand rubles."""

    events: np.ndarray
    channel_labels: tuple[str, ...]

    def __post_init__(self):
        events, labels = _labelled_matrix(self.events, self.channel_labels, "events")
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "channel_labels", labels)

    @property
    def t_max(self) -> int:
        return self.events.shape[0]

    @property
    def n(self) -> int:
        return self.events.shape[1]


@dataclass(frozen=True)
class CompetencyMapping:
    """Binary competency-to-channel matrix with per-competency costs.

    ``flags[i, j] == 1`` declares that event channel j evidences
    competency i. Costs and the budget are in thousand rubles.
    ``budget_source`` says where the budget was stated, as ``path:line``
    of a mapping file's ``# budget:`` directive, for error messages.
    """

    flags: np.ndarray
    competency_ids: tuple[str, ...]
    costs: np.ndarray
    budget: float
    budget_source: str | None = field(default=None, compare=False)

    def __post_init__(self):
        flags = np.array(self.flags)
        if flags.ndim != 2:
            raise ValidationError(f"flags must be 2-dimensional, got shape {flags.shape}")
        if flags.size and not np.isin(flags, (0, 1)).all():
            raise ValidationError("every flags cell must be 0 or 1")
        flags = _frozen_array(flags, dtype=np.int8, ndim=2, name="flags")
        m = flags.shape[0]
        ids = tuple(str(c) for c in self.competency_ids)
        if len(ids) != m:
            raise ValidationError(f"expected {m} competency ids, got {len(ids)}")
        if len(set(ids)) != m:
            raise ValidationError("competency ids must be unique")
        costs = _frozen_array(self.costs, ndim=1, name="costs")
        if costs.shape[0] != m:
            raise ValidationError(f"expected {m} costs, got {costs.shape[0]}")
        _check_amounts("costs", costs)
        budget = float(self.budget)
        _check_amounts("budget", budget)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "competency_ids", ids)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "budget", budget)

    @property
    def n(self) -> int:
        return self.flags.shape[1]

    def active_channels(self) -> np.ndarray:
        """Boolean mask over channels: covered by at least one competency."""
        return self.flags.any(axis=0)

    def active_competencies(self) -> np.ndarray:
        """Boolean mask over competencies: flag at least one channel."""
        return self.flags.any(axis=1)


@dataclass(frozen=True)
class BudgetReport:
    """Feasibility of a mapping: cost of active competencies vs budget."""

    total_cost: float
    budget: float
    satisfied: bool
    active: tuple[str, ...]


def check_budget(mapping: CompetencyMapping) -> BudgetReport:
    """Sum costs of competencies with at least one flag set.

    A violated budget is a valid report, not an error.
    """
    active_mask = mapping.active_competencies()
    total = float(mapping.costs[active_mask].sum())
    active = tuple(
        cid for cid, is_active in zip(mapping.competency_ids, active_mask) if is_active
    )
    return BudgetReport(
        total_cost=total,
        budget=mapping.budget,
        satisfied=total <= mapping.budget,
        active=active,
    )


@dataclass(frozen=True)
class MappedSeries:
    """Event series after competency masking, ready for windowed analysis."""

    values: np.ndarray
    channel_labels: tuple[str, ...]
    masked_channels: tuple[int, ...] = ()

    def __post_init__(self):
        values, labels = _labelled_matrix(self.values, self.channel_labels, "values")
        masked = tuple(int(j) for j in self.masked_channels)
        if any(j < 0 or j >= len(labels) for j in masked):
            raise ValidationError("masked channel index out of range")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "channel_labels", labels)
        object.__setattr__(self, "masked_channels", masked)

    @property
    def t_max(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_model(cls, model: EnterpriseModel) -> "MappedSeries":
        """Identity mapping: every channel passes through unmasked."""
        return cls(values=model.events, channel_labels=model.channel_labels)


def apply_mapping(source, mapping: CompetencyMapping) -> MappedSeries:
    """Mask event channels not covered by any competency.

    ``source`` may be an EnterpriseModel or an already-mapped series
    (applying the same mapping again changes nothing). Channel j of the
    output equals the input channel when the column-wise OR of flags is
    set, and is zero otherwise; zeroed channels are listed in
    ``masked_channels``. Raises BudgetError (carrying the computed cost
    and the mapping's ``budget_source``) when the mapping's active
    competencies exceed the budget.
    """
    if isinstance(source, EnterpriseModel):
        values, labels = source.events, source.channel_labels
    elif isinstance(source, MappedSeries):
        values, labels = source.values, source.channel_labels
    else:
        raise ValidationError(
            f"source must be EnterpriseModel or MappedSeries, got {type(source).__name__}"
        )
    if mapping.n != values.shape[1]:
        raise ValidationError(
            f"mapping covers {mapping.n} channels but the series has {values.shape[1]}"
        )
    report = check_budget(mapping)
    if not report.satisfied:
        raise BudgetError(report.total_cost, mapping.budget, mapping.budget_source)
    keep = mapping.active_channels()
    masked = tuple(int(j) for j in np.flatnonzero(~keep))
    out = np.where(keep, values, 0.0)
    out.setflags(write=False)
    return MappedSeries(values=out, channel_labels=labels, masked_channels=masked)


def _check_window_length(k: int) -> None:
    if k < 2:
        raise InvalidWindowError(
            f"window length must be at least 2 (the coefficient divisor is k-1), got {k}"
        )


def _check_window_bounds(t_max: int, t: int, k: int) -> None:
    _check_window_length(k)
    if t <= k:
        raise InsufficientHistoryError(
            f"period {t} has only {max(t - 1, 0)} preceding periods, window needs {k}"
        )
    if t > t_max + 1:
        raise ValidationError(
            f"period {t} lies beyond the series (last period {t_max})"
        )
