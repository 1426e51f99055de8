"""Seeded synthetic enterprise scenarios.

Generates event series shaped like a timber enterprise with a few
business processes (logging, river delivery, production), each
contributing one or more channels of seasonal-plus-noise expense values,
with an optional staffing intervention that adds a fixed per-period cost
to the first channel of every process from a given period onward.

The dynamics are an invented stand-in: generated data is synthetic
throughout and is not a reconstruction of any real enterprise. Output is
a pure function of the config. The noise comes from per-channel PCG32
substreams (see ``regimetrics.prng``) and the seasonal term is a
triangle wave, so the whole series is exact in IEEE-754 arithmetic and
reproduces bit-for-bit across platforms.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ValidationError
from .model import EnterpriseModel
from .prng import SEED_MAX, symmetric_draws


_FIELD_TYPES = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": (numbers.Real, "a finite number"),
}


def _check_field_types(config, owner: str) -> None:
    """Check each str, int and float field (``X | None`` admits None) against its annotation.

    A bool is none of these, and a float field must lie in the float range,
    which excludes nan, the infinities and ints that no float can hold.
    """
    for field in fields(config):
        kind, _, optional = field.type.partition(" | ")
        value = getattr(config, field.name)
        if kind in _FIELD_TYPES and not (optional and value is None):
            wanted, noun = _FIELD_TYPES[kind]
            if not isinstance(value, wanted) or isinstance(value, bool) or (
                kind == "float" and not -sys.float_info.max <= value <= sys.float_info.max
            ):
                raise ValidationError(f"{owner} {field.name} must be {noun}, got {value!r}")


@dataclass(frozen=True)
class ProcessConfig:
    """One business process contributing ``channels`` event channels.

    Each channel oscillates around ``base_level`` with a triangle wave of
    the given amplitude and cycle length, plus uniform noise drawn from
    [-noise_scale, noise_scale).
    """

    name: str
    channels: int = 1
    base_level: float = 100.0
    amplitude: float = 0.0
    period_length: int = 12
    noise_scale: float = 0.0

    def __post_init__(self):
        _check_field_types(self, "process")
        if not self.name:
            raise ValidationError("process name must be non-empty")
        if self.channels < 1:
            raise ValidationError(f"process {self.name!r} needs at least 1 channel")
        if self.period_length < 1:
            raise ValidationError(f"process {self.name!r} needs period_length >= 1")
        if self.noise_scale < 0:
            raise ValidationError(f"process {self.name!r} needs noise_scale >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete recipe for one synthetic scenario."""

    seed: int
    periods: int
    processes: tuple[ProcessConfig, ...]
    intervention_period: int | None = None
    intervention_cost_per_period: float = 0.0

    def __post_init__(self):
        _check_field_types(self, "scenario")
        if not 0 <= self.seed <= SEED_MAX:
            raise ValidationError("seed must be a 64-bit unsigned integer")
        if self.periods < 1:
            raise ValidationError("periods must be at least 1")
        processes = tuple(self.processes)
        if not processes:
            raise ValidationError("at least one process is required")
        names = [proc.name for proc in processes]
        if len(set(names)) != len(names):
            raise ValidationError("process names must be unique")
        if self.intervention_period is not None and not (
            1 <= self.intervention_period <= self.periods
        ):
            raise ValidationError(
                f"intervention_period must lie in 1..{self.periods}, "
                f"got {self.intervention_period}"
            )
        object.__setattr__(self, "processes", processes)

    @property
    def n(self) -> int:
        return sum(proc.channels for proc in self.processes)


def _triangle(t: int, cycle: int) -> float:
    # Piecewise-linear seasonal wave in [-1, 1]; exact in double precision.
    phase = ((t - 1) % cycle) / cycle
    return 1.0 - 4.0 * abs(phase - 0.5)


def generate_series(config: ScenarioConfig) -> EnterpriseModel:
    """Generate the event matrix for one scenario.

    Channel c (global, 0-based) draws its noise from
    ``Pcg32(seed=config.seed, stream=c)``; one [-1, 1) double per period,
    consumed in period order. When an intervention is configured, its
    per-period cost is added to the first channel of each process from
    the intervention period onward. The result is bit-identical across
    runs and platforms for a given config.
    """
    periods = config.periods
    # All draws at once, then each process's columns in place with the
    # IEEE-754 operations of the per-value form
    # (base + amplitude * wave) + noise_scale * draw, so every value is the
    # one a scalar Pcg32 drawn period by period gives.
    events = symmetric_draws(config.seed, config.n, periods)
    labels: list[str] = []
    first = 0
    for proc in config.processes:
        cycle = proc.period_length
        wave = [_triangle(t, cycle) for t in range(1, min(cycle, periods) + 1)]
        # The wave repeated over every period, then scaled and shifted in place.
        level = np.resize(np.array(wave), periods)
        level *= float(proc.amplitude)
        level += float(proc.base_level)
        block = events[:, first : first + proc.channels]
        if proc.noise_scale:
            block *= float(proc.noise_scale)
            block += level[:, None]
        else:
            block[:] = level[:, None]
        labels += [f"{proc.name}.{c + 1}" for c in range(proc.channels)]
        first += proc.channels
    events = _with_intervention(events, config)
    events.setflags(write=False)
    return EnterpriseModel(events=events, channel_labels=tuple(labels))


def _with_intervention(events: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    # Adding the cost after the baseline value is the same IEEE-754 sum a
    # per-value branch would take, so treated = baseline + cost exactly.
    if config.intervention_period is None:
        return events
    treated = events.copy()
    first = 0
    for proc in config.processes:
        # One column at a time, in place: a fancy index would copy the columns out and back.
        treated[config.intervention_period - 1 :, first] += config.intervention_cost_per_period
        first += proc.channels
    return treated


def paired_scenarios(config: ScenarioConfig) -> tuple[EnterpriseModel, EnterpriseModel]:
    """(baseline, treated) pair differing only in the intervention.

    The baseline is generated once with the intervention disabled, and
    the treated series is that baseline plus the intervention cost, so
    the noise realizations are identical.
    """
    baseline = generate_series(replace(config, intervention_period=None))
    treated = _with_intervention(baseline.events, config)
    treated.setflags(write=False)
    return baseline, EnterpriseModel(events=treated, channel_labels=baseline.channel_labels)
