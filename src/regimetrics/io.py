"""File formats and report emission.

Every format but the scenario is a delimited table: optional
``# name: value`` directives, a header row, then data rows as wide as
the header, blank lines skipped; a leading ``t`` column runs densely by
1. One reader (``_read_table``) and one writer (``_write_table``) serve:

* event series: header ``t,<label1>,...,<labeln>``, periods from 1;
* mapping: ``# budget:`` / ``# cost:`` directives followed by sparse
  ``competency_id,channel_label,flag`` rows (absent pairs default to 0);
* comparison table: ``t,v_basic,v_ddescr,dv`` rows with an optional
  ``# totals:`` directive;
* indicator table: ``t,<labels...>,total``;
* plot data: ``t,v_total`` pairs.

The scenario is a JSON object mirroring ScenarioConfig. Computed values
are serialized with full round-trip precision (shortest repr); files are
written atomically (write to a temporary file in the same directory,
then rename) and byte-identical across repeated runs with identical
inputs.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import DescriptorCatalog
from .engine import IndicatorSeries, RegimeComparison
from .errors import ParseError, ValidationError, not_utf8
from .model import CompetencyMapping, EnterpriseModel, validate_mode
from .synth import ProcessConfig, ScenarioConfig

EVENT_PERIOD_COLUMN = "t"
COMPARISON_HEADER = ("t", "v_basic", "v_ddescr", "dv")
PLOT_HEADER = ("t", "v_total")
MAPPING_HEADER = ("competency_id", "channel_label", "flag")
TOTAL_COLUMNS = ("total", "v_total")
# Cells that _write_table holds as Python floats (about 30 bytes each) at once.
_WRITE_BLOCK_CELLS = 1 << 15


def fmt(value: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(value))


@contextmanager
def _atomic_open(path):
    """Text handle on a temporary file that replaces ``path`` when the block ends.

    Write-then-rename, so concurrent readers never see partial output.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically."""
    with _atomic_open(path) as handle:
        handle.write(text)
    return Path(path)


def _parse_float(cell: str, source, line: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"column {column!r}: {cell!r} is not a number", source=source, line=line)
    if not math.isfinite(value):
        raise ParseError(f"column {column!r}: {cell!r} is not finite", source=source, line=line)
    return value


# --- delimited tables ------------------------------------------------------


def _is_indicator_header(header) -> bool:
    """The kind rule: ``t,...,total`` and ``t,...,v_total`` mark indicator outputs.

    So ``total`` and ``v_total`` are reserved as an event series' last label.
    """
    return len(header) > 1 and header[0] == EVENT_PERIOD_COLUMN and header[-1] in TOTAL_COLUMNS


def is_indicator_output(path) -> bool:
    """Whether ``path`` holds an indicator table or plot data rather than an event series."""
    with _read_table(path) as (_, header, _, _):
        return _is_indicator_header(header)


@contextmanager
def _read_table(path, directives=(), first_period=None):
    """Open a delimited table; yield ``(line, header, found, rows)``.

    ``line`` is the header's physical line and ``found`` the directives
    as ``(line, name, value)``; a name not in ``directives`` is an error.
    ``rows`` streams ``(line, t, cells)`` per data row. When the header
    starts with ``t``, ``t`` must be ``first_period`` (by default the
    first row's own value) on the first row and go up by 1 on each later
    row, and ``cells`` are the other fields; otherwise ``t`` is None. A
    byte that is not UTF-8 is an error at its own line, raised when the
    text around it is first read.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        lines = _decoded_lines(handle, path)
        found = []
        for header_line, raw in enumerate(lines, start=1):
            text = raw.strip()
            if text.startswith("#"):
                name, colon, value = (part.strip() for part in text[1:].partition(":"))
                if not colon or name not in directives:
                    message = f"unknown directive {text[1:].strip()!r}"
                    raise ParseError(message, source=path, line=header_line)
                found.append((header_line, name, value))
            elif text:
                break
        else:
            raise ParseError("missing header", source=path, line=1)
        reader = csv.reader(itertools.chain([raw], lines))
        header = tuple(field.strip() for field in next(reader))

        def rows():
            start = expected = first_period
            for row in reader:
                line = header_line - 1 + reader.line_num
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if row[0].lstrip().startswith("#"):
                    raise ParseError("directives must precede the header", source=path, line=line)
                if len(row) != len(header):
                    message = f"expected {len(header)} fields, got {len(row)}"
                    raise ParseError(message, source=path, line=line)
                if header[0] != EVENT_PERIOD_COLUMN:
                    yield line, None, row
                    continue
                try:
                    t = int(row[0])
                except ValueError:
                    message = f"column 't': {row[0]!r} is not an integer"
                    raise ParseError(message, source=path, line=line)
                if expected is None:
                    start = expected = t
                if t > expected:
                    raise ParseError(f"missing period {expected}", source=path, line=line)
                if t < expected:
                    if t >= start:
                        raise ParseError(f"duplicate period {t}", source=path, line=line)
                    message = f"period {t} precedes the first period {start}"
                    raise ParseError(message, source=path, line=line)
                expected += 1
                yield line, t, row[1:]

        yield header_line, header, found, rows()


def _decoded_lines(handle, path):
    try:
        yield from handle
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def _write_table(path, header, rows=(), directives=(), periods=(), values=None) -> Path:
    """Write ``# name: value`` directives, a header and rows atomically.

    The header and ``rows`` go through ``csv``, which quotes labels as
    needed. ``values`` is a 2-D float array written after them, one line
    per row led by its period from ``periods``, each cell the shortest
    round-trip repr: the bytes ``csv`` writes for ``fmt`` cells, which
    never need quoting. Lines go to the file a block of rows at a time,
    so no copy of the whole text is held.
    """
    with _atomic_open(path) as handle:
        handle.writelines(f"# {name}: {value}\n" for name, value in directives)
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        if values is not None:
            periods = np.asarray(periods).astype(int).tolist()
            values = np.asarray(values, dtype=float)
            step = max(1, _WRITE_BLOCK_CELLS // max(1, values.shape[1]))
            for start in range(0, len(values), step):
                block = zip(periods[start : start + step], values[start : start + step].tolist())
                handle.write("".join([f"{t},{','.join(map(repr, row))}\n" for t, row in block]))
    return Path(path)


# --- event series ----------------------------------------------------------


def write_events(model: EnterpriseModel, path) -> Path:
    """Write an event-series file; refuses labels that parse_events rejects."""
    header = (EVENT_PERIOD_COLUMN, *model.channel_labels)
    if _is_indicator_header(header):
        message = f"last channel label {header[-1]!r} is reserved for indicator outputs"
        raise ValidationError(message)
    periods = range(1, model.t_max + 1)
    return _write_table(path, header, periods=periods, values=model.events)


def parse_events(path) -> EnterpriseModel:
    """Read an event-series file into a model.

    Periods run densely from 1, every cell must be a finite number, and
    the header of an indicator output is rejected.
    """
    with _read_table(path, first_period=1) as (line, header, _, rows):
        labels = header[1:]
        if header[0] != EVENT_PERIOD_COLUMN:
            problem = f"first header column must be {EVENT_PERIOD_COLUMN!r}"
        elif not labels:
            problem = "at least one channel column is required"
        elif len(set(labels)) != len(labels):
            problem = "channel labels must be unique"
        elif _is_indicator_header(header):
            problem = f"header of an indicator output: last label {labels[-1]!r} is reserved"
        else:
            problem = None
        if problem:
            raise ParseError(problem, source=path, line=line)
        data: list[float] = []
        try:
            for _, _, cells in rows:
                data += map(float, cells)
        except (ValueError, ParseError) as exc:
            failure = exc
        else:
            failure = None
    events = np.array(data)
    if failure is not None or not np.isfinite(events).all():
        _raise_first_bad_cell(path, labels, failure)
    if not data:
        raise ParseError("no data rows (t_max = 0)", source=path, line=line)
    return EnterpriseModel(events=events.reshape(-1, len(labels)), channel_labels=labels)


def _raise_first_bad_cell(path, labels, failure):
    # The bulk conversion keeps no cell text or line, so the first error in
    # file order is found by reading the file again cell by cell.
    with _read_table(path, first_period=1) as (_, _, _, rows):
        for at, _, cells in rows:
            for cell, label in zip(cells, labels):
                _parse_float(cell, path, at, label)
    if isinstance(failure, ParseError):
        raise failure
    raise ParseError("file changed while being read", source=path)


# --- competency mapping ----------------------------------------------------


def write_mapping(mapping: CompetencyMapping, channel_labels, path) -> Path:
    channel_labels = tuple(channel_labels)
    if len(channel_labels) != mapping.n:
        raise ValidationError(
            f"mapping covers {mapping.n} channels but {len(channel_labels)} labels given"
        )
    directives = [("budget", fmt(mapping.budget))]
    for cid, cost in zip(mapping.competency_ids, mapping.costs):
        directives.append(("cost", f"{cid} = {fmt(cost)}"))
    rows = (
        (cid, channel_labels[j], 1)
        for cid, flags in zip(mapping.competency_ids, mapping.flags)
        for j in np.flatnonzero(flags)
    )
    return _write_table(path, MAPPING_HEADER, rows, directives)


def parse_mapping(path, channel_labels, catalog: DescriptorCatalog | None = None) -> CompetencyMapping:
    """Read a mapping file against a known channel-label set.

    When a catalog is supplied, every competency id must resolve in it.
    """
    channel_labels = tuple(channel_labels)
    column_of = {label: j for j, label in enumerate(channel_labels)}
    budget: float | None = None
    costs: dict[str, float] = {}
    pairs: dict[tuple[str, str], int] = {}
    with _read_table(path, ("budget", "cost")) as (line, header, found, rows):
        for at, name, value in found:
            if name == "budget":
                if budget is not None:
                    raise ParseError("duplicate budget directive", source=path, line=at)
                budget = _parse_float(value, path, at, "budget")
                continue
            cid, equals, amount = (part.strip() for part in value.partition("="))
            if not equals:
                message = "cost directive must be '# cost: <id> = <number>'"
                raise ParseError(message, source=path, line=at)
            if not cid:
                raise ParseError("cost directive has empty id", source=path, line=at)
            if cid in costs:
                raise ParseError(f"duplicate cost for {cid!r}", source=path, line=at)
            costs[cid] = _parse_float(amount, path, at, "cost")
        if header != MAPPING_HEADER:
            raise ParseError(f"header must be {','.join(MAPPING_HEADER)}", source=path, line=line)
        order = list(costs)
        for at, _, row in rows:
            cid, label, flag_text = (field.strip() for field in row)
            if label not in column_of:
                raise ParseError(f"unknown channel label {label!r}", source=path, line=at)
            if flag_text not in ("0", "1"):
                raise ParseError(f"flag must be 0 or 1, got {flag_text!r}", source=path, line=at)
            if (cid, label) in pairs:
                raise ParseError(f"duplicate pair ({cid!r}, {label!r})", source=path, line=at)
            pairs[(cid, label)] = int(flag_text)
            if cid not in order:
                order.append(cid)
    if budget is None:
        raise ParseError("missing '# budget:' directive", source=path, line=1)
    flags = np.zeros((len(order), len(channel_labels)), dtype=np.int8)
    for (cid, label), flag in pairs.items():
        flags[order.index(cid), column_of[label]] = flag
    mapping = CompetencyMapping(
        flags=flags,
        competency_ids=tuple(order),
        costs=np.array([costs.get(cid, 0.0) for cid in order]),
        budget=budget,
    )
    if catalog is not None:
        mapping.validate_against(catalog)
    return mapping


# --- scenario config -------------------------------------------------------

_SCENARIO_KEYS = {
    "seed",
    "periods",
    "processes",
    "intervention_period",
    "intervention_cost_per_period",
}
_PROCESS_KEYS = {"name", "channels", "base_level", "amplitude", "period_length", "noise_scale"}


def parse_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", source=path, line=exc.lineno)
    if not isinstance(payload, dict):
        raise ParseError("scenario document must be a JSON object", source=path)
    unknown = set(payload) - _SCENARIO_KEYS
    if unknown:
        raise ParseError(f"unknown scenario keys: {', '.join(sorted(unknown))}", source=path)
    for key in ("seed", "periods", "processes"):
        if key not in payload:
            raise ParseError(f"missing scenario key {key!r}", source=path)
    raw_processes = payload["processes"]
    if not isinstance(raw_processes, list):
        raise ParseError("'processes' must be a list", source=path)
    processes = []
    for index, entry in enumerate(raw_processes):
        if not isinstance(entry, dict):
            raise ParseError(f"process #{index + 1} must be an object", source=path)
        unknown = set(entry) - _PROCESS_KEYS
        if unknown:
            raise ParseError(
                f"process #{index + 1} has unknown keys: {', '.join(sorted(unknown))}",
                source=path,
            )
        if "name" not in entry:
            raise ParseError(f"process #{index + 1} is missing 'name'", source=path)
        processes.append(ProcessConfig(**entry))
    return ScenarioConfig(
        seed=payload["seed"],
        periods=payload["periods"],
        processes=tuple(processes),
        intervention_period=payload.get("intervention_period"),
        intervention_cost_per_period=payload.get("intervention_cost_per_period", 0.0),
    )


def write_scenario(config: ScenarioConfig, path) -> Path:
    payload = {
        "seed": config.seed,
        "periods": config.periods,
        "processes": [
            {
                "name": proc.name,
                "channels": proc.channels,
                "base_level": proc.base_level,
                "amplitude": proc.amplitude,
                "period_length": proc.period_length,
                "noise_scale": proc.noise_scale,
            }
            for proc in config.processes
        ],
        "intervention_period": config.intervention_period,
        "intervention_cost_per_period": config.intervention_cost_per_period,
    }
    return atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


# --- comparison and indicator tables ---------------------------------------


def write_comparison_table(path, periods, basic, treated, delta, totals=None) -> Path:
    directives = () if totals is None else [("totals", ",".join(map(fmt, totals)))]
    values = np.column_stack((basic, treated, delta))
    return _write_table(
        path, COMPARISON_HEADER, directives=directives, periods=periods, values=values
    )


def read_comparison_table(path):
    """Parse a comparison table.

    Returns (periods, v_basic, v_ddescr, dv, totals) where totals is the
    ``# totals:`` triple or None.
    """
    totals = None
    periods: list[int] = []
    values: list[float] = []
    with _read_table(path, ("totals",)) as (line, header, found, rows):
        for at, _, value in found:
            if totals is not None:
                raise ParseError("duplicate totals directive", source=path, line=at)
            parts = value.split(",")
            if len(parts) != 3:
                raise ParseError("totals directive needs 3 numbers", source=path, line=at)
            totals = tuple(_parse_float(part.strip(), path, at, "totals") for part in parts)
        if header != COMPARISON_HEADER:
            message = f"header must be {','.join(COMPARISON_HEADER)}"
            raise ParseError(message, source=path, line=line)
        for at, t, cells in rows:
            periods.append(t)
            values += [_parse_float(cell, path, at, name) for cell, name in zip(cells, header[1:])]
    basic, treated, delta = np.array(values).reshape(-1, 3).T.copy()
    return np.array(periods, dtype=int), basic, treated, delta, totals


def write_indicator_table(indicators: IndicatorSeries, path) -> Path:
    header = (EVENT_PERIOD_COLUMN, *indicators.channel_labels, "total")
    values = np.column_stack((indicators.values, indicators.per_period_totals()))
    return _write_table(path, header, periods=indicators.periods, values=values)


def read_indicator_column(path, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-period aggregate column of an indicator table or plot file.

    Given the window ``k``, the file must be an output of that window:
    its periods start at k + 1, or at 1 with zero rows 1..k (plot data
    written with ``pad_warmup``), and those rows are dropped.
    """
    periods: list[int] = []
    values: list[float] = []
    first = None
    with _read_table(path) as (line, header, _, rows):
        if not _is_indicator_header(header):
            message = "not an indicator output (header must start with 't' and end with a total)"
            raise ParseError(message, source=path, line=line)
        for at, t, cells in rows:
            value = _parse_float(cells[-1], path, at, header[-1])
            if first is None:
                first = t
            if k is not None and (first not in (1, k + 1) or (t <= k and value != 0.0)):
                message = (
                    f"first period {first} does not fit window {k}: an indicator output "
                    f"starts at period {k + 1}, or at 1 with zero rows 1..{k}"
                )
                raise ParseError(message, source=path, line=at)
            if k is None or t > k:
                periods.append(t)
                values.append(value)
    if k is not None and not periods:
        raise ParseError(f"no period after the warm-up 1..{k}", source=path, line=line)
    return np.array(periods, dtype=int), np.array(values)


def write_plot_data(path, periods, aggregates) -> Path:
    values = np.asarray(aggregates)[:, None]
    return _write_table(path, PLOT_HEADER, periods=periods, values=values)


# --- analysis reports ------------------------------------------------------


@dataclass(frozen=True)
class AnalysisReport:
    """One analysis run, ready for emission.

    Carries the window length, normalization mode, and seed (when the
    events are synthetic), plus per-period indicator records and/or a
    regime comparison.
    """

    k: int
    mode: str
    seed: int | None = None
    indicators: IndicatorSeries | None = None
    comparison: RegimeComparison | None = None

    def __post_init__(self):
        validate_mode(self.mode)
        if self.k < 2:
            raise ValidationError(f"window length must be at least 2, got {self.k}")
        if self.indicators is None and self.comparison is None:
            raise ValidationError("report needs indicator records or a comparison")


def emit_report(report: AnalysisReport, destination, pad_warmup: bool = False) -> list[Path]:
    """Write the report's table, plot data and metadata files.

    Emits ``comparison.csv`` plus one plot file per regime when a
    comparison exists, else ``indicators.csv`` plus ``plot.csv``; always
    ends with ``metadata.json``. With ``pad_warmup`` the plot files gain
    zero rows for the warm-up periods 1..k (flagged in the metadata) so
    external plots align with the raw period axis.
    """
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    comparison, indicators = report.comparison, report.indicators
    periods = (indicators if comparison is None else comparison).periods
    if periods.size == 0:
        raise ValidationError("refusing to emit a report with no evaluable periods")
    if comparison is not None:
        totals = (comparison.basic_total, comparison.treated_total, comparison.delta_total)
        table = write_comparison_table(
            destination / "comparison.csv",
            periods,
            comparison.basic,
            comparison.treated,
            comparison.delta,
            totals=totals,
        )
        plots = {"plot_basic.csv": comparison.basic, "plot_ddescr.csv": comparison.treated}
    else:
        table = write_indicator_table(indicators, destination / "indicators.csv")
        plots = {"plot.csv": indicators.per_period_totals()}
    if pad_warmup:
        periods = np.concatenate([np.arange(1, report.k + 1), periods])
        plots = {name: np.concatenate([np.zeros(report.k), v]) for name, v in plots.items()}
    written = [table]
    written += [write_plot_data(destination / name, periods, v) for name, v in plots.items()]
    metadata = {
        "k": report.k,
        "mode": report.mode,
        "seed": report.seed,
        "pad_warmup": bool(pad_warmup),
    }
    written.append(
        atomic_write_text(
            destination / "metadata.json", json.dumps(metadata, indent=2, sort_keys=True) + "\n"
        )
    )
    return written
