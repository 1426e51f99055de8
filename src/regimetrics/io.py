"""File formats and report emission.

Every format but the scenario is a delimited table: optional
``# name: value`` directives, a header row, then data rows as wide as
the header, blank lines skipped; a leading ``t`` column runs densely by
1. An indicator output's directives close the table instead, after its
last row, so its first data row stays on line 2 as in outputs written
without them. One reader (``_read_table``) and one writer
(``_write_table``), both placing directives by the header's kind, serve:

* event series: header ``t,<label1>,...,<labeln>``, periods from 1;
* mapping: ``# budget:`` / ``# cost:`` directives followed by sparse
  ``competency_id,channel_label,flag`` rows (absent pairs default to 0);
* comparison table: ``t,v_basic,v_ddescr,dv`` rows with an optional
  ``# totals:`` directive;
* indicator table: ``t,<labels...>,total`` rows, closed by ``# k:`` and
  ``# mode:`` directives (the window and normalization it was made with);
* plot data: ``t,v_total`` pairs, closed by the same two directives;
* descriptor catalog: ``level,level_name,skill_id,skill_name,request_id,
  request_text`` rows (its own rules live in ``catalog``).

A table is read as physical lines: ``\\n``, ``\\r\\n`` and every lone
``\\r`` end one. The numeric cells of event, comparison and indicator
tables are converted in ``_read_numeric``. Data rows made only of the
plain alphabet (ASCII ``0-9 . e E + -``, comma, space and the line ends)
go through one ``np.loadtxt`` call, numpy's C reader, and the dense ``t``
rule and finiteness are checked on its arrays. Any other data and any
row, rule or warning that stops that call take the one scan in a second
open of the file: each cell is converted by ``int()`` or ``float()``, up
to the first bad one, named with its line. The accepted syntax and every
message are the scan's either way. A read holds one copy of the table:
loadtxt's rows become the values in place (``_keep_cells``), which a
parsed model holds as they are and a comparison cuts into its columns
one at a time, with about 64 KB of text and 64 KB of moved cells beside.

The scenario is a JSON object mirroring ScenarioConfig. Computed values
are serialized with full round-trip precision (shortest repr); files are
written atomically (write to a temporary file in the same directory,
then rename) and byte-identical across repeated runs with identical
inputs. ``_write_values`` formats a numeric table of at least
``_SPLIT_CELLS`` (65,536) cells, its period column included, in two
processes (``_fork.forked``): one forked child formats the second half
of the rows into an anonymous temporary file, which is appended after
the first half. Where no child can start, or the child fails, this
process formats those rows itself, so the bytes are those of the serial
loop either way. Files get the permissions ``open(path, "w")`` would
give: 0666 less the umask.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
import shutil
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ._fork import forked
from .engine import IndicatorSeries, RegimeComparison
from .errors import ParseError, ValidationError, not_utf8
from .model import (
    CompetencyMapping,
    EnterpriseModel,
    _check_amounts,
    _check_window_length,
    validate_mode,
)
from .synth import ProcessConfig, ScenarioConfig

EVENT_PERIOD_COLUMN = "t"
COMPARISON_HEADER = ("t", "v_basic", "v_ddescr", "dv")
PLOT_HEADER = ("t", "v_total")
MAPPING_HEADER = ("competency_id", "channel_label", "flag")
TOTAL_COLUMNS = ("total", "v_total")
# Directives of an indicator output: the window and the mode it was made with.
_RUN_DIRECTIVES = ("k", "mode")
# Periods are int64 arrays, so a period outside this range is an error at its line.
_INT64 = np.iinfo(np.int64)
# Cells that _write_values holds as Python floats and text at once. A block costs about
# 0.2 MB of RSS, against about 1 MB at 8,192 cells, and on a 2-core x86 host 50,000 x 9,
# 10,000 x 51 and 388 x 401 tables formatted as fast in 1,024-cell blocks as in 8,192.
_WRITE_BLOCK_CELLS = 1 << 10
# Cells, the period column's included, from which _write_values forks a child for half the
# rows (fork and reap: about 2.4 ms).
_SPLIT_CELLS = 1 << 16


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
    while True:
        # mkstemp would create the file 0600; 0666 lets the umask decide, as open() does.
        tmp_name = path.parent / f".{path.name}.{os.urandom(4).hex()}.tmp"
        try:
            fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
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
    with _read_table(path) as (_, header, _, _, _):
        return _is_indicator_header(header)


@contextmanager
def _read_table(path, directives=(), first_period=None, repeated=()):
    """Open a delimited table; yield ``(line, header, found, rows, batches)``.

    ``line`` is the header's physical line and ``found`` the directives
    as ``(line, name, value)``; a name not in ``directives`` is an error,
    and so is a second directive of a name not in ``repeated``. The data
    after the header is one stream of physical lines, each ended by
    ``\\n``, ``\\r\\n`` or a lone ``\\r``. In an indicator output
    (``_is_indicator_header``) it ends at the first line that starts with
    ``#``: from there on the lines are its closing ``# k:`` and ``# mode:``
    directives, read into ``found`` once the caller's block ends without
    an error. ``rows`` streams ``(line, t, cells)`` per data row. When the
    header starts with ``t``, ``t`` must be ``first_period`` (by default
    the first row's own value) on the first row and go up by 1 on each
    later row, and ``cells`` are the other fields; otherwise ``t`` is
    None. ``batches`` streams the same lines in lists of about
    ``_PLAIN_BATCH_CHARS`` characters; both read one stream, so use only
    one. A byte that is not UTF-8 is an error at its own line, raised when
    the text around it is first read.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            found = []
            first = _read_directives(enumerate(handle, 1), path, found, directives, repeated)
            if first is None:
                raise ParseError("missing header", source=path, line=1)
            header_line, raw = first
            header_reader = csv.reader(itertools.chain([raw], handle))
            header = tuple(field.strip() for field in next(header_reader))
            first_line = header_line + header_reader.line_num
            closing = _RUN_DIRECTIVES if _is_indicator_header(header) else ()
            cut = []  # the line and the text of the first closing directive, once met

            def cut_lines():
                for at, raw in enumerate(handle, first_line):
                    if raw.lstrip().startswith("#"):
                        cut.append((at, raw))
                        return
                    yield raw

            data = cut_lines() if closing else handle

            def rows():
                reader = csv.reader(data)
                start = expected = first_period
                read = 0
                for row in reader:
                    # A quoted field may span lines; a record is named by its first.
                    line, read = first_line + read, reader.line_num
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    if not closing and row[0].lstrip().startswith("#"):
                        message = "directives must precede the header"
                        raise ParseError(message, source=path, line=line)
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
                    if not _INT64.min <= t <= _INT64.max:
                        message = f"period {t} is outside the int64 range"
                        raise ParseError(message, source=path, line=line)
                    expected += 1
                    yield line, t, row[1:]

            def batches():
                batch, size = [], 0
                for raw in data:
                    batch.append(raw)
                    size += len(raw)
                    if size >= _PLAIN_BATCH_CHARS:
                        yield batch
                        batch, size = [], 0
                if batch:
                    yield batch

            yield header_line, header, found, rows(), batches()
            if cut:
                after = itertools.chain(cut, enumerate(handle, cut[0][0] + 1))
                row = _read_directives(after, path, found, closing)
                if row is not None:
                    message = "data row after the closing directives"
                    raise ParseError(message, source=path, line=row[0])
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def _read_directives(lines, path, found, names, repeated=()):
    """Add the ``# name: value`` lines of ``lines`` to ``found`` as ``(line, name, value)``.

    ``lines`` yields ``(line, text)`` pairs. Blank lines are skipped, and
    the pair of the first other line is returned (None at the end). A
    name not in ``names`` is an error, and so is a second directive of a
    name not in ``repeated``.
    """
    for at, raw in lines:
        text = raw.strip()
        if not text:
            continue
        if not text.startswith("#"):
            return at, raw
        name, colon, value = (part.strip() for part in text[1:].partition(":"))
        if not colon or name not in names:
            raise ParseError(f"unknown directive {text[1:].strip()!r}", source=path, line=at)
        if name not in repeated and any(name == seen for _, seen, _ in found):
            raise ParseError(f"duplicate {name} directive", source=path, line=at)
        found.append((at, name, value))
    return None


def _write_table(path, header, rows=(), directives=(), periods=(), columns=()) -> Path:
    """Write ``# name: value`` directives, a header and rows atomically.

    The header and ``rows`` go through ``csv``, which quotes labels as
    needed, and float ``columns`` after them (see ``_write_values``). The
    directives go first, or last in an indicator output (``_is_indicator_header``).
    """
    lines = [f"# {name}: {value}\n" for name, value in directives]
    leading, closing = ([], lines) if _is_indicator_header(header) else (lines, [])
    with _atomic_open(path) as handle:
        handle.writelines(leading)
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        if columns:
            _write_values(handle, Path(path).parent, periods, columns)
        handle.writelines(closing)
    return Path(path)


def _write_values(handle, directory, periods, columns) -> None:
    """Write the rows of ``columns`` to ``handle``, each led by its period from ``periods``.

    ``columns`` are float arrays of one row per period, 1-D for one
    column or 2-D for several, written side by side. Each cell is the
    shortest round-trip repr: the bytes ``csv`` writes for ``fmt`` cells,
    which never need quoting. The columns are stacked, and the periods
    and cells turned into Python numbers, a block of rows at a time, so
    no copy of the whole table is held in any form.

    A table of ``_SPLIT_CELLS`` cells or more, counting the period column,
    is formatted by two processes (see ``_fork.forked``): a child writes
    the second half of the rows to an anonymous file in ``directory``,
    appended after this process's first half. Without a child, this
    process formats those rows too, so the bytes and errors are the
    serial loop's.
    """
    periods = np.asarray(periods)
    columns = [np.asarray(column, dtype=float) for column in columns]
    if len(periods) + sum(column.size for column in columns) < _SPLIT_CELLS:
        handle.writelines(_row_text(periods, columns))
        return
    mid = len(periods) // 2
    tail = (periods[mid:], [column[mid:] for column in columns])

    def second_half(out):
        out.writelines(map(str.encode, _row_text(*tail)))

    with forked(second_half, dir=directory) as collect:
        handle.writelines(_row_text(periods[:mid], [column[:mid] for column in columns]))
        out = collect()
        if out is None:
            handle.writelines(_row_text(*tail))
        else:
            handle.flush()
            shutil.copyfileobj(out, handle.buffer)


def _row_text(periods, columns):
    """Text of the rows of ``columns``, a block of ``_WRITE_BLOCK_CELLS`` cells at a time."""
    width = sum(1 if column.ndim == 1 else column.shape[1] for column in columns)
    step = max(1, _WRITE_BLOCK_CELLS // max(1, width))
    for start in range(0, len(periods), step):
        stop = start + step
        block = np.column_stack([column[start:stop] for column in columns]).tolist()
        rows = zip(periods[start:stop].astype(int).tolist(), block)
        yield "".join([f"{t},{','.join(map(repr, row))}\n" for t, row in rows])


# --- event series ----------------------------------------------------------


def _event_header_problem(header) -> str | None:
    """What is wrong with an event series' ``header``, or None: parse_events' rule."""
    labels = header[1:]
    if header[0] != EVENT_PERIOD_COLUMN:
        return f"first header column must be {EVENT_PERIOD_COLUMN!r}"
    if not labels:
        return "at least one channel column is required"
    if len(set(labels)) != len(labels):
        return "channel labels must be unique"
    if _is_indicator_header(header):
        return f"header of an indicator output: last label {labels[-1]!r} is reserved"
    return None


def write_events(model: EnterpriseModel, path) -> Path:
    """Write an event-series file that parse_events reads back with the model's labels.

    Its header must pass parse_events' rule with each field stripped, as
    the reader strips them, and then no label may change when stripped.
    """
    header = (EVENT_PERIOD_COLUMN, *model.channel_labels)
    problem = _event_header_problem(tuple(field.strip() for field in header))
    spaced = [label for label in model.channel_labels if label != label.strip()]
    if not problem and spaced:
        problem = f"channel label {spaced[0]!r} would read back as {spaced[0].strip()!r}"
    if problem:
        raise ValidationError(f"{path}: {problem}")
    periods = np.arange(1, model.t_max + 1)
    return _write_table(path, header, periods=periods, columns=[model.events])


def parse_events(path) -> EnterpriseModel:
    """Read an event-series file into a model.

    Periods run densely from 1, every cell must be a finite number, and
    the header of an indicator output is rejected.
    """

    def check(line, header, _):
        problem = _event_header_problem(header)
        if problem:
            raise ParseError(problem, source=path, line=line)

    line, header, _, _, events = _read_numeric(path, check, first_period=1)
    if not events.size:
        raise ParseError("no data rows (t_max = 0)", source=path, line=line)
    events.setflags(write=False)  # so the model shares it (model._frozen_array)
    return EnterpriseModel(events=events, channel_labels=header[1:])


# The plain alphabet. Data rows made only of these characters go to np.loadtxt,
# which reads them exactly as float() and int() do. Outside it the two differ:
# loadtxt strips U+001C..U+001F around a number and refuses 1_0 or non-ASCII
# digits, so such data takes the scan. Every \r ends a line, as \n does, so
# CRLF and lone-CR files take loadtxt.
_PLAIN = b"0123456789.eE+-, \n\r"
# Characters of data lines checked against _PLAIN and handed to loadtxt at a time: a
# batch ends with the line that reaches it, so its text is held about three times
# (the lines, their join and its ASCII bytes) whatever the lines' length.
_PLAIN_BATCH_CHARS = 1 << 16
# Cells _keep_cells moves at a time, and so the most its move holds beside the table.
_MOVE_BLOCK_CELLS = 1 << 13


def _read_numeric(path, check, **table) -> tuple:
    """``(line, header, found, periods, values)`` of a table whose header starts with ``t``.

    ``table`` holds the ``_read_table`` arguments. ``check(line, header,
    found)`` raises the caller's errors in the header and the leading
    directives, in each open before any cell is converted. Plain numeric
    data, whatever its line ends, is converted in the first open by one
    ``np.loadtxt`` call (``_load_plain``). Any refusal leaves that open for
    the one scan in a second, which converts each cell by ``_parse_float``
    up to the first bad one; so both paths give the same arrays or the
    same error. ``found`` ends with an indicator output's closing
    directives, read once the rows are.
    """
    try:
        with _read_table(path, **table) as (line, header, found, _, batches):
            check(line, header, found)
            periods, values = _load_plain(batches, len(header) - 1, table.get("first_period"))
        return line, header, found, periods, values
    except (ValueError, Warning):
        pass  # the scan is the reference, so every refusal here defers to it
    with _read_table(path, **table) as (line, header, found, rows, _):
        check(line, header, found)
        first = next(rows, (None, 1, ()))  # a table without rows reads as periods from 1
        scanned = (
            _parse_float(cell, path, at, label)
            for at, _, cells in itertools.chain([first], rows)
            for cell, label in zip(cells, header[1:])
        )
        values = np.fromiter(scanned, dtype=float)
    # Shaped in place, so the values own their data on either path.
    values.resize((values.size // (len(header) - 1), len(header) - 1), refcheck=False)
    periods = np.arange(first[1], first[1] + len(values), dtype=np.int64)
    return line, header, found, periods, values


def _load_plain(batches, width, first_period) -> tuple[np.ndarray, np.ndarray]:
    """Periods and values of plain numeric rows, by one ``np.loadtxt`` call.

    ``batches`` is ``_read_table``'s stream of data lines. ``t`` is read as
    int64, so it is parsed as ``int()`` would and ``1.0`` is refused. Each
    batch is checked against the plain alphabet as loadtxt takes it, so no
    second copy of the text is held. Raises ValueError when the text
    leaves the alphabet or breaks the dense ``t`` rule or finiteness;
    loadtxt's own errors, and its warnings (made errors, so that a table
    without data rows raises), propagate.

    Once checked, loadtxt's structured (t, v) rows become the (rows,
    width) float64 values in place: the array's dtype is set to float64,
    so each row reads as its period's 8 bytes and its values, and
    ``_keep_cells`` drops the first cell of each row. So the values own
    their data, and no second copy of the table is made. The checks read
    the rows through views (``data["t"]``, ``data["v"]``) that end with
    their expressions, so no view of the structured rows survives into
    the move.
    """

    def plain(batch):
        text = "".join(batch)
        if not text.isascii() or text.encode("ascii").translate(None, _PLAIN):
            raise ValueError("not plain numeric data")
        return batch

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = np.loadtxt(
            itertools.chain.from_iterable(map(plain, batches)),
            dtype=[("t", np.int64), ("v", float, (width,))],
            delimiter=",",
            comments=None,
            quotechar=None,
            ndmin=1,
        )
    start = int(data["t"][0])
    # Cut at the int64 limit, so rows that run past it are never dense.
    periods = np.arange(start, min(start + len(data), _INT64.max + 1), dtype=np.int64)
    if first_period not in (None, start) or not np.array_equal(data["t"], periods):
        raise ValueError("periods do not run densely from the first period")
    if not np.isfinite(data["v"]).all():
        raise ValueError("a cell is not finite")
    data.dtype = np.float64
    return periods, _keep_cells(data, width + 1, slice(1, None))


def _keep_cells(owner: np.ndarray, width: int, keep: slice) -> np.ndarray:
    """``owner``, a C-contiguous float64 array owning its data, cut to cells ``keep`` of each row.

    Rows are ``width`` cells, and ``owner`` is returned shaped (rows,
    kept). The kept cells move to the front of the buffer up to
    ``_MOVE_BLOCK_CELLS`` cells at a time (a cell never lands past where
    it was read, so no block overwrites cells a later one reads), and
    ``resize`` cuts the buffer to them. ``resize`` may move the data and
    leave any view of the old buffer on freed memory, so it runs only once
    this function's views are gone, and callers hold none. Its reference
    check, which a caller's own name for ``owner`` would trip, is off.
    """
    flat = owner.reshape(-1)
    rows = flat.size // width
    grid = flat.reshape(rows, width)[:, keep]
    kept = grid.shape[1]
    step = max(1, _MOVE_BLOCK_CELLS // width)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        # numpy copies a source block that overlaps its destination before the move.
        flat[start * kept : stop * kept].reshape(-1, kept)[...] = grid[start:stop]
    del flat, grid
    owner.resize((rows, kept), refcheck=False)
    return owner


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


def parse_mapping(path, channel_labels, catalog=None) -> CompetencyMapping:
    """Read a mapping file against a known channel-label set.

    When a catalog (a DescriptorCatalog) is supplied, every competency id
    must resolve in it; an id that does not is an error at the first line
    naming it.
    """
    channel_labels = tuple(channel_labels)
    column_of = {label: j for j, label in enumerate(channel_labels)}
    budget: float | None = None
    budget_line: int | None = None
    costs: dict[str, float] = {}
    pairs: dict[tuple[str, str], int] = {}
    named_at: dict[str, int] = {}  # competency id -> first line naming it

    def amount(text: str, at: int, name: str) -> float:
        value = _parse_float(text, path, at, name)
        try:
            _check_amounts(name, value)
        except ValidationError as exc:
            raise ParseError(str(exc), source=path, line=at) from None
        return value

    table = _read_table(path, ("budget", "cost"), repeated=("cost",))
    with table as (line, header, found, rows, _):
        for at, name, value in found:
            if name == "budget":
                budget, budget_line = amount(value, at, "budget"), at
                continue
            cid, equals, text = (part.strip() for part in value.partition("="))
            if not equals:
                message = "cost directive must be '# cost: <id> = <number>'"
                raise ParseError(message, source=path, line=at)
            if not cid:
                raise ParseError("cost directive has empty id", source=path, line=at)
            if cid in costs:
                raise ParseError(f"duplicate cost for {cid!r}", source=path, line=at)
            costs[cid] = amount(text, at, "cost")
            named_at[cid] = at
        if header != MAPPING_HEADER:
            raise ParseError(f"header must be {','.join(MAPPING_HEADER)}", source=path, line=line)
        for at, _, row in rows:
            cid, label, flag_text = (field.strip() for field in row)
            if label not in column_of:
                raise ParseError(f"unknown channel label {label!r}", source=path, line=at)
            if flag_text not in ("0", "1"):
                raise ParseError(f"flag must be 0 or 1, got {flag_text!r}", source=path, line=at)
            if (cid, label) in pairs:
                raise ParseError(f"duplicate pair ({cid!r}, {label!r})", source=path, line=at)
            pairs[(cid, label)] = int(flag_text)
            named_at.setdefault(cid, at)
    if budget is None:
        raise ParseError("missing '# budget:' directive", source=path, line=1)
    if catalog is not None:
        known = set(catalog.skill_ids())
        for cid, at in named_at.items():
            if cid not in known:
                raise ParseError(f"competency id not in catalog: {cid}", source=path, line=at)
    row_of = {cid: i for i, cid in enumerate(named_at)}
    flags = np.zeros((len(row_of), len(channel_labels)), dtype=np.int8)
    for (cid, label), flag in pairs.items():
        flags[row_of[cid], column_of[label]] = flag
    return CompetencyMapping(
        flags=flags,
        competency_ids=tuple(row_of),
        costs=np.array([costs.get(cid, 0.0) for cid in row_of]),
        budget=budget,
        budget_source=f"{path}:{budget_line}",
    )


# --- scenario config -------------------------------------------------------

def parse_scenario(path) -> ScenarioConfig:
    """Read a scenario JSON object; its keys are the fields of ScenarioConfig.

    Each process is an object whose keys are the fields of ProcessConfig.
    Keys without a default are required, and the configs' own checks
    (value types included) become errors naming the file.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", source=path, line=exc.lineno)
    if not isinstance(payload, dict):
        raise ParseError("scenario document must be a JSON object", source=path)
    problem = _key_problem(payload, ScenarioConfig)
    if problem:
        raise ParseError(f"scenario {problem}", source=path)
    if not isinstance(payload["processes"], list):
        raise ParseError("'processes' must be a list", source=path)
    processes = []
    try:
        for index, entry in enumerate(payload["processes"], start=1):
            if not isinstance(entry, dict):
                raise ParseError(f"process #{index} must be an object", source=path)
            problem = _key_problem(entry, ProcessConfig)
            if problem:
                raise ParseError(f"process #{index} {problem}", source=path)
            processes.append(ProcessConfig(**entry))
        return ScenarioConfig(**{**payload, "processes": tuple(processes)})
    except ValidationError as exc:
        raise ParseError(str(exc), source=path) from None


def _key_problem(entry: dict, config_type) -> str | None:
    fields = dataclasses.fields(config_type)
    unknown = set(entry) - {field.name for field in fields}
    if unknown:
        return f"has unknown keys: {', '.join(sorted(unknown))}"
    for field in fields:
        required = field.default is dataclasses.MISSING
        if required and field.name not in entry:
            return f"is missing {field.name!r}"
    return None


def write_scenario(config: ScenarioConfig, path) -> Path:
    return atomic_write_text(path, json.dumps(dataclasses.asdict(config), indent=2) + "\n")


# --- comparison and indicator tables ---------------------------------------


def write_comparison_table(path, comparison: RegimeComparison, totals=None) -> Path:
    """Write a comparison and, when given, its ``# totals:`` triple."""
    directives = () if totals is None else [("totals", ",".join(map(fmt, totals)))]
    columns = (comparison.basic, comparison.treated, comparison.delta)
    return _write_table(
        path, COMPARISON_HEADER, directives=directives, periods=comparison.periods, columns=columns
    )


def read_comparison_table(path) -> tuple[RegimeComparison, tuple[float, float, float] | None]:
    """Parse a comparison table into a RegimeComparison and its ``# totals:`` triple or None."""
    totals = None

    def check(line, header, found):
        nonlocal totals
        for at, _, value in found:
            parts = value.split(",")
            if len(parts) != 3:
                raise ParseError("totals directive needs 3 numbers", source=path, line=at)
            totals = tuple(_parse_float(part.strip(), path, at, "totals") for part in parts)
        if header != COMPARISON_HEADER:
            message = f"header must be {','.join(COMPARISON_HEADER)}"
            raise ParseError(message, source=path, line=line)

    _, _, _, periods, values = _read_numeric(path, check, directives=("totals",))
    # Each column is copied out, the last first, and cut from the table in place, so the
    # read holds one column beyond the table; frozen, the comparison shares them.
    columns = [values[:, -1].copy()]
    while values.shape[1] > 1:
        values = _keep_cells(values, values.shape[1], slice(0, -1))
        columns.insert(0, values[:, -1].copy())
    for owned in (periods, *columns):
        owned.setflags(write=False)
    return RegimeComparison(periods, *columns), totals


def write_indicator_table(indicators: IndicatorSeries, path) -> Path:
    return _write_indicator_table(path, indicators, indicators.per_period_totals())


def _write_indicator_table(path, indicators: IndicatorSeries, totals) -> Path:
    """The indicator table of ``indicators``, whose per-period totals are ``totals``."""
    header = (EVENT_PERIOD_COLUMN, *indicators.channel_labels, "total")
    run = zip(_RUN_DIRECTIVES, (indicators.k, indicators.mode))
    columns = (indicators.values, totals)
    return _write_table(path, header, directives=run, periods=indicators.periods, columns=columns)


def read_indicator_column(path, k: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-period aggregate column of an indicator table or plot file.

    The ``# k:`` and ``# mode:`` directives after its last row must state
    ``k`` and ``mode``: one missing (files written without them must be
    regenerated), repeated or of another value is an error at its line
    (the header's, if missing), raised once the rows are read and before
    their periods are checked. Every cell must be a finite number.
    Periods start at k + 1, or at 1 with zero rows 1..k (plot data written
    with ``pad_warmup``), which are dropped; the error for a misplaced row
    names its period. A ``k`` below 2 is the window length error of any
    analysis, raised before the file is read.
    """
    _check_window_length(k)
    stated = dict(zip(_RUN_DIRECTIVES, (str(k), mode)))

    def check(line, header, _):
        if not _is_indicator_header(header):
            message = "not an indicator output (header must start with 't' and end with a total)"
            raise ParseError(message, source=path, line=line)

    line, _, found, periods, values = _read_numeric(path, check)
    for at, name, value in found:
        if value != stated[name]:
            message = f"indicator output of {name} {value}, not {stated[name]}"
            raise ParseError(message, source=path, line=at)
    for name in stated:
        if all(name != given for _, given, _ in found):
            message = f"missing '# {name}:' directive: regenerate this indicator output"
            raise ParseError(message, source=path, line=line)
    warm_up = periods <= k
    starts_right = periods[:1].tolist() in ([], [1], [k + 1])
    unfit = periods[(warm_up & (values[:, -1] != 0.0)) | (not starts_right)]
    if unfit.size:
        fits = f"an indicator output starts at period {k + 1}, or at 1 with zero rows 1..{k}"
        raise ParseError(f"period {unfit[0]} does not fit window {k}: {fits}", source=path)
    if warm_up.all():
        raise ParseError(f"no period after the warm-up 1..{k}", source=path, line=line)
    return periods[~warm_up], values[~warm_up, -1]


def write_plot_data(path, periods, aggregates, k: int, mode: str) -> Path:
    run = zip(_RUN_DIRECTIVES, (k, mode))
    return _write_table(path, PLOT_HEADER, directives=run, periods=periods, columns=[aggregates])


# --- analysis reports ------------------------------------------------------


def emit_report(
    destination, k: int, mode: str, *, indicators=None, comparison=None, seed=None, pad_warmup=False
) -> list[Path]:
    """Write the table, plot data and metadata files of one analysis run.

    The run has a window length ``k``, a normalization ``mode``, a
    ``seed`` when the events are synthetic, and exactly one result:
    ``comparison`` (a RegimeComparison) or ``indicators`` (an
    IndicatorSeries). A comparison emits ``comparison.csv`` plus one plot
    file per regime, indicators emit ``indicators.csv`` plus ``plot.csv``,
    and ``metadata.json`` always comes last. With ``pad_warmup`` the plot
    files gain zero rows for the warm-up periods 1..k (flagged in the
    metadata) so external plots align with the raw period axis. The tables
    and plot files state ``k`` and ``mode``, which ``indicators`` must share;
    the periods must run k + 1, k + 2, ... as ``read_indicator_column`` reads.
    """
    validate_mode(mode)
    _check_window_length(k)
    if (indicators is None) == (comparison is None):
        raise ValidationError("report needs exactly one of indicator records or a comparison")
    if indicators is not None and (indicators.k, indicators.mode) != (k, mode):
        made = f"window {indicators.k}, mode {indicators.mode!r}"
        raise ValidationError(f"indicators of {made} in a report of window {k}, mode {mode!r}")
    periods = (indicators if comparison is None else comparison).periods
    if periods.size == 0:
        raise ValidationError("refusing to emit a report with no evaluable periods")
    if not np.array_equal(periods, np.arange(k + 1, k + 1 + periods.size)):
        message = f"periods {periods[0]}..{periods[-1]} are not {k + 1}, {k + 2}, ... in a row"
        raise ValidationError(f"{message}, as window {k} gives")
    destination = Path(destination)
    if comparison is not None:
        totals = (comparison.basic_total, comparison.treated_total, comparison.delta_total)
        table = write_comparison_table(destination / "comparison.csv", comparison, totals)
        plots = {"plot_basic.csv": comparison.basic, "plot_ddescr.csv": comparison.treated}
    else:
        totals = indicators.per_period_totals()
        table = _write_indicator_table(destination / "indicators.csv", indicators, totals)
        plots = {"plot.csv": totals}
    if pad_warmup:
        periods = np.concatenate([np.arange(1, k + 1), periods])
        plots = {name: np.concatenate([np.zeros(k), v]) for name, v in plots.items()}
    written = [table]
    for name, column in plots.items():
        written.append(write_plot_data(destination / name, periods, column, k, mode))
    metadata = {"k": k, "mode": mode, "seed": seed, "pad_warmup": bool(pad_warmup)}
    text = json.dumps(metadata, indent=2, sort_keys=True) + "\n"
    written.append(atomic_write_text(destination / "metadata.json", text))
    return written
