"""The two converters of numeric tables: numpy's C reader and the one scan.

Plain numeric data rows, CRLF and lone-CR line ends included, go through
one ``np.loadtxt`` call; anything else is read again by the cell-by-cell
scan, which is the reference. These tests check that both give the same
arrays or the same error, that each path is really taken where it should
be, and that a refused file is read at most twice.
"""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import regimetrics.io as rio
from regimetrics import (
    EnterpriseModel,
    MappedSeries,
    ParseError,
    compare_regimes,
    indicator_series,
    load_reference,
    parse_events,
)
from regimetrics.io import (
    read_comparison_table,
    read_indicator_column,
    write_comparison_table,
    write_events,
    write_indicator_table,
    write_plot_data,
)

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# --- the grammar of a table file ---------------------------------------------

FORMATS = (repr, "{:.17g}".format, "{:.6E}".format, "{:f}".format)
PLAIN_CELLS = st.one_of(
    st.builds(
        lambda x, form: form(x),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(FORMATS),
    ),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["+1", "01", "-0", ".5", "5.", "-.5e-3", "1E5", " 2.5 ", "1e-400"]),
)
ODD_CELLS = st.sampled_from(
    [
        "425\x1c", "\x1f3", "\x1c1.5\x1d", "\x1e2", "1_0", "٣", '"1.5"', '"1,5"',
        "1e400", "-1e400", "nan", "inf", "", " ", "1 2", "0x10", "1e", ".", "-", "+-1",
        "\t2", "3\x0b", "#1", "1.0", "1e0", "+1", "01", "9223372036854775808",
        "-9223372036854775809",
    ]
)
CONTROL = st.sampled_from(["\x1c", "\x1d", "\x1e", "\x1f"])
# Each mutation is applied at (row, column) positions taken modulo the table's size.
INDEX = st.integers(0, 99)
MUTATIONS = st.one_of(
    st.tuples(st.just("cell"), INDEX, INDEX, st.one_of(ODD_CELLS, PLAIN_CELLS)),
    st.tuples(st.just("wrap"), INDEX, INDEX, CONTROL, st.sampled_from(["before", "after"])),
    st.tuples(
        st.just("period"), INDEX, st.sampled_from(["1.0", "2**63", "+", "0", "-1", "dup", "gap"])
    ),
    st.tuples(st.just("ending"), INDEX, st.sampled_from(["\r\n", "\r"])),
    st.tuples(st.just("insert"), INDEX, st.sampled_from(["", "   ", "\t", " , "])),
    st.tuples(st.just("trailing comma"), INDEX),
    st.tuples(st.just("drop cell"), INDEX),
    st.tuples(st.just("crlf"),),
)


# The window and mode each indicator reader asks for, which its tables state.
RUNS = {"indicator": (4, "raw"), "indicator, window 2": (2, "standardized")}


def stated(kind):
    """The closing ``# k:`` and ``# mode:`` lines that the reader of ``kind`` accepts, if any."""
    return "".join(f"# {name}: {value}\n" for name, value in zip(("k", "mode"), RUNS.get(kind, ())))


def headers(kind, width):
    """Plain, quoted and quoted two-line headers for a reader and a data width."""
    if kind == "comparison":
        return ["t,v_basic,v_ddescr,dv", 't,"v_basic",v_ddescr,dv', 't,"v_\nbasic",v_ddescr,dv']
    labels = [f"c{j}" for j in range(1, width + 1)]
    if kind != "events":
        labels[-1] = "total" if width > 1 else "v_total"
    two_line = f't,"{labels[0]}\nx",{",".join(labels[1:])}'.rstrip(",")
    return [",".join(["t", *labels]), f'"t",{",".join(labels)}', two_line]


@st.composite
def table_texts(draw, reader):
    """A table for the reader named ``reader`` in READERS; its kind is the name's first word."""
    run = RUNS.get(reader)
    kind = reader.split(",")[0]
    width = 3 if kind == "comparison" else draw(st.integers(1, 3))
    # Periods from 2**63 - 3 run past int64, where numpy's own periods turn to floats.
    firsts = st.sampled_from([*range(-3, 13), 2**63 - 3])
    if run:
        firsts = st.one_of(st.just(run[0] + 1), firsts)
    first = 1 if kind == "events" else draw(firsts)
    n = draw(st.integers(0, 6))
    cells = st.lists(PLAIN_CELLS, min_size=width, max_size=width)
    rows = [[str(first + i), *draw(cells)] for i in range(n)]
    endings = ["\n"] * n
    extra = []  # (before row, line) pairs
    for mutation in draw(st.lists(MUTATIONS, max_size=3)):
        name, *args = mutation
        if name == "crlf":
            endings = ["\r\n"] * n
        elif name == "insert":
            extra.append((args[0] % (n + 1), args[1]))
        elif n == 0:
            continue
        elif name == "ending":
            endings[args[0] % n] = args[1]
        elif name == "trailing comma":
            rows[args[0] % n].append("")
        elif not rows[args[0] % n]:
            continue  # every cell of this row was dropped
        elif name == "drop cell":
            rows[args[0] % n].pop()
        elif name == "cell":
            row = rows[args[0] % n]
            row[args[1] % len(row)] = args[2]
        elif name == "wrap":
            row, (column, char, side) = rows[args[0] % n], args[1:]
            column %= len(row)
            row[column] = char + row[column] if side == "before" else row[column] + char
        elif name == "period":
            at, token = args[0] % n, args[1]
            shift = {"dup": -1, "gap": 1}.get(token)
            if token == "2**63":
                token = str(2**63)
            elif shift is not None:
                token = str(first + at + shift)
            rows[at][0] = token
    preamble_lines = st.sampled_from(["", "   ", "# totals: 1,2,3", "# totals: 4, 5 ,6"])
    closing = []
    if run:
        # The two directives the reader accepts close the table, in either order. One time
        # in eight the k line gives way to a blank line, a k of another run, a second mode
        # line or a data row; one time in eight the directives come before the last row.
        preamble_lines = st.sampled_from(["", "   "])
        odd_lines = st.sampled_from(["", "   ", f"#k:{run[0] + 1}", "# mode:  raw ", "9,1"])
        closing = stated(reader).splitlines()
        if draw(st.integers(0, 7)) == 7:
            closing[0] = draw(odd_lines)
        closing = [line + "\n" for line in draw(st.permutations(closing))]
    preamble = draw(st.lists(preamble_lines, max_size=2))
    header = draw(st.sampled_from(headers(kind, width)))
    lines = [line + "\n" for line in preamble] + [header + draw(st.sampled_from(["\n", "\r\n"]))]
    for i, (row, ending) in enumerate(zip(rows, endings)):
        lines += [line + "\n" for at, line in extra if at == i]
        lines.append(",".join(row) + ending)
    lines += [line + "\n" for at, line in extra if at == n]
    if n and draw(st.integers(0, 7)) == 7:
        lines[-1:-1] = closing
    else:
        lines += closing
    text = "".join(lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


# --- the two paths -----------------------------------------------------------


def arrays(kind, result):
    if kind == "events":
        return [result.events, np.array(result.channel_labels)]
    if kind == "comparison":
        comparison, totals = result
        columns = (comparison.periods, comparison.basic, comparison.treated, comparison.delta)
        return [*columns, np.array(totals if totals is not None else [])]
    return list(result)


READERS = {
    "events": parse_events,
    "comparison": read_comparison_table,
    "indicator": lambda path: read_indicator_column(path, *RUNS["indicator"]),
    "indicator, window 2": lambda path: read_indicator_column(path, *RUNS["indicator, window 2"]),
}


def outcome(kind, path):
    """The arrays as (dtype, shape, bytes), or the error as (type, text, line)."""
    try:
        result = READERS[kind](path)
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc), getattr(exc, "line", None))
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays(kind.split(",")[0], result)]


def scanned_outcome(kind, path):
    with mock.patch.object(rio, "_load_plain", side_effect=ValueError("scan forced")):
        return outcome(kind, path)


@pytest.mark.parametrize("kind", sorted(READERS))
@PROPERTY
@given(data=st.data())
def test_fast_and_streamed_paths_agree(tmp_path, kind, data):
    text = data.draw(table_texts(kind), label="text")
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(kind, path) == scanned_outcome(kind, path)


@pytest.mark.parametrize(
    "kind, text",
    [
        ("events", "t,a\n1,425\x1c\n"),
        ("events", "t,a\n\x1f1,2.0\n"),
        ("events", "t,a\n1,1_0\n"),
        ("events", "t,a\n1.0,2.0\n"),
        ("events", "t,a\n1,٣\n"),
        ("events", "t,a\n1,2\r3\n"),
        ("events", "t,a\r1,2\r2,x\r"),
        # a duplicate period where periods past int64 would be compared as floats
        ("indicator", f"t,v_total\n{2**63 - 3},1\n{2**63 - 2},1\n{2**63 - 2},1\n"),
        # a '#' that does not start a line is inside a row, not a closing directive
        ("indicator", "t,v_total\n5,1\n6,2# k: 4\n"),
    ],
)
def test_tables_loadtxt_reads_unlike_the_streamed_path_take_it(tmp_path, kind, text):
    path = tmp_path / "table.csv"
    path.write_text(text + stated(kind), encoding="utf-8")
    expected = scanned_outcome(kind, path)
    with mock.patch.object(rio, "_read_table", wraps=rio._read_table) as opened:
        assert outcome(kind, path) == expected
    assert opened.call_count == 2  # the scan is the second open


@pytest.mark.parametrize(
    "text, totals",
    [
        ('t,"x\n# y",total\n5,1,2\n6,2,3\n# k: 4\n# mode: raw\n', [2.0, 3.0]),  # '#' in the header
        ("t,v_total\n5,1\n6,2\r\n\r\n  # mode: raw\r# k: 4", [1.0, 2.0]),  # indented, lone \r
    ],
    ids=["header", "indented"],
)
def test_closing_directives_are_found_alike_on_both_paths(tmp_path, text, totals):
    path = tmp_path / "plot.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = [(a.dtype.str, a.shape, a.tobytes()) for a in (np.array([5, 6]), np.array(totals))]
    assert outcome("indicator", path) == scanned_outcome("indicator", path) == expected


def test_last_int64_period_reads_back_exactly_on_both_paths(tmp_path):
    path = tmp_path / "comparison.csv"
    path.write_text(f"t,v_basic,v_ddescr,dv\n{2**63 - 2},1,3,2\n{2**63 - 1},1,3,2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast, scanned = outcome("comparison", path), scanned_outcome("comparison", path)
    assert fast == scanned
    periods = np.array([2**63 - 2, 2**63 - 1], dtype=np.int64)
    assert fast[0] == (periods.dtype.str, periods.shape, periods.tobytes())


@pytest.mark.parametrize(
    "rows, line, message",
    [
        ([2**63 - 1, 2**63], 3, f"period {2**63} is outside the int64 range"),
        ([-(2**63) - 1, -(2**63)], 2, f"period {-(2**63) - 1} is outside the int64 range"),
        # int64 arithmetic would wrap 2**63 - 1 + 1 to this period
        ([2**63 - 1, -(2**63)], 3, f"period {-(2**63)} precedes the first period {2**63 - 1}"),
    ],
)
def test_period_outside_int64_is_an_error_at_its_line_on_both_paths(tmp_path, rows, line, message):
    path = tmp_path / "comparison.csv"
    path.write_text("t,v_basic,v_ddescr,dv\n" + "".join(f"{t},1,3,2\n" for t in rows))
    expected = ("error", "ParseError", f"{path}:{line}: {message}", line)
    assert outcome("comparison", path) == expected
    assert scanned_outcome("comparison", path) == expected


# --- which path is taken -----------------------------------------------------

EDGE_VALUES = [-0.0, 0.0, 1e16, 5e-324, 1e308, 1.0 / 3.0, -2.5e-310, 123456789.125, 0.1]


def edge_matrix(t_max, n):
    rng = np.random.RandomState(23)
    values = np.abs(rng.randn(t_max, n)) * 10.0 ** rng.randint(-300, 300, size=(t_max, n))
    values.flat[: len(EDGE_VALUES)] = EDGE_VALUES
    return values


def written_tables(directory):
    """Each writer's output, its kind in READERS and the arrays its reader must return."""
    labels = ("a", "b", "c", "d")
    model = EnterpriseModel(events=edge_matrix(30, 4), channel_labels=labels)
    rng = np.random.RandomState(5)
    basic, treated = (
        indicator_series(MappedSeries(values=50 + 20 * rng.rand(30, 4), channel_labels=labels), 4)
        for _ in range(2)
    )
    comparison = compare_regimes(basic, treated)
    totals = (1.0 / 3.0, -0.0, 1e308)
    column = [treated.periods, treated.per_period_totals()]
    return [
        (write_events(model, directory / "events.csv"), "events", [model.events, np.array(labels)]),
        (write_indicator_table(treated, directory / "indicators.csv"), "indicator", column),
        (write_plot_data(directory / "plot.csv", *column, 4, "raw"), "indicator", column),
        (
            write_comparison_table(directory / "comparison.csv", comparison, totals),
            "comparison",
            arrays("comparison", (comparison, totals)),
        ),
    ]


def assert_read_bits(kind, path, expected):
    got = arrays(kind, READERS[kind](path))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def assert_read_once(kind, path, expected):
    """The reader of ``kind`` returns ``expected`` from one open: a scan would be a second."""
    with mock.patch.object(rio, "_read_table", wraps=rio._read_table) as opened:
        assert_read_bits(kind, path, expected)
    assert opened.call_count == 1


def test_writer_outputs_and_bundled_reference_take_the_fast_path(tmp_path):
    tables = written_tables(tmp_path)
    for path, kind, expected in tables:
        assert_read_once(kind, path, expected)
    with mock.patch.object(rio, "_read_table", wraps=rio._read_table) as opened:
        comparison, totals = load_reference()
    assert opened.call_count == 1
    assert comparison.periods.tolist() == list(range(1, 58))
    assert totals == (5069.93, 5491.28, 421.35)


def test_crlf_copies_take_the_fast_path(tmp_path):
    for path, kind, expected in written_tables(tmp_path):
        for name, ending in (("crlf", b"\r\n"), ("cr", b"\r")):
            copy = path.with_name(f"{name}-{path.name}")
            copy.write_bytes(path.read_bytes().replace(b"\n", ending))
            assert_read_once(kind, copy, expected)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "closing", ["# k: 4\n# mode: raw\n", "# k: 4\n# mode: raw\n\n# k: 4"], ids=["run", "duplicate"]
)
def test_closing_directives_at_any_block_boundary_read_alike(
    tmp_path, monkeypatch, ending, closing
):
    # Batches of every size up to the whole table put the first closing line at the start of
    # a batch, inside one, and past the last.
    text = ending.join(["t,v_total", "5,1", "6,2", "7,3", ""]) + closing
    path = tmp_path / "plot.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = scanned_outcome("indicator", path)
    for chars in range(1, len(text) + 2):
        monkeypatch.setattr(rio, "_PLAIN_BATCH_CHARS", chars)
        with mock.patch.object(rio, "_read_table", wraps=rio._read_table) as opened:
            assert outcome("indicator", path) == expected
        assert opened.call_count == 1  # numpy's reader takes every line end, a lone \r too


def test_a_byte_that_is_not_utf8_past_the_first_block_is_an_error_at_its_line(tmp_path):
    assert 15000 * len("1,1.5\n") > rio._PLAIN_BATCH_CHARS
    # The byte's line is counted as the reader ends lines, so a bad cell in its place
    # is named at the same line.
    for end in (b"\n", b"\r\n", b"\r"):
        rows = [f"{t},{t}.5".encode() + end for t in range(1, 20001)]
        path = tmp_path / "events.csv"
        rows[15000] = b"15001,x" + end
        path.write_bytes(b"t,a" + end + b"".join(rows))
        assert outcome("events", path)[3] == 15002
        rows[15000] = b"15001,\xff" + end
        path.write_bytes(b"t,a" + end + b"".join(rows))
        message = f"{path}:15002: not UTF-8 text: byte 0xff (invalid start byte)"
        with mock.patch.object(rio, "_read_table", wraps=rio._read_table) as opened:
            assert outcome("events", path) == ("error", "ParseError", message, 15002), end
        assert opened.call_count == 1  # the first open names the byte's line


def test_header_only_event_file_raises_without_a_warning(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("t,a,b\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match=r"no data rows \(t_max = 0\)"):
            parse_events(path)
    assert caught == []


# --- how often a refused file is read ----------------------------------------


def read_window_3(path):
    return read_indicator_column(path, 3, "raw")


@pytest.mark.parametrize(
    "text, read, message, opens",
    [
        ("t,a\n1,2\n2,x\n", parse_events, ":3: column 'a': 'x' is not a number", 2),
        # The window fit is checked on the arrays already read, and names the period.
        ("t,v_total\n2,1\n3,1\n# k: 3\n# mode: raw\n", read_window_3, ": period 2 does not", 1),
        # loadtxt refuses 1_0, so the one scan reads the arrays the fit is checked on.
        ("t,v_total\n2,1_0\n3,1\n# k: 3\n# mode: raw\n", read_window_3, ": period 2 does not", 2),
    ],
    ids=["bad last cell", "misfitting window", "refused and misfitting"],
)
def test_a_refused_file_is_read_at_most_twice(tmp_path, text, read, message, opens):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(rio, "_read_table", wraps=rio._read_table) as opened:
        with pytest.raises(ParseError, match=re.escape(f"{path}{message}")):
            read(path)
    assert opened.call_count == opens


@pytest.mark.parametrize(
    "directives, message",
    [
        ("# k: 3\n# mode: standardized\n", "5: indicator output of mode standardized, not raw"),
        ("# mode: raw\n# k: 4\n", "5: indicator output of k 4, not 3"),
        ("# k: 3\n# mode: raw\n# k: 3\n", "6: duplicate k directive"),
        ("# mode: raw\n", "1: missing '# k:' directive: regenerate this indicator output"),
        ("\n# k: 3\n", "1: missing '# mode:' directive: regenerate this indicator output"),
    ],
    ids=["other-mode", "other-window", "duplicate", "no-window", "no-mode"],
)
def test_a_directive_that_does_not_state_the_run_costs_one_open(tmp_path, directives, message):
    # The plain rows take numpy's reader, which reads the closing directives after them.
    path = tmp_path / "plot.csv"
    path.write_text("t,v_total\n4,1\n5,1\n" + directives, encoding="utf-8")
    with mock.patch.object(rio, "_read_table", wraps=rio._read_table) as opened:
        with pytest.raises(ParseError) as caught:
            read_window_3(path)
    assert str(caught.value) == f"{path}:{message}"
    assert opened.call_count == 1


def test_a_period_error_comes_before_a_closing_directive_error(tmp_path):
    # Both paths stop at the rows: numpy's reader refuses the gap, and the scan names it.
    path = tmp_path / "plot.csv"
    path.write_text("t,v_total\n4,1\n6,1\n# k: 3\n# mode: raw\n# k: 3\n", encoding="utf-8")
    with mock.patch.object(rio, "_read_table", wraps=rio._read_table) as opened:
        with pytest.raises(ParseError) as caught:
            read_window_3(path)
    assert str(caught.value) == f"{path}:3: missing period 5"
    assert opened.call_count == 2
