"""Tables written by two processes: ``io._write_table`` forks a child for half the rows.

The serial loop is the reference. With the cell threshold lowered to 1,
every writer must give its bytes, also when the child fails and when
``os.fork`` is missing or refused, and it must leave no process or file
behind when this process fails while the child runs. With blocks of a
few cells, so that block seams fall inside the table, it must give them
too, split or not.
"""

import os
import time
from unittest import mock

import numpy as np
import pytest

import regimetrics.io as rio
from regimetrics import EnterpriseModel, write_events
from regimetrics.engine import IndicatorSeries, RegimeComparison
from regimetrics.io import write_comparison_table, write_indicator_table, write_plot_data

EDGE_VALUES = [-0.0, 0.0, 1e16, 5e-324, 1e308, 1.0 / 3.0, 2.5e-310, 123456789.125, 0.1]


def edge_matrix(rows, cols):
    rng = np.random.RandomState(rows * 10 + cols)
    values = np.abs(rng.randn(rows, cols)) * 10.0 ** rng.randint(-300, 300, size=(rows, cols))
    count = min(values.size, len(EDGE_VALUES))
    values.flat[:count] = EDGE_VALUES[:count]
    return values


def write_with(writer, path, rows, cols):
    """Write a table of ``rows`` value rows with one of the four writers."""
    values = edge_matrix(rows, cols)
    periods = np.arange(5, 5 + rows)
    labels = tuple(f"c{j}" for j in range(cols))
    if writer == "events":
        return write_events(EnterpriseModel(events=values, channel_labels=labels), path)
    if writer == "indicator":
        indicators = IndicatorSeries(periods, values, k=4, mode="raw", channel_labels=labels)
        return write_indicator_table(indicators, path)
    if writer == "plot":
        return write_plot_data(path, periods, values[:, 0], 4, "raw")
    basic, treated = values[:, 0], values[:, -1]
    comparison = RegimeComparison(periods, basic, treated, treated - basic)
    return write_comparison_table(path, comparison, totals=(1.0 / 3.0, -0.0, 1e308))


WRITERS = ["events", "indicator", "plot", "comparison"]
SHAPES = [(1, 1), (1, 3), (6, 1), (6, 3), (7, 1), (7, 3)]


def serial_bytes(tmp_path, writer, rows, cols):
    with mock.patch.object(rio, "_SPLIT_CELLS", 1 << 62):
        path = write_with(writer, tmp_path / "serial" / "table.csv", rows, cols)
    return path.read_bytes()


@pytest.fixture
def forks(monkeypatch):
    """The pids that called ``os.fork``, one entry per call."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.fixture
def split_everything(monkeypatch, forks):
    """Lower the threshold so every table with a value cell is split; count the forks."""
    monkeypatch.setattr(rio, "_SPLIT_CELLS", 1)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows, cols", SHAPES)
@pytest.mark.parametrize("writer", WRITERS)
def test_split_writers_give_the_serial_bytes(tmp_path, split_everything, writer, rows, cols):
    expected = serial_bytes(tmp_path, writer, rows, cols)
    out = tmp_path / "split"
    path = write_with(writer, out / "table.csv", rows, cols)
    assert split_everything == [os.getpid()]
    assert path.read_bytes() == expected
    assert os.listdir(out) == ["table.csv"]
    assert_no_child_left()


def test_the_period_column_counts_toward_the_split(tmp_path, forks):
    # A plot file holds fewer value cells than _SPLIT_CELLS, but not with its periods.
    rows = 3 * rio._SPLIT_CELLS // 4
    expected = serial_bytes(tmp_path, "plot", rows, 1)
    path = write_with("plot", tmp_path / "split" / "plot.csv", rows, 1)
    assert forks == [os.getpid()]
    assert path.read_bytes() == expected
    assert_no_child_left()


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("block_cells", [1, 2, 7])
@pytest.mark.parametrize("writer", WRITERS)
def test_block_seams_inside_the_table_give_the_serial_bytes(
    tmp_path, monkeypatch, forks, writer, block_cells, split
):
    # 20 rows of 1 to 4 cells: a block of 7 cells holds 1 to 7 rows, so seams fall
    # between rows inside the table and inside each half of a split one.
    expected = serial_bytes(tmp_path, writer, 20, 3)
    monkeypatch.setattr(rio, "_WRITE_BLOCK_CELLS", block_cells)
    if split:
        monkeypatch.setattr(rio, "_SPLIT_CELLS", 1)
    blocks = []
    row_text = rio._row_text

    def counted(periods, columns):
        for text in row_text(periods, columns):
            blocks.append(text)
            yield text

    monkeypatch.setattr(rio, "_row_text", counted)
    path = write_with(writer, tmp_path / "blocks" / "table.csv", 20, 3)
    assert len(blocks) > 1  # counted in this process, which formats at least 10 rows
    assert forks == ([os.getpid()] if split else [])
    assert path.read_bytes() == expected
    assert_no_child_left()


def fail_in(monkeypatch, process, exc_type, delay=0.0):
    """Make the row formatter raise ``exc_type`` in this process or in the child only."""
    parent = os.getpid()
    row_text = rio._row_text

    def failing(periods, columns):
        if (os.getpid() == parent) == (process == "parent"):
            raise exc_type("formatter failed")
        time.sleep(delay)
        return row_text(periods, columns)

    monkeypatch.setattr(rio, "_row_text", failing)


@pytest.mark.parametrize("writer", WRITERS)
def test_failing_child_leaves_the_serial_bytes(tmp_path, monkeypatch, split_everything, writer):
    expected = serial_bytes(tmp_path, writer, 7, 3)
    fail_in(monkeypatch, "child", RuntimeError)
    out = tmp_path / "split"
    path = write_with(writer, out / "table.csv", 7, 3)
    assert split_everything == [os.getpid()]
    assert path.read_bytes() == expected
    assert os.listdir(out) == ["table.csv"]
    assert_no_child_left()


def refuse_fork():
    raise BlockingIOError("fork refused")


@pytest.mark.parametrize("fork", ["missing", "refused"])
@pytest.mark.parametrize("writer", WRITERS)
def test_without_fork_the_serial_path_runs(tmp_path, monkeypatch, writer, fork):
    expected = serial_bytes(tmp_path, writer, 7, 3)
    monkeypatch.setattr(rio, "_SPLIT_CELLS", 1)
    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", refuse_fork)
    out = tmp_path / "split"
    path = write_with(writer, out / "table.csv", 7, 3)
    assert path.read_bytes() == expected
    assert os.listdir(out) == ["table.csv"]


@pytest.mark.parametrize("exc_type", [OSError, KeyboardInterrupt])
def test_failure_here_kills_and_reaps_the_child(tmp_path, monkeypatch, split_everything, exc_type):
    # The child sleeps first, so it is still running when this process fails.
    fail_in(monkeypatch, "parent", exc_type, delay=60.0)
    out = tmp_path / "split"
    start = time.monotonic()
    with pytest.raises(exc_type, match="formatter failed"):
        write_with("events", out / "table.csv", 7, 3)
    assert time.monotonic() - start < 30.0
    assert split_everything == [os.getpid()]
    assert_no_child_left()
    assert os.listdir(out) == []
