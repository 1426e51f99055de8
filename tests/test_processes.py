"""Parallelism from processes: a long indicator run computes the second half
of its periods in a forked child, and the kernel runs one BLAS thread.

The serial run is the reference: ``os.fork`` deleted, or the default
``_SPLIT_MACS``. With the fork, the rows, outputs, stdout and errors must
be the same, and no child may outlive the call. The thresholds are lowered
so that the small series here are split: one period per chunk, and any run
worth a second process. The kernel splits a run only where it can pin
OpenBLAS to one thread, so those tests skip where numpy's BLAS is another.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import regimetrics
import regimetrics.cli as cli
import regimetrics.engine as engine
from regimetrics import EnterpriseModel, MappedSeries, ValidationError, indicator_series

SCENARIO = {
    "seed": 7,
    "periods": 40,
    "processes": [
        {"name": "logging", "channels": 3, "base_level": 120.0, "amplitude": 15.0,
         "period_length": 12, "noise_scale": 4.0},
        {"name": "production", "channels": 2, "base_level": 200.0, "amplitude": 25.0,
         "period_length": 6, "noise_scale": 6.0},
    ],
    "intervention_period": 9,
    "intervention_cost_per_period": 10.0,
}
# 300 periods of 300 channels: two BLAS threads split these Gram products unevenly,
# so without the kernel's pin they change low bits of the indicators in both modes.
WIDE_SCENARIO = {
    **SCENARIO,
    "periods": 300,
    "intervention_period": 150,
    "processes": [{**process, "channels": 150} for process in SCENARIO["processes"]],
}


def run(argv):
    return cli.main([str(arg) for arg in argv])


@pytest.fixture
def forks(monkeypatch):
    """Count the forks this process makes."""
    pids = []
    fork = os.fork

    def counted_fork():
        pids.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


@pytest.fixture
def blas_threads():
    """The get and set thread-count functions the kernel pins OpenBLAS with."""
    threads = engine._openblas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with thread-count functions")
    return threads


@pytest.fixture
def split(monkeypatch, forks, blas_threads):
    """Split every run of two periods or more at its middle period; count the forks."""
    monkeypatch.setattr(engine, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(engine, "_SPLIT_MACS", 1)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def random_series(periods, channels, seed=0):
    values = np.random.default_rng(seed).normal(100.0, 10.0, size=(periods, channels))
    labels = tuple(f"c{j}" for j in range(channels))
    return MappedSeries.from_model(EnterpriseModel(events=values, channel_labels=labels))


def serial_series(monkeypatch, *args):
    """The serial reference: ``indicator_series`` where no process can fork."""
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        return indicator_series(*args)


# --- the kernel ----------------------------------------------------------------


@pytest.mark.parametrize("mode", ["raw", "standardized"])
@pytest.mark.parametrize("periods, channels", [(7, 1), (8, 3), (9, 3), (40, 5)])
def test_two_processes_give_the_serial_bits(monkeypatch, split, mode, periods, channels):
    series = random_series(periods, channels)
    serial = serial_series(monkeypatch, series, 5, mode)
    assert split == []
    two = indicator_series(series, 5, mode)
    assert split == [os.getpid()]
    assert two.values.tobytes() == serial.values.tobytes()
    assert np.array_equal(two.periods, serial.periods)
    assert_no_child_left()


def test_the_split_falls_on_a_chunk_boundary(monkeypatch, forks, blas_threads):
    # Chunks of the default size: 141 periods of 50 channels at k = 12.
    series = random_series(700, 50)
    serial = indicator_series(series, 12, "standardized")  # under the default _SPLIT_MACS
    assert forks == []
    monkeypatch.setattr(engine, "_SPLIT_MACS", 1)
    two = indicator_series(series, 12, "standardized")
    assert forks == [os.getpid()]
    assert two.values.tobytes() == serial.values.tobytes()
    assert_no_child_left()


def test_short_runs_and_one_period_stay_in_one_process(monkeypatch, forks):
    indicator_series(random_series(40, 5), 5, "raw")  # under _SPLIT_MACS
    monkeypatch.setattr(engine, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(engine, "_SPLIT_MACS", 1)
    indicator_series(random_series(6, 3), 5, "raw")  # one period: no half
    assert forks == []


@pytest.mark.parametrize("mode", ["raw", "standardized"])
def test_without_the_pin_the_kernel_stays_in_one_process(monkeypatch, forks, mode):
    monkeypatch.setattr(engine, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(engine, "_SPLIT_MACS", 1)
    series = random_series(40, 5)
    serial = serial_series(monkeypatch, series, 5, mode)
    monkeypatch.setattr(engine, "_openblas_threads", lambda: None)
    assert indicator_series(series, 5, mode).values.tobytes() == serial.values.tobytes()
    assert forks == []


def overflowing(row):
    """A raw series whose R overflows from period ``row + 1``: 30 periods, k = 5."""
    values = np.ones((30, 2))
    values[row - 1, 1] = 1e200
    return MappedSeries.from_model(EnterpriseModel(events=values, channel_labels=("a", "b")))


@pytest.mark.parametrize("row", [8, 25])  # 6..17 is this process's half, 18..30 the child's
def test_kernel_errors_are_the_serial_ones(monkeypatch, split, row):
    series = overflowing(row)
    with pytest.raises(ValidationError) as serial:
        serial_series(monkeypatch, series, 5, "raw")
    with pytest.raises(ValidationError) as two:
        indicator_series(series, 5, "raw")
    assert str(two.value) == str(serial.value) == (
        f"period {row + 1}: R overflows the float range (channels b)"
    )
    assert split == [os.getpid()]
    assert_no_child_left()


def in_child(monkeypatch, action):
    """Run ``action()`` before each kernel call that the forked child makes."""
    parent = os.getpid()
    window_kernel = engine._window_kernel

    def patched(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return window_kernel(*args, **kwargs)

    monkeypatch.setattr(engine, "_window_kernel", patched)


def test_failing_child_leaves_the_serial_rows(monkeypatch, split):
    series = random_series(40, 5)
    serial = serial_series(monkeypatch, series, 5, "standardized")

    def fail():
        raise RuntimeError("child failed")

    in_child(monkeypatch, fail)
    two = indicator_series(series, 5, "standardized")
    assert split == [os.getpid()]
    assert two.values.tobytes() == serial.values.tobytes()
    assert_no_child_left()


def test_error_here_kills_the_sleeping_child(monkeypatch, split):
    # The child sleeps first, so it is still running when this process's half fails.
    in_child(monkeypatch, lambda: time.sleep(60.0))
    start = time.monotonic()
    with pytest.raises(ValidationError, match="period 9: R overflows"):
        indicator_series(overflowing(8), 5, "raw")
    assert time.monotonic() - start < 30.0
    assert split == [os.getpid()]
    assert_no_child_left()


def refuse_fork():
    raise BlockingIOError("fork refused")


def test_refused_fork_takes_the_serial_path(monkeypatch, split):
    series = random_series(40, 5)
    serial = serial_series(monkeypatch, series, 5, "raw")
    monkeypatch.setattr(os, "fork", refuse_fork)
    assert indicator_series(series, 5, "raw").values.tobytes() == serial.values.tobytes()


def test_unusable_temporary_directory_takes_the_serial_path(tmp_path, monkeypatch, split):
    # The child hands its rows back through a file in the temporary directory.
    series = random_series(40, 5)
    serial = serial_series(monkeypatch, series, 5, "raw")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    two = indicator_series(series, 5, "raw")
    assert split == []
    assert two.values.tobytes() == serial.values.tobytes()


# --- the CLI -------------------------------------------------------------------


@pytest.fixture
def regimes(tmp_path):
    """Generated baseline and treated event files, and their indicator outputs."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    data = tmp_path / "data"
    assert run(["generate", "--config", scenario, "--output-dir", data]) == 0
    paths = {}
    for name in ("baseline", "treated"):
        paths[("events", name)] = data / f"events_{name}.csv"
        out = tmp_path / f"analyze_{name}"
        assert run(["analyze", "--events", data / f"events_{name}.csv", "--window", "5",
                    "--output-dir", out]) == 0
        paths[("indicators", name)] = out / "indicators.csv"
    return paths


def cli_run(capsys, argv, out):
    """Exit code, stdout with ``out`` masked, and stderr of one command."""
    capsys.readouterr()
    code = run([*argv, "--window", "5", "--output-dir", out])
    captured = capsys.readouterr()
    return code, captured.out.replace(str(out), "OUT"), captured.err


def serial_run(monkeypatch, capsys, argv, out):
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        return cli_run(capsys, argv, out)


def output_bytes(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def compare_argv(basic, treated):
    return ["compare", "--basic", basic, "--treated", treated]


@pytest.mark.parametrize("command, kernels", [("analyze", 1), ("compare-events", 2),
                                              ("compare-indicators", 0)])
def test_cli_outputs_are_the_serial_bytes(tmp_path, monkeypatch, capsys, regimes, split,
                                          command, kernels):
    if command == "analyze":
        argv = ["analyze", "--events", regimes[("events", "treated")], "--mode", "standardized"]
    else:
        kind = command.split("-")[1]
        argv = compare_argv(regimes[(kind, "baseline")], regimes[(kind, "treated")])
    serial = serial_run(monkeypatch, capsys, argv, tmp_path / "serial")
    assert serial[0] == 0
    assert cli_run(capsys, argv, tmp_path / "split") == serial
    assert split == [os.getpid()] * kernels
    assert output_bytes(tmp_path / "split") == output_bytes(tmp_path / "serial")
    assert_no_child_left()


def write_treated(tmp_path, regimes, problem):
    """The treated event file with one bad cell, one overflowing cell, or cut short."""
    lines = regimes[("events", "treated")].read_text().splitlines()
    if problem == "too-short":
        lines = lines[:4]
    else:
        cells = lines[30].split(",")
        cells[2] = "12.5x" if problem == "bad-cell" else "1e200"
        lines[30] = ",".join(cells)
    path = tmp_path / f"treated_{problem}.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("problem", ["bad-cell", "too-short", "overflow"])
def test_compare_errors_are_the_serial_ones(tmp_path, monkeypatch, capsys, regimes, split,
                                            problem):
    basic, treated = regimes[("events", "baseline")], write_treated(tmp_path, regimes, problem)
    serial = serial_run(monkeypatch, capsys, compare_argv(basic, treated), tmp_path / "out")
    assert serial[0] == 1
    assert (str(treated) if problem != "overflow" else "R overflows") in serial[2]
    assert cli_run(capsys, compare_argv(basic, treated), tmp_path / "out") == serial
    # The basic regime's kernel forks; the treated one's only if its file parses and is long enough.
    assert split == [os.getpid()] * (2 if problem == "overflow" else 1)
    assert not (tmp_path / "out").exists()
    assert_no_child_left()


# --- one BLAS thread in the kernel ---------------------------------------------


def test_the_kernel_runs_one_blas_thread_and_restores_the_callers_count(
    monkeypatch, blas_threads
):
    get_threads, set_threads = blas_threads
    during = []
    check_chunk = engine._check_chunk

    def checked(*args):
        during.append(get_threads())
        check_chunk(*args)

    monkeypatch.setattr(engine, "_check_chunk", checked)
    before = get_threads()
    set_threads(2)
    try:
        caller = get_threads()
        indicator_series(random_series(40, 5), 5, "standardized")
        assert get_threads() == caller
        with pytest.raises(ValidationError, match="period 9: R overflows"):
            indicator_series(overflowing(8), 5, "raw")
        assert get_threads() == caller
    finally:
        set_threads(before)
    assert during and set(during) == {1}


@pytest.mark.parametrize("caller", [3, 1])
@pytest.mark.parametrize("two_processes", [False, True])
def test_the_pin_sets_only_a_count_other_than_one(monkeypatch, forks, caller, two_processes):
    # After a fork, setting OpenBLAS's count restarts its threads, which slows the products:
    # so a process at one thread, such as a forked child, is left alone.
    count, calls = [caller], []

    def set_threads(threads):
        calls.append(threads)
        count[0] = threads

    monkeypatch.setattr(engine, "_openblas_threads", lambda: (lambda: count[0], set_threads))
    if two_processes:
        monkeypatch.setattr(engine, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(engine, "_SPLIT_MACS", 1)
    indicator_series(random_series(40, 5), 5, "raw")
    assert forks == ([os.getpid()] if two_processes else [])
    assert calls == ([1, caller] if caller != 1 else [])
    assert count == [caller]


def python(*args, **env) -> str:
    """Stdout of ``python *args`` in a fresh interpreter on this package, no thread count set."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    package_root = str(Path(regimetrics.__file__).resolve().parents[1])
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *map(str, args)], env={**environ, **env}, capture_output=True,
        text=True, check=True,
    )
    return result.stdout.strip()


def test_import_regimetrics_loads_no_numpy():
    code = "import sys, regimetrics; print('numpy' in sys.modules, len(regimetrics.__all__))"
    assert python("-c", code) == f"False {len(regimetrics.__all__)}"


@pytest.fixture(scope="module")
def wide_events(tmp_path_factory):
    """The treated event file of ``WIDE_SCENARIO``."""
    data = tmp_path_factory.mktemp("wide")
    scenario = data / "scenario.json"
    scenario.write_text(json.dumps(WIDE_SCENARIO))
    assert run(["generate", "--config", scenario, "--output-dir", data]) == 0
    return data / "events_treated.csv"


def analyze_argv(events, mode, out):
    return ["analyze", "--events", events, "--mode", mode, "--output-dir", out]


@pytest.mark.parametrize("mode", ["raw", "standardized"])
def test_analyze_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, wide_events,
                                                              blas_threads, mode):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        python("-m", "regimetrics.cli", *analyze_argv(wide_events, mode, out),
               OPENBLAS_NUM_THREADS=threads)
        outputs.append(output_bytes(out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mode", ["raw", "standardized"])
def test_in_process_analyze_gives_the_fresh_process_bytes(tmp_path, wide_events, blas_threads,
                                                          mode):
    python("-m", "regimetrics.cli", *analyze_argv(wide_events, mode, tmp_path / "fresh"))
    get_threads, set_threads = blas_threads
    before = get_threads()
    set_threads(2)  # a library caller at numpy's default count on 2 cores
    try:
        assert run(analyze_argv(wide_events, mode, tmp_path / "here")) == 0
    finally:
        set_threads(before)
    assert output_bytes(tmp_path / "here") == output_bytes(tmp_path / "fresh")
