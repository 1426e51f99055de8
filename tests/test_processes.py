"""Parallelism from processes: a long indicator run computes the second half
of its periods in a forked child, and a CLI process runs one BLAS thread.

The serial run is the reference: ``processes=1``, or ``os.fork`` deleted.
With the fork, the rows, outputs, stdout and errors must be the same, and
no child may outlive the call. The thresholds are lowered so that the
small series here are split: one period per chunk, and any run worth a
second process.
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
def split(monkeypatch, forks):
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


# --- the kernel ----------------------------------------------------------------


@pytest.mark.parametrize("mode", ["raw", "standardized"])
@pytest.mark.parametrize("periods, channels", [(7, 1), (8, 3), (9, 3), (40, 5)])
def test_two_processes_give_the_serial_bits(split, mode, periods, channels):
    series = random_series(periods, channels)
    serial = indicator_series(series, 5, mode)
    assert split == []
    two = indicator_series(series, 5, mode, processes=2)
    assert split == [os.getpid()]
    assert two.values.tobytes() == serial.values.tobytes()
    assert np.array_equal(two.periods, serial.periods)
    assert_no_child_left()


def test_the_split_falls_on_a_chunk_boundary(monkeypatch, forks):
    # Chunks of the default size: 141 periods of 50 channels at k = 12.
    monkeypatch.setattr(engine, "_SPLIT_MACS", 1)
    series = random_series(700, 50)
    serial = indicator_series(series, 12, "standardized")
    two = indicator_series(series, 12, "standardized", processes=2)
    assert forks == [os.getpid()]
    assert two.values.tobytes() == serial.values.tobytes()
    assert_no_child_left()


def test_short_runs_and_one_period_stay_in_one_process(monkeypatch, forks):
    indicator_series(random_series(40, 5), 5, "raw", processes=2)  # under _SPLIT_MACS
    monkeypatch.setattr(engine, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(engine, "_SPLIT_MACS", 1)
    indicator_series(random_series(6, 3), 5, "raw", processes=2)  # one period: no half
    assert forks == []


@pytest.mark.parametrize("processes", [0, 3, 1.5])
def test_processes_is_one_or_two(processes):
    with pytest.raises(ValidationError, match="processes must be 1 or 2"):
        indicator_series(random_series(8, 2), 5, "raw", processes=processes)


def overflowing(row):
    """A raw series whose R overflows from period ``row + 1``: 30 periods, k = 5."""
    values = np.ones((30, 2))
    values[row - 1, 1] = 1e200
    return MappedSeries.from_model(EnterpriseModel(events=values, channel_labels=("a", "b")))


@pytest.mark.parametrize("row", [8, 25])  # 6..17 is this process's half, 18..30 the child's
def test_kernel_errors_are_the_serial_ones(split, row):
    series = overflowing(row)
    with pytest.raises(ValidationError) as serial:
        indicator_series(series, 5, "raw")
    with pytest.raises(ValidationError) as two:
        indicator_series(series, 5, "raw", processes=2)
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
    serial = indicator_series(series, 5, "standardized")

    def fail():
        raise RuntimeError("child failed")

    in_child(monkeypatch, fail)
    two = indicator_series(series, 5, "standardized", processes=2)
    assert split == [os.getpid()]
    assert two.values.tobytes() == serial.values.tobytes()
    assert_no_child_left()


def test_error_here_kills_the_sleeping_child(monkeypatch, split):
    # The child sleeps first, so it is still running when this process's half fails.
    in_child(monkeypatch, lambda: time.sleep(60.0))
    start = time.monotonic()
    with pytest.raises(ValidationError, match="period 9: R overflows"):
        indicator_series(overflowing(8), 5, "raw", processes=2)
    assert time.monotonic() - start < 30.0
    assert split == [os.getpid()]
    assert_no_child_left()


def refuse_fork():
    raise BlockingIOError("fork refused")


def test_refused_fork_takes_the_serial_path(monkeypatch, split):
    series = random_series(40, 5)
    serial = indicator_series(series, 5, "raw")
    monkeypatch.setattr(os, "fork", refuse_fork)
    assert indicator_series(series, 5, "raw", processes=2).values.tobytes() == (
        serial.values.tobytes()
    )


def test_unusable_temporary_directory_takes_the_serial_path(tmp_path, monkeypatch, split):
    # The child hands its rows back through a file in the temporary directory.
    series = random_series(40, 5)
    serial = indicator_series(series, 5, "raw")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    two = indicator_series(series, 5, "raw", processes=2)
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


# --- one BLAS thread per CLI process ------------------------------------------


def python(code: str, **env) -> str:
    """Stdout of ``code`` in a fresh interpreter on this package, with no preset thread count."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    package_root = str(Path(regimetrics.__file__).resolve().parents[1])
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**environ, **env}, capture_output=True, text=True,
        check=True,
    )
    return result.stdout.strip()


def test_import_regimetrics_loads_no_numpy():
    code = "import sys, regimetrics; print('numpy' in sys.modules, len(regimetrics.__all__))"
    assert python(code) == f"False {len(regimetrics.__all__)}"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_cli_sets_one_blas_thread_unless_preset(preset, expected):
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    code = "import os, regimetrics.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert python(code, **env) == expected


# The probe of perfbench's facts line: the thread count of each OpenBLAS library loaded.
BLAS_THREADS = """
import ctypes, regimetrics.cli
threads = None
libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}
for lib in libs:
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        get_threads = getattr(ctypes.CDLL(lib), name, None)
        threads = get_threads() if get_threads else threads
print(threads)
"""


def test_cli_process_runs_one_blas_thread():
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to find the BLAS library in")
    threads = python(BLAS_THREADS)
    if threads == "None":
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count query")
    assert threads == "1"
