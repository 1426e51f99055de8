"""Output checks, run outside the timed region.

Each check returns a list of problems (empty when the output is right)
and compares the program's files with independent recomputations:

* generated event files against a scalar PCG32 + triangle-wave
  recomputation written here, and baseline against treated;
* ``indicators.csv`` and ``comparison.csv`` against the package's
  loop-based ``naive_oracle`` on a fixed sample of periods that includes
  the first and the last, within 1e-9 relative;
* the additive columns: ``total`` per row, ``dv = v_ddescr - v_basic``
  and the ``# totals:`` directive.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
# Oracle multiply-adds spent per output file; the wide case gets the minimum.
ORACLE_BUDGET = 5_000_000

_MASK64 = (1 << 64) - 1
_MULT = 6364136223846793005


def pcg32_doubles(seed: int, stream: int, count: int) -> list[float]:
    """``count`` doubles in [-1, 1) from PCG32 (XSH-RR) substream ``stream``."""
    inc = ((stream << 1) | 1) & _MASK64
    state = (inc + seed) & _MASK64  # step from 0, add seed
    state = (state * _MULT + inc) & _MASK64
    out = []
    for _ in range(count):
        words = []
        for _ in range(2):
            old = state
            state = (old * _MULT + inc) & _MASK64
            xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
            rot = old >> 59
            words.append(((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & 0xFFFFFFFF)
        out.append(2.0 * (((words[0] << 21) | (words[1] >> 11)) / 9007199254740992.0) - 1.0)
    return out


def scenario_column(process: dict, seed: int, stream: int, periods: int) -> list[float]:
    """Baseline values of one scenario channel, in the generator's order of operations."""
    noise = pcg32_doubles(seed, stream, periods)
    cycle = process["period_length"]
    column = []
    for t in range(1, periods + 1):
        wave = 1.0 - 4.0 * abs(((t - 1) % cycle) / cycle - 0.5)
        value = process["base_level"] + process["amplitude"] * wave
        if process["noise_scale"]:
            value += process["noise_scale"] * noise[t - 1]
        column.append(value)
    return column


def close(a: float, b: float, scale: float = 0.0) -> bool:
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b), scale)


def read_table(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """(directive lines, header fields, float matrix) of a CSV output."""
    lines = path.read_text(encoding="utf-8").splitlines()
    directives = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if line and not line.startswith("#")]
    header = body[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in body[1:]]
    return directives, header, np.array(rows, ndmin=2)


def read_events(path: Path, labels) -> np.ndarray:
    _, header, table = read_table(path)
    if header != ["t", *labels]:
        raise ValueError(f"{path.name}: unexpected header")
    if not np.array_equal(table[:, 0], np.arange(1, table.shape[0] + 1)):
        raise ValueError(f"{path.name}: periods are not 1..t_max")
    return table[:, 1:]


def sample_periods(k: int, t_max: int, n: int) -> list[int]:
    count = max(3, min(8, ORACLE_BUDGET // (k * n * n)))
    return sorted({int(round(t)) for t in np.linspace(k + 1, t_max, count)})


def oracle_indicators(mapped, periods, k: int, mode: str) -> dict[int, np.ndarray]:
    from regimetrics import naive_oracle

    return {t: naive_oracle(mapped, t, k, mode)[1] for t in periods}


def check_generated(scenario: dict, labels, baseline, treated) -> list[str]:
    periods = scenario["periods"]
    if baseline.shape != (periods, len(labels)) or treated.shape != baseline.shape:
        return [f"generate: shape {baseline.shape}, expected {(periods, len(labels))}"]
    problems = []
    streams, firsts = [], []
    for proc in scenario["processes"]:
        firsts.append(len(streams))
        streams += [proc] * proc["channels"]
    # First channel of the first and the last process, and the last channel.
    for stream in sorted({firsts[0], firsts[-1], len(streams) - 1}):
        expected = scenario_column(streams[stream], scenario["seed"], stream, periods)
        if not np.array_equal(baseline[:, stream], expected):
            problems.append(f"generate: channel {labels[stream]} differs from PCG32")
    start = scenario["intervention_period"] - 1
    cost = scenario["intervention_cost_per_period"]
    expected = baseline.copy()
    expected[start:, firsts] += cost
    if not np.array_equal(treated, expected):
        problems.append("generate: treated is not baseline plus the intervention cost")
    return problems


def check_indicators(mapped, out_dir: Path, k: int, mode: str) -> list[str]:
    _, header, table = read_table(out_dir / "indicators.csv")
    t_max, n = mapped.values.shape
    if header != ["t", *mapped.channel_labels, "total"] or table.shape != (t_max - k, n + 2):
        return ["analyze: indicators.csv has the wrong header or shape"]
    if not np.array_equal(table[:, 0], np.arange(k + 1, t_max + 1)):
        return ["analyze: indicators.csv periods are not k+1..t_max"]
    problems = []
    for row in table:
        if not close(math.fsum(row[1:-1]), row[-1]):
            problems.append(f"analyze: total of period {int(row[0])} is not the channel sum")
            break
    sample = sample_periods(k, t_max, n)
    for t, expected in oracle_indicators(mapped, sample, k, mode).items():
        got = table[t - k - 1, 1:]
        if not all(map(close, got, [*expected, math.fsum(expected)])):
            problems.append(f"analyze: period {t} disagrees with naive_oracle")
    return problems


def check_comparison(basic, treated, out_dir: Path, k: int, mode: str) -> list[str]:
    directives, header, table = read_table(out_dir / "comparison.csv")
    totals = [float(x) for x in directives[0].split(":", 1)[1].split(",")]
    t_max, n = basic.values.shape
    if header != ["t", "v_basic", "v_ddescr", "dv"] or table.shape != (t_max - k, 4):
        return ["compare: comparison.csv has the wrong header or shape"]
    if not np.array_equal(table[:, 0], np.arange(k + 1, t_max + 1)):
        return ["compare: comparison.csv periods are not k+1..t_max"]
    problems = []
    _, v_basic, v_treated, dv = table.T
    if not all(close(d, vt - vb, max(vb, vt)) for vb, vt, d in zip(v_basic, v_treated, dv)):
        problems.append("compare: dv is not v_ddescr - v_basic")
    sums = [math.fsum(v_basic), math.fsum(v_treated)]
    if not all(map(close, totals, [*sums, sums[1] - sums[0]], [0.0, 0.0, max(sums)])):
        problems.append("compare: '# totals:' is not the column sums")
    sample = sample_periods(k, t_max, n)
    expected_basic = oracle_indicators(basic, sample, k, mode)
    expected_treated = oracle_indicators(treated, sample, k, mode)
    for t in sample:
        row = table[t - k - 1]
        pair = (math.fsum(expected_basic[t]), math.fsum(expected_treated[t]))
        if not (close(row[1], pair[0]) and close(row[2], pair[1])):
            problems.append(f"compare: period {t} disagrees with naive_oracle")
    return problems


def check_pipeline(inputs, commands: list[list[str]], k: int) -> list[list[str]]:
    """Problems with each command's outputs, for one pipeline run.

    Every input and output path is taken from the command's own argv.
    """
    from regimetrics import MappedSeries, RegimetricsError
    events: dict[str, np.ndarray] = {}

    def series(path: str, masked=frozenset()):
        if path not in events:
            events[path] = read_events(Path(path), inputs.labels)
        values = events[path].copy()
        values[:, sorted(masked)] = 0.0
        return MappedSeries(values=values, channel_labels=inputs.labels)

    results = []
    for argv in commands:
        option = dict(zip(argv[1::2], argv[2::2]))
        out_dir = Path(option["--output-dir"])
        try:
            if argv[0] == "generate":
                baseline = series(str(out_dir / "events_baseline.csv")).values
                treated = series(str(out_dir / "events_treated.csv")).values
                problems = check_generated(inputs.scenario, inputs.labels, baseline, treated)
            elif argv[0] == "analyze":
                mapped = series(option["--events"], inputs.masked)
                problems = check_indicators(mapped, out_dir, k, option["--mode"])
            else:
                basic, treated = series(option["--basic"]), series(option["--treated"])
                problems = check_comparison(basic, treated, out_dir, k, option["--mode"])
        except (OSError, ValueError, IndexError, RegimetricsError) as exc:
            problems = [f"{argv[0]}: {exc}"]
        results.append(problems)
    return results
