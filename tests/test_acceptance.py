"""End-to-end acceptance suite.

One test per criterion. Each prints a ``[criterion N] PASS/FAIL`` line
(run pytest with ``-s`` to see them stream) and fails the run when any
of its checks misses the stated tolerance.
"""

import time

import numpy as np

from regimetrics import (
    MappedSeries,
    ProcessConfig,
    RAW,
    STANDARDIZED,
    ScenarioConfig,
    compare_regimes,
    indicator_series,
    integral_indicator,
    load_reference,
    naive_oracle,
    paired_scenarios,
    verify_bundled_reference,
    window_correlation,
)
from regimetrics.cli import main

MODES = (RAW, STANDARDIZED)

# Independent oracle for criterion 1: the bundled table's exact column
# sums, recomputed by summing the printed 2-decimal values in integer
# cents (so no float accumulation is involved).
EXPECTED_BASIC_SUM_CENTS = 506_994
EXPECTED_DDESCR_SUM_CENTS = 549_129


def report(num: int, name: str, failures: list, elapsed: float | None = None) -> None:
    status = "FAIL" if failures else "PASS"
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"[criterion {num}] {status} {name}{suffix}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def random_instance(rng):
    """Small random series: n <= 6, t_max <= 30, k in 2..6, mixed scales."""
    n = rng.randint(1, 7)
    k = rng.randint(2, 7)
    t_max = rng.randint(k + 1, 31)
    scale = rng.choice([1.0, 10.0, 1000.0])
    values = rng.rand(t_max, n) * scale
    if n > 1 and rng.rand() < 0.25:
        values[:, rng.randint(n)] = 0.0  # masked channel
    if n > 1 and rng.rand() < 0.25:
        values[:, rng.randint(n)] = rng.rand() * scale  # constant channel
    series = MappedSeries(values=values, channel_labels=tuple(f"c{i}" for i in range(n)))
    return series, k


def test_criterion_1_reference_arithmetic():
    failures = []
    start = time.perf_counter()
    table, _ = load_reference()

    basic_cents = int(np.rint(table.basic * 100).astype(int).sum())
    ddescr_cents = int(np.rint(table.treated * 100).astype(int).sum())
    if basic_cents != EXPECTED_BASIC_SUM_CENTS:
        failures.append(f"basic column sums to {basic_cents} cents, expected {EXPECTED_BASIC_SUM_CENTS}")
    if ddescr_cents != EXPECTED_DDESCR_SUM_CENTS:
        failures.append(f"ddescr column sums to {ddescr_cents} cents, expected {EXPECTED_DDESCR_SUM_CENTS}")

    row_error = np.abs(table.delta - (table.treated - table.basic))
    if row_error.max() > 0.02 + 1e-12:
        failures.append(f"max per-row delta error {row_error.max():.4f} exceeds 0.02")

    if abs(basic_cents / 100.0 - 5069.93) > 0.3:
        failures.append("basic column sum misses the printed total by more than 0.3")
    if abs(ddescr_cents / 100.0 - 5491.28) > 0.3:
        failures.append("ddescr column sum misses the printed total by more than 0.3")

    if round(5491.28 * 100) - round(5069.93 * 100) != round(421.35 * 100):
        failures.append("printed totals do not satisfy ddescr - basic = delta")
    if 5_641_442 + 28_208 != 5_669_650:
        failures.append("cost identity broken")

    verification = verify_bundled_reference()
    for check in verification:
        if not check.passed:
            failures.append(f"verify-reference check {check.check_id} failed: {check.detail}")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    report(1, "reference arithmetic", failures, elapsed)


def test_criterion_2_oracle_equivalence():
    failures = []
    start = time.perf_counter()
    rng = np.random.RandomState(20_240_601)
    instances = 200
    for index in range(instances):
        series, k = random_instance(rng)
        mode = MODES[index % 2]
        for t in range(k + 1, series.t_max + 1):
            corr = window_correlation(series, t, k, mode)
            indicators = integral_indicator(corr)
            oracle_corr, oracle_ind = naive_oracle(series, t, k, mode)
            r_scale = max(1.0, float(np.abs(oracle_corr.r).max(initial=0.0)))
            v_scale = max(1.0, float(oracle_ind.max(initial=0.0)))
            r_err = float(np.abs(corr.r - oracle_corr.r).max(initial=0.0))
            v_err = float(np.abs(indicators - oracle_ind).max(initial=0.0))
            if r_err > 1e-9 * r_scale:
                failures.append(f"instance {index} t={t} {mode}: r deviates by {r_err:.2e}")
            if v_err > 1e-9 * v_scale:
                failures.append(f"instance {index} t={t} {mode}: V deviates by {v_err:.2e}")
        if failures:
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    report(2, f"oracle equivalence on {instances} instances", failures, elapsed)


def _random_matrices(seed, count):
    rng = np.random.RandomState(seed)
    matrices = []
    while len(matrices) < count:
        series, k = random_instance(rng)
        mode = MODES[len(matrices) % 2]
        t = int(rng.randint(k + 1, series.t_max + 1))
        matrices.append(window_correlation(series, t, k, mode))
    return matrices


def test_criterion_3_matrix_invariants():
    failures = []
    matrices = _random_matrices(31_337, 120)
    for corr in matrices:
        asym = float(np.abs(corr.r - corr.r.T).max(initial=0.0))
        if asym > 1e-12:
            failures.append(f"asymmetry {asym:.2e} at t={corr.t}")
        if corr.n:
            floor = -1e-8 * max(1.0, float(np.diagonal(corr.r).max(initial=0.0)))
            min_eig = float(np.linalg.eigvalsh(corr.r).min())
            if min_eig < floor:
                failures.append(f"min eigenvalue {min_eig:.2e} below {floor:.2e}")
    report(3, f"matrix invariants on {len(matrices)} matrices", failures)


def test_criterion_4_standardized_bounds():
    failures = []
    rng = np.random.RandomState(9_021)
    checked = 0
    while checked < 100:
        series, k = random_instance(rng)
        t = int(rng.randint(k + 1, series.t_max + 1))
        corr = window_correlation(series, t, k, STANDARDIZED)
        checked += 1
        if float(np.abs(corr.r).max(initial=0.0)) > 1.0 + 1e-9:
            failures.append(f"|r| exceeds 1 + 1e-9 at t={t}")
        diag = np.diagonal(corr.r)
        nondegenerate = ~corr.degenerate
        if nondegenerate.any() and float(np.abs(diag[nondegenerate] - 1.0).max()) > 1e-9:
            failures.append(f"nondegenerate diagonal off unity at t={t}")
        indicators = integral_indicator(corr)
        n = corr.n
        if float(indicators.max(initial=0.0)) > n + n * 1e-9:
            failures.append(f"V exceeds n(1 + 1e-9) at t={t}")
        if nondegenerate.any() and float(indicators[nondegenerate].min()) < 1.0 - 1e-9:
            failures.append(f"nondegenerate V below 1 - 1e-9 at t={t}")
    report(4, f"standardized bounds on {checked} windows", failures)


def test_criterion_5_affine_invariance():
    failures = []
    rng = np.random.RandomState(77_101)
    for trial in range(50):
        n, k, t_max = 4, 5, 16
        series = MappedSeries(
            values=1.0 + rng.rand(t_max, n) * 9.0,
            channel_labels=tuple(f"c{i}" for i in range(n)),
        )
        t = int(rng.randint(k + 1, t_max + 1))

        scale = 0.1 + rng.rand(n) * 10
        shift = rng.randn(n) * 100
        transformed = MappedSeries(
            values=series.values * scale + shift, channel_labels=series.channel_labels
        )
        r = window_correlation(series, t, k, STANDARDIZED).r
        r_affine = window_correlation(transformed, t, k, STANDARDIZED).r
        drift = float(np.abs(r_affine - r).max())
        if drift >= 1e-9:
            failures.append(f"trial {trial}: standardized drift {drift:.2e}")

        c = float(0.5 + rng.rand() * 5)
        j = int(rng.randint(n))
        scaled_values = series.values.copy()
        scaled_values[:, j] *= c
        scaled = MappedSeries(values=scaled_values, channel_labels=series.channel_labels)
        r_raw = window_correlation(series, t, k, RAW).r
        r_scaled = window_correlation(scaled, t, k, RAW).r
        for i in range(n):
            factor = c * c if i == j else c
            expected = factor * r_raw[i, j]
            if abs(r_scaled[i, j] - expected) > 1e-12 * abs(expected):
                failures.append(f"trial {trial}: raw scaling off at ({i},{j})")
    report(5, "affine invariance and raw scaling on 50 trials", failures)


def test_criterion_6_total_additivity():
    failures = []
    rng = np.random.RandomState(4_242)
    runs = 0
    for _ in range(12):
        n = rng.randint(1, 6)
        k = rng.randint(2, 8)
        t_max = k + rng.randint(5, 25)
        series = MappedSeries(
            values=rng.rand(t_max, n) * 100,
            channel_labels=tuple(f"c{i}" for i in range(n)),
        )
        for mode in MODES:
            result = indicator_series(series, k, mode)
            runs += 1
            recomputed = float(result.values.sum())
            if abs(result.total - recomputed) > 1e-9 * max(1.0, abs(recomputed)):
                failures.append(f"total diverges from recomputation in {mode} run")
    report(6, f"stored totals on {runs} analysis runs", failures)


def _paired_config(cost: float) -> ScenarioConfig:
    return ScenarioConfig(
        seed=606,
        periods=24,
        processes=(
            ProcessConfig("logging", channels=2, base_level=120.0, amplitude=15.0,
                          period_length=12, noise_scale=4.0),
            ProcessConfig("river-delivery", channels=1, base_level=60.0, amplitude=8.0,
                          period_length=6, noise_scale=2.0),
            ProcessConfig("production", channels=2, base_level=200.0, amplitude=25.0,
                          period_length=12, noise_scale=6.0),
        ),
        intervention_period=7,
        intervention_cost_per_period=cost,
    )


def test_criterion_7_paired_scenario_null():
    failures = []
    k = 3
    for mode in MODES:
        baseline, treated = paired_scenarios(_paired_config(0.0))
        comparison = compare_regimes(
            indicator_series(MappedSeries.from_model(baseline), k, mode),
            indicator_series(MappedSeries.from_model(treated), k, mode),
        )
        if not np.all(comparison.delta == 0.0):
            failures.append(f"{mode}: zero-cost intervention produced nonzero deltas")
        if comparison.delta_total != 0.0:
            failures.append(f"{mode}: zero-cost total delta is {comparison.delta_total!r}")

        baseline, treated = paired_scenarios(_paired_config(10.0))
        comparison = compare_regimes(
            indicator_series(MappedSeries.from_model(baseline), k, mode),
            indicator_series(MappedSeries.from_model(treated), k, mode),
        )
        before = comparison.periods <= 7  # windows t-1..t-k all precede period 7
        if not before.any():
            failures.append(f"{mode}: no evaluable window precedes the intervention")
        elif not np.all(comparison.delta[before] == 0.0):
            failures.append(f"{mode}: pre-intervention deltas are not exactly zero")
        if not np.any(comparison.delta[~before] != 0.0):
            failures.append(f"{mode}: intervention left no trace after period 7")
    report(7, "paired-scenario null test", failures)


def test_criterion_8_pipeline_determinism(tmp_path):
    failures = []
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        """{
  "seed": 20240601,
  "periods": 30,
  "processes": [
    {"name": "logging", "channels": 2, "base_level": 120.0, "amplitude": 15.0,
     "period_length": 12, "noise_scale": 4.0},
    {"name": "production", "channels": 2, "base_level": 200.0, "amplitude": 25.0,
     "period_length": 12, "noise_scale": 6.0}
  ],
  "intervention_period": 7,
  "intervention_cost_per_period": 10.0
}
"""
    )

    def run_pipeline(root):
        data = root / "data"
        codes = [main(["generate", "--config", str(scenario), "--output-dir", str(data)])]
        codes.append(
            main(
                ["analyze", "--events", str(data / "events_treated.csv"),
                 "--window", "5", "--mode", "standardized", "--seed", "20240601",
                 "--output-dir", str(root / "analysis")]
            )
        )
        codes.append(
            main(
                ["compare", "--basic", str(data / "events_baseline.csv"),
                 "--treated", str(data / "events_treated.csv"),
                 "--window", "5", "--mode", "standardized", "--seed", "20240601",
                 "--output-dir", str(root / "comparison")]
            )
        )
        return codes

    first, second = tmp_path / "run1", tmp_path / "run2"
    if any(code != 0 for code in run_pipeline(first)):
        failures.append("first pipeline run failed")
    if any(code != 0 for code in run_pipeline(second)):
        failures.append("second pipeline run failed")
    if not failures:
        relative_paths = sorted(
            path.relative_to(first) for path in first.rglob("*") if path.is_file()
        )
        if not relative_paths:
            failures.append("pipeline produced no files")
        for rel in relative_paths:
            if (first / rel).read_bytes() != (second / rel).read_bytes():
                failures.append(f"{rel} differs between runs")
    report(8, "pipeline byte determinism", failures)


def test_criterion_9_desk_scale_performance():
    failures = []
    rng = np.random.RandomState(888)
    values = 50.0 + 20.0 * rng.rand(10_000, 50)
    series = MappedSeries(values=values, channel_labels=tuple(f"c{i}" for i in range(50)))
    timings = {}
    for mode in MODES:
        start = time.perf_counter()
        result = indicator_series(series, 12, mode)
        timings[mode] = time.perf_counter() - start
        if timings[mode] >= 5.0:
            failures.append(f"{mode} run took {timings[mode]:.2f}s (limit 5s)")
        if result.periods.size != 10_000 - 12:
            failures.append(f"{mode} run evaluated {result.periods.size} periods")
    elapsed = max(timings.values())
    report(9, "500k-value analysis under 5s per mode", failures, elapsed)
