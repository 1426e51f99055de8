"""What a run holds at once: each array once, and a bounded peak over the series.

``model._frozen_array`` shares an array that is already read-only and owns
its data, and copies anything else. The package freezes the arrays it
makes, so the event matrix, its masked version and the indicator rows are
each held once, and ``analyze`` drops the unmasked events before the
kernel starts. A kernel split across two processes fills one array of
indicator rows. The numeric reader turns numpy's rows into its values in
place. Beyond its arrays, the kernel holds one chunk of about 1 MB, the
generator one chunk of draws' scratch, and a table write one block of cells.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

import regimetrics.engine as engine
import regimetrics.io as rio
from regimetrics import (
    CompetencyMapping,
    EnterpriseModel,
    IndicatorSeries,
    MappedSeries,
    apply_mapping,
    indicator_series,
    paired_scenarios,
    parse_events,
    write_events,
)
from regimetrics.cli import main
from regimetrics.engine import RegimeComparison
from regimetrics.io import (
    read_comparison_table,
    read_indicator_column,
    write_comparison_table,
    write_indicator_table,
)
from regimetrics.model import _frozen_array
from regimetrics.prng import symmetric_draws
from regimetrics.synth import ProcessConfig, ScenarioConfig


def frozen(array):
    array.setflags(write=False)
    return array


def traced_peak(call):
    """``call()`` and the peak of the memory it allocated, under tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_a_frozen_owner_is_shared():
    owner = frozen(np.ones((2, 3)))
    assert _frozen_array(owner, ndim=2) is owner


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_a_frozen_owner_of_another_dtype_is_copied(dtype):
    owner = frozen(np.ones((2, 3), dtype=dtype))
    out = _frozen_array(owner, ndim=2)
    assert out.dtype == np.float64
    assert not np.shares_memory(out, owner)


class Tagged(np.ndarray):
    pass


def test_a_frozen_owner_of_a_subclass_is_copied_to_a_plain_array():
    owner = Tagged((2, 3))
    owner[:] = 1.0
    assert owner.flags.owndata
    out = _frozen_array(frozen(owner), ndim=2)
    assert type(out) is np.ndarray
    assert not np.shares_memory(out, owner)


def test_a_frozen_view_is_copied():
    base = np.arange(12.0).reshape(4, 3)
    view = frozen(base[1:])
    out = _frozen_array(view, ndim=2)
    assert not np.shares_memory(out, base)
    assert not out.flags.writeable
    base[1, 0] = -1.0
    assert out[0, 0] == 3.0


def test_a_writeable_array_is_copied_and_stays_the_callers():
    events = np.arange(6.0).reshape(2, 3).copy()
    model = EnterpriseModel(events=events, channel_labels=("a", "b", "c"))
    assert not np.shares_memory(model.events, events)
    assert events.flags.writeable
    assert not model.events.flags.writeable
    events[0, 0] = 99.0
    assert model.events[0, 0] == 0.0


def test_the_series_of_a_model_shares_its_events():
    model = EnterpriseModel(events=np.ones((4, 2)), channel_labels=("a", "b"))
    assert np.shares_memory(MappedSeries.from_model(model).values, model.events)


def test_the_package_passes_on_the_arrays_it_makes_without_copies():
    config = ScenarioConfig(
        seed=3, periods=40, intervention_period=20, intervention_cost_per_period=5.0,
        processes=(ProcessConfig(name="p", channels=3, amplitude=10.0, noise_scale=2.0),),
    )
    baseline, treated = paired_scenarios(config)
    mapping = CompetencyMapping(flags=[[1, 0, 1]], competency_ids=("1.1",), costs=[0], budget=1)
    masked = apply_mapping(treated, mapping)
    assert masked.values.flags.owndata and not masked.values.flags.writeable
    # A series of a series shares the masked values, as one of a model shares its events.
    assert MappedSeries(masked.values, masked.channel_labels).values is masked.values
    indicators = indicator_series(masked, 5, "standardized")
    for array in (indicators.periods, indicators.values, baseline.events, treated.events):
        assert array.flags.owndata and not array.flags.writeable
    assert np.array_equal(indicators.periods, np.arange(6, 41))


def test_standardized_analyze_peaks_at_about_three_series(tmp_path, capsys):
    # Periods x channels of the long benchmark case; 2 of the 8 channels are masked.
    t, n = 50_000, 8
    labels = [f"c{j}" for j in range(n)]
    values = np.random.default_rng(17).normal(100.0, 10.0, size=(t, n))
    write_events(EnterpriseModel(events=values, channel_labels=labels), tmp_path / "events.csv")
    del values
    flags = "".join(f"1.1,{label},1\n" for label in labels[:-2])
    mapping = "# budget: 10\n# cost: 1.1 = 1\ncompetency_id,channel_label,flag\n" + flags
    (tmp_path / "mapping.csv").write_text(mapping)
    argv = ["analyze", "--events", str(tmp_path / "events.csv"),
            "--mapping", str(tmp_path / "mapping.csv"), "--mode", "standardized",
            "--output-dir", str(tmp_path / "out")]
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0
    assert "masked channels: c6, c7" in capsys.readouterr().out
    # The series and the indicator rows (one series each) plus a kernel chunk's
    # temporaries (0.73 MB, 0.24 series here): 2.26 series, with a margin of 0.1; a
    # chunk of two z-score stacks took it to 2.37. Holding the unmasked events, the
    # masked ones and copies of both beside the rows took this to 5.9 series, the
    # kernel's (periods, n) degenerate flags to 2.78 to 2.83, and 2 MB kernel chunks to
    # 2.64 to 2.65.
    assert peak / (t * n * 8) < 2.47


@pytest.mark.parametrize("t", [50_000, 200_000])
def test_writing_an_indicator_table_holds_one_block_beyond_its_arrays(tmp_path, t):
    # The table of the long case, 8 channels and a total, and one four times as long.
    n = 8
    values = frozen(np.random.default_rng(5).random((t, n)))
    indicators = IndicatorSeries(
        periods=np.arange(13, 13 + t), values=values, k=12, mode="raw",
        channel_labels=[f"c{j}" for j in range(n)],
    )
    _, peak = traced_peak(lambda: write_indicator_table(indicators, tmp_path / "indicators.csv"))
    # Beyond the totals column, one block of _WRITE_BLOCK_CELLS cells as Python floats
    # and text, and the writer's buffers: about 0.29 MB at either length, whatever the
    # rows. Blocks of 8,192 cells took it to 0.86 MB.
    assert peak - t * 8 < 1 << 19


def test_the_kernel_holds_its_rows_and_one_chunk():
    # The long case's standardized run: 50,000 periods of 8 channels, window 12.
    t, n, k = 50_000, 8, 12
    labels = [f"c{j}" for j in range(n)]
    series = MappedSeries(frozen(np.random.default_rng(17).normal(100.0, 10.0, (t, n))), labels)
    # The first run looks up the BLAS thread functions; the traced ones do not.
    indicator_series(MappedSeries(series.values[:100].copy(), labels), k, "standardized")
    step = engine._chunk_periods(n, k)
    rows = series.values[: step + k - 1]
    _, chunk = traced_peak(lambda: engine._chunk_kernel(rows, k, "standardized", False, k + 1, labels))
    indicators, peak = traced_peak(lambda: indicator_series(series, k, "standardized"))
    # The rows and one chunk's temporaries, and under a quarter of the smallest other
    # (periods, n) array, a bool one: 17 kB here. The kernel's per-period degenerate
    # flags took 409 kB. Once the chunk shrank to 0.73 MB, IndicatorSeries' checks set
    # the peak when they held a (periods, n) bool array and the int64 differences of
    # the periods: 98 kB.
    assert peak - indicators.values.nbytes - chunk < t * n // 4


@pytest.mark.parametrize("mode", ["raw", "standardized"])
def test_a_split_kernel_holds_its_rows_once(tmp_path, mode):
    if engine._openblas_threads() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with thread-count functions")
    # The desk case's 10,000 periods of 50 channels are worth a second process.
    t, n = 10_000, 50
    labels = [f"c{j}" for j in range(n)]
    values = np.random.default_rng(17).normal(100.0, 10.0, size=(t, n))
    write_events(EnterpriseModel(events=values, channel_labels=labels), tmp_path / "events.csv")
    del values
    flags = "".join(f"1.1,{label},1\n" for label in labels[:-2])
    mapping = "# budget: 10\n# cost: 1.1 = 1\ncompetency_id,channel_label,flag\n" + flags
    (tmp_path / "mapping.csv").write_text(mapping)
    argv = ["analyze", "--events", str(tmp_path / "events.csv"),
            "--mapping", str(tmp_path / "mapping.csv"), "--mode", mode,
            "--output-dir", str(tmp_path / "out")]
    split = mock.patch.object(engine, "_two_process_kernel", wraps=engine._two_process_kernel)
    with split as two_process_kernel:
        code, peak = traced_peak(lambda: main(argv))
    assert code == 0
    assert two_process_kernel.call_count == 1
    # The series and the rows (a series each) and a chunk's temporaries: 2.20 series in
    # raw mode and 2.24 standardized, with a margin of 0.1. Two halves of the rows, the
    # child's read as bytes, beside their concatenation took both past 3, and 2 MB
    # kernel chunks to 2.37 and 2.47.
    assert peak / (t * n * 8) < 2.35


@pytest.mark.parametrize(
    "t, n", [(50_000, 8), (10_000, 50), (400, 400)], ids=["long", "desk", "wide"]
)
def test_parsing_events_holds_one_series_and_scratch(tmp_path, t, n):
    labels = [f"c{j}" for j in range(n)]
    values = np.random.default_rng(17).normal(100.0, 10.0, size=(t, n))
    write_events(EnterpriseModel(events=values, channel_labels=labels), tmp_path / "events.csv")
    del values
    model, peak = traced_peak(lambda: parse_events(tmp_path / "events.csv"))
    assert model.t_max == t
    # numpy's (t, v) rows, a little over a series, and their periods and flags, which
    # become the events in place: 1.40, 1.25 and 1.40 series. Holding those rows beside
    # the model's copy took 2.38, 2.17 and 2.54, and 64 of wide's 7.3 kB lines checked
    # at a time 2.56.
    assert peak / (t * n * 8) < 1.5


@pytest.mark.parametrize("cell, value", [("1.5", 1.5), ("1_0.5", 10.5)], ids=["plain", "scanned"])
def test_parsed_events_are_the_models_own(tmp_path, monkeypatch, cell, value):
    # 1_0.5 is outside the plain alphabet, so it takes the scan in a second open.
    path = tmp_path / "events.csv"
    path.write_text(f"t,a,b\n1,{cell},2\n2,-3e2,4\n")
    read_numeric, returned = rio._read_numeric, []

    def kept(*args, **kwargs):
        result = read_numeric(*args, **kwargs)
        returned.append(result[-1])
        return result

    monkeypatch.setattr(rio, "_read_numeric", kept)
    model = parse_events(path)
    assert model.events is returned[0]
    assert model.events.flags.owndata and not model.events.flags.writeable
    assert model.events.tolist() == [[value, 2.0], [-300.0, 4.0]]


@pytest.mark.parametrize("t, n", [(50_000, 8), (388, 400)], ids=["long", "wide"])
def test_reading_an_indicator_column_holds_one_table_and_scratch(tmp_path, t, n):
    indicators = IndicatorSeries(
        periods=np.arange(13, 13 + t), values=frozen(np.random.default_rng(5).random((t, n))),
        k=12, mode="raw", channel_labels=[f"c{j}" for j in range(n)],
    )
    path = write_indicator_table(indicators, tmp_path / "indicators.csv")
    (_, column), peak = traced_peak(lambda: read_indicator_column(path, 12, "raw"))
    assert np.array_equal(column, indicators.per_period_totals())
    # numpy's rows of the table (the period, the channels and the total), their periods
    # and a batch of text: 1.33 tables on both. 64 of wide's 7.7 kB lines checked at a
    # time took it to 2.69.
    assert peak / (t * (n + 2) * 8) < 1.5


def test_reading_a_comparison_holds_one_table_and_scratch(tmp_path):
    t = 50_000
    basic, treated = np.random.default_rng(5).random((2, t))
    made = RegimeComparison(np.arange(13, 13 + t), basic, treated, treated - basic)
    path = write_comparison_table(tmp_path / "comparison.csv", made)
    (comparison, _), peak = traced_peak(lambda: read_comparison_table(path))
    for got, expected in zip(
        (comparison.periods, comparison.basic, comparison.treated, comparison.delta),
        (made.periods, basic, treated, made.delta),
    ):
        assert got.tobytes() == expected.tobytes()
        assert got.flags.owndata and not got.flags.writeable  # shared, not copied
    # numpy's rows of the table, their periods and a batch of text, then one column at a
    # time cut from the table: 1.43 tables. The three columns copied out beside the
    # table took 2.25.
    assert peak / (t * 4 * 8) < 1.5


@pytest.mark.parametrize("periods, streams", [(10_000, 50), (50_000, 8)], ids=["desk", "long"])
def test_drawing_holds_one_chunk_beyond_the_draws(periods, streams):
    draws, peak = traced_peak(lambda: symmetric_draws(7, streams, periods))
    assert draws.shape == (periods, streams)
    # A chunk's uint64 temporaries under _CHUNK_BYTES: 1.09 and 1.13 MB. 4 MB chunks
    # held 4.36 and 4.50 MB.
    assert peak - draws.nbytes <= 1.25 * (1 << 20)


def test_a_scenario_pair_holds_its_two_series_and_scratch():
    # The long case's shape: 50,000 periods of 4 processes with 2 channels each.
    processes = tuple(
        ProcessConfig(name=f"p{i}", channels=2, amplitude=10.0, period_length=6 + 6 * (i % 2),
                      noise_scale=4.0)
        for i in range(4)
    )
    config = ScenarioConfig(seed=7, periods=50_000, processes=processes,
                            intervention_period=25_000, intervention_cost_per_period=10.0)
    (baseline, treated), peak = traced_peak(lambda: paired_scenarios(config))
    assert treated.events.shape == (50_000, 8)
    # The baseline and the treated copy, and a bool (periods, n) array of the model's
    # finiteness check: 2.13 series. Each level built from int64 period indices and the
    # cost added through a fancy index of the first channels took it to 2.25.
    assert peak / treated.events.nbytes <= 2.2


@pytest.mark.parametrize("n", [8, 50])
def test_a_standardized_chunk_holds_about_a_megabyte(n):
    k = 12
    labels = [f"c{j}" for j in range(n)]
    rows = np.random.default_rng(17).normal(100.0, 10.0, (engine._chunk_periods(n, k) + k - 1, n))
    _, peak = traced_peak(
        lambda: engine._chunk_kernel(rows, k, "standardized", False, k + 1, labels)
    )
    # 0.73 and 0.87 MB: the z-scores divided in place, one stack of them. With a second,
    # contiguous stack a chunk held 1.05 and 0.87 MB; 2 MB chunks held 1.93 and 1.75 MB.
    assert peak <= 1.25 * (1 << 20)
