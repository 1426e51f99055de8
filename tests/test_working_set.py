"""What a run holds at once: each array once, and a bounded peak over the series.

``model._frozen_array`` shares an array that is already read-only and owns
its data, and copies anything else. The package freezes the arrays it
makes, so the event matrix, its masked version and the indicator rows are
each held once, and ``analyze`` drops the unmasked events before the
kernel starts. A kernel split across two processes fills one array of
indicator rows.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

import regimetrics.engine as engine
from regimetrics import (
    CompetencyMapping,
    EnterpriseModel,
    MappedSeries,
    apply_mapping,
    indicator_series,
    paired_scenarios,
    write_events,
)
from regimetrics.cli import main
from regimetrics.model import _frozen_array
from regimetrics.synth import ProcessConfig, ScenarioConfig


def frozen(array):
    array.setflags(write=False)
    return array


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
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "masked channels: c6, c7" in capsys.readouterr().out
    # The series and the indicator rows (one series each) plus a kernel chunk's
    # temporaries (under 2 MB, about 0.6 series here), or the parse's structured rows.
    # Holding the unmasked events, the masked ones and copies of both beside the rows
    # took this to 5.9 series.
    assert peak / (t * n * 8) < 3.5


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
    tracemalloc.start()
    try:
        with split as two_process_kernel:
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert two_process_kernel.call_count == 1
    # The series and the rows (a series each) and the parse's or a chunk's temporaries:
    # about 2.4 series in raw mode and 2.6 standardized. Two halves of the rows, the
    # child's read as bytes, beside their concatenation took both past 3.
    assert peak / (t * n * 8) < 2.8
