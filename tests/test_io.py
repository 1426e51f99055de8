import csv
import hashlib
import io
import json
import os
import re
import stat

import numpy as np
import pytest

from regimetrics import (
    CompetencyMapping,
    EnterpriseModel,
    InvalidWindowError,
    ParseError,
    ProcessConfig,
    RegimeComparison,
    ScenarioConfig,
    ValidationError,
    compare_regimes,
    default_catalog,
    emit_report,
    indicator_series,
    load_reference,
    parse_events,
    parse_mapping,
    parse_scenario,
    write_events,
    write_mapping,
    write_scenario,
)
from regimetrics.engine import IndicatorSeries
from regimetrics.io import (
    fmt,
    is_indicator_output,
    read_comparison_table,
    read_indicator_column,
    write_comparison_table,
    write_indicator_table,
    write_plot_data,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# --- event series -----------------------------------------------------------


def test_events_round_trip_small(tmp_path):
    model = EnterpriseModel(
        events=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        channel_labels=("a", "b"),
    )
    path = write_events(model, tmp_path / "events.csv")
    parsed = parse_events(path)
    assert np.array_equal(parsed.events, model.events)
    assert parsed.channel_labels == model.channel_labels


def test_events_round_trip_preserves_doubles(tmp_path):
    rng = np.random.RandomState(5)
    model = EnterpriseModel(
        events=rng.randn(20, 4) * np.array([1e-7, 1.0, 1e6, 123.456]),
        channel_labels=("w", "x", "y", "z"),
    )
    parsed = parse_events(write_events(model, tmp_path / "events.csv"))
    assert parsed.events.tobytes() == model.events.tobytes()


def test_header_only_file_rejected(tmp_path):
    path = write_lines(tmp_path / "events.csv", ["t,a,b"])
    with pytest.raises(ParseError, match="t_max = 0"):
        parse_events(path)


def test_missing_period_named(tmp_path):
    path = write_lines(tmp_path / "events.csv", ["t,a", "1,1.0", "2,2.0", "4,4.0"])
    with pytest.raises(ParseError, match="missing period 3"):
        parse_events(path)


def test_duplicate_period_named(tmp_path):
    path = write_lines(tmp_path / "events.csv", ["t,a", "1,1.0", "2,2.0", "2,2.5"])
    with pytest.raises(ParseError, match="duplicate period 2"):
        parse_events(path)


def test_non_numeric_cell_located(tmp_path):
    path = write_lines(tmp_path / "events.csv", ["t,a,b", "1,1.0,2.0", "2,oops,4.0"])
    with pytest.raises(ParseError, match="not a number") as excinfo:
        parse_events(path)
    assert excinfo.value.line == 3


def test_non_finite_cell_rejected(tmp_path):
    path = write_lines(tmp_path / "events.csv", ["t,a", "1,nan"])
    with pytest.raises(ParseError, match="not finite"):
        parse_events(path)


def test_ragged_row_rejected(tmp_path):
    path = write_lines(tmp_path / "events.csv", ["t,a,b", "1,1.0,2.0", "2,3.0"])
    with pytest.raises(ParseError, match="expected 3 fields"):
        parse_events(path)


@pytest.mark.parametrize(
    "lines, line, match",
    [
        # the bulk conversion meets "oops" first, but "inf" comes first in the file
        (["t,a,b", "1,1.0,2.0", "2,inf,3.0", "3,4.0,oops"], 3, "'inf' is not finite"),
        (["t,a,b", "1,1.0,2.0", "2,1e999,3.0", "3,4.0,5.0,6.0"], 3, "'1e999' is not finite"),
        (["t,a,b", "1,1.0,nan", "2,2.0,3.0"], 2, "column 'b': 'nan' is not finite"),
        (["t,a,b", "1,1.0,2.0", "2,x,inf"], 3, "column 'a': 'x' is not a number"),
    ],
)
def test_first_bad_cell_in_file_order_is_reported(tmp_path, lines, line, match):
    path = write_lines(tmp_path / "events.csv", lines)
    with pytest.raises(ParseError, match=match) as excinfo:
        parse_events(path)
    assert excinfo.value.line == line


def test_duplicate_channel_labels_rejected(tmp_path):
    path = write_lines(tmp_path / "events.csv", ["t,a,a", "1,1.0,2.0"])
    with pytest.raises(ParseError, match="unique"):
        parse_events(path)


@pytest.mark.parametrize(
    "labels, message",
    [
        ((), "at least one channel column is required"),
        (("a", " a"), "channel labels must be unique"),
        (("a", "total "), "header of an indicator output: last label 'total' is reserved"),
    ],
    ids=["no-channel", "spaced-duplicate", "spaced-total"],
)
def test_reader_and_writer_share_the_event_header_rule(tmp_path, labels, message):
    lines = [",".join(["t", *labels]), "1" + ",1.0" * len(labels)]
    path = write_lines(tmp_path / "events.csv", lines)
    with pytest.raises(ParseError) as excinfo:
        parse_events(path)
    assert str(excinfo.value) == f"{path}:1: {message}"
    if labels:  # a model has at least one channel
        path.unlink()
        model = EnterpriseModel(events=np.ones((2, len(labels))), channel_labels=labels)
        with pytest.raises(ValidationError) as excinfo:
            write_events(model, path)
        assert str(excinfo.value) == f"{path}: {message}"
        assert not path.exists()


@pytest.mark.parametrize("label", [" a", "a ", "a\n", "\tb\t"])
def test_write_events_refuses_a_label_the_reader_would_rename(tmp_path, label):
    # parse_events strips every header field, so such a label reads back as another.
    path = tmp_path / "events.csv"
    model = EnterpriseModel(events=np.ones((2, 2)), channel_labels=("x", label))
    with pytest.raises(ValidationError) as excinfo:
        write_events(model, path)
    stripped = label.strip()
    assert str(excinfo.value) == f"{path}: channel label {label!r} would read back as {stripped!r}"
    assert list(tmp_path.iterdir()) == []


# --- mapping ----------------------------------------------------------------


def sample_mapping():
    return CompetencyMapping(
        flags=np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0]]),
        competency_ids=("1.1", "2.3", "3.5"),
        costs=np.array([28_208.0, 150.5, 0.0]),
        budget=5_669_650.0,
    )


def test_mapping_round_trip(tmp_path):
    labels = ("logging.1", "logging.2", "production.1")
    mapping = sample_mapping()
    path = write_mapping(mapping, labels, tmp_path / "mapping.csv")
    parsed = parse_mapping(path, labels, catalog=default_catalog())
    assert np.array_equal(parsed.flags, mapping.flags)
    assert parsed.competency_ids == mapping.competency_ids
    assert np.array_equal(parsed.costs, mapping.costs)
    assert parsed.budget == mapping.budget


def test_write_mapping_needs_one_label_per_channel(tmp_path):
    with pytest.raises(ValidationError) as excinfo:
        write_mapping(sample_mapping(), ("a", "b"), tmp_path / "mapping.csv")
    assert str(excinfo.value) == "mapping covers 3 channels but 2 labels given"
    assert not (tmp_path / "mapping.csv").exists()


def test_mapping_absent_pairs_default_to_zero(tmp_path):
    path = write_lines(
        tmp_path / "mapping.csv",
        ["# budget: 100", "competency_id,channel_label,flag", "1.1,b,1"],
    )
    mapping = parse_mapping(path, ("a", "b"))
    assert mapping.flags.tolist() == [[0, 1]]
    assert mapping.costs.tolist() == [0.0]


def test_mapping_unknown_channel_rejected(tmp_path):
    path = write_lines(
        tmp_path / "mapping.csv",
        ["# budget: 100", "competency_id,channel_label,flag", "1.1,nope,1"],
    )
    with pytest.raises(ParseError, match="nope"):
        parse_mapping(path, ("a", "b"))


def test_mapping_requires_budget(tmp_path):
    path = write_lines(
        tmp_path / "mapping.csv", ["competency_id,channel_label,flag", "1.1,a,1"]
    )
    with pytest.raises(ParseError, match="budget"):
        parse_mapping(path, ("a",))


def test_mapping_bad_flag_rejected(tmp_path):
    path = write_lines(
        tmp_path / "mapping.csv",
        ["# budget: 1", "competency_id,channel_label,flag", "1.1,a,2"],
    )
    with pytest.raises(ParseError, match="flag"):
        parse_mapping(path, ("a",))


def test_mapping_duplicate_pair_rejected(tmp_path):
    path = write_lines(
        tmp_path / "mapping.csv",
        ["# budget: 1", "competency_id,channel_label,flag", "1.1,a,1", "1.1,a,0"],
    )
    with pytest.raises(ParseError, match="duplicate pair"):
        parse_mapping(path, ("a",))


@pytest.mark.parametrize(
    "read, lines, line, message",
    [
        (read_comparison_table, ["# totals: 1,2,3", "# totals: 1,2,3"], 2,
         "duplicate totals directive"),
        # Every directive is checked for a repeat before the first one is read.
        (read_comparison_table, ["# totals: 1,2", "# totals: 1,2,3"], 2,
         "duplicate totals directive"),
        (read_comparison_table, ["# totals: 1,2"], 1, "totals directive needs 3 numbers"),
        (lambda path: parse_mapping(path, ("a",)), ["# budget: -1", "# budget: 1"], 2,
         "duplicate budget directive"),
        (lambda path: parse_mapping(path, ("a",)), ["# budget: 1", "# cost: = 5"], 2,
         "cost directive has empty id"),
        (lambda path: parse_mapping(path, ("a",)), ["# budget: 1", "# cost: 1.1 = 5",
                                                    "# cost: 1.1 = 6"], 3,
         "duplicate cost for '1.1'"),
    ],
    ids=["totals twice", "bad totals, then totals", "bad totals", "bad budget, then budget",
         "empty cost id", "cost id twice"],
)
def test_directive_errors_name_their_line(tmp_path, read, lines, line, message):
    header = "t,v_basic,v_ddescr,dv" if "totals" in lines[0] else "competency_id,channel_label,flag"
    path = write_lines(tmp_path / "table.csv", [*lines, header])
    with pytest.raises(ParseError, match=message) as excinfo:
        read(path)
    assert excinfo.value.line == line


def test_mapping_unknown_competency_vs_catalog(tmp_path):
    path = write_lines(
        tmp_path / "mapping.csv",
        ["# budget: 1", "competency_id,channel_label,flag", "8.8,a,1"],
    )
    with pytest.raises(ParseError, match="8.8") as excinfo:
        parse_mapping(path, ("a",), catalog=default_catalog())
    assert excinfo.value.line == 3


# --- scenario config --------------------------------------------------------


def test_scenario_round_trip(tmp_path):
    config = ScenarioConfig(
        seed=99,
        periods=24,
        processes=(
            ProcessConfig("logging", channels=2, base_level=10.0, amplitude=2.0,
                          period_length=12, noise_scale=0.5),
        ),
        intervention_period=7,
        intervention_cost_per_period=3.25,
    )
    path = write_scenario(config, tmp_path / "scenario.json")
    assert parse_scenario(path) == config


def test_write_scenario_pinned_bytes(tmp_path):
    # SHA-256 of what the field-by-field writer produced: an int base_level
    # stays an int, no intervention is null and a negative cost is kept.
    config = ScenarioConfig(
        seed=2**64 - 1,
        periods=48,
        processes=(
            ProcessConfig("felling", channels=3, base_level=250, amplitude=12.5,
                          period_length=12, noise_scale=0.0),
            ProcessConfig('rafting "north"', base_level=-1e-300, amplitude=0.1, noise_scale=7),
        ),
        intervention_period=None,
        intervention_cost_per_period=-2.5,
    )
    data = write_scenario(config, tmp_path / "scenario.json").read_bytes()
    assert b'"base_level": 250,' in data
    assert b'"intervention_period": null,' in data
    assert hashlib.sha256(data).hexdigest() == (
        "41894ffe990605fb242bbeb5538798db7ba26151e3096d9e90617e84fccee6cf"
    )
    assert parse_scenario(tmp_path / "scenario.json") == config


def test_scenario_unknown_key_rejected(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('{"seed": 1, "periods": 5, "processes": [], "bogus": true}')
    with pytest.raises(ParseError, match="bogus"):
        parse_scenario(path)


def test_scenario_invalid_json_located(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('{"seed": 1,,}')
    with pytest.raises(ParseError):
        parse_scenario(path)


def test_scenario_missing_key_rejected(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('{"seed": 1, "periods": 5}')
    with pytest.raises(ParseError, match="processes"):
        parse_scenario(path)


@pytest.mark.parametrize(
    "document, message",
    [
        ([], "scenario document must be a JSON object"),
        ({"seed": 1, "periods": 5, "processes": {}}, "'processes' must be a list"),
        ({"seed": 1, "periods": 5, "processes": [1]}, "process #1 must be an object"),
        ({"seed": 1, "periods": 5, "processes": [{"name": "a", "bogus": 1}]},
         "process #1 has unknown keys: bogus"),
    ],
    ids=["not-an-object", "processes-not-a-list", "process-not-an-object", "process-key"],
)
def test_scenario_structure_errors_name_the_file(tmp_path, document, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ParseError) as excinfo:
        parse_scenario(path)
    assert str(excinfo.value) == f"{path}: {message}"


# --- report emission --------------------------------------------------------


def indicator_report(make_series, seed=3, t_max=12, n=3, k=4):
    series = make_series(seed, t_max, n)
    indicators = indicator_series(series, k)
    return dict(k=k, mode="raw", seed=seed, indicators=indicators), indicators


def test_emit_single_run_report(tmp_path, make_series):
    report, indicators = indicator_report(make_series)
    written = emit_report(tmp_path / "out", **report)
    names = [path.name for path in written]
    assert names == ["indicators.csv", "plot.csv", "metadata.json"]
    periods, totals = read_indicator_column(tmp_path / "out" / "indicators.csv", 4, "raw")
    assert periods.tolist() == indicators.periods.tolist()
    assert np.array_equal(totals, indicators.per_period_totals())
    plot_periods, plot_totals = read_indicator_column(tmp_path / "out" / "plot.csv", 4, "raw")
    assert np.array_equal(plot_totals, indicators.per_period_totals())
    metadata = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert metadata == {"k": 4, "mode": "raw", "seed": 3, "pad_warmup": False}


def test_emit_comparison_report(tmp_path, make_series):
    ind_a = indicator_series(make_series(1, 12, 3), 4)
    ind_b = indicator_series(make_series(2, 12, 3), 4)
    comparison = compare_regimes(ind_a, ind_b)
    written = emit_report(tmp_path / "out", 4, "raw", comparison=comparison)
    names = [path.name for path in written]
    assert names == ["comparison.csv", "plot_basic.csv", "plot_ddescr.csv", "metadata.json"]
    table, totals = read_comparison_table(tmp_path / "out" / "comparison.csv")
    assert np.array_equal(table.basic, comparison.basic)
    assert np.array_equal(table.treated, comparison.treated)
    assert np.array_equal(table.delta, comparison.delta)
    assert totals == (comparison.basic_total, comparison.treated_total, comparison.delta_total)


def test_emitted_reference_reparses_identically(tmp_path):
    table, totals = load_reference()
    path = write_comparison_table(tmp_path / "reference.csv", table, totals)
    reparsed, reparsed_totals = read_comparison_table(path)
    assert np.array_equal(reparsed.periods, table.periods)
    assert reparsed.basic.tobytes() == table.basic.tobytes()
    assert reparsed.treated.tobytes() == table.treated.tobytes()
    assert reparsed.delta.tobytes() == table.delta.tobytes()
    assert reparsed_totals == totals


def test_emit_refuses_empty_evaluable_range(tmp_path):
    comparison = compare_regimes(([], []), ([], []))
    with pytest.raises(ValidationError, match="no evaluable periods"):
        emit_report(tmp_path / "out", 4, "raw", comparison=comparison)


@pytest.mark.parametrize("pad_warmup", [False, True], ids=["plain", "padded"])
@pytest.mark.parametrize(
    "periods, span",
    [(range(20, 26), "20..25"), (range(2, 8), "2..7"), ([5, 6, 8, 9], "5..9")],
    ids=["late", "early", "gap"],
)
def test_emit_refuses_periods_the_window_does_not_give(tmp_path, periods, span, pad_warmup):
    # read_indicator_column reads back only periods k + 1, k + 2, ... in a row.
    values = np.arange(1.0, 1.0 + len(periods))
    comparison = compare_regimes((periods, values), (periods, 2 * values))
    message = f"periods {span} are not 5, 6, ... in a row, as window 4 gives"
    with pytest.raises(ValidationError, match=re.escape(message)):
        emit_report(tmp_path / "out", 4, "raw", comparison=comparison, pad_warmup=pad_warmup)
    assert not (tmp_path / "out").exists()


def test_emit_single_period_report(tmp_path, make_series):
    series = make_series(4, 5, 2)
    indicators = indicator_series(series, 4)  # exactly one evaluable period
    emit_report(tmp_path / "out", 4, "raw", indicators=indicators)
    lines = (tmp_path / "out" / "indicators.csv").read_text().splitlines()
    assert len(lines) == 4  # the header, one data row and the two closing directives
    assert (tmp_path / "out" / "metadata.json").exists()


def test_emission_is_byte_identical(tmp_path, make_series):
    report, _ = indicator_report(make_series)
    emit_report(tmp_path / "first", **report)
    emit_report(tmp_path / "second", **report)
    for name in ("indicators.csv", "plot.csv", "metadata.json"):
        assert (tmp_path / "first" / name).read_bytes() == (
            tmp_path / "second" / name
        ).read_bytes()


def test_pad_warmup_plot_rows(tmp_path, make_series):
    report, indicators = indicator_report(make_series, k=4)
    emit_report(tmp_path / "out", **report, pad_warmup=True)
    lines = (tmp_path / "out" / "plot.csv").read_text().splitlines()
    assert lines[:5] == ["t,v_total", "1,0.0", "2,0.0", "3,0.0", "4,0.0"]
    assert lines[-2:] == ["# k: 4", "# mode: raw"]
    periods, totals = read_indicator_column(tmp_path / "out" / "plot.csv", 4, "raw")
    assert periods.tolist() == list(range(5, 13))
    assert np.array_equal(totals, indicators.per_period_totals())
    metadata = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert metadata["pad_warmup"] is True


@pytest.mark.parametrize(
    "k, mode, message",
    [
        (5, "raw", "indicators of window 4, mode 'raw' in a report of window 5, mode 'raw'"),
        (4, "standardized",
         "indicators of window 4, mode 'raw' in a report of window 4, mode 'standardized'"),
    ],
    ids=["window", "mode"],
)
def test_report_refuses_indicators_of_another_run(tmp_path, make_series, k, mode, message):
    # The directives of every output file come from the report's k and mode.
    _, indicators = indicator_report(make_series, k=4)
    with pytest.raises(ValidationError, match=re.escape(message)):
        emit_report(tmp_path / "out", k, mode, indicators=indicators, pad_warmup=True)
    assert not (tmp_path / "out").exists()


def test_report_requires_some_content(tmp_path):
    with pytest.raises(ValidationError):
        emit_report(tmp_path / "out", 4, "raw")


def test_report_window_length_is_the_model_rule(tmp_path, make_series):
    report, _ = indicator_report(make_series)
    message = "window length must be at least 2 (the coefficient divisor is k-1), got 1"
    with pytest.raises(InvalidWindowError, match=re.escape(message)):
        emit_report(tmp_path / "out", **{**report, "k": 1})
    assert not (tmp_path / "out").exists()


def test_atomic_write_replaces_existing(tmp_path, make_series):
    report, _ = indicator_report(make_series)
    target = tmp_path / "out"
    emit_report(target, **report)
    before = (target / "indicators.csv").read_bytes()
    emit_report(target, **report)
    assert (target / "indicators.csv").read_bytes() == before
    assert not list(target.glob("*.tmp"))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_get_the_mode_the_umask_allows(tmp_path, make_series, umask, mode):
    report, _ = indicator_report(make_series)
    series = make_series(5, 12, 3)
    events = EnterpriseModel(events=series.values, channel_labels=series.channel_labels)
    old = os.umask(umask)
    try:
        paths = [*emit_report(tmp_path / "out", **report), write_events(events, tmp_path / "e.csv")]
    finally:
        os.umask(old)
    assert {path.name: stat.S_IMODE(path.stat().st_mode) for path in paths} == {
        path.name: mode for path in paths
    }


# --- shared table reader and the kind rule -----------------------------------


@pytest.mark.parametrize("last", ["total", "v_total"])
def test_event_file_with_reserved_last_label_is_an_indicator_output(tmp_path, last):
    path = write_lines(tmp_path / "events.csv", [f"t,a,{last}", "1,1.0,2.0", "2,3.0,4.0"])
    assert is_indicator_output(path)
    with pytest.raises(ParseError, match="indicator output") as excinfo:
        parse_events(path)
    assert excinfo.value.line == 1


@pytest.mark.parametrize("last", ["total", "v_total"])
def test_write_events_refuses_reserved_last_label(tmp_path, last):
    model = EnterpriseModel(events=np.ones((3, 2)), channel_labels=("a", last))
    with pytest.raises(ValidationError, match="reserved"):
        write_events(model, tmp_path / "events.csv")
    assert not (tmp_path / "events.csv").exists()


def test_indicator_column_skips_leading_blank_line(tmp_path):
    lines = ["", "t,v_total", "5,1.5", "6,2.5", "", "# k: 4", "", "# mode: raw", " "]
    periods, values = read_indicator_column(write_lines(tmp_path / "plot.csv", lines), 4, "raw")
    assert periods.tolist() == [5, 6]
    assert values.tolist() == [1.5, 2.5]


@pytest.mark.parametrize(
    "lines, line, match",
    [
        # the first '#' line is what is wrong: plot files carry their directives after the rows
        (["# a: 1", "# b: 2", "t,v_total", "5,1.0", "6,oops"], 1, "unknown directive"),
        # a quoted label spans lines 1-2, so the bad cell sits on physical line 5
        (['t,"x', 'y",total', "", "5,1.0,1.0", "6,2.0,oops", "# k: 4", "# mode: raw"], 5,
         "not a number"),
        # once the closing directives begin, only directives and blank lines may follow
        (["t,v_total", "5,1.0", "# k: 4", "", "6,2.0", "# mode: raw"], 5,
         "data row after the closing directives"),
        (["t,v_total", "5,1.0", "# k: 4", "# note: 1", "# mode: raw"], 4,
         "unknown directive 'note: 1'"),
        (["t,v_total", "5,1.0", "# k: 4", "# mode: raw", "#k:4"], 5, "duplicate k directive"),
    ],
)
def test_indicator_column_errors_name_the_physical_line(tmp_path, lines, line, match):
    path = write_lines(tmp_path / "indicators.csv", lines)
    with pytest.raises(ParseError, match=match) as excinfo:
        read_indicator_column(path, 4, "raw")
    assert excinfo.value.line == line


@pytest.mark.parametrize(
    "rows, match",
    [
        (["5,1.0", "7,2.0"], "missing period 6"),
        (["5,1.0", "5,2.0"], "duplicate period 5"),
        (["5,1.0", "3,2.0"], "period 3 precedes the first period 5"),
    ],
)
def test_indicator_periods_run_densely_from_the_first_row(tmp_path, rows, match):
    path = write_lines(tmp_path / "plot.csv", ["t,v_total", *rows, "# mode: raw", "# k: 4"])
    with pytest.raises(ParseError, match=match) as excinfo:
        read_indicator_column(path, 4, "raw")
    assert excinfo.value.line == 3


@pytest.mark.parametrize("directive", ["# k: 4", "# mode: raw"])
@pytest.mark.parametrize(
    "where, line, match",
    [(1, 2, "unknown directive"), (4, 5, "directives must precede the header")],
    ids=["before the header", "after the rows"],
)
def test_event_file_may_not_state_a_run(tmp_path, directive, where, line, match):
    lines = ["", "t,a", "1,1.0", "2,3.0"]
    path = write_lines(tmp_path / "events.csv", [*lines[:where], directive, *lines[where:]])
    with pytest.raises(ParseError, match=match) as excinfo:
        parse_events(path)
    assert excinfo.value.line == line


def test_directive_after_header_rejected(tmp_path):
    path = write_lines(tmp_path / "events.csv", ["t,a", "1,1.0", "# note: late", "2,2.0"])
    with pytest.raises(ParseError, match="directives must precede the header") as excinfo:
        parse_events(path)
    assert excinfo.value.line == 3


# --- numeric table writers ---------------------------------------------------

EDGE_VALUES = [-0.0, 0.0, 1e16, 5e-324, 1e308, 1.0 / 3.0, -2.5e-310, 123456789.125, 0.1]
AWKWARD_LABELS = ("plain", "a,b", 'say "hi"', "x")


def csv_reference(header, periods, rows, directives=(), closing=()):
    # what the writers produced through csv.writer with one fmt call per cell
    buffer = io.StringIO()
    buffer.writelines(f"# {name}: {value}\n" for name, value in directives)
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows((int(t), *map(fmt, row)) for t, row in zip(periods, rows))
    buffer.writelines(f"# {name}: {value}\n" for name, value in closing)
    return buffer.getvalue().encode()


def edge_matrix(t_max, n):
    rng = np.random.RandomState(17)
    values = rng.randn(t_max, n) * 10.0 ** rng.randint(-300, 300, size=(t_max, n))
    values.flat[: len(EDGE_VALUES)] = EDGE_VALUES
    return values


def test_event_writer_bytes_match_csv_writer(tmp_path):
    events = edge_matrix(40, 4)
    model = EnterpriseModel(events=events, channel_labels=AWKWARD_LABELS)
    path = write_events(model, tmp_path / "events.csv")
    header = ("t", *AWKWARD_LABELS)
    assert path.read_bytes() == csv_reference(header, range(1, 41), events)
    assert path.read_bytes().startswith(b't,plain,"a,b","say ""hi""",x\n1,-0.0,0.0,1e+16,5e-324\n')
    assert parse_events(path).events.tobytes() == events.tobytes()


def test_indicator_and_plot_writers_bytes_match_csv_writer(tmp_path):
    values = np.abs(edge_matrix(6, 4))
    periods = np.arange(5, 11)
    indicators = IndicatorSeries(
        periods=periods, values=values, k=4, mode="raw",
        channel_labels=AWKWARD_LABELS,
    )
    table = write_indicator_table(indicators, tmp_path / "indicators.csv")
    rows = np.column_stack((values, indicators.per_period_totals()))
    header = ("t", *AWKWARD_LABELS, "total")
    run = [("k", 4), ("mode", "raw")]
    assert table.read_bytes() == csv_reference(header, periods, rows, closing=run)
    aggregates = np.array(EDGE_VALUES[:6])
    plot = write_plot_data(tmp_path / "plot.csv", periods, aggregates, 4, "raw")
    expected = csv_reference(("t", "v_total"), periods, aggregates[:, None], closing=run)
    assert plot.read_bytes() == expected


def test_comparison_writer_bytes_match_csv_writer(tmp_path):
    columns = edge_matrix(9, 3).T
    totals = (1.0 / 3.0, -0.0, 1e308)
    comparison = RegimeComparison(range(3, 12), *columns)
    path = write_comparison_table(tmp_path / "comparison.csv", comparison, totals)
    directives = [("totals", ",".join(map(fmt, totals)))]
    header = ("t", "v_basic", "v_ddescr", "dv")
    assert path.read_bytes() == csv_reference(header, range(3, 12), columns.T, directives)
