import json
from pathlib import Path

import numpy as np
import pytest

import regimetrics
from regimetrics import (
    ParseError,
    RegimeComparison,
    default_catalog,
    load_reference,
    save_catalog,
)
from regimetrics.cli import main
from regimetrics.io import read_comparison_table, read_indicator_column, write_comparison_table

SCENARIO = {
    "seed": 42,
    "periods": 30,
    "processes": [
        {"name": "logging", "channels": 2, "base_level": 120.0, "amplitude": 15.0,
         "period_length": 12, "noise_scale": 4.0},
        {"name": "river-delivery", "channels": 1, "base_level": 60.0, "amplitude": 8.0,
         "period_length": 6, "noise_scale": 2.0},
        {"name": "production", "channels": 2, "base_level": 200.0, "amplitude": 25.0,
         "period_length": 12, "noise_scale": 6.0},
    ],
    "intervention_period": 7,
    "intervention_cost_per_period": 10.0,
}


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


def run(argv):
    return main([str(arg) for arg in argv])


def test_verify_reference_passes(capsys):
    assert run(["verify-reference"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4
    assert "[FAIL]" not in out


def test_verify_reference_fails_on_perturbed_table(tmp_path, capsys):
    table, totals = load_reference()
    dv = table.delta.copy()
    dv[0] += 0.5
    bad = RegimeComparison(periods=table.periods, basic=table.basic, treated=table.treated, delta=dv)
    path = write_comparison_table(tmp_path / "bad.csv", bad, totals)
    assert run(["verify-reference", "--file", path]) == 1
    assert "[FAIL] row-deltas" in capsys.readouterr().out


def test_verify_reference_passes_a_copy_of_the_bundled_table(tmp_path, capsys):
    bundled = Path(regimetrics.__file__).parent / "data" / "reference_regimes.csv"
    copy = tmp_path / "copy.csv"
    copy.write_bytes(bundled.read_bytes())
    assert run(["verify-reference", "--file", copy]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3
    assert "within 0.02" in out and "(slack 0.3)" in out


def compare_output(tmp_path, scenario_path):
    data = tmp_path / "data"
    run(["generate", "--config", scenario_path, "--output-dir", data])
    out = tmp_path / "cmp"
    assert run(["compare", "--basic", data / "events_baseline.csv",
                "--treated", data / "events_treated.csv",
                "--window", "5", "--output-dir", out]) == 0
    return out / "comparison.csv"


def test_verify_reference_audits_a_compare_output(tmp_path, scenario_path, capsys):
    table = compare_output(tmp_path, scenario_path)
    capsys.readouterr()
    assert run(["verify-reference", "--file", table]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3
    assert "[FAIL]" not in out
    assert "all 25 rows within 0" in out


@pytest.mark.parametrize("column", [1, 3], ids=["v_basic", "dv"])
def test_verify_reference_fails_on_a_one_ulp_change(tmp_path, scenario_path, capsys, column):
    table = compare_output(tmp_path, scenario_path)
    lines = table.read_text().splitlines()
    assert lines[1].split(",")[column] in ("v_basic", "dv")
    row = lines[10].split(",")
    row[column] = repr(np.nextafter(float(row[column]), np.inf).item())
    lines[10] = ",".join(row)
    table.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["verify-reference", "--file", table]) == 1
    assert f"[FAIL] row-deltas: rows off by more than 0: t={row[0]}" in capsys.readouterr().out


def test_verify_reference_needs_a_totals_directive(tmp_path, capsys):
    table = tmp_path / "comparison.csv"
    table.write_text("t,v_basic,v_ddescr,dv\n3,1.5,2.5,1.0\n")
    assert run(["verify-reference", "--file", table]) == 1
    assert capsys.readouterr().err == (
        f"error: {table}: comparison table has no '# totals:' directive to audit\n"
    )


def test_catalog_listing(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "catalog OK: 15 entries" in out
    assert "Forming judgments" in out


def test_catalog_skill_lookup(capsys):
    assert run(["catalog", "--skill", "2.4"]) == 0
    assert "Communication" in capsys.readouterr().out


def test_catalog_unknown_skill_is_an_error(capsys):
    assert run(["catalog", "--skill", "9.9"]) == 1
    assert "error:" in capsys.readouterr().err


def test_catalog_file_structure_error_names_the_file(tmp_path, capsys):
    catalog = save_catalog(default_catalog(), tmp_path / "catalog.csv")
    lines = catalog.read_text().splitlines(keepends=True)
    catalog.write_text("".join(lines[:-1]))
    assert run(["catalog", "--file", catalog]) == 1
    assert capsys.readouterr().err == (
        f"error: {catalog}: catalog must have exactly 15 entries, got 14\n"
    )


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run(["frobnicate"])
    assert excinfo.value.code != 0


def test_analyze_rejects_window_of_one(tmp_path, scenario_path, capsys):
    assert run(["generate", "--config", scenario_path, "--output-dir", tmp_path / "data"]) == 0
    code = run(
        ["analyze", "--events", tmp_path / "data" / "events_baseline.csv",
         "--window", "1", "--output-dir", tmp_path / "out"]
    )
    assert code == 1
    assert "window length" in capsys.readouterr().err


def test_generate_analyze_compare_pipeline(tmp_path, scenario_path, capsys):
    data = tmp_path / "data"
    assert run(["generate", "--config", scenario_path, "--output-dir", data]) == 0
    assert (data / "events_baseline.csv").exists()
    assert (data / "events_treated.csv").exists()

    out = tmp_path / "cmp"
    code = run(
        ["compare", "--basic", data / "events_baseline.csv",
         "--treated", data / "events_treated.csv",
         "--window", "5", "--mode", "standardized", "--output-dir", out]
    )
    assert code == 0
    comparison, _ = read_comparison_table(out / "comparison.csv")
    # windows lying entirely before the intervention period show no delta
    before = comparison.periods <= SCENARIO["intervention_period"]
    assert before.any()
    assert np.array_equal(comparison.delta[before], np.zeros(before.sum()))


def test_compare_accepts_indicator_outputs(tmp_path, scenario_path):
    data = tmp_path / "data"
    run(["generate", "--config", scenario_path, "--output-dir", data])
    for name in ("baseline", "treated"):
        code = run(
            ["analyze", "--events", data / f"events_{name}.csv",
             "--window", "5", "--output-dir", tmp_path / name]
        )
        assert code == 0
    out_ind = tmp_path / "cmp_from_indicators"
    code = run(
        ["compare", "--basic", tmp_path / "baseline" / "indicators.csv",
         "--treated", tmp_path / "treated" / "indicators.csv",
         "--window", "5", "--output-dir", out_ind]
    )
    assert code == 0
    out_events = tmp_path / "cmp_from_events"
    run(
        ["compare", "--basic", data / "events_baseline.csv",
         "--treated", data / "events_treated.csv",
         "--window", "5", "--output-dir", out_events]
    )
    assert (out_ind / "comparison.csv").read_bytes() == (
        out_events / "comparison.csv"
    ).read_bytes()


def test_analyze_with_mapping(tmp_path, scenario_path, capsys):
    data = tmp_path / "data"
    run(["generate", "--config", scenario_path, "--output-dir", data])
    mapping = tmp_path / "mapping.csv"
    mapping.write_text(
        "# budget: 5669650\n"
        "# cost: 1.1 = 28208\n"
        "competency_id,channel_label,flag\n"
        "1.1,logging.1,1\n"
        "1.1,production.1,1\n"
    )
    code = run(
        ["analyze", "--events", data / "events_treated.csv", "--mapping", mapping,
         "--window", "5", "--output-dir", tmp_path / "out"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "budget: 28208 of 5.66965e+06" in out
    assert "masked channels: logging.2, river-delivery.1, production.2" in out


def test_analyze_mapping_over_budget_fails(tmp_path, scenario_path, capsys):
    data = tmp_path / "data"
    run(["generate", "--config", scenario_path, "--output-dir", data])
    mapping = tmp_path / "mapping.csv"
    mapping.write_text(
        "# budget: 10\n"
        "# cost: 1.1 = 28208\n"
        "competency_id,channel_label,flag\n"
        "1.1,logging.1,1\n"
    )
    code = run(
        ["analyze", "--events", data / "events_treated.csv", "--mapping", mapping,
         "--window", "5", "--output-dir", tmp_path / "out"]
    )
    assert code == 1
    assert "exceed budget" in capsys.readouterr().err


def test_budget_error_names_the_mapping_file_and_its_budget_line(
    tmp_path, scenario_path, capsys
):
    data = tmp_path / "data"
    run(["generate", "--config", scenario_path, "--output-dir", data])
    mapping = tmp_path / "mapping.csv"
    mapping.write_text(
        "# cost: 1.1 = 15\n"
        "\n"
        "# budget: 10\n"
        "competency_id,channel_label,flag\n"
        "1.1,logging.1,1\n"
    )
    code = run(
        ["analyze", "--events", data / "events_treated.csv", "--mapping", mapping,
         "--window", "5", "--output-dir", tmp_path / "out"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {mapping}:3: competency costs 15 exceed budget 10\n"
    assert not (tmp_path / "out").exists()


def test_missing_events_file_is_an_error(tmp_path, capsys):
    code = run(["analyze", "--events", tmp_path / "nope.csv", "--output-dir", tmp_path / "o"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def write_plot(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def stated(k, mode="raw"):
    """The closing directive lines of an indicator output made with window k and mode."""
    return [f"# k: {k}", f"# mode: {mode}"]


def test_analyze_rejects_padded_plot_file(tmp_path, scenario_path, capsys):
    data = tmp_path / "data"
    run(["generate", "--config", scenario_path, "--output-dir", data])
    run(["analyze", "--events", data / "events_treated.csv", "--window", "5",
         "--pad-warmup", "--output-dir", tmp_path / "padded"])
    code = run(["analyze", "--events", tmp_path / "padded" / "plot.csv",
                "--output-dir", tmp_path / "out"])
    assert code == 1
    assert "plot.csv:1: header of an indicator output" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_and_reader_agree_on_plot_file_with_directive(tmp_path, capsys):
    plot = write_plot(tmp_path / "plot.csv", ["# run: 7", "t,v_total", "6,1.0", "7,2.0"])
    with pytest.raises(ParseError, match="unknown directive") as excinfo:
        read_indicator_column(plot, 5, "raw")
    code = run(["compare", "--basic", plot, "--treated", plot, "--window", "5",
                "--output-dir", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {excinfo.value}\n"


def test_compare_rejects_plot_file_with_periods_out_of_order(tmp_path, capsys):
    plot = write_plot(tmp_path / "plot.csv", ["t,v_total", "5,1.0", "3,2.0", "3,3.0", *stated(4)])
    code = run(["compare", "--basic", plot, "--treated", plot, "--window", "4",
                "--output-dir", tmp_path / "out"])
    assert code == 1
    assert "plot.csv:3: period 3 precedes the first period 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def analyze_to(tmp_path, scenario_path, regime, window, *flags):
    data = tmp_path / "data"
    if not data.exists():
        run(["generate", "--config", scenario_path, "--output-dir", data])
    out = tmp_path / f"analyze_{regime}"
    assert run(["analyze", "--events", data / f"events_{regime}.csv",
                "--window", window, *flags, "--output-dir", out]) == 0
    return out


def test_compare_reads_padded_plot_files_from_after_the_warm_up(tmp_path, scenario_path):
    basic = analyze_to(tmp_path, scenario_path, "baseline", "4", "--pad-warmup")
    treated = analyze_to(tmp_path, scenario_path, "treated", "4", "--pad-warmup")
    out = tmp_path / "cmp"
    assert run(["compare", "--basic", basic / "plot.csv", "--treated", treated / "plot.csv",
                "--window", "4", "--pad-warmup", "--output-dir", out]) == 0
    for name in ("plot_basic.csv", "plot_ddescr.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[:5] == ["t,v_total", "1,0.0", "2,0.0", "3,0.0", "4,0.0"]
        assert lines[-2:] == stated(4)
        periods, _ = read_indicator_column(out / name, 4, "raw")
        assert periods.tolist() == list(range(5, 31))
    events = tmp_path / "cmp_events"
    run(["compare", "--basic", tmp_path / "data" / "events_baseline.csv",
         "--treated", tmp_path / "data" / "events_treated.csv",
         "--window", "4", "--pad-warmup", "--output-dir", events])
    for name in ("comparison.csv", "plot_basic.csv", "plot_ddescr.csv"):
        assert (out / name).read_bytes() == (events / name).read_bytes()


def test_compare_rejects_indicator_output_of_another_window(tmp_path, scenario_path, capsys):
    made = analyze_to(tmp_path, scenario_path, "baseline", "12")
    code = run(["compare", "--basic", made / "indicators.csv", "--treated", made / "indicators.csv",
                "--window", "5", "--output-dir", tmp_path / "out"])
    assert code == 1
    err = capsys.readouterr().err
    line = (made / "indicators.csv").read_text().splitlines().index("# k: 12") + 1
    assert f"error: {made / 'indicators.csv'}:{line}: indicator output of k 12, not 5\n" == err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "window, mode, directive, message",
    [("5", "raw", "# mode: standardized", "mode standardized, not raw"),
     ("4", "standardized", "# k: 5", "k 5, not 4")],
    ids=["mode", "window"],
)
def test_compare_rejects_indicator_outputs_stating_another_run(
    tmp_path, scenario_path, capsys, window, mode, directive, message
):
    # Both regimes' outputs state window 5 and standardized mode.
    basic = analyze_to(tmp_path, scenario_path, "baseline", "5", "--mode", "standardized")
    treated = analyze_to(tmp_path, scenario_path, "treated", "5", "--mode", "standardized")
    for name in ("indicators.csv", "plot.csv"):
        code = run(["compare", "--basic", basic / name, "--treated", treated / name,
                    "--window", window, "--mode", mode, "--output-dir", tmp_path / "out"])
        assert code == 1
        line = (basic / name).read_text().splitlines().index(directive) + 1
        expected = f"error: {basic / name}:{line}: indicator output of {message}\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "out").exists()


def test_compare_rejects_indicator_output_without_directives(tmp_path, capsys):
    # An output written before outputs stated their run: t,v_total from period 1.
    plot = write_plot(tmp_path / "plot.csv", ["t,v_total", "1,0.0", "2,0.0", "3,1.5"])
    code = run(["compare", "--basic", plot, "--treated", plot, "--window", "2",
                "--output-dir", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {plot}:1: missing '# k:' directive: regenerate this indicator output\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "rows, period",
    [
        (["1,0.0", "2,0.0", "3,0.5", "4,1.0"], 3),  # starts at 1 but warm-up row 3 is not zero
        (["2,0.0", "3,1.0"], 2),  # starts inside the warm-up
        (["1,0.5", "2,0.0", "3,0.0", "4,1.0"], 1),  # starts at 1 but warm-up row 1 is not zero
    ],
)
def test_compare_rejects_plot_file_that_fits_no_window_form(tmp_path, capsys, rows, period):
    plot = write_plot(tmp_path / "plot.csv", ["t,v_total", *rows, *stated(3)])
    code = run(["compare", "--basic", plot, "--treated", plot, "--window", "3",
                "--output-dir", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: {plot}: period {period} does not fit window 3: an indicator output starts "
        "at period 4, or at 1 with zero rows 1..3\n"
    )
    assert not (tmp_path / "out").exists()


def test_compare_rejects_plot_file_with_nothing_after_the_warm_up(tmp_path, capsys):
    plot = write_plot(tmp_path / "plot.csv", ["t,v_total", "1,0.0", "2,0.0", *stated(2)])
    code = run(["compare", "--basic", plot, "--treated", plot, "--window", "2",
                "--output-dir", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {plot}:1: no period after the warm-up 1..2\n"


def test_non_utf8_input_is_an_error_not_a_traceback(tmp_path, scenario_path, capsys):
    events = tmp_path / "events.csv"
    events.write_bytes(b"t,a\n1,1.0\n2,2.0\n3,\xff\n")
    assert run(["analyze", "--events", events, "--output-dir", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == (
        f"error: {events}:4: not UTF-8 text: byte 0xff (invalid start byte)\n"
    )
    config = tmp_path / "scenario.json"
    config.write_bytes(b'{"seed": 1,\n "periods": "\xfe"}')
    assert run(["generate", "--config", config, "--output-dir", tmp_path / "gen"]) == 1
    assert f"error: {config}:2: not UTF-8 text" in capsys.readouterr().err
    assert run(["compare", "--basic", events, "--treated", events,
                "--output-dir", tmp_path / "cmp"]) == 1
    assert f"error: {events}:4: not UTF-8 text" in capsys.readouterr().err
    assert run(["catalog", "--file", events]) == 1
    assert f"error: {events}:4: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "process, key, value, message",
    [
        (None, "periods", True, "scenario periods must be an integer, got True"),
        (None, "periods", 2.5, "scenario periods must be an integer, got 2.5"),
        (None, "seed", "1", "scenario seed must be an integer, got '1'"),
        (0, "channels", "2", "process channels must be an integer, got '2'"),
        (0, "noise_scale", "1", "process noise_scale must be a finite number, got '1'"),
        (None, "intervention_period", 3.5,
         "scenario intervention_period must be an integer, got 3.5"),
        (None, "seed", 1.5, "scenario seed must be an integer, got 1.5"),
        (1, "name", 5, "process name must be a string, got 5"),
    ],
    ids=["periods-true", "periods-2.5", "seed-text", "channels-text", "noise-text",
         "intervention-3.5", "seed-1.5", "name-5"],
)
def test_generate_rejects_scenario_values_of_the_wrong_type(
    tmp_path, capsys, process, key, value, message
):
    document = json.loads(json.dumps(SCENARIO))
    (document if process is None else document["processes"][process])[key] = value
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(document))
    assert run(["generate", "--config", config, "--output-dir", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_generate_refuses_labels_that_analyze_would_refuse(tmp_path, capsys):
    # "river-delivery.1" becomes " logging.1", which reads back as a second "logging.1".
    document = json.loads(json.dumps(SCENARIO))
    document["processes"][1]["name"] = " logging"
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(document))
    out = tmp_path / "out"
    assert run(["generate", "--config", config, "--output-dir", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'events_baseline.csv'}: channel labels must be unique\n"
    )
    assert not out.exists()


def test_generate_refuses_labels_that_would_read_back_renamed(tmp_path, capsys):
    # The reader strips header fields, so " a.1" would come back as "a.1".
    document = json.loads(json.dumps(SCENARIO))
    document["processes"][1]["name"] = " a"
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(document))
    out = tmp_path / "out"
    assert run(["generate", "--config", config, "--output-dir", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'events_baseline.csv'}: channel label ' a.1' would read back as 'a.1'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "directives, rows, line, message",
    [
        (["# budget: -1"], ["1.1,logging.1,1"], 1, "budget must be finite and non-negative"),
        (["# budget: 10", "# cost: 1.1 = -5"], ["1.1,logging.1,1"], 2,
         "cost must be finite and non-negative"),
        (["# budget: 10"], ["1.1,logging.1,1", "9.9,logging.2,0", "9.9,production.1,1"], 4,
         "competency id not in catalog: 9.9"),
    ],
    ids=["negative-budget", "negative-cost", "unknown-id"],
)
def test_mapping_value_errors_name_the_file_and_line(
    tmp_path, scenario_path, capsys, directives, rows, line, message
):
    data = tmp_path / "data"
    run(["generate", "--config", scenario_path, "--output-dir", data])
    mapping = write_plot(tmp_path / "mapping.csv",
                         [*directives, "competency_id,channel_label,flag", *rows])
    code = run(["analyze", "--events", data / "events_treated.csv", "--mapping", mapping,
                "--window", "5", "--output-dir", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {mapping}:{line}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cell, problem",
    [("oops", "'oops' is not a number"), ("inf", "'inf' is not finite"),
     ("", "'' is not a number")],
    ids=["oops", "inf", "empty"],
)
def test_indicator_output_cells_must_be_finite_numbers(
    tmp_path, scenario_path, capsys, cell, problem
):
    table = analyze_to(tmp_path, scenario_path, "baseline", "2") / "indicators.csv"
    lines = table.read_text().splitlines()
    assert lines[0].split(",")[2] == "logging.2" and lines[-2:] == stated(2)
    row = lines[3].split(",")
    row[2] = cell
    lines[3] = ",".join(row)
    table.write_text("\n".join(lines) + "\n")
    expected = f"{table}:4: column 'logging.2': {problem}"
    with pytest.raises(ParseError) as excinfo:
        read_indicator_column(table, 2, "raw")
    assert str(excinfo.value) == expected
    capsys.readouterr()
    code = run(["compare", "--basic", table, "--treated", table, "--window", "2",
                "--output-dir", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "out").exists()


def test_compare_names_both_files_when_period_ranges_differ(tmp_path, capsys):
    rows = ["t,a,b", *(f"{t},{t * t % 7}.5,{t % 3}.25" for t in range(1, 7))]
    six = write_plot(tmp_path / "six.csv", rows)
    five = write_plot(tmp_path / "five.csv", rows[:-1])
    code = run(["compare", "--basic", six, "--treated", five, "--window", "2",
                "--output-dir", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {six} vs {five}: regimes cover different period ranges: "
        "basic 3..6, treated 3..5\n"
    )
    assert not (tmp_path / "out").exists()


def test_analyze_window_error_names_the_events_file(tmp_path, capsys):
    short = write_plot(tmp_path / "short.csv", ["t,a,b", "1,1.0,2.0", "2,3.0,1.0", "3,2.0,2.0"])
    code = run(["analyze", "--events", short, "--output-dir", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {short}: period 3 has only 2 preceding periods, window needs 12\n"
    )
    assert not (tmp_path / "out").exists()


def test_compare_window_error_names_the_input(tmp_path, capsys):
    short = write_plot(tmp_path / "short.csv", ["t,a", "1,1.0"])
    five = write_plot(tmp_path / "five.csv", ["t,a", *(f"{t},{t}.5" for t in range(1, 6))])
    code = run(["compare", "--basic", short, "--treated", five, "--window", "2",
                "--output-dir", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {short}: period 1 has only 0 preceding periods, window needs 2\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "window, flags, name",
    [
        ("3", ["--pad-warmup"], "plot.csv"),  # padded plot data fits window 1
        ("5", [], "indicators.csv"),  # starts at period 6, which window 1 does not fit
    ],
    ids=["padded-plot", "unpadded-window-5"],
)
def test_compare_rejects_window_of_one_with_the_model_rule(
    tmp_path, scenario_path, capsys, window, flags, name
):
    # Whether or not the files fit window 1, the window length rule is what stops the run.
    basic = analyze_to(tmp_path, scenario_path, "baseline", window, *flags)
    treated = analyze_to(tmp_path, scenario_path, "treated", window, *flags)
    code = run(["compare", "--basic", basic / name, "--treated", treated / name,
                "--window", "1", "--output-dir", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: window length must be at least 2 (the coefficient divisor is k-1), got 1\n"
    )
    assert not (tmp_path / "out").exists()
