"""Tests of the benchmark itself, at tiny shapes that run in seconds.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import sys

import pytest

import check
import run

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((run.HERE / "spec.json").read_text(encoding="utf-8"))
K = 4


def tiny_spec() -> dict:
    """The desk workload's commands on a 40 x 4 scenario."""
    inputs = {"kind": "scenario", "periods": 40, "processes": 2, "channels_per_process": 2,
              "masked_channels": 1}
    desk = SPEC["workloads"]["desk"]
    return {"window": K, "workloads": {"tiny": {"inputs": inputs, "commands": desk["commands"]}}}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One checked run of the tiny pipeline, with its outputs left in place."""
    spec = tiny_spec()
    work = tmp_path_factory.mktemp("work")
    inputs = run.make_inputs(spec["workloads"]["tiny"]["inputs"], 5, work)
    paths = {key: str(path) for key, path in inputs.paths.items()}
    commands = [[a.format(k=K, **paths) for a in argv] for argv in spec["workloads"]["tiny"]["commands"]]
    pipelines = run.Pipelines(run.Runner(work), inputs, commands, K)
    runs = pipelines.run(traced=True)
    assert pipelines.problems == []
    return pipelines, runs


def test_workloads_match_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(SPEC["workloads"])


@pytest.mark.parametrize("trace, declared", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_prints_with_name_and_unit(tmp_path, trace, declared):
    lines, result = run.benchmark(tiny_spec(), "tiny", 3, 0.01, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[1:2] == [name] and f" {unit}" in line for line in lines), name
    if not trace:
        assert any(line.startswith("tiny failed_ratio 0.000000") for line in lines)


def test_same_seed_gives_same_inputs(tmp_path):
    workload = SPEC["workloads"]["wide"]["inputs"] | {"periods": 20, "channels": 6, "masked_channels": 2}
    first = run.make_inputs(workload, 9, tmp_path / "a")
    second = run.make_inputs(workload, 9, tmp_path / "b")
    for name in ("mapping.csv", "gen/events_baseline.csv", "gen/events_treated.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert first.masked == second.masked


@pytest.mark.parametrize("cells", [
    {3: lambda v: v + 0.5},  # one channel cell; the row total no longer matches
    {1: lambda v: v + 0.5, -1: lambda v: v + 0.5},  # channel and total kept additive
])
def test_output_check_flags_a_corrupted_indicator_cell(pipeline, tmp_path, cells):
    pipelines, _ = pipeline
    out_dir = pipelines.out_dirs[1]
    saved = tmp_path / "indicators.csv"
    shutil.copy(out_dir / "indicators.csv", saved)
    try:
        lines = saved.read_text().splitlines()
        row = lines[1].split(",")  # first evaluable period, always in the oracle sample
        for column, corrupt in cells.items():
            row[column] = repr(corrupt(float(row[column])))
        lines[1] = ",".join(row)
        (out_dir / "indicators.csv").write_text("\n".join(lines) + "\n")
        problems = check.check_pipeline(pipelines.inputs, pipelines.commands, K)
    finally:
        shutil.copy(saved, out_dir / "indicators.csv")
    assert problems[0] == [] and problems[2] == []
    assert problems[1] and all(p.startswith("analyze:") for p in problems[1])


def test_output_check_flags_a_corrupted_generated_cell(pipeline, tmp_path):
    pipelines, _ = pipeline
    events = pipelines.inputs.paths["gen"] / "events_baseline.csv"
    saved = tmp_path / "events.csv"
    shutil.copy(events, saved)
    try:
        text = saved.read_text()
        events.write_text(text.replace("\n2,", "\n2,1", 1))
        problems = check.check_pipeline(pipelines.inputs, pipelines.commands[:1], K)
    finally:
        shutil.copy(saved, events)
    assert problems[0] and problems[0][0].startswith("generate:")


def test_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = bytearray(150 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # touch every page
    measured = run.Runner(tmp_path).spawn(["catalog"])
    assert measured["code"] == 0 and measured["stdout"].startswith("catalog OK")
    assert 0 < measured["rss_mb"] < 120


def test_child_spans_nest_inside_their_command_span(pipeline):
    _, runs = pipeline
    for command in runs:
        spans = command["spans"]
        (main,) = [s for s in spans if s["name"] == "cli.main"]
        children = [s for s in spans if s["parent"] == "cli.main"]
        assert children and {s["command"] for s in spans} == {main["command"]}
        assert all(main["start"] <= s["start"] <= s["end"] <= main["end"] for s in children)
        busy = sum(s["end"] - s["start"] for s in children)
        assert busy <= main["end"] - main["start"]
        metrics = run.layer_metrics([command])
        layers = sum(v for name, v in metrics.items() if name.endswith(".busy_s"))
        assert metrics["cli.self_s"] + layers == pytest.approx(main["end"] - main["start"], abs=1e-9)


def test_layer_metrics_count_work_per_span(pipeline):
    _, runs = pipeline
    metrics = run.layer_metrics(runs)
    assert metrics["cli.main.calls"] == 3 and metrics["cli.main.failed"] == 0
    assert metrics["engine.indicator_series.calls"] == 3
    assert metrics["synth.paired_scenarios.calls"] == 1
    assert metrics["io.write_events.calls"] == 2
    assert all(metrics[f"{span}.busy_s"] > 0 for span in ("io.parse_events", "engine.indicator_series"))
