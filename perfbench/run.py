"""Benchmark of the regimetrics CLI pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload desk wide long --seed 1 --seconds 30

A workload (see ``spec.json``) is a sequence of CLI commands over inputs
made from ``--seed``. The benchmark is a closed loop with one client: it
runs the commands one after another, each in a fresh
``python -m regimetrics.cli`` process on the checkout's ``src`` started
and timed by ``launch.py``, and starts the next pipeline only after the
last one ended. Nothing else runs
beside it. After each pipeline it runs ``regimetrics catalog`` a few
times; their median wall time is ``setup_s``, the fixed cost of every
invocation. Pipelines repeat until ``--seconds`` of measured time have
passed, so at least one runs.

With ``--trace 0`` every command runs untraced and the result holds the
end-to-end metrics that every workload has (``E2E_METRICS``); the report
lines add the time of each command the workload runs and
``failed_ratio``. With ``--trace 1`` untraced and traced pipelines
alternate; the traced ones run each command through ``traced.py`` and
the result holds per-layer metrics, summed over a pipeline's commands,
plus ``trace.overhead_s``, the traced minus the untraced pipeline time.
A layer that is not on the workload's path reports zero.

Outputs are checked outside the timed region (see ``check.py``): the
first pipeline against independent recomputations, every later one for
byte identity with the first. A command fails when it exits nonzero or
its outputs fail the check. Each workload prints machine facts and every
metric by name and unit, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``, which ends stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from check import check_pipeline
from inputs import make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# catalog runs after each pipeline: setup_s is a median of about 0.25 s that
# drifts with the host, so it needs many samples per run.
SETUP_SPAWNS = 8
# The end-to-end metrics that every workload reports in its result.
E2E_METRICS = ("pipeline_s", "analyze_s", "peak_rss_mb", "setup_s")
# Spans recorded by traced.py and the rates each reports: (work key, scale, metric, unit).
SPANS = {
    "io.parse_events": [("bytes", 1e-6, "mb_per_s", "MB/s")],
    "io.write_events": [("bytes", 1e-6, "mb_per_s", "MB/s")],
    "io.emit_report": [("bytes", 1e-6, "mb_per_s", "MB/s")],
    "io.parse_mapping": [],
    "io.parse_scenario": [],
    "catalog.default_catalog": [],
    "model.check_budget": [],
    "model.apply_mapping": [],
    "engine.indicator_series": [
        ("periods", 1.0, "periods_per_s", "1/s"),
        ("macs", 1e-9, "gmac_per_s", "GMAC/s"),
    ],
    "engine.compare_regimes": [],
    "synth.paired_scenarios": [("draws", 1e-6, "mdraws_per_s", "Mdraws/s")],
}
RATE_UNITS = {f"{span}.{rate[2]}": rate[3] for span, rates in SPANS.items() for rate in rates}

FACTS_CODE = """
import ctypes, json, sys, numpy, regimetrics
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()}
for lib in libs:
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        get_threads = getattr(ctypes.CDLL(lib), name, None)
        threads = get_threads() if get_threads else threads
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": threads, "regimetrics": regimetrics.__file__}))
"""


class Runner:
    """Spawns CLI processes on the checkout's package, each through ``launch.py``."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def spawn(self, argv: list[str], spans: Path | None = None) -> dict:
        """Run one command to completion: wall seconds, peak RSS in MB, exit code, output."""
        self.count += 1
        out, err, measured = (self.work / name for name in ("stdout.txt", "stderr.txt", "launch.json"))
        if spans is None:
            cmd = [sys.executable, "-m", "regimetrics.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced.py"), str(spans), str(self.count), *argv]
        measured.unlink(missing_ok=True)
        with out.open("wb") as stdout, err.open("wb") as stderr:
            subprocess.run(
                [sys.executable, str(HERE / "launch.py"), str(measured), *cmd],
                cwd=self.work, env=self.env, stdout=stdout, stderr=stderr, check=True,
            )
        return {
            **json.loads(measured.read_text(encoding="utf-8")),
            "stdout": out.read_text(encoding="utf-8", errors="replace"),
            "stderr": err.read_text(encoding="utf-8", errors="replace").strip(),
        }


def output_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(runner: Runner, input_bytes: dict) -> dict:
    child = subprocess.run(
        [sys.executable, "-c", FACTS_CODE], env=runner.env, capture_output=True, text=True,
        check=True,
    )
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ) if (ROOT / ".git").exists() else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **json.loads(child.stdout),
        "git_sha": git.stdout.strip() if git and git.returncode == 0 else None,
        "source_sha256": source_digest(),
        "input_bytes": input_bytes,
    }


def tail_percentile(values: list[float]):
    """(p, value) for the higher of p90 and p75 with at least ten samples beyond it."""
    for p in (90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


class Pipelines:
    """Runs a workload's commands and keeps what the metrics and checks need."""

    def __init__(self, runner: Runner, inputs, commands: list[list[str]], k: int):
        self.runner, self.inputs, self.commands, self.k = runner, inputs, commands, k
        self.out_dirs = [Path(argv[argv.index("--output-dir") + 1]) for argv in commands]
        self.digests: list[str] | None = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run(self, traced: bool = False) -> list[dict]:
        for out_dir in self.out_dirs:
            shutil.rmtree(out_dir, ignore_errors=True)
        runs = []
        for index, argv in enumerate(self.commands):
            spans = self.runner.work / f"spans-{index}.json" if traced else None
            run = self.runner.spawn(argv, spans)
            if traced:
                run["spans"] = json.loads(spans.read_text()) if spans.is_file() else []
            runs.append(run)
        self._check(runs)
        return runs

    def _check(self, runs: list[dict]) -> None:
        if self.digests is None:
            results = check_pipeline(self.inputs, self.commands, self.k)
        else:
            results = [
                [] if output_digest(d) == expected else [f"{argv[0]}: output differs from run 1"]
                for argv, d, expected in zip(self.commands, self.out_dirs, self.digests)
            ]
        for argv, run, problems in zip(self.commands, runs, results):
            if run["code"] != 0:
                problems = [f"{argv[0]}: exit code {run['code']}: {run['stderr'][-300:]}", *problems]
            self.attempted += 1
            self.failed += bool(problems)
            self.problems += problems
        if self.digests is None and not self.failed:
            self.digests = [output_digest(d) for d in self.out_dirs]

    def setup(self) -> float:
        run = self.runner.spawn(["catalog"])
        self.attempted += 1
        if run["code"] != 0 or not run["stdout"].startswith("catalog OK"):
            self.failed += 1
            self.problems.append(f"catalog: exit code {run['code']}")
        return run["wall"]


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline, summed over its commands.

    A layer not on the workload's path reports zero time, calls and rate.
    """
    spans = [span for run in runs for span in run["spans"]]
    metrics = {"cli.import_s": 0.0, "cli.self_s": 0.0, "cli.main.calls": 0, "cli.main.failed": 0}
    for span in spans:
        duration = span["end"] - span["start"]
        if span["name"] == "cli.import":
            metrics["cli.import_s"] += duration
        elif span["name"] == "cli.main":
            children = [s for s in spans if s["parent"] == "cli.main" and s["command"] == span["command"]]
            metrics["cli.self_s"] += duration - math.fsum(s["end"] - s["start"] for s in children)
            metrics["cli.main.calls"] += 1
            metrics["cli.main.failed"] += span["failed"]
    for name, rates in SPANS.items():
        mine = [span for span in spans if span["name"] == name]
        busy = math.fsum(span["end"] - span["start"] for span in mine)
        metrics[f"{name}.busy_s"] = busy
        metrics[f"{name}.calls"] = len(mine)
        metrics[f"{name}.failed"] = sum(span["failed"] for span in mine)
        for key, scale, metric, _ in rates:
            work = sum(span.get(key, 0) for span in mine) * scale
            metrics[f"{name}.{metric}"] = work / busy if busy else 0.0
    return metrics


def layer_unit(name: str) -> str:
    if name in RATE_UNITS:
        return RATE_UNITS[name]
    return "count" if name.endswith((".calls", ".failed")) else "s"


def measure(pipelines: Pipelines, seconds: float, trace: bool):
    """Closed loop: repeat pipelines until ``seconds`` of measured time have passed."""
    samples: dict[str, list[float]] = defaultdict(list)
    layers: list[dict] = []
    measured = 0.0
    while measured < seconds:
        runs = pipelines.run()
        iteration = sum(run["wall"] for run in runs)
        samples["pipeline_s"].append(iteration)
        for argv, run in zip(pipelines.commands, runs):
            samples[f"{argv[0]}_s"].append(run["wall"])
        samples["peak_rss_mb"].append(max(run["rss_mb"] for run in runs))
        if trace:
            traced = pipelines.run(traced=True)
            samples["traced_pipeline_s"].append(sum(run["wall"] for run in traced))
            layers.append(layer_metrics(traced))
            iteration += samples["traced_pipeline_s"][-1]
        else:
            setup = [pipelines.setup() for _ in range(SETUP_SPAWNS)]
            samples["setup_s"] += setup
            iteration += sum(setup)
        measured += iteration
    return samples, layers


def benchmark(spec: dict, name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run workload ``name`` of ``spec`` in ``work``; return (report lines, result)."""
    workload, k = spec["workloads"][name], spec["window"]
    inputs = make_inputs(workload["inputs"], seed, work)
    input_bytes = {
        str(p.relative_to(work)): p.stat().st_size for p in sorted(work.rglob("*")) if p.is_file()
    }
    paths = {key: str(path) for key, path in inputs.paths.items()}
    commands = [[arg.format(k=k, **paths) for arg in argv] for argv in workload["commands"]]
    runner = Runner(work)
    facts = machine_facts(runner, input_bytes)
    pipelines = Pipelines(runner, inputs, commands, k)
    runner.spawn(["catalog"])  # warm the bytecode and file caches; untimed
    samples, layers = measure(pipelines, seconds, trace)

    lines = ["facts " + json.dumps({"workload": name, "seed": seed, **facts})]
    lines += [f"problem: {problem}" for problem in pipelines.problems]
    metrics = {}
    if trace:
        values = {metric: statistics.median(layer[metric] for layer in layers) for metric in layers[0]}
        values["trace.overhead_s"] = statistics.median(samples["traced_pipeline_s"]) - statistics.median(
            samples["pipeline_s"]
        )
        for metric, value in values.items():
            metrics[metric] = {"value": value, "unit": layer_unit(metric)}
            lines.append(f"{name} {metric} {value:.6f} {layer_unit(metric)} (median of {len(layers)})")
    else:
        for metric, values in samples.items():
            unit = "MB" if metric == "peak_rss_mb" else "s"
            median = statistics.median(values)
            tail = tail_percentile(values)
            tail_text = f"p{tail[0]} {tail[1]:.6f} {unit}" if tail else "no tail percentile"
            lines.append(f"{name} {metric} median {median:.6f} {unit}, {tail_text}, n={len(values)}")
            if metric in E2E_METRICS:
                metrics[metric] = {"value": median, "unit": unit}
        ratio = pipelines.failed / pipelines.attempted
        lines.append(f"{name} failed_ratio {ratio:.6f} ({pipelines.failed} of {pipelines.attempted} commands)")
    result = {
        "correct": pipelines.failed == 0,
        "attempted": pipelines.attempted,
        "failed": pipelines.failed,
        "metrics": metrics,
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", required=True, help="one or more workloads, in order")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "regimetrics" / "cli.py").is_file():
        print(f"error: no regimetrics package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    unknown = [name for name in args.workload if name not in spec["workloads"]]
    if unknown:
        print(f"error: unknown workload {', '.join(unknown)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the package under test, for the output checks
    for name in args.workload:
        work = ROOT / ".perfbench_work" / f"{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            lines, result = benchmark(spec, name, args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
