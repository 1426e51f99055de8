"""Seeded inputs for the benchmark workloads.

One integer seed drives everything the program receives: the scenario
JSON that ``generate`` reads, the uniform event files of the ``wide``
workload, and the competency mapping of every workload. The shapes come
from ``spec.json``; the seed only changes values, never sizes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Skill ids of the bundled Dublin Descriptors catalog that mappings use.
SKILL_IDS = ("1.1", "1.3", "2.2", "2.4", "3.1", "3.5")


@dataclass(frozen=True)
class Inputs:
    """Files written for one workload and what the output check needs."""

    labels: tuple[str, ...]
    masked: frozenset[int]
    paths: dict[str, Path]
    scenario: dict | None


def scenario_payload(rng: random.Random, periods: int, processes: int, channels: int) -> dict:
    """A scenario with a mid-series intervention; values vary with the seed."""
    return {
        "seed": rng.getrandbits(64),
        "periods": periods,
        "processes": [
            {
                "name": f"proc{i + 1}",
                "channels": channels,
                "base_level": round(rng.uniform(50.0, 250.0), 3),
                "amplitude": round(rng.uniform(5.0, 40.0), 3),
                "period_length": rng.randint(4, 24),
                "noise_scale": round(rng.uniform(1.0, 10.0), 3),
            }
            for i in range(processes)
        ],
        "intervention_period": rng.randint(periods * 2 // 5, periods * 3 // 5),
        "intervention_cost_per_period": round(rng.uniform(5.0, 20.0), 3),
    }


def mapping_text(rng: random.Random, labels, masked) -> str:
    """Mapping that flags every channel not in ``masked`` and fits the budget."""
    costs = {sid: float(rng.randint(1_000, 50_000)) for sid in SKILL_IDS}
    lines = [f"# budget: {sum(costs.values()) * 1.5!r}"]
    lines += [f"# cost: {sid} = {cost!r}" for sid, cost in costs.items()]
    lines.append("competency_id,channel_label,flag")
    for j, label in enumerate(labels):
        if j not in masked:
            lines.append(f"{rng.choice(SKILL_IDS)},{label},1")
    return "\n".join(lines) + "\n"


def events_text(labels, values: np.ndarray) -> str:
    rows = [",".join(("t", *labels))]
    rows += [",".join((str(t + 1), *map(repr, row.tolist()))) for t, row in enumerate(values)]
    return "\n".join(rows) + "\n"


def make_inputs(spec: dict, seed: int, work: Path) -> Inputs:
    """Write the workload's inputs under ``work`` and return their paths."""
    rng = random.Random(seed)
    paths = {name: work / name for name in ("gen", "analyze", "compare")}
    paths["gen"].mkdir(parents=True, exist_ok=True)
    paths["mapping"] = work / "mapping.csv"
    periods = spec["periods"]
    scenario = None
    if spec["kind"] == "scenario":
        scenario = scenario_payload(rng, periods, spec["processes"], spec["channels_per_process"])
        labels = tuple(
            f"{proc['name']}.{c + 1}" for proc in scenario["processes"] for c in range(proc["channels"])
        )
        paths["scenario"] = work / "scenario.json"
        paths["scenario"].write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
    else:
        labels = tuple(f"ch{j + 1}" for j in range(spec["channels"]))
        noise = np.random.default_rng(rng.getrandbits(64))
        for name in ("events_baseline.csv", "events_treated.csv"):
            values = 50.0 + 20.0 * noise.random((periods, len(labels)))
            (paths["gen"] / name).write_text(events_text(labels, values), encoding="utf-8")
    masked = frozenset(rng.sample(range(len(labels)), spec["masked_channels"]))
    paths["mapping"].write_text(mapping_text(rng, labels, masked), encoding="utf-8")
    return Inputs(labels=labels, masked=masked, paths=paths, scenario=scenario)
