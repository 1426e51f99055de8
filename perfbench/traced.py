"""Run one regimetrics CLI command with spans around its layer calls.

Usage: python3 traced.py SPANS_JSON COMMAND_ID CLI_ARG...

The package must be importable (the benchmark sets PYTHONPATH to the
checkout's ``src``). This script imports ``regimetrics.cli``, replaces
the names that ``cli`` calls into each layer with wrappers that record a
span, runs ``main(argv)`` inside a ``cli.main`` span and writes every
span to SPANS_JSON at exit, also when the command fails. It exits with
the command's status.

A span is ``{"name", "start", "end", "parent", "command", "failed"}``
plus the work the call did: ``bytes`` read or written, ``periods`` and
computed multiply-adds (``macs``) of the indicator kernel, or PCG32
``draws``. Work is measured after the span ends, so it costs no span time.
"""

from __future__ import annotations

import json
import os
import sys
import time

clock = time.perf_counter


def _size(path) -> int:
    return os.path.getsize(path)


def _kernel_work(result, *args, **kwargs) -> dict:
    periods = result.periods.size
    return {"periods": periods, "macs": periods * result.k * result.n**2}


# cli attribute -> (span name, work done by a successful call)
LAYER_CALLS = {
    "parse_events": ("io.parse_events", lambda result, path, *a, **kw: {"bytes": _size(path)}),
    "write_events": ("io.write_events", lambda result, *a, **kw: {"bytes": _size(result)}),
    "emit_report": ("io.emit_report", lambda result, *a, **kw: {"bytes": sum(map(_size, result))}),
    "parse_mapping": ("io.parse_mapping", None),
    "parse_scenario": ("io.parse_scenario", None),
    "default_catalog": ("catalog.default_catalog", None),
    "check_budget": ("model.check_budget", None),
    "apply_mapping": ("model.apply_mapping", None),
    "indicator_series": ("engine.indicator_series", _kernel_work),
    "compare_regimes": ("engine.compare_regimes", None),
    "paired_scenarios": (
        "synth.paired_scenarios",
        lambda result, *a, **kw: {"draws": sum(model.events.size for model in result)},
    ),
}


class Tracer:
    """Spans of one command, kept in memory until the process ends."""

    def __init__(self, command: str):
        self.command = command
        self.spans: list[dict] = []
        self.parent: str | None = None

    def record(self, name: str, start: float, end: float, failed: bool) -> dict:
        span = {
            "name": name,
            "start": start,
            "end": end,
            "parent": self.parent,
            "command": self.command,
            "failed": failed,
        }
        self.spans.append(span)
        return span

    def wrap(self, fn, name: str, work):
        def traced(*args, **kwargs):
            start = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                span = self.record(name, start, clock(), failed)
                if work is not None and not failed:
                    span.update(work(result, *args, **kwargs))

        return traced


def main(argv: list[str]) -> int:
    spans_path, command, *cli_args = argv
    tracer = Tracer(command)
    start = clock()
    try:
        import regimetrics.cli as cli

        tracer.record("cli.import", start, clock(), False)
        for attr, (name, work) in LAYER_CALLS.items():
            setattr(cli, attr, tracer.wrap(getattr(cli, attr), name, work))
        tracer.parent = "cli.main"
        start = clock()
        code = 1
        try:
            code = cli.main(cli_args)
        finally:
            end = clock()
            tracer.parent = None
            tracer.record("cli.main", start, end, code != 0)
        return code
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
