"""Command-line interface.

Subcommands:

* ``catalog``          validate and print the competency catalog
* ``generate``         scenario config -> paired baseline/treated event files
* ``analyze``          event file (+ optional mapping) -> indicator report
* ``compare``          two event files or indicator outputs -> delta report
* ``verify-reference`` audit a comparison table's arithmetic: the bundled
  reference table, or with ``--file`` any comparison table, such as the
  ``comparison.csv`` that ``compare`` writes

A table whose every cell and total is a whole number of cents is audited
as a 2-decimal printing (0.02 slack per row, 0.3 per column sum, total
delta in cents); any other table must add up exactly. Every command exits
0 on success and nonzero with a diagnostic on any error;
``verify-reference`` exits nonzero if any check fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import default_catalog, load_catalog
from .engine import DEFAULT_WINDOW, compare_regimes, indicator_series
from .errors import InsufficientHistoryError, RegimetricsError, ValidationError
from .io import (
    emit_report,
    is_indicator_output,
    parse_events,
    parse_mapping,
    parse_scenario,
    read_comparison_table,
    read_indicator_column,
    write_events,
)
from .model import MODES, RAW, MappedSeries, apply_mapping, check_budget
from .reference import verify_bundled_reference, verify_reference
from .synth import paired_scenarios


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regimetrics",
        description="Sliding-window correlation indicators for enterprise operating regimes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="validate and print the competency catalog")
    p_catalog.add_argument("--file", type=Path, help="catalog document (default: bundled)")
    p_catalog.add_argument("--skill", help="print only the entry with this skill id")

    p_generate = sub.add_parser(
        "generate", help="generate paired baseline/treated event files from a scenario"
    )
    p_generate.add_argument("--config", type=Path, required=True, help="scenario JSON file")
    p_generate.add_argument("--output-dir", type=Path, required=True)

    # The options of an analysis run, which analyze and compare share.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--window", type=int, default=DEFAULT_WINDOW, help="window length k")
    run.add_argument("--mode", choices=MODES, default=RAW)
    run.add_argument("--seed", type=int, help="provenance stamp for the metadata record")
    run.add_argument(
        "--pad-warmup",
        action="store_true",
        help="emit zero rows for the warm-up periods 1..k in plot data",
    )
    run.add_argument("--output-dir", type=Path, required=True)

    p_analyze = sub.add_parser(
        "analyze", parents=[run], help="compute indicator series for an event file"
    )
    p_analyze.add_argument("--events", type=Path, required=True)
    p_analyze.add_argument(
        "--mapping", type=Path, help="competency mapping file (default: all channels active)"
    )

    p_compare = sub.add_parser(
        "compare", parents=[run], help="compare two regimes (event files or indicator outputs)"
    )
    p_compare.add_argument("--basic", type=Path, required=True)
    p_compare.add_argument("--treated", type=Path, required=True)

    p_verify = sub.add_parser(
        "verify-reference",
        help="audit a comparison table's arithmetic (bundled or any --file)",
        description="Check a comparison table's row deltas, column sums and total delta. A "
        "table whose every cell and total is a whole number of cents is a 2-decimal printing "
        "(slack 0.02 per row and 0.3 per column sum, total delta in cents); any other table "
        "must add up exactly.",
    )
    p_verify.add_argument(
        "--file", type=Path, help="any comparison table, e.g. compare's comparison.csv "
        "(default: the bundled reference table, with its 57-period and cost-identity checks)"
    )

    return parser


def _cmd_catalog(args) -> int:
    catalog = load_catalog(args.file) if args.file else default_catalog()
    if args.skill:
        entry = catalog.lookup(args.skill)
        print(f"{entry.skill_id} {entry.skill_name} (level {entry.level} {entry.level_name})")
        print(f"  {entry.request_id} {entry.request_text}")
        return 0
    print(f"catalog OK: {len(catalog.entries)} entries")
    for entry in catalog.entries:
        print(f"{entry.skill_id}  level {entry.level} {entry.level_name:<8}  {entry.skill_name}")
    return 0


def _cmd_generate(args) -> int:
    config = parse_scenario(args.config)
    baseline, treated = paired_scenarios(config)
    for name, model in (("events_baseline.csv", baseline), ("events_treated.csv", treated)):
        path = write_events(model, args.output_dir / name)
        print(f"wrote {path}")
    return 0


def _cmd_analyze(args) -> int:
    indicators = _indicators(args.events, args.window, args.mode, args.mapping)
    _emit(args, indicators=indicators)
    print(f"total indicator: {indicators.total!r}")
    return 0


def _indicators(events: Path, k: int, mode: str, mapping_file: Path | None = None):
    """Indicator series of the event file ``events``; a window error names the file.

    The series is the one reference to the events while the kernel runs. Layer
    calls are looked up on this module, so a wrapper set here sees each.
    """
    try:
        return indicator_series(_series(events, mapping_file), k, mode)
    except InsufficientHistoryError as exc:
        raise InsufficientHistoryError(f"{events}: {exc}") from None


def _series(events: Path, mapping_file: Path | None) -> MappedSeries:
    """The events of ``events``, masked by the mapping in ``mapping_file`` when one is given."""
    model = parse_events(events)
    if not mapping_file:
        return MappedSeries.from_model(model)
    mapping = parse_mapping(mapping_file, model.channel_labels, catalog=default_catalog())
    report = check_budget(mapping)
    print(
        f"budget: {report.total_cost:g} of {report.budget:g} used "
        f"({len(report.active)} active competencies)"
    )
    series = apply_mapping(model, mapping)
    if series.masked_channels:
        masked = ", ".join(series.channel_labels[j] for j in series.masked_channels)
        print(f"masked channels: {masked}")
    return series


def _emit(args, **result) -> None:
    options = dict(seed=args.seed, pad_warmup=args.pad_warmup)
    for path in emit_report(args.output_dir, args.window, args.mode, **options, **result):
        print(f"wrote {path}")


def _regime_column(path: Path, k: int, mode: str):
    if is_indicator_output(path):
        return read_indicator_column(path, k, mode)
    indicators = _indicators(path, k, mode)
    return indicators.periods, indicators.per_period_totals()


def _cmd_compare(args) -> int:
    basic = _regime_column(args.basic, args.window, args.mode)
    treated = _regime_column(args.treated, args.window, args.mode)
    try:
        comparison = compare_regimes(basic, treated)
    except ValidationError as exc:
        raise ValidationError(f"{args.basic} vs {args.treated}: {exc}") from None
    _emit(args, comparison=comparison)
    print(
        f"totals: basic {comparison.basic_total!r}, treated {comparison.treated_total!r}, "
        f"delta {comparison.delta_total!r}"
    )
    return 0


def _cmd_verify_reference(args) -> int:
    if args.file:
        try:
            report = verify_reference(*read_comparison_table(args.file))
        except ValidationError as exc:
            raise ValidationError(f"{args.file}: {exc}") from None
    else:
        report = verify_bundled_reference()
    for check in report:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.check_id}: {check.detail}")
    return 0 if report.ok else 1


_COMMANDS = {
    "catalog": _cmd_catalog,
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
    "verify-reference": _cmd_verify_reference,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RegimetricsError, OSError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
