"""Command-line front end: run scenarios, sweep cache sizes, compare policies.

Each subcommand reads an optional config file, applies ``--override``
pairs, simulates, and writes three artifacts into ``--out``: a
per-epoch ``metrics.csv``, a per-run ``summary.csv``, and a ``plot.svg``.
All outputs are assembled in memory first; nothing is left behind on
failure. Identical config and seed give byte-identical files.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

from .config import ConfigError, RunSettings, describe_schema, parse_settings
from .engine import (
    EnergyComparison,
    EpochMetrics,
    MetricsReport,
    SweepPoint,
    compare_energy,
    map_ordered,
    run,
    sweep_cache,
)
from .svgplot import render_line_chart

__all__ = ["main"]


def _g(value: float) -> str:
    return f"{value:.9g}"


# A report's CSV columns are its scalar fields, in declaration order;
# each maps to how its cells are spelled.
_CELL = {int: str, float: _g, str: str}


@cache
def _columns(cls: type) -> tuple[tuple[str, Callable[..., str]], ...]:
    """``(name, spell)`` of each scalar field of ``cls``."""
    hints = get_type_hints(cls)
    return tuple((f.name, _CELL[hints[f.name]]) for f in fields(cls) if hints[f.name] in _CELL)


def _header(*classes: type) -> str:
    """CSV header: the columns of each class in turn."""
    return ",".join(name for cls in classes for name, _ in _columns(cls))


def _row(*reports) -> str:
    """CSV row of ``reports``, under ``_header`` of their classes."""
    return ",".join(spell(getattr(rep, name)) for rep in reports for name, spell in _columns(type(rep)))


def _csv(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _epoch_hours(report: MetricsReport) -> list[float]:
    return [em.epoch_start_s / 3600.0 for em in report.epochs]


def _mean(rows: list[list[float]]) -> list[float]:
    """Column means of same-length rows, one row per seed."""
    return [sum(col) / len(col) for col in zip(*rows)]


def _offload(report: MetricsReport) -> list[float]:
    """Per-epoch normalized offload, 0 for an epoch with nothing offered."""
    return [em.scs_served / em.offered if em.offered else 0.0 for em in report.epochs]


class _Outputs(NamedTuple):
    """What a subcommand makes of its per-seed results.

    ``summary.csv`` has one row per tuple of reports in ``summary``, under
    the columns of the first row's classes; ``metrics.csv`` holds the
    epochs of the one ``MetricsReport`` in each row, in row order.
    ``series`` and the labels make ``plot.svg``; ``note`` is printed.
    """

    summary: list[tuple]
    series: list[tuple[str, list[float], list[float]]]
    title: str
    x_label: str
    y_label: str
    note: str


def _run_outputs(settings: RunSettings, reports: list[MetricsReport]) -> _Outputs:
    hours = _epoch_hours(reports[0])
    mean_offload = sum(rep.normalized_offload for rep in reports) / len(reports)
    return _Outputs(
        [(rep,) for rep in reports],
        [
            ("normalized offload", hours, _mean([_offload(rep) for rep in reports])),
            ("hit rate", hours, _mean([[em.hit_rate for em in rep.epochs] for rep in reports])),
        ],
        title=f"{settings.scenario.policy} policy, daily metrics",
        x_label="hour of day",
        y_label="fraction",
        note=f"run: {len(reports)} seed(s), mean normalized offload {_g(mean_offload)}",
    )


def _sweep_outputs(settings: RunSettings, sweeps: list[list[SweepPoint]]) -> _Outputs:
    sizes = settings.cache_sizes
    mean_curve = _mean([[p.offload_mbps for p in points] for points in sweeps])
    return _Outputs(
        [(p, p.report) for points in sweeps for p in points],
        [("offloaded traffic", [float(c) for c in sizes], mean_curve)],
        title="offload versus cache size",
        x_label="cache capacity (files)",
        y_label="offloaded traffic (Mbps)",
        note=(
            f"sweep-cache: {len(sizes)} size(s) x {len(sweeps)} seed(s), "
            f"final point {_g(mean_curve[-1])} Mbps"
        ),
    )


def _compare_outputs(settings: RunSettings, comparisons: list[EnergyComparison]) -> _Outputs:
    hours = _epoch_hours(comparisons[0].sustainable)
    mean_ratio = sum(c.capacity_ratio for c in comparisons) / len(comparisons)
    return _Outputs(
        [(rep, cmp) for cmp in comparisons for rep in (cmp.sustainable, cmp.greedy)],
        [
            ("sustainable", hours, _mean([_offload(c.sustainable) for c in comparisons])),
            ("greedy baseline", hours, _mean([_offload(c.greedy) for c in comparisons])),
        ],
        title="daily offload by energy policy",
        x_label="hour of day",
        y_label="normalized offload",
        note=f"compare-energy: {len(comparisons)} seed(s), mean capacity ratio {_g(mean_ratio)}",
    )


# subcommand -> (its help; its function of one seed's scenario, given the
# settings; its outputs, given the settings and every seed's result in seed order)
HANDLERS = {
    "run": ("simulate one scenario and emit daily metrics", lambda settings: run, _run_outputs),
    "sweep-cache": (
        "simulate the scenario across cache sizes",
        lambda settings: partial(sweep_cache, cache_sizes=list(settings.cache_sizes)),
        _sweep_outputs,
    ),
    "compare-energy": (
        "run sustainable and greedy policies side by side", lambda settings: compare_energy, _compare_outputs
    ),
}


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scsim",
        description="Simulate renewable-powered caching stations along a highway.",
        epilog="Config keys (section.key = default):\n" + describe_schema(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in HANDLERS.items():
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", type=Path, default=None,
                       help="scenario config file (defaults apply when omitted)")
        s.add_argument("--out", type=Path, required=True,
                       help="output directory for metrics.csv, summary.csv, plot.svg")
        s.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="set one config value; repeatable; beats file values")
        s.add_argument("--seeds", type=_positive_int, default=1, metavar="N",
                       help="repeat over seeds base..base+N-1")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.config is not None:
            try:
                text = args.config.read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        else:
            text = ""
        settings = parse_settings(text, tuple(args.override))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _, per_seed, outputs = HANDLERS[args.command]
    base = settings.scenario
    written: list[Path] = []
    try:
        scenarios = [replace(base, seed=base.seed + i) for i in range(args.seeds)]
        out = outputs(settings, map_ordered(per_seed(settings), scenarios, settings.workers))
        reports = [rep for reps in out.summary for rep in reps if isinstance(rep, MetricsReport)]
        epochs = [em for rep in reports for em in rep.epochs]
        files = {
            "metrics.csv": _csv([_header(EpochMetrics)] + [_row(em) for em in epochs]),
            "summary.csv": _csv([_header(*map(type, out.summary[0]))] + [_row(*reps) for reps in out.summary]),
            "plot.svg": render_line_chart(out.series, title=out.title, x_label=out.x_label, y_label=out.y_label),
        }
        args.out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            path = args.out / name
            path.write_text(content, encoding="utf-8")
            written.append(path)
    except Exception as exc:  # noqa: BLE001 - boundary: report, clean up, signal
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        print(f"error: {exc}", file=sys.stderr)
        return 3

    print(f"{out.note}; wrote {len(files)} file(s) to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
