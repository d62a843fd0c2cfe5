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
from dataclasses import replace
from functools import partial
from pathlib import Path

from .config import ConfigError, RunSettings, describe_schema, parse_settings
from .engine import (
    EnergyComparison,
    MetricsReport,
    Scenario,
    compare_energy,
    map_ordered,
    run_many,
    sweep_cache,
)
from .svgplot import render_line_chart

__all__ = ["main"]

METRICS_HEADER = (
    "epoch_start_s,offered,scs_served,mbs_served,hit_rate,mean_power,"
    "mean_battery,outage_energy,overflow_energy,continuity_rate,pushes,defers"
)

RUN_SUMMARY_HEADER = (
    "seed,policy,offered,scs_served,mbs_served,normalized_offload,hit_rate,"
    "continuity_rate,outage_energy,overflow_energy,pushes,defers"
)


def _g(value: float) -> str:
    return f"{value:.9g}"


def _metrics_rows(report: MetricsReport) -> list[str]:
    rows = []
    for em in report.epochs:
        rows.append(
            f"{em.epoch_start_s},{em.offered},{em.scs_served},{em.mbs_served},"
            f"{_g(em.hit_rate)},{_g(em.mean_power)},{_g(em.mean_battery)},"
            f"{_g(em.outage_energy)},{_g(em.overflow_energy)},"
            f"{_g(em.continuity_rate)},{em.pushes},{em.defers}"
        )
    return rows


def _metrics_csv(reports: list[MetricsReport]) -> str:
    lines = [METRICS_HEADER]
    for report in reports:
        lines.extend(_metrics_rows(report))
    return "\n".join(lines) + "\n"


def _summary_fields(report: MetricsReport) -> str:
    return (
        f"{report.seed},{report.policy},{report.offered},{report.scs_served},"
        f"{report.mbs_served},{_g(report.normalized_offload)},{_g(report.hit_rate)},"
        f"{_g(report.continuity_rate)},{_g(report.outage_energy)},"
        f"{_g(report.overflow_energy)},{report.pushes},{report.defers}"
    )


def _epoch_hours(report: MetricsReport) -> list[float]:
    return [em.epoch_start_s / 3600.0 for em in report.epochs]


def _mean_offload_curve(reports: list[MetricsReport]) -> list[float]:
    """Per-epoch normalized offload averaged across same-shape runs."""
    n_epochs = len(reports[0].epochs)
    curve = []
    for i in range(n_epochs):
        vals = [
            rep.epochs[i].scs_served / rep.epochs[i].offered
            if rep.epochs[i].offered
            else 0.0
            for rep in reports
        ]
        curve.append(sum(vals) / len(vals))
    return curve


def _seed_list(base: Scenario, n_seeds: int) -> list[int]:
    return [base.seed + i for i in range(n_seeds)]


def _cmd_run(settings: RunSettings, n_seeds: int) -> tuple[dict[str, str], str]:
    scenarios = [replace(settings.scenario, seed=s)
                 for s in _seed_list(settings.scenario, n_seeds)]
    reports = run_many(scenarios, settings.workers)
    summary = [RUN_SUMMARY_HEADER]
    summary.extend(_summary_fields(rep) for rep in reports)
    hours = _epoch_hours(reports[0])
    hit_curve = [
        sum(rep.epochs[i].hit_rate for rep in reports) / len(reports)
        for i in range(len(hours))
    ]
    svg = render_line_chart(
        [
            ("normalized offload", hours, _mean_offload_curve(reports)),
            ("hit rate", hours, hit_curve),
        ],
        title=f"{settings.scenario.policy} policy, daily metrics",
        x_label="hour of day",
        y_label="fraction",
    )
    mean_offload = sum(rep.normalized_offload for rep in reports) / len(reports)
    files = {
        "metrics.csv": _metrics_csv(reports),
        "summary.csv": "\n".join(summary) + "\n",
        "plot.svg": svg,
    }
    note = f"run: {n_seeds} seed(s), mean normalized offload {_g(mean_offload)}"
    return files, note


def _cmd_sweep_cache(settings: RunSettings, n_seeds: int) -> tuple[dict[str, str], str]:
    sizes = list(settings.cache_sizes)
    all_reports: list[MetricsReport] = []
    summary = ["cache_capacity,offload_mbps," + RUN_SUMMARY_HEADER]
    curves: list[list[float]] = []
    bases = [replace(settings.scenario, seed=s) for s in _seed_list(settings.scenario, n_seeds)]
    for points in map_ordered(partial(sweep_cache, cache_sizes=sizes), bases, settings.workers):
        curves.append([p.offload_mbps for p in points])
        for p in points:
            all_reports.append(p.report)
            summary.append(
                f"{p.cache_capacity},{_g(p.offload_mbps)},{_summary_fields(p.report)}"
            )
    mean_curve = [
        sum(curve[i] for curve in curves) / len(curves) for i in range(len(sizes))
    ]
    svg = render_line_chart(
        [("offloaded traffic", [float(c) for c in sizes], mean_curve)],
        title="offload versus cache size",
        x_label="cache capacity (files)",
        y_label="offloaded traffic (Mbps)",
    )
    files = {
        "metrics.csv": _metrics_csv(all_reports),
        "summary.csv": "\n".join(summary) + "\n",
        "plot.svg": svg,
    }
    plateau = mean_curve[-1] if mean_curve else 0.0
    note = (
        f"sweep-cache: {len(sizes)} size(s) x {n_seeds} seed(s), "
        f"final point {_g(plateau)} Mbps"
    )
    return files, note


def _cmd_compare_energy(settings: RunSettings, n_seeds: int) -> tuple[dict[str, str], str]:
    bases = [replace(settings.scenario, seed=s) for s in _seed_list(settings.scenario, n_seeds)]
    comparisons: list[EnergyComparison] = map_ordered(compare_energy, bases, settings.workers)
    all_reports: list[MetricsReport] = []
    summary = [RUN_SUMMARY_HEADER + ",capacity_ratio"]
    for cmp in comparisons:
        for rep in (cmp.sustainable, cmp.greedy):
            all_reports.append(rep)
            summary.append(f"{_summary_fields(rep)},{_g(cmp.capacity_ratio)}")
    hours = _epoch_hours(comparisons[0].sustainable)
    sus_curve = _mean_offload_curve([c.sustainable for c in comparisons])
    greedy_curve = _mean_offload_curve([c.greedy for c in comparisons])
    svg = render_line_chart(
        [
            ("sustainable", hours, sus_curve),
            ("greedy baseline", hours, greedy_curve),
        ],
        title="daily offload by energy policy",
        x_label="hour of day",
        y_label="normalized offload",
    )
    mean_ratio = sum(c.capacity_ratio for c in comparisons) / len(comparisons)
    files = {
        "metrics.csv": _metrics_csv(all_reports),
        "summary.csv": "\n".join(summary) + "\n",
        "plot.svg": svg,
    }
    note = f"compare-energy: {n_seeds} seed(s), mean capacity ratio {_g(mean_ratio)}"
    return files, note


HANDLERS = {
    "run": _cmd_run,
    "sweep-cache": _cmd_sweep_cache,
    "compare-energy": _cmd_compare_energy,
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
    specs = (
        ("run", "simulate one scenario and emit daily metrics"),
        ("sweep-cache", "simulate the scenario across cache sizes"),
        ("compare-energy", "run sustainable and greedy policies side by side"),
    )
    for name, help_text in specs:
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

    written: list[Path] = []
    try:
        files, note = HANDLERS[args.command](settings, args.seeds)
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

    print(f"{note}; wrote {len(files)} file(s) to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
