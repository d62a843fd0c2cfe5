"""Case study: how much cache does a roadside station actually need?

With abundant energy and steady traffic, offloaded throughput grows
with cache size only until the radio cap binds. Below the knee the
system is cache-constrained (more storage directly buys hit rate);
beyond it, extra files help little because at most ten users are served
at once. The simulated sweep is overlaid with the closed-form
truncated-Poisson prediction; the two should track within Monte Carlo
noise.
"""
import argparse
from pathlib import Path

from scsim import (
    BackhaulBudget,
    EnergyProfile,
    Scenario,
    TrafficProfile,
    build_catalog,
    expected_offload,
    hit_rate,
    sweep_cache,
    top_k,
)
from scsim.config import DEFAULT_CACHE_SIZES as SIZES
from scsim.svgplot import render_line_chart


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=int, default=10800,
                        help="seconds simulated per cache size")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=Path(__file__).parent / "out")
    args = parser.parse_args()

    base = Scenario(
        traffic=TrafficProfile(enabled=False),
        energy=EnergyProfile(kind="constant", peak_rate=1.0),
        split_ratio=1.0,
        backhaul=BackhaulBudget(files_per_epoch=5000, variability=(1.0, 1.0)),
        duration=args.duration,
        seed=args.seed,
    )
    points = sweep_cache(base, SIZES)

    catalog = build_catalog(base.n_files, base.gamma)
    mu_full = 2 * base.highway.cell_length * base.traffic.base_density
    analytic = [
        10.0 * expected_offload(
            mu_full * (hit_rate(catalog, set(top_k(catalog, c))) if c else 0.0), 10
        )
        for c in SIZES
    ]

    print("cache size -> simulated Mbps (analytic Mbps)")
    for c, p, a in zip(SIZES, points, analytic):
        print(f"  {c:5d} -> {p.offload_mbps:7.2f} ({a:7.2f})")
    plateau = points[-1].offload_mbps
    knee = next(p for p in points if p.offload_mbps >= 0.85 * plateau)
    print(f"85% of the plateau is reached by C = {knee.cache_capacity} files")

    args.out.mkdir(parents=True, exist_ok=True)
    target = args.out / "cache_dimensioning.svg"
    target.write_text(
        render_line_chart(
            [
                ("simulated", [float(c) for c in SIZES],
                 [p.offload_mbps for p in points]),
                ("truncated-Poisson model", [float(c) for c in SIZES], analytic),
            ],
            title="offloaded throughput versus cache size",
            x_label="cache capacity (files)",
            y_label="offloaded traffic (Mbps)",
        )
    )
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
