"""Long differential run: the engine against the single-loop oracle on random scenarios.

Tier-1 checks ``run`` against ``engine_reference.reference_run`` on 40
random scenarios. This script checks many more, drawn from a wider range
of geometries: cell lengths of 333.3 m and 123.456789 m besides random
ones from 20 m to 1.6 km, speeds up to 60 m/s, and rings of 1 to 3
cells half the time. Steps longer than a quarter cell, or than a whole
cell, also occur, and on a short ring a long step can cross two
boundaries and land in the cell it left. Each scenario is checked three
ways:

- ``run`` under both policies against the oracle, report and every step;
- a ``sweep_cache`` over 1 to 4 random sizes (repeats allowed) against one
  ``run`` per size;
- ``compare_energy`` against the two separate runs.

It is not collected by pytest. Run it from the repository root as

    PYTHONPATH=src python tests/differential_run.py --scenarios 2000 --seed 1

It prints how many scenarios it checked and stops at the first mismatch.
"""
import argparse
import time
from dataclasses import replace

import numpy as np

from scsim.engine import compare_energy, run, sweep_cache
from scsim.mobility import Highway
from test_engine import assert_same_report, engine_trace, random_scenario, reference_trace

CELL_LENGTHS = (333.3, 123.456789, 1000.0)


def wide_scenario(rng):
    """Tier-1's random scenario with a wider cell length and speed, and often a ring of 1-3 cells."""
    sc = random_scenario(rng)
    pick = int(rng.integers(0, len(CELL_LENGTHS) + 1))
    cell = CELL_LENGTHS[pick] if pick < len(CELL_LENGTHS) else float(10.0 ** rng.uniform(1.3, 3.2))
    n_stations = int(rng.integers(1, 4)) if rng.random() < 0.5 else sc.highway.n_stations
    return replace(sc, highway=Highway(n_stations, cell), speed=float(rng.uniform(3.0, 60.0)))


def check(sc, sizes):
    """Assert every agreement for one scenario; return the number of sweep points checked."""
    for policy in ("sustainable", "greedy"):
        sc = replace(sc, policy=policy)
        got, got_steps = engine_trace(sc)
        want, want_steps = reference_trace(sc)
        assert_same_report(got, want)
        assert got_steps == want_steps
    for point in sweep_cache(sc, sizes):
        assert_same_report(point.report, run(replace(sc, cache_capacity=point.cache_capacity)))
    cmp = compare_energy(sc)
    assert_same_report(cmp.sustainable, run(replace(sc, policy="sustainable")))
    assert_same_report(cmp.greedy, run(replace(sc, policy="greedy")))
    return len(sizes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenarios", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    points = 0
    for i in range(args.scenarios):
        sc = wide_scenario(rng)
        sizes = [int(c) for c in rng.integers(0, 60, size=int(rng.integers(1, 5)))]
        try:
            points += check(sc, sizes)
        except AssertionError:
            print(f"mismatch at scenario {i} (seed {args.seed}): {sc!r}, sizes {sizes}")
            raise
    print(
        f"checked {args.scenarios} scenarios (seed {args.seed}): {2 * args.scenarios} oracle runs, "
        f"{points} sweep points, {args.scenarios} policy comparisons in {time.perf_counter() - start:.0f} s"
    )


if __name__ == "__main__":
    main()
