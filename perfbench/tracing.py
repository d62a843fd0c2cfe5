"""Per-layer call counts and self times of scsim, taken from outside the library.

`Tracer.installed()` replaces each traced name where its callers look it
up (the names that ``scsim.engine``, ``scsim.mobility`` and ``scsim.cli``
import, and methods of ``VehicleSet``, ``CacheStore`` and
``BackhaulBudget``) with a wrapper that counts calls and books self time:
the wrapped time minus the time of wrapped callees inside it. The
originals come back on exit, so an untraced operation runs the library's
own code.
"""
from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

import scsim.cli
import scsim.engine
import scsim.mobility
from scsim.mobility import VehicleSet
from scsim.policy import BackhaulBudget
from scsim.station import CacheStore

# (namespace, attribute): each is looked up at call time by the library.
TARGETS = (
    (scsim.engine, "build_catalog"),
    (scsim.mobility, "sample_requests"),
    (scsim.engine, "spawn_vehicles"),
    (VehicleSet, "positions_at"),
    (scsim.engine, "cell_indices"),
    (scsim.engine, "handovers_from_arrays"),
    (scsim.engine, "traffic_multiplier"),
    (CacheStore, "apply_popular_update"),
    (CacheStore, "prefetch_insert"),
    (scsim.engine, "plan_popular_update"),
    (scsim.engine, "plan_prefetch"),
    (scsim.engine, "sustainable_large_step"),
    (scsim.engine, "sustainable_small_step"),
    (scsim.engine, "greedy_large_step"),
    (scsim.engine, "greedy_small_step"),
    (BackhaulBudget, "realize"),
    (scsim.engine, "battery_step"),
    (scsim.engine, "harvest_rates"),
    (scsim.engine, "mean_rate"),
    (scsim.engine, "ledger_residual"),
    (scsim.cli, "parse_settings"),
    (scsim.cli, "render_line_chart"),
    # a span of the engine, so that the CLI's own time can be told apart
    (scsim.cli, "sweep_cache"),
)


def span_name(fn) -> str:
    """``<module>.<qualified name>``, e.g. ``station.CacheStore.prefetch_insert``."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


# Per-layer metrics: calls and self seconds of every traced function but
# the engine's own entry point, whose self time goes into engine.self_s.
FUNCTIONS = tuple(
    span_name(vars(owner)[attr]) for owner, attr in TARGETS if attr != "sweep_cache"
)
EVICTING = span_name(CacheStore.prefetch_insert)


class Tracer:
    """Accumulates calls and self seconds per traced function."""

    def __init__(self) -> None:
        # span name -> [calls, self seconds]
        self.totals: defaultdict[str, list] = defaultdict(lambda: [0, 0.0])
        self.evictions = 0
        # time spent in wrapped callees, one entry per open span
        self._inner = [0.0]

    def _wrap(self, name: str, fn):
        inner, total = self._inner, self.totals[name]

        def traced(*args, **kwargs):
            inner.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                callees = inner.pop()
                inner[-1] += elapsed
                total[0] += 1
                total[1] += elapsed - callees

        return traced

    def _wrap_insert(self, fn):
        traced = self._wrap(EVICTING, fn)

        def insert(cache, content):
            evicted = traced(cache, content)
            if evicted is not None:
                self.evictions += 1
            return evicted

        return insert

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr in TARGETS]
        try:
            for owner, attr, fn in saved:
                name = span_name(fn)
                setattr(owner, attr, self._wrap_insert(fn) if name == EVICTING else self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def time_root(self, fn, *args):
        """Call ``fn(*args)``; return its result, its time and its own share of that time."""
        self._inner[:] = [0.0]
        t0 = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - t0
        return result, elapsed, elapsed - self._inner[0]
