"""Span tracing of fbcsf's layers, installed from outside the library.

The tracer replaces public entry points of each layer on their module or
class objects with wrappers, and puts the originals back on exit.  For
every span name it keeps the calls, the total time and the self time
(total minus the time of the spans opened inside it).  Spans are
aggregated in memory per name, not stored one by one: the wall-point span
alone opens about 650,000 times in one disk run.

Library code calls these entry points through module globals or
attributes (``step``, ``oval_mod.construct_orthogonal_oval``,
``wall.point_xy``), so replacing the attribute is seen by every caller.
"""

import time
from contextlib import contextmanager

from fbcsf import asymptotics, barrier, flow, geometry, oval

# (owner, attribute, span name).  safe_brentq is imported by name into each
# module, so each binding is its own span, named after the calling module.
LAYER_TARGETS = (
    (flow, "old_but_not_ancient", "flow.old_but_not_ancient"),
    (flow, "run_to_extinction", "flow.record"),
    (flow, "step", "flow.step"),
    (flow, "enclosed_area", "flow.enclosed_area"),
    (flow.CurveState, "kappa", "flow.kappa"),
    (flow.CurveState, "heights_at", "flow.heights_at"),
    (flow.ConvexWall, "__init__", "flow.wall_init"),
    (flow.ConvexWall, "point_xy", "flow.wall_point"),
    (flow, "safe_brentq", "solve.safe_brentq.flow"),
    (barrier, "barrier_at", "barrier.barrier_at"),
    (barrier, "below_barrier", "barrier.below_barrier"),
    (oval, "construct_orthogonal_oval", "oval.construct"),
    (oval, "sample_initial_curve", "oval.sample_initial_curve"),
    (oval, "safe_brentq", "solve.safe_brentq.oval"),
    (geometry.ConvexDomain, "point", "geometry.point"),
    (geometry, "find_diameters", "geometry.find_diameters"),
    (geometry, "normalize", "geometry.normalize"),
    (geometry, "safe_brentq", "solve.safe_brentq.geometry"),
    (asymptotics, "verify_estimates", "asymptotics.verify_estimates"),
    (asymptotics, "fit_profile", "asymptotics.fit_profile"),
    (asymptotics, "rescaled_increments", "asymptotics.rescaled_increments"),
    (asymptotics, "robin_eigen", "asymptotics.robin_eigen"),
    (asymptotics, "reflect_trajectory", "asymptotics.reflect_trajectory"),
    (asymptotics, "uniqueness_evidence", "asymptotics.uniqueness_evidence"),
    (asymptotics, "matched_distance", "asymptotics.matched_distance"),
    (asymptotics, "safe_brentq", "solve.safe_brentq.asymptotics"),
)

ASYMPTOTICS_CHAIN = ("verify_estimates", "fit_profile",
                     "rescaled_increments", "robin_eigen",
                     "reflect_trajectory", "uniqueness_evidence")
ORACLE_CALLERS = ("geometry", "oval", "flow", "asymptotics")
OVAL_ERRORS = ("BracketFailure", "RhoTooLarge")


class Tracer:
    """Per-span calls, total seconds and self seconds."""

    def __init__(self):
        self.spans = {}     # name -> [calls, total_s, self_s]
        self._open = []     # child-span time of each open span

    def _wrap(self, name, fn):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in LAYER_TARGETS:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def calls(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def call_counts(self):
        return {name: stat[0] for name, stat in self.spans.items()}

    def table(self):
        """Lines of the span table, by self time."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        out = [f"{'span':36} {'calls':>9} {'total_s':>10} {'self_s':>10} "
               f"{'us/call':>10}"]
        for name, (n, total, own) in rows:
            if n:
                out.append(f"{name:36} {n:9d} {total:10.4f} {own:10.4f} "
                           f"{1e6 * total / n:10.2f}")
        return out


def layer_metrics(setup, run, stored_states, monitor_samples, attempts,
                  failures, overhead_s):
    """The per-layer metrics of one traced run, as name -> (value, unit).

    setup traced the building of the workload's domains; run traced the
    workload itself.  failures maps an error class name to its count among
    the workload's initial-data attempts.
    """
    steps = run.calls("flow.step")

    def per_step(name):
        return run.calls(name) / steps if steps else 0.0

    failed = sum(failures.values())
    m = {
        "flow.steps": (steps, "count"),
        "flow.step.us": (
            1e6 * run.total("flow.step") / steps if steps else 0.0, "us"),
        "flow.step.self_s": (run.self_time("flow.step"), "s"),
        "flow.kappa.calls_per_step": (per_step("flow.kappa"), "calls/step"),
        "flow.kappa.self_s": (run.self_time("flow.kappa"), "s"),
        "flow.wall_point.calls": (run.calls("flow.wall_point"), "count"),
        "flow.wall_point.calls_per_step": (per_step("flow.wall_point"),
                                           "calls/step"),
        "flow.wall_point.self_s": (run.self_time("flow.wall_point"), "s"),
        "flow.contact_fallbacks": (run.calls("solve.safe_brentq.flow"),
                                   "count"),
        "flow.record.self_s": (run.self_time("flow.record"), "s"),
        "flow.enclosed_area.self_s": (run.self_time("flow.enclosed_area"),
                                      "s"),
        "flow.heights_at.self_s": (run.self_time("flow.heights_at"), "s"),
        "flow.stored_states": (stored_states, "count"),
        "flow.monitor_samples": (monitor_samples, "count"),
    }
    for name in ("barrier_at", "below_barrier"):
        m[f"barrier.{name}.calls"] = (run.calls(f"barrier.{name}"), "count")
        m[f"barrier.{name}.self_s"] = (run.self_time(f"barrier.{name}"), "s")
    m["oval.construct.calls"] = (run.calls("oval.construct"), "count")
    m["oval.construct.self_s"] = (run.self_time("oval.construct"), "s")
    for cls in OVAL_ERRORS:
        m[f"oval.construct.failed.{cls}"] = (failures.get(cls, 0), "count")
    m["oval.construct.failed.other"] = (
        sum(n for cls, n in failures.items() if cls not in OVAL_ERRORS),
        "count")
    m["failed_frac"] = (failed / attempts if attempts else 0.0, "ratio")
    m["oval.sample_initial_curve.self_s"] = (
        run.self_time("oval.sample_initial_curve"), "s")
    m["geometry.point.calls"] = (run.calls("geometry.point"), "count")
    m["geometry.point.self_s"] = (run.self_time("geometry.point"), "s")
    m["geometry.find_diameters.self_s"] = (
        setup.self_time("geometry.find_diameters"), "s")
    m["geometry.normalize.self_s"] = (
        setup.self_time("geometry.normalize"), "s")
    m["flow.wall_init.self_s"] = (setup.self_time("flow.wall_init"), "s")
    for caller in ORACLE_CALLERS:
        m[f"solve.safe_brentq.calls.{caller}"] = (
            run.calls(f"solve.safe_brentq.{caller}"), "count")
    for name in ASYMPTOTICS_CHAIN:
        m[f"asymptotics.{name}.self_s"] = (
            run.self_time(f"asymptotics.{name}"), "s")
    m["asymptotics.matched_distance.calls"] = (
        run.calls("asymptotics.matched_distance"), "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
