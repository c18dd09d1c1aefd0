"""The three workloads of the fbcsf benchmark.

Each workload builds its own inputs and hands the library only domains,
rho values and a SolverConfig.  Library calls go through module and class
attributes, so the wrappers that tracing.py installs see every one of them.

A workload offers three entry points to run.py:

  setup()                   what set-up time covers: building and
                            normalizing the workload's domains (and wall
                            tables where it flows);
  measure(seed, s, probe)   the timed run, repeated for at least s seconds;
  trace(seed, probe)        one untraced and two traced runs, for the layer
                            metrics.

Timed regions are kept as (start, end) pairs of perf_counter and turned
into reference seconds by the speed probe (speed.py) once the run is over.
"""

import gc
import hashlib
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fbcsf import asymptotics, flow, geometry, oval
from fbcsf.errors import FBCSFError
from tracing import Tracer, layer_metrics

REFERENCES = json.loads(
    Path(__file__).with_name("references.json").read_text(encoding="utf-8"))

DEFAULT_SEED = 0
ACCURACY_FLOOR = 1e-9       # errors below this are under what the fits resolve
MIN_REPEATS = 2             # timed repeats of the main operation, at least
ANALYSIS_REPEATS = 3        # analysis chains timed per flow run
INITIAL_DATA_SAMPLES = 23   # oval_ms samples taken before each flow run,
INITIAL_DATA_BATCH = 3      # each the mean of this many builds
FAMILY_ANALYSIS_BATCH = 10  # oval_family analyses timed as one sample
ESTIMATE_RATE = 0.25        # r passed to verify_estimates
EIGEN_RESIDUAL_MAX = 1e-14
UNIQUENESS_DISTANCE = (0.25, 4.0)   # "O(1)" apart from the reflected run


def egg():
    return geometry.ConvexDomain([1.0, 0.0, 0.2], [0.0, 0.0, 0.0, 0.1])


def lobed():
    return geometry.ConvexDomain([1.0, 0.0, 0.05, 0.1, 0.0, 0.08],
                                 [0.0, 0.0, 0.1, 0.0, 0.05])


def timed(fn, *args):
    """fn(*args) and the (start, end) region it ran in."""
    start = time.perf_counter()
    out = fn(*args)
    return out, (start, time.perf_counter())


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def close_to(name, measured, ref):
    """Check of a measured value against its stored seed reference."""
    err = abs(measured - ref["value"])
    return (name, bool(err <= ref["tol"]),
            f"{measured:.10g} vs {ref['value']:.10g}, |diff| {err:.2e} "
            f"<= {ref['tol']:.1e}")


@dataclass
class Outcome:
    """One workload run, as run.py reports it."""

    metrics: dict       # name -> (value, unit)
    checks: list        # (name, passed, detail)
    attempted: int
    failed: int
    notes: list         # lines for the human-readable report


# ---------------------------------------------------------------------------
# flow workloads


@dataclass
class Analysis:
    lambda0: float
    report: object
    profile: object
    eigen: object
    uniqueness: object


def analysis_chain(traj, ndom):
    """The late-time analysis of one trajectory, as a user would run it."""
    k1, k2 = ndom.kappa1, ndom.kappa2
    lam0 = oval.solve_lambda0(k1, k2)
    report = asymptotics.verify_estimates(traj, ESTIMATE_RATE, lam0)
    profile = asymptotics.fit_profile(traj, lam0, k1, k2)
    asymptotics.rescaled_increments(traj, lam0)
    eigen = asymptotics.robin_eigen(k1, k2)
    mirror = asymptotics.reflect_trajectory(traj)
    uniqueness = asymptotics.uniqueness_evidence(traj, mirror, lam0)
    return Analysis(lam0, report, profile, eigen, uniqueness)


def fingerprint(traj):
    """Bit-level identity of a run: monitor arrays, alpha, stored states."""
    h = hashlib.sha256()
    for key in sorted(traj.monitors):
        h.update(key.encode())
        h.update(np.ascontiguousarray(traj.monitors[key]).tobytes())
    return (h.hexdigest(), float(traj.alpha).hex(), len(traj.states),
            len(traj.monitors["t"]))


class FlowWorkload:
    """old_but_not_ancient on one domain's longest diameter, then analysis."""

    rho = 0.1

    def __init__(self, name, make_domain, n_nodes):
        self.name = name
        self.make_domain = make_domain
        self.cfg = flow.SolverConfig(n_nodes=n_nodes, dt_safety=0.8)
        self.ref = REFERENCES[name]

    def setup(self):
        dom = self.make_domain()
        ndom = geometry.normalize(dom, geometry.find_diameters(dom)[0])
        flow.ConvexWall(ndom)
        return ndom

    def run(self, ndom):
        return flow.old_but_not_ancient(ndom, self.rho, self.cfg)

    def initial_data(self, ndom):
        for _ in range(INITIAL_DATA_BATCH):
            ov = oval.construct_orthogonal_oval(ndom, self.rho)
            oval.sample_initial_curve(ov, self.cfg.n_nodes)

    def checks(self, traj, an):
        """Correctness gate of one run and its analysis."""
        t = traj.monitors["t"]
        y0 = float(np.interp(-1.5, t, traj.monitors[
            f"y_at_x{self.cfg.abscissas.index(0.0)}"]))
        rate = an.report.record("turning_angle_decay").fitted_rate
        out = [close_to("alpha", traj.alpha, self.ref["alpha"]),
               close_to("fitted rate", rate, self.ref["fitted_rate"]),
               close_to("y(0, t=-1.5)", y0, self.ref["y0_at_t-1.5"])]
        eig = an.eigen
        neg = [max(asymptotics.eigen_residuals(p, eig.kappa1, eig.kappa2))
               for p in eig.negative_eigenvalues]
        # the ODE residual is a difference of two O(mu) terms, so for the
        # oscillatory pairs it is held to the same bound relative to 1 + mu
        pos = [max(asymptotics.eigen_residuals(p, eig.kappa1, eig.kappa2))
               / (1.0 + p.mu) for p in eig.positive_eigenvalues]
        out.append(("eigen residuals", max(neg + pos) <= EIGEN_RESIDUAL_MAX,
                    f"negative {max(neg):.1e}, positive/(1+mu) "
                    f"{max(pos):.1e} <= {EIGEN_RESIDUAL_MAX:.0e}"))
        if "second_negative_mu" in self.ref:
            mus = [p.mu for p in eig.negative_eigenvalues]
            out.append(close_to("second negative eigenvalue",
                                mus[1] if len(mus) > 1 else np.nan,
                                self.ref["second_negative_mu"]))
        lo, hi = UNIQUENESS_DISTANCE
        d = an.uniqueness.distance
        out.append(("distance to reflected run", lo <= d <= hi,
                    f"{d:.4f} in [{lo}, {hi}]"))
        return out

    def accuracy(self, an):
        lam2 = an.lambda0 ** 2
        rate = an.report.record("turning_angle_decay").fitted_rate
        prof = an.profile
        return {
            "rate_relerr": (max(abs(rate - lam2) / lam2, ACCURACY_FLOOR), "1"),
            "profile_c_abserr": (max(abs(prof.c - prof.c_closed_form),
                                     ACCURACY_FLOOR), "1"),
        }

    def measure(self, seed, seconds, probe):
        ndom = self.setup()
        runs, analyses, builds, prints = [], [], [], set()
        start = time.perf_counter()
        while len(runs) < MIN_REPEATS or time.perf_counter() - start < seconds:
            # hold one trajectory at a time, and none while building the
            # initial data, whose timings a large live heap makes noisier
            traj = an = None
            gc.collect()
            builds += [timed(self.initial_data, ndom)[1]
                       for _ in range(INITIAL_DATA_SAMPLES)]
            traj, region = timed(self.run, ndom)
            runs.append(region)
            prints.add(fingerprint(traj))
            for _ in range(ANALYSIS_REPEATS):
                an, region = timed(analysis_chain, traj, ndom)
                analyses.append(region)
        run_s = [probe.scaled(*r) for r in runs]
        analysis_s = [probe.scaled(*r) for r in analyses]
        oval_ms = [1e3 * probe.scaled(*r) / INITIAL_DATA_BATCH for r in builds]

        checks = self.checks(traj, an)
        checks.append(("runs bit-identical", len(prints) == 1,
                       f"{len(run_s)} runs, {len(prints)} distinct"))
        metrics = {
            "run_s": (statistics.median(run_s), "s"),
            "analysis_s": (statistics.median(analysis_s), "s"),
            "oval_ms_p50": (percentile(oval_ms, 50), "ms"),
            "oval_ms_p75": (percentile(oval_ms, 75), "ms"),
        }
        metrics.update(self.accuracy(an))
        notes = [f"samples: run_s {len(run_s)}, analysis_s {len(analysis_s)}, "
                 f"oval_ms {len(oval_ms)}",
                 "run_s samples " + ", ".join(f"{s:.3f}" for s in run_s)
                 + " (wall " + ", ".join(f"{b - a:.3f}" for a, b in runs)
                 + ")",
                 f"steps {len(traj.monitors['t']) - 1}, stored states "
                 f"{len(traj.states)}, alpha {traj.alpha:.10g}"]
        return Outcome(metrics, checks,
                       attempted=len(run_s) + len(analysis_s) + len(oval_ms),
                       failed=0, notes=notes)

    def trace(self, seed, probe):
        setup_tracer = Tracer()
        with setup_tracer.installed():
            ndom = self.setup()
        plain, plain_region = timed(self.run, ndom)
        plain_print = fingerprint(plain)
        plain = None
        tracers, prints, traced = [], [], []
        for _ in range(2):
            tracer = Tracer()
            traj = an = None
            with tracer.installed():
                traj, region = timed(self.run, ndom)
                an = analysis_chain(traj, ndom)
            tracers.append(tracer)
            prints.append(fingerprint(traj))
            traced.append(region)
        plain_s = probe.scaled(*plain_region)
        traced_s = [probe.scaled(*r) for r in traced]

        checks = self.checks(traj, an)
        checks.append(("traced runs bit-identical to untraced",
                       prints[0] == prints[1] == plain_print,
                       "monitor arrays, alpha, stored-state count"))
        checks.append(("work counts repeat exactly",
                       tracers[0].call_counts() == tracers[1].call_counts(),
                       "calls of every span, two traced runs"))
        metrics = layer_metrics(
            setup_tracer, tracers[0], stored_states=len(traj.states),
            monitor_samples=len(traj.monitors["t"]), attempts=1, failures={},
            overhead_s=traced_s[0] - plain_s)
        notes = [f"untraced run_s {plain_s:.3f}, traced run_s "
                 f"{traced_s[0]:.3f} and {traced_s[1]:.3f}"]
        notes += tracers[0].table()
        return Outcome(metrics, checks, attempted=3, failed=0, notes=notes)


# ---------------------------------------------------------------------------
# initial data over a family of domains


FAMILY = (
    ("disk", lambda: geometry.ConvexDomain.disk(1.0)),
    ("ellipse(2,1)", lambda: geometry.ConvexDomain.ellipse(2.0, 1.0)),
    ("ellipse(3,1)", lambda: geometry.ConvexDomain.ellipse(3.0, 1.0)),
    ("egg", egg),
    ("lobed", lobed),
)
# (domain, diameter index) pairs where oval construction fails at seed; a
# typed failure anywhere else fails the run
KNOWN_DEFECTS = {("ellipse(3,1)", 0), ("lobed", 0)}
RHO_GRID = (0.3, 0.2, 0.1, 0.05, 0.02)
RHO_RANGE = (0.02, 0.3)
ACCURACY_ATTEMPT = ("egg", 0, 0.02)   # compared with the rho -> 0 limits
OVAL_RESIDUAL_MAX = 1e-10


@dataclass
class Attempt:
    label: str
    index: int
    rho: float
    error: str = None
    ov: object = None
    nodes: np.ndarray = None

    def key(self):
        if self.error is not None:
            return self.error
        par = self.ov.params
        return (float(par.lam).hex(), float(par.xi).hex(),
                hashlib.sha256(self.nodes.tobytes()).hexdigest())


class OvalFamily:
    """Initial data on every diameter of five domains, five rho each."""

    name = "oval_family"
    n_nodes = 200

    def setup(self):
        """Every diameter of every family domain: [(label, index, ndom)]."""
        out = []
        for label, make in FAMILY:
            dom = make()
            for i, d in enumerate(geometry.find_diameters(dom)):
                out.append((label, i, geometry.normalize(dom, d)))
        return out

    @staticmethod
    def rho_grids(n, seed):
        """Five rho per diameter: the fixed grid at the default seed, else
        log-uniform draws, one from each fifth of log [0.02, 0.3]."""
        if seed == DEFAULT_SEED:
            return [RHO_GRID] * n
        rng = np.random.default_rng(seed)
        edges = np.linspace(np.log(RHO_RANGE[0]), np.log(RHO_RANGE[1]),
                            len(RHO_GRID) + 1)
        return [tuple(np.exp(rng.uniform(edges[:-1], edges[1:]))[::-1])
                for _ in range(n)]

    def attempts(self, diameters, seed):
        grids = self.rho_grids(len(diameters), seed)
        return [(label, i, ndom, float(rho))
                for (label, i, ndom), grid in zip(diameters, grids)
                for rho in grid]

    def sweep(self, attempts):
        """Build every attempt's initial data; typed failures are recorded.

        Returns the (start, end) region of each attempt, and the results.
        """
        regions, results = [], []
        for label, i, ndom, rho in attempts:
            res = Attempt(label, i, rho)
            start = time.perf_counter()
            try:
                res.ov = oval.construct_orthogonal_oval(ndom, rho)
                res.nodes = oval.sample_initial_curve(res.ov, self.n_nodes)
            except FBCSFError as exc:
                res.error = type(exc).__name__
            regions.append((start, time.perf_counter()))
            results.append(res)
        return regions, results

    def analyse(self, diameters, times=1):
        """Limits and Robin spectrum each diameter's initial data tends to,
        computed the given number of times."""
        for _ in range(times):
            for _, _, ndom in diameters:
                oval.compute_limits(ndom.kappa1, ndom.kappa2)
                asymptotics.robin_eigen(ndom.kappa1, ndom.kappa2)

    def checks(self, diameters, results):
        doms = {(label, i): ndom.domain for label, i, ndom in diameters}
        unexpected = [r for r in results if r.error is not None
                      and (r.label, r.index) not in KNOWN_DEFECTS]
        bad = []
        for r in results:
            if r.error is not None:
                continue
            ok = (max(r.ov.residuals) <= OVAL_RESIDUAL_MAX
                  and r.nodes.shape == (self.n_nodes, 2)
                  and np.all(np.isfinite(r.nodes))
                  and np.array_equal(r.nodes[0], r.ov.p_second)
                  and np.array_equal(r.nodes[-1], r.ov.p_first)
                  and bool(np.all(doms[r.label, r.index].contains(r.nodes))))
            if not ok:
                bad.append(r)
        built = sum(r.error is None for r in results)
        return unexpected, [
            ("typed failures only on known-defect diameters", not unexpected,
             ", ".join(f"{r.label}:{r.index} rho={r.rho:.4g} {r.error}"
                       for r in unexpected) or "none elsewhere"),
            ("initial data orthogonal, inside, ends on contacts", not bad,
             f"{built - len(bad)} of {built} built"),
        ]

    def accuracy(self, diameters):
        """Initial data at the smallest rho against its rho -> 0 limits.

        The oval's scale tends to lambda0 and its sinh coefficient
        -tanh(lam xi) to the closed form of the limiting profile.
        """
        label, index, rho = ACCURACY_ATTEMPT
        ndom = next(nd for lb, i, nd in diameters if (lb, i) == (label, index))
        ov = oval.construct_orthogonal_oval(ndom, rho)
        lim = oval.compute_limits(ndom.kappa1, ndom.kappa2)
        lam, xi = ov.params.lam, ov.params.xi
        c_cf = asymptotics.closed_form_c(lim.lambda0, ndom.kappa1, ndom.kappa2)
        lam2 = lim.lambda0 ** 2
        ref = REFERENCES[self.name]
        checks = [close_to("reference oval scale", lam, ref["lam"]),
                  close_to("reference oval shift", xi, ref["xi"])]
        metrics = {
            "rate_relerr": (max(abs(lam * lam - lam2) / lam2, ACCURACY_FLOOR),
                            "1"),
            "profile_c_abserr": (max(abs(-np.tanh(lam * xi) - c_cf),
                                     ACCURACY_FLOOR), "1"),
        }
        return metrics, checks

    @staticmethod
    def failure_notes(results):
        """Failure counts by error class, and report lines."""
        failed = [r for r in results if r.error is not None]
        counts = Counter(r.error for r in failed)
        per_diameter = Counter(f"{r.label}:{r.index}" for r in failed)
        return dict(counts), [
            f"failed_frac {len(failed)}/{len(results)} = "
            f"{len(failed) / len(results):.4f}, by class {dict(counts)}",
            "failures by diameter " + (", ".join(
                f"{k} {n}/{len(RHO_GRID)}" for k, n in per_diameter.items())
                or "none"),
        ]

    def measure(self, seed, seconds, probe):
        diameters = self.setup()
        attempts = self.attempts(diameters, seed)
        sweeps, per_attempt, analyses, keys = [], [], [], set()
        start = time.perf_counter()
        while (len(sweeps) < MIN_REPEATS
               or time.perf_counter() - start < seconds):
            (regions, results), region = timed(self.sweep, attempts)
            sweeps.append(region)
            per_attempt.append(regions)
            keys.add(tuple(r.key() for r in results))
            analyses.append(timed(self.analyse, diameters,
                                  FAMILY_ANALYSIS_BATCH)[1])
        run_s = [probe.scaled(*r) for r in sweeps]
        analysis_s = [probe.scaled(*r) / FAMILY_ANALYSIS_BATCH
                      for r in analyses]
        # each attempt's median over the sweeps, then percentiles over attempts
        oval_ms = [1e3 * statistics.median(probe.scaled(*sweep[j])
                                           for sweep in per_attempt)
                   for j in range(len(attempts))]

        unexpected, checks = self.checks(diameters, results)
        checks.append(("sweeps bit-identical", len(keys) == 1,
                       f"{len(run_s)} sweeps, {len(keys)} distinct"))
        acc_metrics, acc_checks = self.accuracy(diameters)
        checks += acc_checks
        metrics = {
            "run_s": (statistics.median(run_s), "s"),
            "analysis_s": (statistics.median(analysis_s), "s"),
            "oval_ms_p50": (percentile(oval_ms, 50), "ms"),
            "oval_ms_p75": (percentile(oval_ms, 75), "ms"),
        }
        metrics.update(acc_metrics)
        _, notes = self.failure_notes(results)
        notes.insert(0, "run_s samples " + ", ".join(f"{s:.3f}" for s in run_s)
                     + " (wall " + ", ".join(f"{b - a:.3f}" for a, b in sweeps)
                     + ")")
        notes.insert(0, f"samples: run_s {len(run_s)} sweeps, analysis_s "
                        f"{len(analysis_s)}, oval_ms {len(oval_ms)} attempts "
                        f"(each the median of its {len(run_s)} sweeps)")
        return Outcome(metrics, checks,
                       attempted=len(attempts) * len(run_s)
                       + FAMILY_ANALYSIS_BATCH * len(analysis_s),
                       failed=len(unexpected) * len(run_s), notes=notes)

    def trace(self, seed, probe):
        setup_tracer = Tracer()
        with setup_tracer.installed():
            diameters = self.setup()
        attempts = self.attempts(diameters, seed)
        (_, plain), plain_region = timed(self.sweep, attempts)
        tracers, keys, traced = [], [], []
        for _ in range(2):
            tracer = Tracer()
            with tracer.installed():
                (_, results), region = timed(self.sweep, attempts)
                self.analyse(diameters)
            tracers.append(tracer)
            keys.append([r.key() for r in results])
            traced.append(region)
        plain_s = probe.scaled(*plain_region)
        traced_s = [probe.scaled(*r) for r in traced]

        unexpected, checks = self.checks(diameters, results)
        checks.append(("traced sweeps bit-identical to untraced",
                       keys[0] == keys[1] == [r.key() for r in plain],
                       "oval scale, shift, sampled nodes, error class"))
        checks.append(("work counts repeat exactly",
                       tracers[0].call_counts() == tracers[1].call_counts(),
                       "calls of every span, two traced sweeps"))
        counts, notes = self.failure_notes(results)
        metrics = layer_metrics(
            setup_tracer, tracers[0], stored_states=0, monitor_samples=0,
            attempts=len(results), failures=counts,
            overhead_s=traced_s[0] - plain_s)
        notes.append(f"untraced sweep {plain_s:.3f} s, traced "
                     f"{traced_s[0]:.3f} and {traced_s[1]:.3f} s")
        notes += tracers[0].table()
        return Outcome(metrics, checks, attempted=3 * len(attempts),
                       failed=3 * len(unexpected), notes=notes)


# why each workload exists: README.md
WORKLOADS = {
    "disk_extinction": FlowWorkload(
        "disk_extinction", lambda: geometry.ConvexDomain.disk(1.0), 200),
    "egg_analysis": FlowWorkload("egg_analysis", egg, 100),
    "oval_family": OvalFamily(),
}
