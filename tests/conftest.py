from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from fbcsf import asymptotics
from fbcsf import geometry as g
from fbcsf import flow as flow_mod

# property tests draw the same examples on every run, and read or write no
# example database, so unchanged code cannot fail on a fresh draw
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def disk():
    return g.ConvexDomain.disk(1.0)


@pytest.fixture(scope="session")
def ellipse():
    return g.ConvexDomain.ellipse(2.0, 1.0)


@pytest.fixture(scope="session")
def flat_ellipse():
    # the flattest benchmark domain: 108 position harmonics
    return g.ConvexDomain.ellipse(3.0, 1.0)


@pytest.fixture(scope="session")
def egg():
    # strictly convex, a single mirror symmetry broken by the sin 3w term
    return g.ConvexDomain([1.0, 0.0, 0.2], [0.0, 0.0, 0.0, 0.1])


@pytest.fixture(scope="session")
def lobed():
    # strictly convex with no mirror symmetry; on its longest diameter the
    # orthogonal oval has a positive shift at every rho
    return g.ConvexDomain([1.0, 0.0, 0.05, 0.1, 0.0, 0.08],
                          [0.0, 0.0, 0.1, 0.0, 0.05])


@pytest.fixture(scope="session")
def ndisk(disk):
    return g.normalize(disk, g.find_diameters(disk)[0])


@pytest.fixture(scope="session")
def negg(egg):
    return g.normalize(egg, g.find_diameters(egg)[0])


@pytest.fixture(scope="session")
def nellipse_major(ellipse):
    return g.normalize(ellipse, g.find_diameters(ellipse)[0])


@pytest.fixture(scope="session")
def nellipse_minor(ellipse):
    return g.normalize(ellipse, g.find_diameters(ellipse)[1])


@pytest.fixture(scope="session")
def nlobed(lobed):
    return g.normalize(lobed, g.find_diameters(lobed)[0])


# ---------------------------------------------------------------------------
# the step count, resample events and switch offset (the offset time of the
# first collapse-phase step's state) of each shared flow run built in this
# session, by name, printed in the terminal summary: all are deterministic,
# so a change that keeps the step sequence shows it
_FIXTURE_STEPS = {}


def pytest_terminal_summary(terminalreporter):
    # the package's size: its source lines and settable values
    from test_settable_values import package_settable_values
    lines = sum(path.read_bytes().count(b"\n") for path in
                Path(g.__file__).parent.glob("*.py"))
    terminalreporter.section("src/fbcsf: lines, settable values")
    terminalreporter.write_line(
        f"{lines:6d} {len(package_settable_values()):4d}")
    # the oval-only footprint: a fresh interpreter that imports every
    # module and builds one oval (None: no /proc/self to read it from)
    from test_import_footprint import oval_only_footprint
    footprint = oval_only_footprint()
    terminalreporter.section(
        "oval-only process: peak RSS MB, LAPACK mapped, Brent mapped")
    terminalreporter.write_line(f"{footprint['peak_rss_mb']} "
                                f"{footprint['flapack_mapped']} "
                                f"{footprint['zeros_mapped']}")
    # the limit and Robin solves on the benchmark's nine diameters, and the
    # oval builds' solves of the default oval_family sweep: a change that
    # keeps their iterates keeps the counts; and the samples that
    # robin_eigen's root scans read on the diameters
    from test_limit_solves import (benchmark_chords, scan_samples,
                                   spectral_solve_counts, sweep_solve_counts)
    chords = benchmark_chords()
    solves, evaluations = spectral_solve_counts(chords)
    terminalreporter.section(
        "compute_limits + robin_eigen: safe_brentq calls, evaluations; "
        "robin_eigen scan samples")
    terminalreporter.write_line(
        f"{solves:6d} {evaluations:6d} {scan_samples(chords):6d}")
    solves, evaluations, _ = sweep_solve_counts()
    terminalreporter.section(
        "oval_family default sweep: safe_brentq calls, evaluations")
    terminalreporter.write_line(f"{solves:6d} {evaluations:6d}")
    if not _FIXTURE_STEPS:
        return
    terminalreporter.section("shared flow runs: steps, resamples, switch")
    for name, (steps, resamples, switch) in _FIXTURE_STEPS.items():
        terminalreporter.write_line(
            f"{steps:6d} {resamples:4d} {switch:9.5f}  {name}")


# ---------------------------------------------------------------------------
# shared flow runs.  Keyed by (domain, rho, n_nodes); computed once per
# session on first request so the expensive trajectories are paid for once.
# runs.stepped(name) lists the states that flow.step returned during the
# run, in order, runs.held(name) whether each step was in the collapse
# phase (h0 None), runs.resampled(name) whether each step resampled (its
# new state's newest level is not the stepped state's nodes), and
# runs.spec(name) the run's (normalized domain, rho, n_nodes).

_RUN_SPECS = {
    "disk_r03_n100": ("disk", 0.3, 100),
    "disk_r03_n200": ("disk", 0.3, 200),
    "disk_r015_n100": ("disk", 0.15, 100),
    "disk_r01_n200": ("disk", 0.1, 200),
    "egg_r01_n100": ("egg", 0.1, 100),
    "minor_r01_n100": ("minor", 0.1, 100),
}


@pytest.fixture(scope="session")
def runs(ndisk, negg, nellipse_minor):
    doms = {"disk": ndisk, "egg": negg, "minor": nellipse_minor}
    cache, stepped, held, resampled = {}, {}, {}, {}
    step = flow_mod.step

    def get(name):
        if name not in cache:
            dom_key, rho, n = _RUN_SPECS[name]
            cfg = flow_mod.SolverConfig(n_nodes=n, dt_safety=0.8)
            stepped[name], held[name], resampled[name] = [], [], []

            def recording_step(*args):
                new = step(*args)
                stepped[name].append(new)
                held[name].append(args[3] is None)
                resampled[name].append(new._prev[0][0].nodes
                                       is not args[0].nodes)
                return new

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(flow_mod, "step", recording_step)
                cache[name] = flow_mod.old_but_not_ancient(
                    doms[dom_key], rho, cfg)
            _FIXTURE_STEPS[name] = (
                len(stepped[name]), sum(resampled[name]),
                float(cache[name].monitors["t"][held[name].index(True)]))
        return cache[name]

    def get_stepped(name):
        get(name)
        return stepped[name]

    def get_held(name):
        get(name)
        return held[name]

    def get_resampled(name):
        get(name)
        return resampled[name]

    def get_spec(name):
        dom_key, rho, n = _RUN_SPECS[name]
        return doms[dom_key], rho, n

    get.stepped, get.held, get.spec = get_stepped, get_held, get_spec
    get.resampled = get_resampled
    return get


@pytest.fixture(scope="session")
def disk_sweep(ndisk):
    cfg = flow_mod.SolverConfig(n_nodes=200, dt_safety=0.8)
    return asymptotics.ancient_sweep(ndisk, [0.2, 0.1, 0.05], cfg)


@pytest.fixture(scope="session")
def egg_sweep(negg):
    # same-side runs whose extinction alignment leaves a time error of a
    # few 1e-5, which the shift search takes up
    cfg = flow_mod.SolverConfig(n_nodes=100, dt_safety=0.8)
    return asymptotics.ancient_sweep(negg, [0.1, 0.05, 0.025], cfg)

