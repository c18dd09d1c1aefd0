import numpy as np
import pytest
from hypothesis import settings

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
# shared flow runs.  Keyed by (domain, rho, n_nodes); computed once per
# session on first request so the expensive trajectories are paid for once.
# runs.stepped(name) lists the states that flow.step returned during the
# run, in order.

_RUN_SPECS = {
    "disk_r03_n100": ("disk", 0.3, 100),
    "disk_r03_n200": ("disk", 0.3, 200),
    "disk_r015_n100": ("disk", 0.15, 100),
    "egg_r01_n100": ("egg", 0.1, 100),
}


@pytest.fixture(scope="session")
def runs(ndisk, negg):
    doms = {"disk": ndisk, "egg": negg}
    cache, stepped = {}, {}
    step = flow_mod.step

    def get(name):
        if name not in cache:
            dom_key, rho, n = _RUN_SPECS[name]
            cfg = flow_mod.SolverConfig(n_nodes=n, dt_safety=0.8)
            stepped[name] = []

            def recording_step(*args):
                new = step(*args)
                stepped[name].append(new)
                return new

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(flow_mod, "step", recording_step)
                cache[name] = flow_mod.old_but_not_ancient(doms[dom_key],
                                                           rho, cfg)
        return cache[name]

    def get_stepped(name):
        get(name)
        return stepped[name]

    get.stepped = get_stepped
    return get


@pytest.fixture(scope="session")
def disk_sweep(ndisk):
    cfg = flow_mod.SolverConfig(n_nodes=200, dt_safety=0.8)
    return flow_mod.ancient_sweep(ndisk, [0.2, 0.1, 0.05], cfg)

