"""Exact solutions of free-boundary curve shortening flow and the walls they
run on, for the flow tests: a semicircle shrinking on a straight wall, the
grim reaper between the orthogonal walls y = -log|sin x|, and a flat
diameter that must not move.  Every curve advances through flow.step, read
from the module at each call, so a test that wraps flow.step sees these
steps too.  A wall is anything with point_xy, jet_xy and normal_xy, the
three methods the step reads (test_step_kernel pins them)."""

import math

import numpy as np

import fbcsf.flow as flow
from fbcsf.errors import FlowError


class StraightWall:
    """The x-axis as a wall, parametrized by abscissa (for the semicircle)."""

    def point_xy(self, p):
        return float(p), 0.0

    def jet_xy(self, p):
        return float(p), 0.0, 1.0, 0.0, 0.0, -1.0, 0.0, 0.0

    def normal_xy(self, p):
        return 0.0, -1.0


class GrimReaperWalls:
    """The curves y = -log|sin x| as walls, parametrized by abscissa
    (for the grim reaper).  They are the orthogonal trajectories of the grim
    reaper's translates y = t - log cos x, met at x = +-arctan(e^-t).
    The pole p = 0, where sin p = 0 and the wall has no point, and a p
    that is not finite raise FlowError, which step answers by halving the
    time step."""

    @staticmethod
    def _sin_cos(p):
        if p == 0.0 or not math.isfinite(p):
            raise FlowError(f"wall abscissa {p} is the pole or not finite")
        return math.sin(p), math.cos(p)

    def point_xy(self, p):
        return p, -math.log(abs(self._sin_cos(p)[0]))

    def jet_xy(self, p):
        s, c = self._sin_cos(p)
        return p, -math.log(abs(s)), 1.0, -c / s, c, s, -s, c

    def normal_xy(self, p):
        """jet_xy(p)[4:6]; FlowError where jet_xy raises it."""
        s, c = self._sin_cos(p)
        return c, s


# stationary diameter's nodes, steps
_DRIFT_NODES = 64
_DRIFT_STEPS = 50


def _step_until(state, wall, t_end, dt_safety):
    """The state stepped as run_to_extinction steps it in the uniform phase
    (h0 the initial spacing, its node count throughout) until t_end is
    reached or passed."""
    n = len(state.nodes)
    cfg = flow.SolverConfig(n_nodes=n, dt_safety=dt_safety)
    h0 = state.length / (n - 1)
    while state.time < t_end:
        state = flow.step(state, cfg, wall, h0)
    return state


def grim_reaper_error(n, t_end, dt_safety):
    """Grim reaper y = t - log cos x between the walls of GrimReaperWalls.

    Starts at t = 0 with contacts at -+pi/4 and n nodes uniform in arc
    length, x = arctan(sinh s); steps it until t_end (_step_until) and
    returns the largest node height error there and the final state."""
    s = np.linspace(-np.arcsinh(1.0), np.arcsinh(1.0), n)
    xs = np.arctan(np.sinh(s))
    state = flow.CurveState(nodes=np.column_stack([xs, -np.log(np.cos(xs))]),
                            time=0.0, om_minus=-np.pi / 4, om_plus=np.pi / 4)
    state = _step_until(state, GrimReaperWalls(), t_end, dt_safety)
    x, y = state.nodes[:, 0], state.nodes[:, 1]
    return float(np.max(np.abs(y - state.time + np.log(np.cos(x))))), state


def semicircle_wall_error(n, t_end, dt_safety):
    """Unit half circle on the x-axis wall shrinking as sqrt(1 - 2t).

    Steps it with n nodes until t_end (_step_until) and returns the
    largest node radius error there and the final state."""
    th = np.linspace(np.pi, 0.0, n)
    pts = np.column_stack([np.cos(th), np.sin(th)])
    pts[0, 1] = pts[-1, 1] = 0.0
    state = flow.CurveState(nodes=pts, time=0.0, om_minus=-1.0, om_plus=1.0)
    state = _step_until(state, StraightWall(), t_end, dt_safety)
    r_exact = np.sqrt(1.0 - 2 * state.time)
    r_num = np.hypot(state.nodes[:, 0] - 0.5 * (state.om_minus + state.om_plus),
                     state.nodes[:, 1])
    return float(np.max(np.abs(r_num - r_exact))), state


def stationary_diameter_drift(ndom):
    """A flat diameter meeting the wall orthogonally must not move."""
    xs = np.linspace(-1.0, 1.0, _DRIFT_NODES)
    pts = np.column_stack([xs, np.zeros_like(xs)])
    state = flow.CurveState(nodes=pts, time=0.0,
                            om_minus=3 * np.pi / 2, om_plus=np.pi / 2)
    wall = flow.wall_for(ndom)
    cfg = flow.SolverConfig(n_nodes=_DRIFT_NODES, dt_safety=0.4)
    h0 = state.length / (_DRIFT_NODES - 1)
    drift = 0.0
    for _ in range(_DRIFT_STEPS):
        state = flow.step(state, cfg, wall, h0)
        drift = max(drift, float(np.max(np.abs(state.nodes[:, 1]))))
    return drift
