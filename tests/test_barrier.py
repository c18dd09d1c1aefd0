import numpy as np
import pytest

from fbcsf import barrier as bar
from fbcsf import oval
from fbcsf.errors import ConfigError, RhoTooLarge


# ---------------------------------------------------------------------------
# admissible radius and config


def test_admissible_radius_disk(ndisk):
    assert bar.admissible_radius(ndisk) == pytest.approx(0.25, abs=1e-12)


def test_admissible_radius_formula_arithmetic():
    # curvature pinch kappa in [0.9, 1.1]: the binding constraint is kmin/4
    assert min(0.9 / 4.0, 1.0 / (4.0 * 1.1)) == pytest.approx(0.225, abs=1e-15)


def test_admissible_radius_ellipse_minor(nellipse_minor):
    dom = nellipse_minor.domain
    expect = min(dom.kappa_min / 4.0, 1.0 / (4.0 * dom.kappa_max))
    r = bar.admissible_radius(nellipse_minor)
    assert r == pytest.approx(expect, rel=1e-12)
    assert r == pytest.approx(0.0625, rel=1e-6)


def test_admissible_radius_egg(negg):
    dom = negg.domain
    expect = min(dom.kappa_min / 4.0, 1.0 / (4.0 * dom.kappa_max))
    assert bar.admissible_radius(negg) == pytest.approx(expect, rel=1e-12)


def test_admissible_radius_raises_when_the_circles_leave(ndisk,
                                                         monkeypatch):
    # the fit is checked once, at the pinch radius, and never shrunk
    monkeypatch.setattr(bar, "_fit_violation", lambda dom, r: 1.0)
    with pytest.raises(ConfigError):
        bar.admissible_radius(ndisk)


@pytest.mark.parametrize("fix", ["ndisk", "negg", "nellipse_minor"])
def test_config_curvature_pinch_and_fit(fix, request):
    ndom = request.getfixturevalue(fix)
    cfg = bar.BarrierConfig.from_domain(ndom)
    r = cfg.r
    om = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    kap = ndom.domain.curvature(om)
    assert np.all(4.0 * r <= kap + 1e-12)
    assert np.all(kap <= 1.0 / (4.0 * r) + 1e-12)
    assert cfg.centers == ((-(1.0 - r), 0.0), (1.0 - r, 0.0))
    # both tangent circles sit inside the domain
    assert bar._fit_violation(ndom.domain, r) <= 1e-10


# ---------------------------------------------------------------------------
# unit-disk arcs


def test_unit_arc_quarter():
    arc = bar.unit_disk_arc(np.pi / 4)
    assert arc.center == pytest.approx([0.0, np.sqrt(2.0)], abs=1e-14)
    assert arc.radius == pytest.approx(1.0, abs=1e-14)
    s2 = np.sqrt(2.0) / 2.0
    assert np.allclose(arc.endpoints, [[-s2, s2], [s2, s2]], atol=1e-14)
    assert arc.curvature == pytest.approx(1.0, abs=1e-14)


def test_unit_arc_degenerates_to_top_point():
    arc = bar.unit_disk_arc(np.pi / 2 - 1e-9)
    assert arc.radius < 2e-9
    assert np.allclose(arc.endpoints, [[0.0, 1.0], [0.0, 1.0]], atol=1e-8)


@pytest.mark.parametrize("omega", [0.1, 0.5, 1.0])
def test_unit_arc_meets_circle_orthogonally(omega):
    arc = bar.unit_disk_arc(omega)
    for ep in arc.endpoints:
        n_arc = arc.center - ep
        n_arc = n_arc / np.linalg.norm(n_arc)
        radial = ep / np.linalg.norm(ep)
        # the disk's radial direction is tangent to the arc at the endpoint
        assert abs(n_arc @ radial) < 1e-10


def test_unit_arc_endpoints_on_circle_grid():
    for omega in np.linspace(0.01, np.pi / 2 - 0.01, 50):
        arc = bar.unit_disk_arc(omega)
        assert np.all(np.abs(np.hypot(*arc.endpoints.T) - 1.0) < 1e-12)


@pytest.mark.parametrize("omega", [0.0, np.pi / 2, -0.1, 2.0])
def test_unit_arc_rejects_bad_omega(omega):
    with pytest.raises(ConfigError):
        bar.unit_disk_arc(omega)


def test_arc_height_matches_circle_equation():
    arc = bar.unit_disk_arc(0.7)
    xs = np.linspace(-0.9, 0.9, 11) * np.cos(0.7)
    ys = arc.height(xs)
    lhs = xs ** 2 + (1.0 / np.sin(0.7) - ys) ** 2
    assert np.allclose(lhs, (1.0 / np.tan(0.7)) ** 2, atol=1e-13)


# ---------------------------------------------------------------------------
# composite barrier


def test_barrier_omega_schedule(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    assert cfg.r == pytest.approx(0.25)
    B = bar.barrier_at(-cfg.r ** 2 * 0.1, cfg)
    assert B.omega == pytest.approx(np.arcsin(np.exp(-0.2)), rel=1e-13)
    assert B.omega == pytest.approx(0.9591969745502804, abs=1e-12)
    B1 = bar.barrier_at(-1.0, cfg)
    assert B1.omega == pytest.approx(np.exp(-32.0), rel=1e-10)
    assert not B1.degenerate


def test_barrier_underflow_returns_diameter(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    B = bar.barrier_at(-30.0, cfg)
    assert B.degenerate
    assert B.omega == 0.0
    assert B.x_span == (-1.0, 1.0)
    assert np.all(B.height(np.linspace(-1, 1, 7)) == 0.0)
    assert B.apex_height == 0.0 and B.max_height == 0.0


def test_barrier_near_zero_time(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    B = bar.barrier_at(-cfg.r ** 2 * 1e-9, cfg)
    # arcs shrink toward points at height r above the circle centers
    assert B.arc_half_width < 1e-4
    assert B.max_height == pytest.approx(cfg.r, rel=1e-8)
    assert B.apex_height == pytest.approx(cfg.r, rel=1e-4)


def test_barrier_rejects_nonnegative_time(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    for t in (0.0, 0.5):
        with pytest.raises(ConfigError):
            bar.barrier_at(t, cfg)


def test_scaled_arcs_meet_tangent_circles_orthogonally(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    for t in (-cfg.r ** 2 * 1.5, -cfg.r ** 2 * 0.2):
        B = bar.barrier_at(t, cfg)
        arc = bar.unit_disk_arc(B.omega)
        for side, center in zip((-1.0, 1.0), cfg.centers):
            c = np.asarray(center)
            for ep_unit in arc.endpoints:
                ep = cfg.r * ep_unit + np.array([side * (1 - cfg.r), 0.0])
                assert abs(np.hypot(*(ep - c)) - cfg.r) < 1e-12
                n_arc = (np.array([side * (1 - cfg.r), 0.0])
                         + cfg.r * arc.center) - ep
                n_arc = n_arc / np.linalg.norm(n_arc)
                radial = (ep - c) / cfg.r
                assert abs(n_arc @ radial) < 1e-10


def test_segment_joins_inner_arc_endpoints(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    B = bar.barrier_at(-cfg.r ** 2 * 0.4, cfg)
    seg = B.segment
    h = cfg.r * np.sin(B.omega)
    xi = (1.0 - cfg.r) - cfg.r * np.cos(B.omega)
    assert np.allclose(seg, [[-xi, h], [xi, h]], atol=1e-14)
    # graph is continuous across the joints
    eps = 1e-9
    assert B.height(xi - eps) == pytest.approx(h, abs=1e-7)
    assert B.height(xi + eps) == pytest.approx(h, abs=1e-7)


def test_barrier_height_piecewise(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    B = bar.barrier_at(-cfg.r ** 2 * 0.3, cfg)
    assert B.height(0.0) == pytest.approx(B.max_height, abs=1e-14)
    assert B.height(1.0 - cfg.r) == pytest.approx(B.apex_height, abs=1e-14)
    assert np.isnan(B.height(B.x_span[1] + 1e-6))
    xs = np.linspace(*B.x_span, 401)
    hs = B.height(xs)
    assert np.all(np.isfinite(hs))
    assert np.all(hs >= B.apex_height - 1e-14)
    assert np.all(hs <= B.max_height + 1e-14)


def test_barrier_max_height_monotone(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    ts = -cfg.r ** 2 * np.linspace(4.0, 0.05, 40)
    hs = [bar.barrier_at(t, cfg).max_height for t in ts]
    assert np.all(np.diff(hs) > 0.0)


# ---------------------------------------------------------------------------
# tangency time (placement of the barrier over initial data)


def test_tangency_time_touches_apex(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    for rho in (0.05, 0.1, 0.2):
        t = bar.tangency_time(rho, cfg.r)
        assert t < 0.0
        B = bar.barrier_at(t, cfg)
        assert B.apex_height == pytest.approx(rho, rel=1e-12)


def test_tangency_time_frozen_value():
    # (r^2/2) log sin(2 arctan(rho/r)) at rho = 0.15, r = 1/4
    assert bar.tangency_time(0.15, 0.25) == pytest.approx(
        -0.003911348217312689, rel=1e-13)


@pytest.mark.parametrize("rho", [0.25, 0.3, 0.0, -0.1])
def test_tangency_time_requires_rho_below_r(rho):
    with pytest.raises(RhoTooLarge):
        bar.tangency_time(rho, 0.25)


# ---------------------------------------------------------------------------
# supersolution property


def test_supersolution_apex_closed_form():
    # vertical FD speed at the symmetry axis against the analytic rate
    t = -0.3
    w = bar.omega_of_time(t)
    closed = np.tan(w) * np.tan(w / 2.0) ** 2
    fd = bar.supersolution_residual(1.0, [t], x_fracs=np.array([0.0]))
    assert fd == pytest.approx(closed, abs=5e-6)
    assert closed > 0.0


def test_supersolution_endpoints_at_omega_half():
    t = 0.5 * np.log(np.sin(0.5))
    assert bar.omega_of_time(t) == pytest.approx(0.5, rel=1e-14)
    res = bar.supersolution_residual(1.0, [t], x_fracs=np.array([-1.0, 1.0]))
    assert res >= 0.0


def test_supersolution_scaled_family_grid(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    ts = -cfg.r ** 2 * np.linspace(2.0, 0.1, 9)
    assert bar.supersolution_residual(cfg.r, ts) >= -1e-6


def test_supersolution_scale_relation():
    # residuals of the scaled family are 1/r times the unit-family ones
    tau = -0.3
    r = 0.25
    res_unit = bar.supersolution_residual(1.0, [tau])
    res_r = bar.supersolution_residual(r, [r * r * tau])
    assert r * res_r == pytest.approx(res_unit, abs=1e-4)
    assert res_unit >= -1e-6 and res_r >= -1e-6


def test_supersolution_rejects_underflowed_time():
    with pytest.raises(ConfigError):
        bar.supersolution_residual(0.25, [-30.0])


# ---------------------------------------------------------------------------
# vertical comparison


def test_below_barrier_self_margin_zero(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    B = bar.barrier_at(-cfg.r ** 2 * 0.1, cfg)
    xs = np.linspace(*B.x_span, 201)
    ok, margin = bar.below_barrier(np.column_stack([xs, B.height(xs)]), B)
    assert ok
    assert abs(margin) < 1e-10


def test_below_barrier_diameter_margin_is_min_height(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    B = bar.barrier_at(-cfg.r ** 2 * 0.1, cfg)
    xs = np.unique(np.concatenate([
        np.linspace(*B.x_span, 101), [-(1 - cfg.r), 1 - cfg.r]]))
    diam = np.column_stack([xs, np.zeros_like(xs)])
    ok, margin = bar.below_barrier(diam, B)
    assert ok
    assert margin == pytest.approx(B.apex_height, abs=1e-14)


def test_below_barrier_detects_violation(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    B = bar.barrier_at(-cfg.r ** 2 * 0.1, cfg)
    above = np.array([[0.0, B.max_height + 0.01]])
    ok, margin = bar.below_barrier(above, B)
    assert not ok
    assert margin == pytest.approx(-0.01, abs=1e-12)


def test_below_barrier_disjoint_ranges(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    B = bar.barrier_at(-cfg.r ** 2 * 0.1, cfg)
    off = np.array([[B.x_span[1] + 0.05, 0.0], [B.x_span[1] + 0.1, 0.0]])
    ok, margin = bar.below_barrier(off, B)
    assert ok
    assert margin == np.inf


def test_initial_oval_sits_below_tangency_barrier(ndisk):
    cfg = bar.BarrierConfig.from_domain(ndisk)
    ov = oval.construct_orthogonal_oval(ndisk, 0.15)
    crv = oval.sample_initial_curve(ov, 600)
    h_max = float(crv[:, 1].max())
    t_hat = bar.tangency_time(h_max, cfg.r)
    ok, margin = bar.below_barrier(crv, bar.barrier_at(t_hat, cfg))
    assert ok
    assert margin >= 0.0
