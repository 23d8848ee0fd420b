import tracemalloc

import numpy as np
import pytest

from quasibr.domains import (Disk, Superellipse, Polygon, regular_polygon,
                             domain_from_config, boundary_arc, compute_M,
                             smooth_approximate, eta_bump)
from quasibr.errors import ConfigError, GeometryError


def test_dyadic_scale_exponents():
    assert compute_M(Disk(10.0)) == 4
    assert compute_M(Superellipse(10.0, 10.0, 4.0)) == 4
    assert compute_M(regular_polygon(6, 12.0, phase=np.pi / 2)) == 4
    square = Polygon([[12, -12], [12, 12], [-12, 12], [-12, -12]])
    assert compute_M(square) == 5


def test_m_is_least():
    # max radius must be < 2^M but not < 2^{M-1}
    for dom in (Disk(10.0), regular_polygon(6, 12.0)):
        M = compute_M(dom)
        assert dom.max_radius() < 2.0 ** M
        assert dom.max_radius() >= 2.0 ** (M - 1)


def test_domains_contain_reference_ball():
    with pytest.raises(GeometryError):
        domain_from_config({"type": "disk", "radius": 5.0})


def test_disk_radial():
    th = np.linspace(-np.pi, np.pi, 17)
    assert np.allclose(Disk(10.0).radial(th), 10.0)
    assert np.allclose(Disk(10.0).radial_derivative(th), 0.0)


def test_superellipse_radial_oracle():
    se = Superellipse(10.0, 8.0, 4.0)
    th = np.linspace(-np.pi, np.pi, 101)
    r = se.radial(th)
    x, y = r * np.cos(th), r * np.sin(th)
    assert np.allclose(np.abs(x / 10.0) ** 4 + np.abs(y / 8.0) ** 4, 1.0)
    # derivative against finite differences
    eps = 1e-6
    fd = (se.radial(th + eps) - se.radial(th - eps)) / (2 * eps)
    assert np.allclose(se.radial_derivative(th), fd, atol=1e-6)


def test_superellipse_radial_finite_for_huge_exponent():
    # p = 1e6 is a near-square of half-side 10: the p-th power sum would
    # underflow to 0 unless the larger term is factored out first
    se = Superellipse(10.0, 10.0, 1e6)
    assert abs(se.max_radius() - 10.0 * np.sqrt(2.0)) < 1e-3
    th = np.linspace(-np.pi, np.pi, 101)
    assert np.all(np.isfinite(se.radial(th)))
    assert np.all(np.isfinite(se.radial_derivative(th)))


def test_polygon_radial_hits_edges():
    square = Polygon([[12, -12], [12, 12], [-12, 12], [-12, -12]])
    assert np.isclose(square.radial(0.0), 12.0)
    assert np.isclose(square.radial(np.pi / 4), 12.0 * np.sqrt(2.0))
    # point on an edge: x = 12 for all angles in (-pi/4, pi/4)
    th = np.linspace(-np.pi / 4 + 0.05, np.pi / 4 - 0.05, 11)
    r = square.radial(th)
    assert np.allclose(r * np.cos(th), 12.0)


def test_polygon_rejects_nonconvex():
    with pytest.raises(GeometryError):
        Polygon([[12, 0], [3, 3], [0, 12], [-12, 0], [0, -12]])


def test_contains():
    dom = Superellipse(10.0, 10.0, 4.0)
    assert dom.contains(np.array([0.0, 0.0]))
    assert dom.contains(np.array([9.9, 0.0]))
    assert not dom.contains(np.array([10.1, 0.0]))


def test_boundary_arc_graph_geometry():
    # disk, no rotation: u(t) = -sqrt(R^2 - t^2), gamma = 2^M + u in (1, 2^M)
    arc = boundary_arc(Disk(10.0), 0.0)
    t = np.linspace(-1.0, 1.0, 41)
    want = -np.sqrt(100.0 - t ** 2)
    assert np.allclose(arc.u(t), want, atol=1e-8)
    assert np.allclose(arc.gamma(t), 2.0 ** 4 + want, atol=1e-8)
    assert np.all(arc.gamma(t) > 1.0) and np.all(arc.gamma(t) < 2.0 ** 4)


def test_boundary_arc_square_edge_flat():
    square = Polygon([[12, -12], [12, 12], [-12, 12], [-12, -12]])
    arc = boundary_arc(square, 0.0)
    t = np.linspace(-1.0, 1.0, 21)
    assert np.allclose(arc.u(t), -12.0, atol=1e-12)
    assert np.allclose(arc.gamma_left(t), 0.0, atol=1e-12)


def test_boundary_arc_slopes_monotone():
    arc = boundary_arc(Superellipse(10.0, 10.0, 4.0), 0.3)
    t = np.linspace(-1.0, 1.0, 201)
    gl = arc.gamma_left(t)
    gr = arc.gamma_right(t)
    assert np.all(np.diff(gl) >= -1e-9)          # convexity
    assert np.all(gr + 1e-12 >= gl)              # left <= right slope


def test_eta_bump_normalized():
    x = np.linspace(-1.5, 1.5, 20001)
    mass = np.trapezoid(eta_bump(x), x)
    assert abs(mass - 1.0) < 1e-6
    assert eta_bump(np.array([1.0, -1.0, 2.0])).max() == 0.0


def test_smooth_approximate_is_convex_and_close():
    dom = regular_polygon(6, 12.0, phase=np.pi / 2)
    sm = smooth_approximate(dom, 720)
    th = np.linspace(-np.pi, np.pi, 360)
    assert np.max(np.abs(sm.radial(th) - dom.radial(th))) < 0.5
    assert sm.convexity_defect() < 1e-6


def test_inner_radius_matches_one_shot_support_matrix_in_small_memory():
    dom = Superellipse(10.0, 10.0, 4.0)
    th = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    u = np.stack([np.cos(th), np.sin(th)], axis=-1)
    want = float(np.min(np.max(dom.boundary_point(th) @ u.T, axis=0)))
    tracemalloc.start()
    try:
        got = dom.inner_radius()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 64e6
