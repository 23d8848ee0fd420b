import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasibr.domains import Disk, Polygon, Superellipse, regular_polygon
from quasibr.quasinorm import (check_compatibility, eval_rho,
                               rho_lipschitz_probe, rho_omega_grid)
from quasibr.errors import IncompatiblePairError


def test_disk_isotropic_rho_closed_form(disk_pair):
    rng = np.random.default_rng(0)
    xi = rng.normal(scale=30.0, size=(400, 2))
    want = np.hypot(xi[:, 0], xi[:, 1]) / 10.0
    got = eval_rho(disk_pair, xi)
    assert np.max(np.abs(got - want) / np.maximum(want, 1e-12)) < 1e-10


def test_disk_anisotropic_rho_quadratic_oracle(disk_aniso_pair):
    # t^{-A} xi on the circle of radius 10 with A = diag(1, 2):
    # (xi1/t)^2 + (xi2/t^2)^2 = 100, so v = t^2 solves
    # 100 v^2 - xi1^2 v - xi2^2 = 0 and rho = sqrt(v).
    rng = np.random.default_rng(1)
    xi = rng.normal(scale=25.0, size=(400, 2))
    a, b, c = 100.0, -xi[:, 0] ** 2, -xi[:, 1] ** 2
    v = (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)
    want = np.sqrt(v)
    got = eval_rho(disk_aniso_pair, xi)
    assert np.max(np.abs(got - want) / np.maximum(want, 1e-12)) < 1e-10


def test_homogeneity(all_pairs):
    rng = np.random.default_rng(2)
    for name, pair in all_pairs:
        xi = rng.normal(scale=10.0, size=(200, 2))
        base = eval_rho(pair, xi)
        for t in (0.3, 2.0, 17.0):
            scaled = eval_rho(pair, pair.group.apply(t, xi))
            err = np.abs(scaled - t * base) / np.maximum(1.0, t * base)
            assert np.max(err) < 1e-8, name


def test_rho_zero_at_origin(disk_pair):
    assert eval_rho(disk_pair, np.zeros(2)) == 0.0


def test_boundary_projection_lands_on_boundary(all_pairs):
    rng = np.random.default_rng(3)
    for name, pair in all_pairs:
        xi = rng.normal(scale=20.0, size=(100, 2))
        p = pair.boundary_projection(xi)
        th = np.arctan2(p[:, 1], p[:, 0])
        r = np.hypot(p[:, 0], p[:, 1])
        assert np.max(np.abs(r - pair.domain.radial(th))) < 1e-8, name


def test_boundary_angle_orbit_invariant(disk_aniso_pair):
    rng = np.random.default_rng(4)
    xi = rng.normal(scale=5.0, size=(50, 2))
    w0 = disk_aniso_pair.boundary_angle(xi)
    w1 = disk_aniso_pair.boundary_angle(disk_aniso_pair.group.apply(7.0, xi))
    assert np.max(np.abs(np.angle(np.exp(1j * (w1 - w0))))) < 1e-7


def test_incompatible_pair_rejected():
    # a thin slab-like polygon with a strongly shearing dilation has orbit
    # tangents nearly parallel to the long edges
    dom = Polygon([[12, -9], [12, 9], [-12, 9], [-12, -9]])
    A = np.array([[1.0, 0.0], [4.0, 1.0]])
    with pytest.raises(IncompatiblePairError):
        check_compatibility(dom, A)


def test_lipschitz_probe_matches_disk(disk_pair):
    # rho = |xi|/10 has gradient norm 1/10 everywhere
    lip = rho_lipschitz_probe(disk_pair)
    assert 0.09 < lip < 0.11


def test_rho_omega_grid_cached(disk_pair):
    r1, w1 = rho_omega_grid(disk_pair, 64, 8.0)
    r2, w2 = rho_omega_grid(disk_pair, 64, 8.0)
    assert r1 is r2 and w1 is w2
    xi = (np.pi / 8.0) * np.arange(-32, 32)
    X1, X2 = np.meshgrid(xi, xi, indexing="ij")
    assert np.allclose(r1, np.hypot(X1, X2) / 10.0, atol=1e-10)


def test_rho_grid_cache_survives_pair_reuse():
    # grids live on their pair: a fresh pair never sees a freed pair's grid,
    # even when the allocator hands it the same id()
    N, L = 32, 4.0
    xi1 = (np.pi / L) * np.arange(-N // 2, N // 2)
    X1, X2 = np.meshgrid(xi1, xi1, indexing="ij")
    xi = np.stack([X1, X2], axis=-1)
    for cycle in range(20):
        for radius in (10.0, 20.0):
            pair = check_compatibility(Disk(radius), np.eye(2))
            rho, _ = rho_omega_grid(pair, N, L)
            assert np.allclose(rho, eval_rho(pair, xi), rtol=1e-12, atol=0.0), \
                (cycle, radius)
            del pair, rho


_DISK_GROUPS = {"jordan": [[1.0, 0.5], [0.0, 1.0]],
                "complex": [[1.0, -0.5], [0.5, 1.0]]}


@pytest.mark.parametrize("name", ["disk_aniso_pair", "jordan", "complex",
                                  "disk_pair", "hexagon_pair"])
def test_rho_of_a_point_does_not_depend_on_its_batch(request, name):
    # each point stops bisecting at its own bracket width, so rho evaluated
    # one point at a time is bit-equal to rho inside a larger batch
    if name in _DISK_GROUPS:
        pair = check_compatibility(Disk(10.0), np.array(_DISK_GROUPS[name]))
    else:
        pair = request.getfixturevalue(name)
    xi = np.random.default_rng(5).normal(scale=20.0, size=(2000, 2))
    batch = eval_rho(pair, xi)
    alone = np.array([eval_rho(pair, x) for x in xi[:300]])
    assert np.array_equal(alone, batch[:300])


def _bisection_rho(pair, xi):
    """Reference rho: bracket, then bisect in s = log2 t to width 1e-12 on
    the sign of |y| - r(angle(y)), y = (2^s)^{-A} xi (xi nonzero, (n, 2))."""
    def outside(s):
        y = pair.group.apply(2.0 ** (-s), xi)
        r = np.hypot(y[:, 0], y[:, 1])
        return r - pair.domain.radial(np.arctan2(y[:, 1], y[:, 0]))

    amin = max(min(pair.group.eig_re), 1e-3)
    amax = max(pair.group.eig_re)
    s0 = np.log2(np.hypot(xi[:, 0], xi[:, 1]) / 2.0 ** pair.M)
    lo = np.minimum(s0 / amin, s0 / amax) - 1.0
    hi = np.maximum(s0 / amin, s0 / amax) + 1.0
    step = 1.0
    for _ in range(80):
        bad_lo = outside(lo) <= 0.0
        bad_hi = outside(hi) >= 0.0
        if not (bad_lo.any() or bad_hi.any()):
            break
        lo = np.where(bad_lo, lo - step, lo)
        hi = np.where(bad_hi, hi + step, hi)
        step = min(step * 2.0, 16.0)
    while np.any(hi - lo >= 1e-12):
        active = hi - lo >= 1e-12
        mid = 0.5 * (lo + hi)
        out = outside(mid) > 0.0
        lo = np.where(active & out, mid, lo)
        hi = np.where(active & ~out, mid, hi)
    return 2.0 ** (0.5 * (lo + hi))


def _points(seed, n=48):
    """n nonzero points over five decades of |xi| and all directions."""
    rng = np.random.default_rng(seed)
    r = 10.0 ** rng.uniform(-2.0, 3.0, n)
    ang = rng.uniform(-np.pi, np.pi, n)
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)


def _assert_rho_matches_bisection(pair, seed):
    xi = _points(seed)
    want = _bisection_rho(pair, xi)
    got = eval_rho(pair, xi)
    assert np.max(np.abs(got - want) / want) <= 1e-12


_SEEDS = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=15, deadline=None, database=None)
@given(a=st.floats(0.25, 4.0), semi=st.tuples(st.floats(8.5, 20.0),
                                               st.floats(8.5, 20.0)),
       p=st.floats(2.0, 8.0), seed=_SEEDS)
def test_closed_form_rho_matches_bisection_on_superellipses(a, semi, p, seed):
    pair = check_compatibility(Superellipse(semi[0], semi[1], p),
                               a * np.eye(2))
    assert pair.group.scalar == a
    _assert_rho_matches_bisection(pair, seed)


@settings(max_examples=15, deadline=None, database=None)
@given(a=st.floats(0.25, 4.0), k=st.integers(3, 9),
       phase=st.floats(-np.pi, np.pi), seed=_SEEDS)
def test_closed_form_rho_matches_bisection_on_polygons(a, k, phase, seed):
    # circumradius 1.25x the least one whose polygon holds the ball of
    # radius 8
    dom = regular_polygon(k, 1.25 * 8.0 / np.cos(np.pi / k), phase=phase)
    pair = check_compatibility(dom, a * np.eye(2))
    _assert_rho_matches_bisection(pair, seed)


def _general_A(kind, a, x, y):
    """A with Re(eigenvalues) > 0 and positive definite symmetric part, so
    it is compatible with every disk."""
    if kind == "distinct-real":
        return np.array([[a, x * a], [0.0, a * (1.5 + y)]])
    if kind == "jordan":
        return np.array([[a, 1.5 * x * a], [0.0, a]])
    # eigenvalues a +- i a sqrt((0.5 + x)(0.5 + y))
    return np.array([[a, -(0.5 + x) * a], [(0.5 + y) * a, a]])


@settings(max_examples=20, deadline=None, database=None)
@given(kind=st.sampled_from(["distinct-real", "jordan", "complex-pair"]),
       a=st.floats(0.25, 4.0), x=st.floats(0.1, 1.0), y=st.floats(0.0, 1.0),
       radius=st.floats(8.5, 20.0), seed=_SEEDS)
def test_illinois_rho_matches_bisection(kind, a, x, y, radius, seed):
    pair = check_compatibility(Disk(radius), _general_A(kind, a, x, y))
    assert pair.group.scalar is None
    _assert_rho_matches_bisection(pair, seed)


@settings(max_examples=15, deadline=None, database=None)
@given(a=st.floats(0.25, 4.0).filter(lambda v: abs(v - 1.0) > 1e-3),
       k=st.integers(3, 9), seed=_SEEDS)
def test_rho_homogeneous_under_scalar_dilations(a, k, seed):
    pair = check_compatibility(
        regular_polygon(k, 1.25 * 8.0 / np.cos(np.pi / k)), a * np.eye(2))
    xi = _points(seed)
    t = np.exp(np.random.default_rng(seed).uniform(np.log(0.1), np.log(10.0),
                                                   len(xi)))
    base = eval_rho(pair, xi)
    scaled = eval_rho(pair, pair.group.apply(t, xi))
    assert np.max(np.abs(scaled - t * base) / (t * base)) <= 1e-12
