import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quasibr.bumps import BumpLibrary
from quasibr.domains import Disk, Superellipse, regular_polygon
from quasibr.errors import IncompatiblePairError
from quasibr.grid import GridField
from quasibr.lwp import (tile_bump, tile_projection_square_function,
                         check_tile_bump_reproduction, dyadic_shell_bump,
                         dyadic_projection_square_function)
from quasibr.quasinorm import check_compatibility, rho_omega_grid
from quasibr.tiling import Tiling
from test_quasinorm import _general_A


def test_tile_bump_reproduces_sigma(disk_pair):
    delta = 2.0 ** -4
    tiling = Tiling(disk_pair, delta, n_range=(-1, 1))
    lib = BumpLibrary(tiling)
    assert check_tile_bump_reproduction(lib, n_tiles=40) == 0.0


def test_tile_bump_reproduces_sigma_hexagon(hexagon_pair):
    delta = 2.0 ** -5
    tiling = Tiling(hexagon_pair, delta)
    lib = BumpLibrary(tiling)
    assert check_tile_bump_reproduction(lib, n_tiles=25) < 1e-14


@st.composite
def _compatible_pairs(draw):
    """A disk, superellipse or regular polygon holding the ball of radius 8,
    with A = a I or one of test_quasinorm's general matrices."""
    shape = draw(st.sampled_from(["disk", "superellipse", "polygon"]))
    if shape == "disk":
        domain = Disk(draw(st.floats(8.5, 20.0)))
    elif shape == "superellipse":
        domain = Superellipse(draw(st.floats(8.5, 20.0)),
                              draw(st.floats(8.5, 20.0)),
                              draw(st.floats(2.0, 8.0)))
    else:
        k = draw(st.integers(3, 9))
        domain = regular_polygon(
            k, draw(st.floats(1.05, 2.0)) * 8.0 / np.cos(np.pi / k),
            phase=draw(st.floats(-np.pi, np.pi)))
    kind = draw(st.sampled_from(["scalar", "distinct-real", "jordan",
                                 "complex-pair"]))
    a = draw(st.floats(0.25, 4.0))
    A = (a * np.eye(2) if kind == "scalar" else
         _general_A(kind, a, draw(st.floats(0.1, 1.0)),
                    draw(st.floats(0.0, 1.0))))
    try:
        return check_compatibility(domain, A)
    except IncompatiblePairError:
        assume(False)


def _check_partition_and_tile_bumps(pair, k, seed):
    lib = BumpLibrary(Tiling(pair, 2.0 ** -k, n_range=(-1, 1)))
    rng = np.random.default_rng(seed)
    ang = rng.uniform(-np.pi, np.pi, 2000)
    lev = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 2000))
    pts = pair.group.apply(lev, pair.domain.boundary_point(ang))
    rho = pair.rho(pts)
    omega = pair.boundary_angle(pts, rho)
    assert np.max(np.abs(lib.sum_sigma(rho, omega) - 1.0)) <= 1e-12
    assert check_tile_bump_reproduction(lib, n_tiles=10) < 1e-14


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(pair=_compatible_pairs(), k=st.sampled_from([4, 5]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_partition_and_tile_bumps_on_random_pairs(pair, k, seed):
    _check_partition_and_tile_bumps(pair, k, seed)


# elongated superellipses whose sector windows run past a vertical tangent
# of the rotated boundary
@pytest.mark.parametrize("a, b, p", [(8.5, 20.0, 4.0), (8.5, 20.0, 6.0),
                                     (8.5, 20.0, 8.0), (20.0, 8.5, 8.0),
                                     (10.0, 20.0, 8.0)])
@pytest.mark.parametrize("k", [4, 5])
def test_partition_and_tile_bumps_on_elongated_superellipses(a, b, p, k):
    pair = check_compatibility(Superellipse(a, b, p), np.eye(2))
    _check_partition_and_tile_bumps(pair, k, seed=0)


def test_tile_bump_has_bounded_support(disk_pair):
    delta = 2.0 ** -4
    tiling = Tiling(disk_pair, delta)
    lib = BumpLibrary(tiling)
    idx = tiling.size // 2
    # far away in rho the bump vanishes
    rho = np.array([tiling.rho_hi[idx] * 30.0, tiling.rho_lo[idx] / 30.0])
    omega = np.full(2, 0.5 * (tiling.omega_lo[idx] + tiling.omega_hi[idx]))
    assert np.all(tile_bump(lib, idx, rho, omega) == 0.0)
    # on the opposite side of the circle it vanishes too
    rho = np.full(2, tiling.rho_lo[idx])
    assert np.all(tile_bump(lib, idx, rho, omega + np.pi) == 0.0)


def test_dyadic_shell_bump_plateau():
    rho = np.array([0.0, 0.2, 0.5, 1.0, 2.0, 4.2, 8.0])
    b = dyadic_shell_bump(rho, 0)
    assert b[0] == 0.0 and b[1] == 0.0 and b[5] == 0.0 and b[6] == 0.0
    assert b[2] == 1.0 and b[3] == 1.0 and b[4] == 1.0


def test_dyadic_square_function_thin_ring_oracle(disk_pair):
    # spectrum on a thin ring rho ~ rho0: every shell piece is the scalar
    # b_n(rho0) times f, so the square function is sqrt(sum b_n^2) |f|
    N, L = 128, 12.0
    rho, _ = rho_omega_grid(disk_pair, N, L)
    ring = np.abs(rho - 1.3) < 0.002
    spec = np.where(ring, 1.0 + 0j, 0.0)
    f = GridField(N, L, spec, "frequency")
    sq = dyadic_projection_square_function(disk_pair, f)
    rho0 = float(rho[ring].mean())
    c = np.sqrt(sum(dyadic_shell_bump(np.array([rho0]), n)[0] ** 2
                    for n in range(-3, 4)))
    fx = np.abs(f.to_physical().values)
    keep = fx > 0.0
    # shell leakage swamps cells where |f| is tiny, so compare the median
    c_grid = float(np.median(sq.values.real[keep] / fx[keep]))
    assert abs(c_grid - c) / c < 5e-4


def test_tile_square_function_stable_under_refinement(disk_pair):
    delta = 2.0 ** -4
    ratios = []
    for N, L in ((128, 12.0), (256, 24.0)):
        tiling = Tiling(disk_pair, delta, n_range=(-1, 1))
        lib = BumpLibrary(tiling)
        rho, omega = rho_omega_grid(disk_pair, N, L)
        sec = tiling.sectors[0]
        span = np.mod(sec.omega_end - sec.omega_start, 2 * np.pi)
        band = (np.abs(rho - 1.0) < delta) & \
            (np.mod(omega - sec.omega_start, 2 * np.pi) <= span)
        spec = np.where(band, 1.0 + 0j, 0.0)
        f = GridField(N, L, spec, "frequency")
        sq = tile_projection_square_function(disk_pair, delta, f, lib)
        ratios.append(sq.norm(2) / f.to_physical().norm(2))
    assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.25
