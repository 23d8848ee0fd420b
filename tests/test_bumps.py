import numpy as np
import pytest
import scipy.integrate

from quasibr.bumps import (smoothstep, plateau, phi0, interval_bump,
                           BumpLibrary, full_annulus_symbol,
                           kernel_from_rho_symbol, kernel_annulus_l1,
                           symbol_to_kernel)
from quasibr.errors import ConfigError, ResolutionError
from quasibr.quasinorm import rho_omega_grid
from quasibr.tiling import Tiling


def test_smoothstep_shape():
    x = np.linspace(-1.0, 2.0, 301)
    y = smoothstep(x)
    assert np.all(y[x <= 0] == 0.0)
    assert np.all(y[x >= 1] == 1.0)
    assert np.all(np.diff(y) >= 0.0)
    # exact complement symmetry makes step pairs telescope exactly
    assert np.allclose(smoothstep(x) + smoothstep(1.0 - x), 1.0, atol=1e-15)


def test_plateau_shape():
    x = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    y = plateau(x)
    assert np.allclose(y[[2, 3, 4]], 1.0)
    assert np.allclose(y[[0, 1, 5, 6]], 0.0)


def test_phi0_support_and_telescoping():
    rho = np.exp(np.linspace(np.log(0.51), np.log(1.99), 500))
    # sum over three dyadic dilates is exactly 1 on [1/2, 2]
    total = phi0(rho * 2.0) + phi0(rho) + phi0(rho / 2.0)
    assert np.max(np.abs(total - 1.0)) < 1e-15
    assert np.all(phi0(np.array([0.4, 2.1])) == 0.0)


def test_interval_bump_plateau():
    x = np.linspace(0.0, 3.0, 301)
    y = interval_bump(x, 1.0, 2.0)
    mid = (x >= 1.25) & (x <= 1.75)
    assert np.all(y[mid] == 1.0)
    assert np.all(y[(x <= 1.0) | (x >= 2.0)] == 0.0)


def test_partition_sums_to_one(disk_pair):
    delta = 2.0 ** -4
    tiling = Tiling(disk_pair, delta, n_range=(-1, 1))
    lib = BumpLibrary(tiling)
    rng = np.random.default_rng(0)
    ang = rng.uniform(-np.pi, np.pi, 3000)
    lev = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 3000))
    pts = disk_pair.group.apply(lev, disk_pair.domain.boundary_point(ang))
    rho = disk_pair.rho(pts)
    omega = disk_pair.boundary_angle(pts, rho)
    total = lib.sum_sigma(rho, omega)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_sigma_supported_near_tile(disk_pair):
    delta = 2.0 ** -4
    tiling = Tiling(disk_pair, delta)
    lib = BumpLibrary(tiling)
    k = tiling.size // 3
    i, j = int(tiling.sector_idx[k]), int(tiling.j_idx[k])
    m, n = int(tiling.m_idx[k]), int(tiling.n_idx[k])
    # far away in rho: zero
    rho = np.array([tiling.rho_hi[k] * 8.0, tiling.rho_lo[k] / 8.0])
    omega = np.full(2, 0.5 * (tiling.omega_lo[k] + tiling.omega_hi[k]))
    assert np.all(lib.sigma(i, j, m, n, rho, omega) == 0.0)
    # far away in omega: zero
    rho = np.full(2, 0.5 * (tiling.rho_lo[k] + tiling.rho_hi[k]))
    omega = np.mod(omega + np.pi, 2 * np.pi) - np.pi
    assert np.all(lib.sigma(i, j, m, n, rho, omega + np.pi) == 0.0)


def test_sigma_rejects_indices_naming_no_member(disk_pair):
    tiling = Tiling(disk_pair, 2.0 ** -4)
    lib = BumpLibrary(tiling)
    arcs = tiling.arcs
    n_sectors = len(tiling.sectors)
    rho, omega = np.ones(3), np.linspace(-np.pi, np.pi, 3)
    j_last = int(arcs.j_idx[-1])  # retained in the last sector
    j0 = int(arcs.j_idx[arcs.sector_idx == 0].max()) + 1  # not in sector 0
    for i, j in ((-1, j_last), (n_sectors, j_last), (0, j0)):
        with pytest.raises(ConfigError):
            lib.sigma(i, j, 0, 0, rho, omega)


def test_kernel_parseval(disk_pair):
    N, L = 256, 24.0
    sym = full_annulus_symbol(2)
    kern = kernel_from_rho_symbol(disk_pair, sym, (N, L), tail_tol=0.2)
    rho, _ = rho_omega_grid(disk_pair, N, L)
    vals = sym(rho)
    dxi = np.pi / L
    sym_l2 = np.sqrt(np.sum(np.abs(vals) ** 2) * dxi * dxi)
    assert abs(kern.l2() - sym_l2 / (2 * np.pi)) < 1e-8 * sym_l2


def test_kernel_tail_monitor_raises(disk_pair):
    sym = full_annulus_symbol(6)
    with pytest.raises(ResolutionError):
        kernel_from_rho_symbol(disk_pair, sym, (256, 24.0), tail_tol=1e-4)


def test_annulus_l1_matches_radial_hankel_oracle(disk_pair):
    # for a radial symbol s(|xi|/10) on R^2 the kernel is radial with
    # K(x) = (2 pi)^{-1} int s(r/10) J_0(r |x|) r dr
    N, L = 1024, 120.0
    sym = full_annulus_symbol(3)
    kern = kernel_from_rho_symbol(disk_pair, sym, (N, L), tail_tol=5e-3)
    unit = 0.1

    # the l = 3 symbol is supported on rho in [3/4, 15/16], r in [7.5, 9.375]
    r = np.linspace(7.4, 9.5, 8001)
    g = sym(r / 10.0) * r

    def k_radial(s):
        J = scipy.special.j0(np.outer(r, s))
        return np.trapezoid(g[:, None] * J, r, axis=0) / (2 * np.pi)

    for k in (4, 5, 7):
        got = kernel_annulus_l1(kern, k, unit=unit)
        # oracle: integrate |K| over the annulus radially
        rr = np.linspace(2.0 ** k * unit, 2.0 ** (k + 1) * unit, 2000)
        want = np.trapezoid(np.abs(k_radial(rr)) * 2 * np.pi * rr, rr)
        assert abs(got - want) / want < 0.08, k
