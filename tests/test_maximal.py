import numpy as np
import pytest

from quasibr.bumps import BumpLibrary
from quasibr.dilation import DilationGroup
from quasibr.errors import ConfigError
from quasibr.grid import GridField
from quasibr.maximal import (RectangleFamily, _coverage, _rect_average,
                             _shifted, kernel_maximal, nikodym_maximal,
                             focusing_function,
                             translation_offsets, weak11_probe)
from quasibr.quasinorm import rho_omega_grid
from quasibr.tiling import Tiling


def test_coverage_axis_aligned_exact():
    N, L = 128, 1.0
    h = 2.0 * L / N
    fam = RectangleFamily(lam=8 * h, N=4)
    cov, area = _coverage(fam.corners(0, 0), h, N)
    assert abs(area - fam.lam ** 2 * fam.N) < 1e-12
    assert cov.max() == 1.0


def test_coverage_rotated_close():
    N, L = 256, 1.0
    h = 2.0 * L / N
    fam = RectangleFamily(lam=16 * h, N=4)
    for i in range(1, 4):
        cov, area = _coverage(fam.corners(i, 0), h, N)
        true = fam.lam ** 2 * fam.N
        assert abs(area - true) / true < 0.01, i


def test_rect_average_constant_function():
    N, L = 64, 1.0
    h = 2.0 * L / N
    fam = RectangleFamily(lam=4 * h, N=2)
    cov, area = _coverage(fam.corners(1, 0), h, N)
    avg = _rect_average(np.ones((N, N)), cov, area, h)
    assert np.max(np.abs(avg - 1.0)) < 1e-10


def test_fast_equals_exact():
    N, L = 64, 1.0
    h = 2.0 * L / N
    rng = np.random.default_rng(0)
    f = GridField(N, L, rng.random((N, N)), "physical")
    fam = RectangleFamily(lam=4 * h, N=5, k_range=(0, 1))
    mf = nikodym_maximal(f, fam, method="fast")
    me = nikodym_maximal(f, fam, method="exact")
    assert np.max(np.abs(mf.values - me.values)) == 0.0


def test_brute_force_oracle_small_grid():
    # independent path: direct weighted sums over the coverage cells and
    # explicit enumeration of the shared translation set
    N, L = 64, 1.0
    h = 2.0 * L / N
    rng = np.random.default_rng(1)
    vals = rng.random((N, N))
    f = GridField(N, L, vals, "physical")
    fam = RectangleFamily(lam=4 * h, N=3)
    got = nikodym_maximal(f, fam).values.real

    want = np.zeros((N, N))
    for i in range(fam.N):
        cov, area = _coverage(fam.corners(i, 0), h, N)
        ii, jj = np.nonzero(cov)
        ww = cov[ii, jj]
        # direct periodic convolution: avg(y) = sum_c w_c f(y - c) h^2/area
        ci = ii - N // 2
        cj = jj - N // 2
        avg = np.zeros((N, N))
        for c_i, c_j, w in zip(ci, cj, ww):
            avg += w * _shifted(vals, c_i, c_j)
        avg *= h * h / area
        gens, anchor, _ = translation_offsets(fam, i, 0, h)
        offs = [(0, 0)]
        for d in gens:
            offs = [(ox + bx, oy + by)
                    for ox, oy in offs for bx, by in ((0, 0), d)]
        for ox, oy in set(offs):
            want = np.maximum(want,
                              _shifted(avg, ox + anchor[0], oy + anchor[1]))
    assert np.max(np.abs(got - want)) < 1e-12


def test_resolution_guard():
    N, L = 32, 1.0
    h = 2.0 * L / N
    f = GridField(N, L, np.ones((N, N)), "physical")
    with pytest.raises(ConfigError):
        nikodym_maximal(f, RectangleFamily(lam=2 * h, N=2))


def test_single_scale_uses_dilated_rectangles():
    N, L = 128, 1.0
    h = 2.0 * L / N
    rng = np.random.default_rng(2)
    f = GridField(N, L, rng.random((N, N)), "physical")
    g = DilationGroup(np.diag([1.0, 2.0]))
    fam = RectangleFamily(lam=8 * h, N=3, k_range=(0, 1), group=g)
    m0, m1 = (nikodym_maximal(f, RectangleFamily(fam.lam, fam.N, (k, k), g))
              for k in (0, 1))
    both = nikodym_maximal(f, fam)
    assert np.allclose(both.values.real,
                       np.maximum(m0.values.real, m1.values.real))


def test_maximal_dominates_global_average():
    N, L = 64, 1.0
    h = 2.0 * L / N
    rng = np.random.default_rng(3)
    f = GridField(N, L, rng.random((N, N)), "physical")
    fam = RectangleFamily(lam=4 * h, N=4)
    mf = nikodym_maximal(f, fam).values.real
    assert mf.min() >= 0.0
    assert mf.max() <= np.abs(f.values).max() + 1e-12


def test_focusing_function_symmetric():
    fam = RectangleFamily(lam=1.0 / 8, N=8)
    f = focusing_function(256, 1.0, fam)
    v = f.values.real
    assert np.isclose(v[128, 128], fam.N, atol=1e-6)  # all sticks overlap


def test_weak11_ratio_bounded():
    N, L = 128, 1.0
    h = 2.0 * L / N
    fam = RectangleFamily(lam=8 * h, N=8)
    vals = np.zeros((N, N))
    vals[N // 2, N // 2] = 1.0 / h ** 2
    f = GridField(N, L, vals, "physical")
    rows = weak11_probe(f, fam, alphas=[0.1, 0.5, 1.0, 2.0])
    assert all(r["ratio"] <= 1.0 for r in rows)


def test_kernel_maximal_reaches_generation_one(disk_pair):
    # a band at rho ~ 3 meets partition members of generation n = 1, which
    # sit at ratio^m 2 (tiles of generation 1 sit at ratio^m 4): the t-window
    # and the screen must follow the member's shell, or nothing is applied
    N, L, delta = 128, 6.0, 2.0 ** -4
    lib = BumpLibrary(Tiling(disk_pair, delta, n_range=(-1, 1)))
    rho, omega = rho_omega_grid(disk_pair, N, L)
    band = (np.abs(rho - 3.0) < 0.1) & (np.abs(omega) < 0.3)
    assert np.count_nonzero(band) == 130
    rng = np.random.default_rng(0)
    spec = np.where(band, np.exp(2j * np.pi * rng.random((N, N))), 0)
    f = GridField(N, L, spec, "frequency")
    mf = kernel_maximal(disk_pair, delta, f, lib)
    ratio = mf.norm(2) / f.to_physical().norm(2)
    assert ratio > 0.1
