"""End-to-end acceptance gate.

Each test exercises one headline property of the laboratory at desk scale,
prints a single [PASS]/[FAIL] line on the real stdout (past pytest capture),
and enforces the stated tolerance and runtime budget.
"""
import time

import numpy as np
import pytest

from quasibr.bumps import (BumpLibrary, full_annulus_symbol, kernel_build,
                           kernel_from_rho_symbol, kernel_annulus_l1, plateau)
from quasibr.caps import decompose, check_invariants
from quasibr.domains import boundary_arc
from quasibr.grid import (GridField, active_t_grid, delta_scaling_experiment,
                          hormander_sobolev_norm, square_function_annulus,
                          square_function_glambda, standard_family)
from quasibr.lwp import (dyadic_projection_square_function,
                         tile_projection_square_function)
from quasibr.maximal import (RectangleFamily, _coverage, _shifted,
                             focusing_function, kernel_maximal,
                             nikodym_maximal, translation_offsets,
                             weak11_probe)
from quasibr.quasinorm import rho_omega_grid
from quasibr.tiling import (Tiling, active_time_measure,
                            count_ball_sum_overlaps, count_sum_overlaps,
                            sector0_band)


@pytest.fixture
def report(capfd):
    """One pass/fail line per criterion, printed past pytest's capture."""
    def _report(num, label, ok, detail, t0, budget):
        elapsed = time.time() - t0
        line = "[%s] criterion %2d: %s (%s; %.1fs / budget %ds)" % (
            "PASS" if ok and elapsed < budget else "FAIL",
            num, label, detail, elapsed, budget)
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
        assert elapsed < budget, line
    return _report


def test_criterion_01_quasinorm_homogeneity(all_pairs, report):
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for name, pair in all_pairs:
        xi = rng.uniform(-25.0, 25.0, (1000, 2))
        xi = xi[np.hypot(xi[:, 0], xi[:, 1]) > 0.5]
        t = np.exp(rng.uniform(np.log(0.1), np.log(10.0), len(xi)))
        r = pair.rho(xi)
        rt = pair.rho(pair.group.apply(t, xi))
        err = np.abs(rt - t * r) / np.maximum(1.0, t * r)
        worst = max(worst, float(err.max()))
    report(1, "quasinorm homogeneity", worst <= 1e-8,
            "max err %.2e" % worst, t0, 10)


def test_criterion_02_cap_decomposition(all_pairs, report):
    t0 = time.time()
    ok = True
    detail = []
    for name, pair in all_pairs:
        arc = boundary_arc(pair.domain, 0.0)
        qs = []
        for k in range(4, 11):
            d = decompose(arc, 2.0 ** -k)
            inv = check_invariants(arc, d)
            ok &= inv["left"] <= 1e-10 and inv["right"] <= 1e-10
            qs.append(d.Q)
        if name.startswith("disk"):
            v = [q * np.sqrt(2.0 ** -k) for q, k in zip(qs, range(4, 11))]
            ok &= max(v) / min(v) <= 4.0
            detail.append("%s Qsqrt ratio %.2f" % (name, max(v) / min(v)))
        if name == "hexagon":
            ok &= len(set(qs)) == 1
            detail.append("hexagon Q=%d const" % qs[0])
    report(2, "cap decomposition invariants", ok, "; ".join(detail), t0, 30)


def test_criterion_03_partition_of_unity(all_pairs, report):
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    n_samples = 512 * 512
    for name, pair in all_pairs:
        ang = rng.uniform(-np.pi, np.pi, n_samples)
        lev = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n_samples))
        pts = pair.group.apply(lev, pair.domain.boundary_point(ang))
        rho = pair.rho(pts)
        omega = pair.boundary_angle(pts, rho)
        for k in (4, 5, 6):
            lib = BumpLibrary(Tiling(pair, 2.0 ** -k, n_range=(-1, 1)))
            dev = float(np.max(np.abs(lib.sum_sigma(rho, omega) - 1.0)))
            worst = max(worst, dev)
    report(3, "partition of unity", worst <= 1e-6,
            "max |sum - 1| %.2e" % worst, t0, 120)


def test_criterion_04_tile_overlaps(disk_pair, report):
    t0 = time.time()
    rng = np.random.default_rng(2)
    # plain multiplicity: one constant across delta
    plain = []
    for k in range(4, 8):
        tiling = Tiling(disk_pair, 2.0 ** -k, n_range=(-1, 1))
        ang = rng.uniform(-np.pi, np.pi, 4000)
        lev = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4000))
        pts = disk_pair.group.apply(lev, disk_pair.domain.boundary_point(ang))
        plain.append(int(tiling.multiplicity(pts).max()))
    ok = len(set(plain)) == 1 and plain[0] <= 8
    # sum-set multiplicity follows a + b (log 1/delta)^2
    ms = [count_sum_overlaps(disk_pair, 2.0 ** -k, 1.0, 1.0).max_overlap
          for k in range(4, 8)]
    x = np.array([np.log(2.0 ** k) for k in range(4, 8)])
    A = np.stack([np.ones_like(x), x ** 2], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, np.array(ms, float), rcond=None)
    fit = A @ coef
    resid = float(np.max(np.abs(ms - fit) / fit))
    ok &= coef[1] > 0 and resid < 0.20
    # ball sums: uniformly bounded by one delta-independent constant
    balls = [count_ball_sum_overlaps(disk_pair, 2.0 ** -k, 1.0,
                                     (2.0 ** -k) ** -8).max_overlap
             for k in (4, 5, 6)]
    ok &= max(balls) <= 8
    report(4, "tile overlap multiplicities", ok,
            "plain %s, sum fit b=%.2f resid %.0f%%, ball %s" % (
                plain, coef[1], 100 * resid, balls), t0, 600)


def test_criterion_05_active_time_measure(disk_pair, report):
    t0 = time.time()
    vals = []
    for k in range(4, 9):
        d = 2.0 ** -k
        tiling = Tiling(disk_pair, d)
        idxs = np.linspace(0, tiling.size - 1, 100).astype(int)
        m = max(active_time_measure(tiling.rho_lo[i], tiling.rho_hi[i], d)
                for i in idxs)
        vals.append(m / d)
    spread = max(vals) / min(vals)
    report(5, "active-time measure ~ delta", spread <= 2.0,
            "measure/delta in [%.2f, %.2f]" % (min(vals), max(vals)), t0, 60)


def test_criterion_06_kernel_annulus_l1(disk_pair, report):
    t0 = time.time()
    N, L = 2048, 240.0
    unit = 1.0 / disk_pair.domain.max_radius()
    l = 5
    kern = kernel_from_rho_symbol(disk_pair, full_annulus_symbol(l), (N, L),
                                  tail_tol=5e-3)
    v = {k: kernel_annulus_l1(kern, k, unit=unit) for k in range(1, 11)}
    # decay away from k = l, checked on steps strictly beyond |k - l| = 2
    ok = True
    for k in range(1, 11):
        if k + 1 <= l - 3:
            ok &= v[k + 1] / v[k] >= 1.5      # rising toward the peak
        if k >= l + 3 and k + 1 <= 10:
            ok &= v[k] / v[k + 1] >= 1.5      # falling past the peak
    peak = max(v, key=v.get)
    ok &= abs(peak - l) <= 3
    # single-tile L1 <= C log(1/delta) with stable C
    cs = []
    for k in (4, 5, 6):
        d = 2.0 ** -k
        tiling = Tiling(disk_pair, d)
        lib = BumpLibrary(tiling)
        sel = np.nonzero((tiling.m_idx == 0) & (tiling.n_idx == 0))[0]
        widths = tiling.tau_hi[sel] - tiling.tau_lo[sel]
        idx = int(sel[np.argmax(widths)])
        indices = (int(tiling.sector_idx[idx]), int(tiling.j_idx[idx]), 0, 0)
        kern_t = kernel_build(lib, disk_pair, indices, (N, L), tail_tol=0.05)
        cs.append(kern_t.l1() / np.log(1.0 / d))
    ok &= max(cs) / min(cs) <= 2.0
    report(6, "kernel L1 annulus envelopes", ok,
           "peak k=%d, C=%s" % (peak, [round(float(c), 2) for c in cs]),
           t0, 300)


def test_criterion_07_delta_scaling(disk_pair, disk_aniso_pair, report):
    t0 = time.time()
    deltas = [2.0 ** -k for k in range(3, 8)]
    slopes = []
    for pair in (disk_pair, disk_aniso_pair):
        rep = delta_scaling_experiment(pair, deltas, (1024, 120.0))
        slopes.append(rep.slope)
    ok = all(s >= 0.45 for s in slopes)
    # quadrature refinement: halve the log-step at one representative cell
    d = 2.0 ** -5
    f = standard_family(disk_pair, 1024, 120.0, d)[0][1]
    r = []
    for step in (d / 8.0, d / 16.0):
        tg = active_t_grid(disk_pair, f, d, step=step)
        sf = square_function_annulus(disk_pair, f, d, t_grid=tg)
        r.append(sf.norm(4) / f.norm(4))
    quad = abs(r[1] - r[0]) / r[0]
    ok &= quad < 0.005
    report(7, "square-function delta scaling", ok,
            "slopes %s, quad change %.3f%%" % (
                [round(s, 3) for s in slopes], 100 * quad), t0, 1800)


def test_criterion_08_glambda_stability(disk_pair, report):
    t0 = time.time()
    t_grid = np.exp(np.linspace(np.log(0.6), -np.log(0.6), 41))
    ok = True
    spreads = []
    for lam in (-0.25, 0.0, 0.5):
        rr = []
        for N in (256, 512, 1024):
            L = 0.09375 * N
            rho, _ = rho_omega_grid(disk_pair, N, L)
            spec = np.where(np.abs(rho - 1.0) <= 0.1, 1.0 + 0j, 0.0)
            f = GridField(N, L, spec, "frequency").to_physical()
            g = square_function_glambda(disk_pair, f, lam, t_grid)
            rr.append(g.norm(4) / f.norm(4))
        spreads.append(max(rr) / min(rr) - 1.0)
        ok &= spreads[-1] < 0.5
    # negative control: lambda below the boundedness range blows up on a
    # spectrum focused just inside the unit level set
    rr = []
    for N in (256, 1024):
        L = 0.09375 * N
        rho, _ = rho_omega_grid(disk_pair, N, L)
        flat = np.where(rho < 1.0, rho, -np.inf).ravel()
        spec = np.zeros(N * N, dtype=complex)
        spec[np.argsort(flat)[-64:]] = 1.0
        f = GridField(N, L, spec.reshape(N, N), "frequency").to_physical()
        g = square_function_glambda(disk_pair, f, -0.6, t_grid)
        rr.append(g.norm(4) / f.norm(4))
    growth = rr[1] / rr[0]
    ok &= growth >= 2.0
    report(8, "G^lambda refinement stability", ok,
            "spreads %s, control growth %.1fx" % (
                [round(s, 4) for s in spreads], growth), t0, 1200)


def test_criterion_09_nikodym_growth(report):
    t0 = time.time()
    # brute-force equivalence on a 128^2 grid, 8 directions, 2 scales
    Ng, L = 128, 1.0
    h = 2.0 * L / Ng
    rng = np.random.default_rng(3)
    vals = rng.random((Ng, Ng))
    f = GridField(Ng, L, vals, "physical")
    fam = RectangleFamily(lam=8 * h, N=8, k_range=(0, 1))
    mf = nikodym_maximal(f, fam, method="fast").values.real
    me = nikodym_maximal(f, fam, method="exact").values.real
    ok = float(np.max(np.abs(mf - me))) == 0.0
    # independent direct-convolution oracle at a single scale
    fam1 = RectangleFamily(lam=8 * h, N=4)
    want = np.zeros((Ng, Ng))
    for i in range(fam1.N):
        cov, area = _coverage(fam1.corners(i, 0), h, Ng)
        ii, jj = np.nonzero(cov)
        avg = np.zeros((Ng, Ng))
        for ci, cj, w in zip(ii - Ng // 2, jj - Ng // 2, cov[ii, jj]):
            avg += w * _shifted(vals, ci, cj)
        avg *= h * h / area
        gens, anchor, _ = translation_offsets(fam1, i, 0, h)
        offs = [(0, 0)]
        for dgen in gens:
            offs = [(ox + bx, oy + by)
                    for ox, oy in offs for bx, by in ((0, 0), dgen)]
        for ox, oy in set(offs):
            want = np.maximum(want, _shifted(avg, ox + anchor[0],
                                             oy + anchor[1]))
    got = nikodym_maximal(f, fam1).values.real
    ok &= float(np.max(np.abs(got - want))) < 1e-10
    # growth in the direction count on the focusing family
    Ns = [8, 16, 32, 64, 128]
    ratios = []
    for Nd in Ns:
        Ng2 = max(256, 8 * Nd)
        fam2 = RectangleFamily(lam=1.0 / Nd, N=Nd)
        ff = focusing_function(Ng2, L, fam2)
        ratios.append(nikodym_maximal(ff, fam2).norm(2) / ff.norm(2))
    expo = float(np.polyfit(np.log(Ns), np.log(ratios), 1)[0])
    ok &= expo <= 0.2
    # weak (1,1): superlevel measures stay below N ||f||_1 / alpha
    vals = np.zeros((Ng, Ng))
    vals[Ng // 2, Ng // 2] = 1.0 / h ** 2
    fd = GridField(Ng, L, vals, "physical")
    rows = weak11_probe(fd, RectangleFamily(lam=8 * h, N=8),
                        alphas=np.logspace(-2, 1, 10))
    wk = max(r["ratio"] for r in rows)
    ok &= wk <= 1.0
    report(9, "Nikodym maximal growth", ok,
            "exponent %.3f, weak11 max ratio %.2f" % (expo, wk), t0, 900)


def test_criterion_10_kernel_maximal(disk_pair, report):
    t0 = time.time()
    N, L = 256, 24.0
    rng = np.random.default_rng(4)
    deltas = [2.0 ** -k for k in (4, 5, 6)]
    ratios = []
    for d in deltas:
        tiling = Tiling(disk_pair, d)
        lib = BumpLibrary(tiling)
        rho, omega = rho_omega_grid(disk_pair, N, L)
        band = sector0_band(tiling, rho, omega)
        spec = np.zeros((N, N), dtype=complex)
        spec[band] = np.exp(2j * np.pi * rng.random(int(band.sum())))
        f = GridField(N, L, spec, "frequency").to_physical()
        mf = kernel_maximal(disk_pair, d, f, lib)
        ratios.append(mf.norm(2) / f.norm(2))
    x = np.log([1.0 / d for d in deltas])
    expo = float(np.polyfit(x, np.log(ratios), 1)[0])
    report(10, "kernel maximal growth in 1/delta", expo <= 0.1,
            "exponent %.3f" % expo, t0, 900)


def test_criterion_11_littlewood_paley(disk_pair, report):
    t0 = time.time()
    N, L = 256, 24.0
    deltas = [2.0 ** -k for k in (4, 5, 6)]
    ratios = []
    for d in deltas:
        tiling = Tiling(disk_pair, d, n_range=(-1, 1))
        lib = BumpLibrary(tiling)
        rho, omega = rho_omega_grid(disk_pair, N, L)
        spec = np.where(sector0_band(tiling, rho, omega), 1.0 + 0j, 0.0)
        f = GridField(N, L, spec, "frequency")
        sq = tile_projection_square_function(disk_pair, d, f, lib)
        ratios.append(sq.norm(2) / f.to_physical().norm(2))
    x = np.log([1.0 / d for d in deltas])
    expo = float(np.polyfit(x, np.log(ratios), 1)[0])
    ok = abs(expo) <= 0.1
    # dyadic projections stable across grid refinement
    rr = []
    for Ng, Lg in ((128, 12.0), (256, 24.0)):
        rho, _ = rho_omega_grid(disk_pair, Ng, Lg)
        spec = np.where(np.abs(rho - 1.3) < 0.01, 1.0 + 0j, 0.0)
        f = GridField(Ng, Lg, spec, "frequency")
        sq = dyadic_projection_square_function(disk_pair, f)
        rr.append(sq.norm(2) / f.to_physical().norm(2))
    stab = abs(rr[1] - rr[0]) / rr[0]
    ok &= stab < 0.25
    report(11, "Littlewood-Paley probes", ok,
            "tile exponent %.3f, dyadic drift %.1f%%" % (expo, 100 * stab),
            t0, 600)


def test_criterion_12_multiplier_functional(report):
    t0 = time.time()
    vals = [hormander_sobolev_norm(lambda s: np.ones_like(s), 0.6,
                                   t_grid=[t]) for t in (0.5, 1.0, 4.0)]
    ok = max(vals) - min(vals) < 1e-10
    rough = lambda s: np.where(s < 1.0, np.maximum(1.0 - s, 0.0) ** 0.25, 0.0)
    ok &= np.isinf(hormander_sobolev_norm(rough, 0.6))
    bump = lambda s: plateau((s - 1.0) * 2.0)
    val = hormander_sobolev_norm(bump, 0.6)
    ref = hormander_sobolev_norm(bump, 0.6, base_n=2 ** 17, ladder=1)
    ok &= abs(val - ref) / ref < 0.01
    report(12, "weighted multiplier functional", ok,
            "bump %.6f vs ref %.6f" % (val, ref), t0, 60)
