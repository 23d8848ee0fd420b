"""Anisotropic Nikodym maximal operators and the tile-kernel maximal.

Rectangle averages are computed by FFT convolution against rasterized
coverage weights; the sup over translations is a max-filter over a dyadic
digital offset set shared verbatim by the fast path and the brute-force
oracle, so the two agree to rounding error.
"""

import numpy as np
import scipy.fft

from .bumps import annulus_cutoff
from .errors import ConfigError
from .grid import GridField, SpectralBank


class RectangleFamily(object):
    """Rectangles of dimensions lam x (N lam), directions pi i / N,
    scaled by (2^k)^A for k in k_range."""

    def __init__(self, lam, N, k_range=(0, 0), group=None):
        if lam <= 0 or N < 1:
            raise ConfigError("need lam > 0 and N >= 1")
        self.lam = float(lam)
        self.N = int(N)
        self.k_range = (int(k_range[0]), int(k_range[1]))
        self.group = group  # None means A = I

    def directions(self):
        return np.pi * np.arange(self.N) / self.N

    def corners(self, i, k):
        """Vertices of the (2^k)^A image of the rectangle with long axis
        along direction i, centered at the origin."""
        th = np.pi * i / self.N
        e_l = np.array([np.cos(th), np.sin(th)])
        e_s = np.array([-np.sin(th), np.cos(th)])
        a = 0.5 * self.N * self.lam
        b = 0.5 * self.lam
        V = np.array([a * e_l + b * e_s, -a * e_l + b * e_s,
                      -a * e_l - b * e_s, a * e_l - b * e_s])
        if self.group is not None:
            V = (self.group.power(2.0 ** k) @ V.T).T
        elif k != 0:
            V = V * 2.0 ** k
        return V


def _coverage(V, h, n_grid):
    """Cell coverage weights of the convex quadrilateral V on the n_grid^2
    cell grid with spacing h (cells centered at h {-n/2..n/2-1} + h/2...).

    Cells are [x_i, x_i + h) with x_i = h (i - n/2).  Interior cells get 1,
    exterior 0, boundary cells an 8 x 8 subcell estimate.
    """
    # normalize to ccw so the left normals point outward
    area2 = np.sum(V[:, 0] * np.roll(V[:, 1], -1) - np.roll(V[:, 0], -1) * V[:, 1])
    if area2 < 0:
        V = V[::-1]
    E = np.roll(V, -1, axis=0) - V
    n_hat = np.stack([E[:, 1], -E[:, 0]], axis=-1)
    n_hat /= np.hypot(n_hat[:, 0], n_hat[:, 1])[:, None]
    off = np.sum(n_hat * V, axis=1)
    lo = V.min(axis=0)
    hi = V.max(axis=0)
    i0 = max(int(np.floor(lo[0] / h)) + n_grid // 2 - 1, 0)
    i1 = min(int(np.ceil(hi[0] / h)) + n_grid // 2 + 1, n_grid)
    j0 = max(int(np.floor(lo[1] / h)) + n_grid // 2 - 1, 0)
    j1 = min(int(np.ceil(hi[1] / h)) + n_grid // 2 + 1, n_grid)
    if i0 >= i1 or j0 >= j1:
        return np.zeros((n_grid, n_grid)), 0.0
    xs = h * (np.arange(i0, i1) - n_grid // 2)
    ys = h * (np.arange(j0, j1) - n_grid // 2)
    Xc, Yc = xs[:, None], ys[None, :]
    # signed distances of the 4 cell corners from each half-plane
    inside_all = np.ones((len(xs), len(ys)), dtype=bool)
    outside_any = np.zeros((len(xs), len(ys)), dtype=bool)
    for nh, c in zip(n_hat, off):
        d00 = nh[0] * Xc + nh[1] * Yc - c
        d10 = d00 + nh[0] * h
        d01 = d00 + nh[1] * h
        d11 = d00 + nh[0] * h + nh[1] * h
        dmin = np.minimum(np.minimum(d00, d10), np.minimum(d01, d11))
        dmax = np.maximum(np.maximum(d00, d10), np.maximum(d01, d11))
        inside_all &= dmax <= 0.0
        outside_any |= dmin > 0.0
    cov = np.zeros((len(xs), len(ys)))
    cov[inside_all] = 1.0
    border = ~inside_all & ~outside_any
    if np.any(border):
        bi, bj = np.nonzero(border)
        sub = 8
        t = (np.arange(sub) + 0.5) / sub * h
        SX = xs[bi][:, None, None] + t[None, :, None]
        SY = ys[bj][:, None, None] + t[None, None, :]
        ok = np.ones((len(bi), sub, sub), dtype=bool)
        for nh, c in zip(n_hat, off):
            ok &= nh[0] * SX + nh[1] * SY - c <= 0.0
        cov[bi, bj] = ok.mean(axis=(1, 2))
    full = np.zeros((n_grid, n_grid))
    full[i0:i1, j0:j1] = cov
    return full, float(cov.sum() * h * h)


def translation_offsets(fam, i, k, h):
    """Dyadic generator offsets (in cells) spanning the reflected rectangle.

    The translation set of the maximal operator is the sumset of
    {0, d} over these generators; the fast path realizes it by iterated
    shifted maxima and the oracle enumerates the same sumset.
    """
    V = fam.corners(i, k)
    e_l = V[0] - V[1]   # full long side
    e_s = V[0] - V[3]   # full short side
    gens = []
    for vec in (e_l, e_s):
        n = max(int(np.ceil(np.max(np.abs(vec)) / h)), 1)
        M = max(int(np.ceil(np.log2(n + 1))), 1)
        step = vec / h / (2 ** M - 1)
        for m in range(M):
            d = np.round(step * 2 ** m).astype(int)
            if d[0] or d[1]:
                gens.append((int(d[0]), int(d[1])))
    # anchor so the sumset covers -R centered at 0
    total = np.sum(gens, axis=0) if gens else np.zeros(2)
    anchor = -np.round((e_l + e_s) / (2 * h)).astype(int)
    return gens, (int(anchor[0]), int(anchor[1])), total


def _rect_average(absf, cov, area, h):
    """FFT convolution giving the rectangle average centered at each cell."""
    n = absf.shape[0]
    F = scipy.fft.fft2(absf)
    W = scipy.fft.fft2(scipy.fft.ifftshift(cov))
    out = np.real(scipy.fft.ifft2(F * W)) * h * h / area
    return np.maximum(out, 0.0)


def nikodym_maximal(f, fam, method="fast"):
    """sup over directions, scales and translations of rectangle averages."""
    phys = f.to_physical()
    h = phys.h
    if h > fam.lam / 4.0 * (1.0 + 1e-12) * 2.0 ** fam.k_range[0]:
        raise ConfigError("grid spacing must be <= lam/4 at the finest scale")
    absf = np.abs(phys.values)
    out = np.zeros_like(absf)
    for k in range(fam.k_range[0], fam.k_range[1] + 1):
        for i in range(fam.N):
            V = fam.corners(i, k)
            cov, area = _coverage(V, h, f.N)
            if area <= 0:
                continue
            avg = _rect_average(absf, cov, area, h)
            gens, anchor, _ = translation_offsets(fam, i, k, h)
            if method == "fast":
                acc = avg.copy()
                for d in gens:
                    np.maximum(acc, _shifted(acc, d[0], d[1]), out=acc)
                out = np.maximum(out, _shifted(acc, anchor[0], anchor[1]))
            else:
                offs = [(0, 0)]
                for d in gens:
                    offs = [(ox + bx, oy + by)
                            for ox, oy in offs for bx, by in ((0, 0), d)]
                offs = sorted(set(offs))
                for ox, oy in offs:
                    out = np.maximum(
                        out, _shifted(avg, ox + anchor[0], oy + anchor[1]))
    return GridField(f.N, f.L, out, "physical")


def _shifted(a, dx, dy):
    """a shifted periodically by (dx, dy); matches the periodic averages."""
    return np.roll(a, (dx, dy), axis=(0, 1))


def focusing_function(N_grid, L, fam):
    """Sum of indicators of the family's scale-0 rectangles through the
    origin."""
    h = 2.0 * L / N_grid
    vals = np.zeros((N_grid, N_grid))
    for i in range(fam.N):
        cov, _ = _coverage(fam.corners(i, 0), h, N_grid)
        vals += cov
    return GridField(N_grid, L, vals, "physical")


def weak11_probe(f, fam, alphas):
    """Superlevel measures |{M f > 4 alpha}| against N ||f||_1 / alpha."""
    phys = f.to_physical()
    mf = nikodym_maximal(f, fam).values.real
    l1 = float(np.sum(np.abs(phys.values)) * phys.h ** 2)
    rows = []
    for alpha in alphas:
        meas = float(np.sum(mf > 4.0 * alpha) * phys.h ** 2)
        bound = fam.N * l1 / alpha
        rows.append({"alpha": float(alpha), "measure": meas,
                     "bound": bound,
                     "ratio": meas / bound if bound > 0 else 0.0})
    return rows


# -- kernel maximal ------------------------------------------------------------

def kernel_maximal(pair, delta, f, lib):
    """sup over tiles and scales t of |psi_t * K_{i,j,m,n} * f|.

    Computed spectrally: for each tile whose support meets f's spectrum and
    each t with a nonzero annulus overlap, apply the multiplier
    plateau((rho/t - 1)/delta) sigma_{i,j,m,n} and take pointwise maxima of
    the moduli; t runs on a log grid of step delta/8 over the active window
    of the shell where sigma_{i,j,m,n} lives (lib.member_lo, member_hi),
    screened by bank.live_screen with both windows slightly widened.
    """
    tiling = lib.tiling
    arcs = tiling.arcs
    bank = SpectralBank(pair, f)
    wl = arcs.omega_lo - 0.1
    screen = bank.live_screen(lib.member_lo / (1.0 + 4.0 * delta),
                              lib.member_hi * (1.0 + 4.0 * delta), wl,
                              np.mod(arcs.omega_hi + 0.1 - wl, 2 * np.pi))
    step = delta / 8.0

    def pieces():
        for idx in np.flatnonzero(screen):
            sym = lib.sigma(idx, bank.rho, bank.omega)
            cells = np.flatnonzero(sym)
            if cells.size == 0:
                continue
            sym, rho = sym[cells], bank.rho[cells]
            shell = idx % tiling.n_shells
            lo = np.log(lib.member_lo[shell] / (1.0 + delta)) - step
            hi = np.log(lib.member_hi[shell] / (1.0 - delta)) + step
            for s in np.arange(lo, hi + step, step):
                yield 1.0, cells, annulus_cutoff(delta, np.exp(s))(rho) * sym

    return bank.reduce(pieces(), "max")[0]
