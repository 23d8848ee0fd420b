"""Discrete function fields and the multiplier/square-function experiments.

Physical samples live at (2L/N) {-N/2, ..., N/2 - 1}^2 and frequency
samples at (pi/L) {-N/2, ..., N/2 - 1}^2, with continuum-normalized
transforms, so Parseval and multiplier algebra hold exactly on the grid.
"""

import numpy as np
import scipy.fft

from .bumps import annulus_cutoff, interval_bump, plateau
from .errors import ConfigError
from .quasinorm import rho_omega_grid


class GridField(object):
    """N x N complex samples in physical or frequency space."""

    def __init__(self, N, L, values, space="physical"):
        if space not in ("physical", "frequency"):
            raise ConfigError("space must be 'physical' or 'frequency'")
        values = np.asarray(values)
        if values.shape != (N, N):
            raise ConfigError("values must be N x N")
        self.N = int(N)
        self.L = float(L)
        self.values = values.astype(complex)
        self.space = space
        self.h = 2.0 * L / N

    def to_frequency(self):
        if self.space == "frequency":
            return self
        spec = scipy.fft.fftshift(scipy.fft.fft2(
            scipy.fft.ifftshift(self.values))) * self.h ** 2
        return GridField(self.N, self.L, spec, "frequency")

    def to_physical(self):
        if self.space == "physical":
            return self
        vals = scipy.fft.fftshift(scipy.fft.ifft2(
            scipy.fft.ifftshift(self.values))) / self.h ** 2
        return GridField(self.N, self.L, vals, "physical")

    def norm(self, p=2):
        v = np.abs(self.to_physical().values if self.space == "frequency"
                   else self.values)
        cell = self.h ** 2
        if np.isinf(p):
            return float(v.max())
        return float((np.sum(v ** p) * cell) ** (1.0 / p))


def apply_multiplier(f, symbol):
    """F^-1[symbol * F f]; symbol is an N x N array on the frequency grid."""
    spec = f.to_frequency()
    out = GridField(f.N, f.L, spec.values * np.asarray(symbol), "frequency")
    return out.to_physical() if f.space == "physical" else out


def apply_quasiradial_multiplier(pair, f, m):
    """Multiplier m(rho(xi)) applied to f."""
    rho, _ = rho_omega_grid(pair, f.N, f.L)
    return apply_multiplier(f, m(rho))


def br_symbol(rho, t, lam):
    """(1 - rho/t)_+^lambda, zero at rho >= t (including the singular
    sample at rho = t when lambda < 0)."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = rho < t
    out[inside] = (1.0 - rho[inside] / t) ** lam
    return out


def bochner_riesz_mean(pair, f, t, lam):
    if t <= 0:
        raise ConfigError("scale t must be positive")
    rho, _ = rho_omega_grid(pair, f.N, f.L)
    return apply_multiplier(f, br_symbol(rho, t, lam))


def dyadic_decompose_br(pair, lam, delta_min):
    """Symbols summing exactly to (1 - rho)_+^lambda.

    Pieces: m (1 - g_0), m (g_k - g_{k+1}) for k < K, and m g_K, with
    g_k(rho) = plateau(2^k (1 - rho)) and K = ceil(log2(1/delta_min)); the
    k-th piece lives where 1 - rho ~ 2^{-k} and has size ~ 2^{-k lambda}.
    """
    if delta_min <= 0 or delta_min >= 1:
        raise ConfigError("delta_min must lie in (0, 1)")
    K = int(np.ceil(np.log2(1.0 / delta_min)))

    def m(rho):
        return br_symbol(rho, 1.0, lam)

    def g(k, rho):
        return plateau(2.0 ** k * (1.0 - np.asarray(rho, dtype=float)))

    symbols = [lambda rho, _m=m, _g=g: _m(rho) * (1.0 - _g(0, rho))]
    for k in range(K):
        symbols.append(
            lambda rho, _m=m, _g=g, _k=k:
                _m(rho) * (_g(_k, rho) - _g(_k + 1, rho)))
    symbols.append(lambda rho, _m=m, _g=g, _K=K: _m(rho) * _g(_K, rho))
    return symbols


# -- square functions ---------------------------------------------------------

def active_t_grid(pair, f, delta, step=None):
    """Log-spaced scales t where the annulus t(1 +- delta) can meet f's
    spectrum, at log-step <= delta/8, starting one step below the first
    scale that reaches f-hat's smallest nonzero rho > 0."""
    if step is None:
        step = delta / 8.0
    if step > delta / 8.0 + 1e-15:
        raise ConfigError("t grid log-step must be <= delta/8")
    spec = f.to_frequency()
    rho, _ = rho_omega_grid(pair, f.N, f.L)
    amp = np.abs(spec.values)
    live = amp > 1e-12 * amp.max()
    if not np.any(live):
        return np.array([1.0])
    rmin = float(rho[live].min())
    rmax = float(rho[live].max())
    lo = np.log(max(rmin, 1e-12) / (1.0 + delta)) - 2 * step
    hi = np.log(rmax / (1.0 - delta)) + 2 * step
    t = np.exp(np.arange(lo, hi + step, step))
    # A scale with t (1 + delta) <= the smallest rho > 0 where f-hat != 0 has
    # an exactly zero piece.  Keep only the last of those leading scales:
    # it carries the one changed trapezoid weight, and every later t and
    # weight is bit-identical to the untrimmed lattice.
    reach = rho[(amp > 0) & (rho > 0)]
    if reach.size:
        first = np.searchsorted(t * (1.0 + delta), reach.min(), side="right")
        t = t[max(first - 1, 0):]
    return t


class SpectralBank(object):
    """f-hat's nonzero cells in unshifted FFT layout, sorted by rho.

    An operator built from a family of symbols is a stream of pieces
    (weight, cells, values): cells selects bank cells (a slice or an index
    array into the sorted arrays rho, omega, spec) and values is the
    piece's symbol there.  The symbol times f-hat vanishes off the bank,
    so evaluating it on the bank alone is exact.

    Sum reductions form each piece on the smallest grid where |piece|^2 is
    exact.  If the cells where the piece's symbol is nonzero span at most D
    in signed FFT index along each axis, the piece is re-centred at their
    box midpoint (a modulation, which leaves |piece| unchanged) and
    inverted on an M x M grid, M the least power of two >= max(2 D + 2,
    16).  |piece|^2 is then band-limited to |k| <= D < M/2, so the M x M
    sums are upsampled once at the end by zero-padding their spectra to
    N x N, with no aliasing.  Pieces with M >= N take the plain N x N path.
    Max reductions always use N x N: a maximum of moduli is not
    band-limited.
    """

    def __init__(self, pair, f):
        self.N, self.L, self.h = f.N, f.L, f.h
        spec = scipy.fft.ifftshift(f.to_frequency().values).ravel()
        rho, omega = rho_omega_grid(pair, f.N, f.L)
        rho = scipy.fft.ifftshift(rho).ravel()
        nz = np.flatnonzero(spec)
        self.cells = nz[np.argsort(rho[nz], kind="stable")]
        self.spec = spec[self.cells]
        self.rho = rho[self.cells]
        self.omega = scipy.fft.ifftshift(omega).ravel()[self.cells]
        # signed FFT indices in [-N/2, N/2) along each axis
        signed = (np.arange(f.N) + f.N // 2) % f.N - f.N // 2
        signed = signed.astype(np.int32)
        self.k = [signed[self.cells // f.N], signed[self.cells % f.N]]

    def between(self, lo, hi):
        """Cells with lo <= rho < hi."""
        a, b = np.searchsorted(self.rho, (lo, hi))
        return slice(a, b)

    def reduce(self, pieces, how):
        """sqrt(sum w |piece|^2) for how="sum", max |piece| for how="max".

        Returns the physical field and the number of non-empty pieces;
        all-zero pieces are skipped, and the weight is unused by "max".
        """
        if how not in ("sum", "max"):
            raise ConfigError("reduction must be 'sum' or 'max'")
        N = self.N
        acc = np.zeros((N, N))
        levels = {}  # M -> M x M sum of w |piece|^2 for M < N
        used = 0
        for weight, cells, values in pieces:
            coef = values * self.spec[cells]
            if not np.any(coef):
                continue
            used += 1
            M, k1, k2, sel = (self._box(cells, values) if how == "sum"
                              else (N, None, None, None))
            if M < N:
                mult = np.zeros((M, M), dtype=complex)
                mult[k1, k2] = coef[sel]
                mod2 = _mod2(scipy.fft.ifft2(mult, overwrite_x=True))
                mod2 *= weight
                levels[M] = levels.get(M, 0.0) + mod2
                continue
            mult = np.zeros(N * N, dtype=complex)
            mult[self.cells[cells]] = coef
            mod2 = _mod2(scipy.fft.ifft2(mult.reshape(N, N), overwrite_x=True))
            if how == "sum":
                mod2 *= weight
                acc += mod2
            else:
                np.maximum(acc, mod2, out=acc)
        if levels:
            acc += self._upsample(levels)
            np.maximum(acc, 0.0, out=acc)
        out = scipy.fft.fftshift(np.sqrt(acc)) / self.h ** 2
        return GridField(self.N, self.L, out, "physical"), used

    def _box(self, cells, values):
        """(M, row, column, sel) for the cells of a piece where its symbol
        values are nonzero (sel selects them within cells): the piece's
        grid size and their indices re-centred on that grid."""
        k1, k2 = self.k[0][cells], self.k[1][cells]
        sel = slice(None)
        if not np.all(values):
            sel = values != 0
            k1, k2 = k1[sel], k2[sel]
        lo1, hi1, lo2, hi2 = k1.min(), k1.max(), k2.min(), k2.max()
        D = int(max(hi1 - lo1, hi2 - lo2))
        M = max(16, 1 << (2 * D + 1).bit_length())
        if M >= self.N:
            return self.N, None, None, None
        return (M, (k1 - (lo1 + hi1) // 2) % M, (k2 - (lo2 + hi2) // 2) % M,
                sel)

    def _upsample(self, levels):
        """The M x M level sums zero-padded in frequency to one N x N field.

        A level holds (N/M)^4 times the plain |piece|^2 (an M-point ifft2
        has (N/M)^2 times the amplitude); the fft2 on M points and ifft2 on
        N points scale by (M/N)^2, the padded spectrum by another (M/N)^2.
        """
        N = self.N
        spec = np.zeros((N, N), dtype=complex)
        for M in sorted(levels):
            h = M // 2
            src = np.r_[0:h, M - h + 1:M]
            dst = np.r_[0:h, N - h + 1:N]
            level = scipy.fft.fft2(levels[M], overwrite_x=True)
            spec[np.ix_(dst, dst)] += level[np.ix_(src, src)] * (M / N) ** 2
        return scipy.fft.ifft2(spec, overwrite_x=True).real


def _mod2(piece):
    """|piece|^2 in one fresh array."""
    mod2 = np.square(piece.real)
    mod2 += np.square(piece.imag)
    return mod2


def _log_trapezoid_weights(t_grid, single):
    """Trapezoid weights in log t; a one-point grid gets weight single."""
    if len(t_grid) == 1:
        return np.array([single])
    steps = np.diff(np.log(t_grid))
    w = np.zeros(len(t_grid))
    w[:-1] += 0.5 * steps
    w[1:] += 0.5 * steps
    return w


def square_function_annulus(pair, f, delta, t_grid=None):
    """(integral |psi_t * f|^2 dt/t)^{1/2} with psi_t the delta-annulus
    smoother at scale t (trapezoid in log t)."""
    if t_grid is None:
        t_grid = active_t_grid(pair, f, delta)
    t_grid = np.asarray(t_grid, dtype=float)
    steps = np.diff(np.log(t_grid))
    if len(steps) and steps.max() > delta / 8.0 + 1e-12:
        raise ConfigError("t grid log-step must be <= delta/8")
    bank = SpectralBank(pair, f)

    def pieces():
        for t, w in zip(t_grid, _log_trapezoid_weights(t_grid, delta)):
            cells = bank.between(t * (1.0 - 2.0 * delta), t * (1.0 + 2.0 * delta))
            yield w, cells, annulus_cutoff(delta, t)(bank.rho[cells])

    return bank.reduce(pieces(), "sum")[0]


def square_function_glambda(pair, f, lam, t_grid):
    """(integral |R_t^lambda f|^2 dt/t)^{1/2} over the truncated t range."""
    t_grid = np.asarray(t_grid, dtype=float)
    bank = SpectralBank(pair, f)

    def pieces():
        for t, w in zip(t_grid, _log_trapezoid_weights(t_grid, 0.1)):
            cells = bank.between(0.0, t)
            yield w, cells, br_symbol(bank.rho[cells], t, lam)

    return bank.reduce(pieces(), "sum")[0]


# -- test-function families ---------------------------------------------------

def standard_family(pair, N, L, delta, seed=0):
    """(name, field) probes: random phases on the delta-annulus, a
    coherent (focusing) annulus sum, and a Gaussian."""
    rng = np.random.default_rng(seed)
    rho, _ = rho_omega_grid(pair, N, L)
    out = []
    band = np.abs(rho - 1.0) <= delta
    if not np.any(band):
        raise ConfigError(
            "frequency window misses the unit rho-annulus; "
            "need pi N / (2 L) above the boundary scale")
    spec = np.zeros((N, N), dtype=complex)
    spec[band] = np.exp(2j * np.pi * rng.random(int(band.sum())))
    out.append(("random-phase", GridField(N, L, spec, "frequency").to_physical()))
    spec2 = np.zeros((N, N), dtype=complex)
    spec2[band] = 1.0
    out.append(("focusing", GridField(N, L, spec2, "frequency").to_physical()))
    x = (2.0 * L / N) * np.arange(-N // 2, N // 2)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    gauss = np.exp(-(X1 ** 2 + X2 ** 2) / 2.0)
    out.append(("gaussian", GridField(N, L, gauss, "physical")))
    return out


class ScalingReport(object):
    def __init__(self, deltas, ratios, slope, residuals):
        self.deltas = list(map(float, deltas))
        self.ratios = ratios  # {delta: {name: ratio}}
        self.slope = float(slope)
        self.residuals = residuals

    def to_dict(self):
        return {"deltas": self.deltas, "slope": self.slope,
                "residuals": list(map(float, self.residuals)),
                "ratios": {str(d): {k: float(v) for k, v in r.items()}
                           for d, r in self.ratios.items()}}


def delta_scaling_experiment(pair, deltas, grid_spec, seed=0):
    """Fit of log max_f ||S_delta f||_4 / ||f||_4 against log delta over
    the standard_family probes."""
    N, L = grid_spec
    ratios = {}
    max_curve = []
    for delta in deltas:
        row = {}
        for name, f in standard_family(pair, N, L, delta, seed=seed):
            sf = square_function_annulus(pair, f, delta)
            row[name] = sf.norm(4) / f.norm(4)
        ratios[delta] = row
        max_curve.append(max(row.values()))
    x = np.log(np.asarray(deltas, dtype=float))
    y = np.log(np.asarray(max_curve))
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return ScalingReport(deltas, ratios, coef[0], resid)


# -- multiplier-norm functional ----------------------------------------------

def _weighted_transform_norm(m, t, alpha, n):
    """Weighted 1-D norm of phi * m(t .) at resolution n (window [0, 4))."""
    s = 4.0 * np.arange(n) / n
    g = interval_bump(s, 0.5, 2.0) * m(t * s)
    ghat = scipy.fft.fft(g) * (4.0 / n)
    tau = scipy.fft.fftfreq(n, d=4.0 / n) * 2.0 * np.pi
    integrand = np.abs(ghat) ** 2 * np.abs(tau) ** (2.0 * alpha)
    dtau = 2.0 * np.pi / 4.0
    return float(np.sqrt(np.sum(integrand) * dtau))


def hormander_sobolev_norm(m, alpha, t_grid=None, base_n=4096, ladder=4):
    """sup over t of the |tau|^alpha-weighted transform norm of phi m(t .).

    Refines the 1-D resolution until the value moves by less than 0.2% per
    doubling; returns inf when it never stabilizes (too rough an m for
    this alpha, or marginal convergence).
    """
    if t_grid is None:
        t_grid = np.exp(np.linspace(np.log(0.25), np.log(4.0), 25))
    worst = 0.0
    for t in np.atleast_1d(t_grid):
        prev = _weighted_transform_norm(m, t, alpha, base_n)
        val = np.inf
        n = base_n
        for _ in range(ladder):
            n *= 2
            cur = _weighted_transform_norm(m, t, alpha, n)
            if abs(cur - prev) <= 0.002 * max(abs(cur), 1e-300):
                val = cur
                break
            prev = cur
        if not np.isfinite(val):
            return float("inf")
        worst = max(worst, val)
    return worst
