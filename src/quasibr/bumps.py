"""Smooth partition of unity sigma_{i,j,m,n} and the tile kernels.

Every sigma factorizes as

    sigma_{i,j,m,n}(xi) = phi0(2^-n rho) psi_m(2^-n rho) Psi_i(omega) T_j(omega)

with rho = rho(xi) and omega the orbit-projected boundary angle, both
invariant data of the pair.  All four families are built from a single
one-sided smooth step, so each family telescopes to exactly 1 and the
total sum is identically 1 wherever the dyadic range covers rho.

Generation n of the partition sits at rho ~ ratio^m 2^n, while generation
n of the tiling sits at ratio^m 4^n (the two agree at n = 0).  What applies
sigma reads the 2^n shells: sigma itself, lwp.tile_bump, and
maximal.kernel_maximal through BumpLibrary.member_lo / member_hi.  The tile
membership tests, Tiling.multiplicity and the overlap counters read the
tiling's own 4^n windows.
"""

import numpy as np
import scipy.fft

from .errors import ConfigError, ResolutionError
from .quasinorm import rho_omega_grid
from .tiling import _wrap


def smoothstep(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    a = np.zeros_like(x)
    b = np.zeros_like(x)
    pos = x > 0
    pos1 = x < 1
    a[pos] = np.exp(-1.0 / x[pos])
    b[pos1] = np.exp(-1.0 / (1.0 - x[pos1]))
    return a / (a + b)


def plateau(x):
    """Even bump: 1 on [-1/2, 1/2], 0 outside (-1, 1)."""
    return smoothstep(2.0 * (1.0 - np.abs(np.asarray(x, dtype=float))))


def phi0(rho):
    """plateau(rho/2) - plateau(rho): supported in [1/2, 2]; the dyadic pieces
    phi0(2^-n rho) telescope to 1 on rho > 0."""
    rho = np.asarray(rho, dtype=float)
    return plateau(0.5 * rho) - plateau(rho)


def interval_bump(x, lo, hi):
    """Plateau bump supported in (lo, hi), identically 1 on the middle half."""
    c = 0.5 * (lo + hi)
    return plateau(2.0 * (np.asarray(x, dtype=float) - c) / (hi - lo))


class BumpLibrary(object):
    """All bump families for one tiling (pair, delta, sectors, intervals)."""

    def __init__(self, tiling):
        self.tiling = tiling
        self.delta = tiling.delta
        self.log_r = np.log(tiling.ratio)
        self.m_lo, self.m_hi = tiling.m_lo, tiling.m_hi
        self.n_lo, self.n_hi = tiling.n_lo, tiling.n_hi
        sectors = tiling.sectors
        self.cuts = np.array([s.omega_start for s in sectors])
        widths = np.array([s.width for s in sectors])
        # transition width at each cut: a fraction of the narrower neighbor
        self.cut_widths = 0.25 * np.minimum(widths, np.roll(widths, 1))
        self.mids = self.cuts + 0.5 * widths
        self.half_widths = 0.5 * widths
        # per-sector retained intervals and tau step data, from the arcs
        arcs = tiling.arcs
        self._js, self._tau_edges, self._tau_widths = [], [], []
        for s in sectors:
            sel = arcs.sector_idx == s.index
            edges = np.unique(np.concatenate([arcs.tau_lo[sel], arcs.tau_hi[sel]]))
            lengths = np.diff(edges)
            w = np.empty(len(edges))
            w[1:-1] = 0.25 * np.minimum(lengths[:-1], lengths[1:])
            w[0] = 0.25 * lengths[0]
            w[-1] = 0.25 * lengths[-1]
            self._js.append(arcs.j_idx[sel])
            self._tau_edges.append(edges)
            self._tau_widths.append(w)
        # rho windows of the partition members per shell: generation n sits
        # at ratio^m 2^n (tiles sit at ratio^m 4^n), as in sigma below
        shells = tiling.shells
        scale = tiling.ratio ** shells.m_idx * 2.0 ** shells.n_idx
        self.member_lo = scale * (1.0 - 2.0 * self.delta)
        self.member_hi = scale * (1.0 + 2.0 * self.delta)

    # -- radial families -----------------------------------------------------

    def psi(self, m, rho):
        """Shell bump around ratio^m; the family telescopes to 1."""
        rho = np.asarray(rho, dtype=float)
        s = np.full_like(rho, -1e9)
        pos = rho > 0
        s[pos] = np.log(rho[pos]) / self.log_r
        w = 0.25
        hi_step = smoothstep((s - (m + 0.5) + 0.5 * w) / w)
        if m == self.m_lo:
            return 1.0 - hi_step
        lo_step = smoothstep((s - (m - 0.5) + 0.5 * w) / w)
        if m == self.m_hi:
            return lo_step
        return lo_step - hi_step

    # -- angular families ------------------------------------------------------

    def _cut_step(self, i, omega):
        """Step rising 0 -> 1 across cut i (cyclic index)."""
        i = i % len(self.cuts)
        u = _wrap(omega - self.cuts[i])
        w = self.cut_widths[i]
        return smoothstep(u / w + 0.5)

    def Psi(self, i, omega):
        """Sector bump: plateau on S_i, transitions shared with neighbors."""
        omega = np.asarray(omega, dtype=float)
        near = np.abs(_wrap(omega - self.mids[i])) <= self.half_widths[i] + 0.2
        out = np.zeros_like(omega)
        if np.any(near):
            sub = omega[near]
            out[near] = self._cut_step(i, sub) * (1.0 - self._cut_step(i + 1, sub))
        return out

    def _tau_step(self, i, k, tau):
        """Step rising across the k-th retained tau edge of sector i;
        k = 0 and k = last are constant 1 and 0 (extended end plateaus)."""
        edges = self._tau_edges[i]
        tau = np.asarray(tau, dtype=float)
        if k <= 0:
            return np.ones_like(tau)
        if k >= len(edges) - 1:
            return np.zeros_like(tau)
        w = self._tau_widths[i][k]
        return smoothstep((tau - edges[k]) / w + 0.5)

    def T(self, i, j, omega):
        """Tangential factor of interval j in sector i, as a function of the
        boundary angle (through the sector's graph coordinate)."""
        tau = self.tiling.sectors[i].tau_of_omega(np.asarray(omega, dtype=float))
        jj = self._local_index(i, j)
        return self._tau_step(i, jj, tau) - self._tau_step(i, jj + 1, tau)

    def _local_index(self, i, j):
        """Position of global interval j among sector i's retained edges."""
        js = self._js[i]
        pos = np.searchsorted(js, j)
        if pos >= len(js) or js[pos] != j:
            raise ConfigError("interval %d not retained in sector %d" % (j, i))
        return pos

    # -- the partition ---------------------------------------------------------

    def sigma(self, i, j, m, n, rho, omega):
        """sigma_{i,j,m,n} from precomputed (rho, omega) fields."""
        r = np.asarray(rho, dtype=float) * 2.0 ** (-n)
        return (phi0(r) * self.psi(m, r)
                * self.Psi(i, omega) * self.T(i, j, omega))

    def sum_sigma(self, rho, omega):
        """Sum over every index of the partition (term-by-term in each
        factor family; the product structure makes this the full sum)."""
        rho = np.asarray(rho, dtype=float)
        radial = np.zeros_like(rho)
        for n in range(self.n_lo, self.n_hi + 1):
            r = rho * 2.0 ** (-n)
            p0 = phi0(r)
            active = p0 > 0
            if not np.any(active):
                continue
            shell = np.zeros_like(rho)
            ra = r[active]
            for m in range(self.m_lo, self.m_hi + 1):
                shell[active] += self.psi(m, ra)
            radial += p0 * shell
        angular = np.zeros_like(np.asarray(omega, dtype=float))
        for i in range(len(self.cuts)):
            w = self.Psi(i, omega)
            active = w > 0
            if not np.any(active):
                continue
            tang = np.zeros(int(np.sum(active)))
            for j in self._js[i]:
                tang += self.T(i, j, np.asarray(omega)[active])
            angular[active] += w[active] * tang
        return radial * angular


def annulus_cutoff(delta, t):
    """Symbol rho -> plateau((rho/t - 1)/delta) of the annulus smoother psi_t."""
    if t <= 0:
        raise ConfigError("scale t must be positive")
    def symbol(rho):
        return plateau((np.asarray(rho, dtype=float) / t - 1.0) / delta)
    return symbol


def full_annulus_symbol(l):
    """h_l(s) = beta(2^l (1 - s)) with beta a plateau bump on (1/2, 2)."""
    def h(s):
        return interval_bump(2.0 ** l * (1.0 - np.asarray(s, dtype=float)),
                             0.5, 2.0)
    return h


# -- kernels ------------------------------------------------------------------

class Kernel(object):
    """Physical-space samples of F[sigma] on an N x N grid of half-width L.

    Continuum normalization K(x) = (2 pi)^-2 integral sigma e^{i x xi} dxi,
    so Plancherel reads ||K||_2 = (2 pi)^-1 ||sigma||_2.
    """

    def __init__(self, values, N, L):
        self.values = values
        self.N = int(N)
        self.L = float(L)
        self.h = 2.0 * L / N
        self.x = self.h * np.arange(-N // 2, N // 2)

    def l1(self):
        return float(np.sum(np.abs(self.values)) * self.h ** 2)

    def l2(self):
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.h ** 2))

    def radius_field(self):
        X1, X2 = np.meshgrid(self.x, self.x, indexing="ij")
        return np.hypot(X1, X2)


def symbol_to_kernel(symbol_values, N, L, tail_tol=1e-4):
    """Inverse transform of frequency samples with continuum weights.

    Raises ResolutionError when the outer 10 percent frame of the window
    carries more than tail_tol of the kernel's L1 mass.
    """
    dxi = np.pi / L
    spec = scipy.fft.ifft2(scipy.fft.ifftshift(symbol_values))
    vals = scipy.fft.fftshift(spec) * (N * dxi / (2.0 * np.pi)) ** 2
    ker = Kernel(vals, N, L)
    a = np.abs(vals)
    total = float(np.sum(a))
    if total > 0:
        r = np.maximum(np.abs(ker.x)[:, None], np.abs(ker.x)[None, :])
        tail = float(np.sum(a[r > 0.9 * L]))
        if tail > tail_tol * total:
            raise ResolutionError(
                "kernel tail mass %.2e of total; enlarge the window L=%g"
                % (tail / total, L))
    return ker


def kernel_build(lib, pair, indices, grid_spec, tail_tol=1e-4):
    """Build K_{i,j,m,n} = F[sigma_{i,j,m,n}] on the (N, L) grid."""
    N, L = grid_spec
    rho, omega = rho_omega_grid(pair, N, L)
    i, j, m, n = indices
    sym = lib.sigma(i, j, m, n, rho, omega)
    return symbol_to_kernel(sym, N, L, tail_tol=tail_tol)


def kernel_from_rho_symbol(pair, symbol, grid_spec, tail_tol=1e-4):
    """Kernel of a purely quasiradial symbol rho -> symbol(rho)."""
    N, L = grid_spec
    rho, _ = rho_omega_grid(pair, N, L)
    return symbol_to_kernel(symbol(rho), N, L, tail_tol=tail_tol)


def kernel_annulus_l1(kernel, k, unit=1.0):
    """Integral of |K| over the annulus 2^k <= |x|/unit < 2^{k+1}.

    unit rescales lengths to the dual of the frequency scale: for a domain
    whose boundary sits at |xi| ~ R, unit = 1/R puts the table in the
    normalization where rho ~ |xi|.
    """
    if 2.0 ** (k + 1) * unit > kernel.L * np.sqrt(2.0) + 1e-9:
        raise ResolutionError(
            "annulus 2^%d exceeds the grid window L = %g" % (k + 1, kernel.L))
    r = kernel.radius_field() / unit
    mask = (r >= 2.0 ** k) & (r < 2.0 ** (k + 1))
    return float(np.sum(np.abs(kernel.values)[mask]) * kernel.h ** 2)
