"""Compatible pairs (Omega, A) and the norm function rho.

rho(xi) is the unique t > 0 with t^{-A} xi on the boundary of Omega; it
satisfies rho(t^A xi) = t rho(xi).  Evaluation is a vectorized bisection in
log2 t, safe because compatibility guarantees a single monotone crossing.
"""

import numpy as np

from .dilation import DilationGroup
from .errors import ConfigError, IncompatiblePairError

_REL_TOL = 1e-12
_S_LIMIT = 60.0  # bracket expansion limit: t in [2^-60, 2^60]


class CompatiblePair(object):
    """Validated (domain, group) and its norm function rho."""

    def __init__(self, domain, group):
        self.domain = domain
        self.group = group
        self.M = domain.M
        self._grids = {}  # (N, L) -> (rho, omega), see rho_omega_grid

    def rho(self, xi):
        return eval_rho(self, xi)

    def boundary_projection(self, xi, rho_vals=None):
        """rho(xi)^{-A} xi, the orbit projection onto the boundary."""
        xi = np.asarray(xi, dtype=float)
        if rho_vals is None:
            rho_vals = eval_rho(self, xi)
        r = np.maximum(rho_vals, 1e-300)
        return self.group.apply(1.0 / r, xi)

    def boundary_angle(self, xi, rho_vals=None):
        """Polar angle of the orbit projection; constant along orbits."""
        p = self.boundary_projection(xi, rho_vals)
        return np.arctan2(p[..., 1], p[..., 0])


def _signed_outside(pair, s, xi):
    """|y| - r(angle(y)) for y = (2^s)^{-A} xi: positive iff outside."""
    y = pair.group.apply(2.0 ** (-s), xi)
    r = np.hypot(y[..., 0], y[..., 1])
    th = np.arctan2(y[..., 1], y[..., 0])
    return r - pair.domain.radial(th)


def eval_rho(pair, xi):
    """Vectorized rho; xi shape (..., 2), returns shape (...)."""
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 1
    pts = xi.reshape(-1, 2)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    nz = norms > 0.0
    out = np.zeros(len(pts))
    if np.any(nz):
        p = pts[nz]
        # initial guess from the isotropic surrogate |xi| / 2^M
        amin = max(min(pair.group.eig_re), 1e-3)
        amax = max(pair.group.eig_re)
        s0 = np.log2(np.maximum(norms[nz], 1e-300) / 2.0 ** pair.M)
        lo = np.minimum(s0 / amin, s0 / amax) - 1.0
        hi = np.maximum(s0 / amin, s0 / amax) + 1.0
        # expand until (2^lo)^{-A} xi is outside and (2^hi)^{-A} xi inside
        step = 1.0
        for _ in range(80):
            bad_lo = _signed_outside(pair, lo, p) <= 0.0
            bad_hi = _signed_outside(pair, hi, p) >= 0.0
            if not (bad_lo.any() or bad_hi.any()):
                break
            lo = np.where(bad_lo, np.maximum(lo - step, -_S_LIMIT), lo)
            hi = np.where(bad_hi, np.minimum(hi + step, _S_LIMIT), hi)
            step = min(step * 2.0, 16.0)
        else:
            raise ConfigError("rho root not bracketed in t range [2^-60, 2^60]")
        # bisection in s = log2 t down to relative tolerance 1e-12 in t; each
        # point stops at its own bracket width, so its rho does not depend
        # on the other points of the batch
        for _ in range(64):
            active = hi - lo >= _REL_TOL
            if not active.any():
                break
            mid = 0.5 * (lo + hi)
            outside = _signed_outside(pair, mid, p) > 0.0
            lo = np.where(active & outside, mid, lo)
            hi = np.where(active & ~outside, mid, hi)
        out[nz] = 2.0 ** (0.5 * (lo + hi))
    out = out.reshape(xi.shape[:-1])
    return float(out) if scalar else out


def frequency_grid(N, L):
    """1-D frequency samples (pi/L) {-N/2, ..., N/2 - 1}."""
    return (np.pi / L) * np.arange(-N // 2, N // 2)


def rho_omega_grid(pair, N, L):
    """(rho, omega) fields on the N x N frequency grid, cached on the pair.

    omega is the polar angle of the orbit projection rho^{-A} xi onto the
    boundary; it is constant along dilation orbits.  At xi = 0 both fields
    are set to 0.
    """
    key = (N, L)
    if key not in pair._grids:
        xi1 = frequency_grid(N, L)
        X1, X2 = np.meshgrid(xi1, xi1, indexing="ij")
        xi = np.stack([X1, X2], axis=-1)
        rho = eval_rho(pair, xi)
        omega = np.zeros_like(rho)
        nz = rho > 0
        omega[nz] = pair.boundary_angle(xi[nz], rho[nz])
        pair._grids[key] = (rho, omega)
    return pair._grids[key]


def check_compatibility(domain, group):
    """Validate single orbit crossing and positive contact angle.

    Samples boundary points, checks that the signed position along each
    orbit is monotone through zero on a log grid, and takes theta as the
    min over samples of the angle between the orbit tangent A xi and the
    supporting line(s) at xi (two edge directions at polygon vertices).
    """
    if not isinstance(group, DilationGroup):
        group = DilationGroup(group)
    if getattr(domain, "M", None) is None:
        from .domains import compute_M
        compute_M(domain)
    pts, dir_pairs = domain.theta_samples(2048)
    tangents = (group.A @ pts.T).T
    tn = np.hypot(tangents[:, 0], tangents[:, 1])
    theta = np.inf
    for dirs in dir_pairs:
        dots = np.abs(np.sum(tangents * dirs, axis=-1)) / tn
        theta = min(theta, float(np.min(np.arccos(np.clip(dots, 0.0, 1.0)))))
    if theta < 1e-6:
        raise IncompatiblePairError(
            "orbit tangents nearly parallel to supporting lines "
            "(theta = %.3e)" % theta)
    # single-crossing probe on a coarse subset of directions
    probe = pts[:: max(1, len(pts) // 128)]
    pair = CompatiblePair(domain, group)
    s_grid = np.linspace(-6.0, 6.0, 241)
    signs = np.stack([_signed_outside(pair, s, probe) for s in s_grid])
    flips = np.abs(np.diff((signs > 0).astype(np.int8), axis=0))
    crossings = np.sum(flips, axis=0)
    if np.any(crossings != 1):
        raise IncompatiblePairError("an orbit crosses the boundary more than once")
    # orientation: outside for small t, inside for large t
    if np.any(signs[0] <= 0) or np.any(signs[-1] >= 0):
        raise IncompatiblePairError("orbit does not flow from outside to inside")
    return pair


def rho_lipschitz_probe(pair):
    """Max finite-difference Lipschitz quotient of rho on the rho-annulus
    1/2 <= rho <= 2, at 4096 seeded random points."""
    samples = 4096
    rng = np.random.default_rng(0)
    ang = rng.uniform(-np.pi, np.pi, samples)
    base = pair.domain.boundary_point(ang)
    levels = np.exp(rng.uniform(np.log(0.5), np.log(2.0), samples))
    xi = pair.group.apply(levels, base)  # rho(xi) = levels exactly
    h = 1e-5 * np.max(np.hypot(xi[:, 0], xi[:, 1]))
    dirs = rng.normal(size=(samples, 2))
    dirs /= np.hypot(dirs[:, 0], dirs[:, 1])[:, None]
    r0 = eval_rho(pair, xi)
    r1 = eval_rho(pair, xi + h * dirs)
    return float(np.max(np.abs(r1 - r0) / h))
