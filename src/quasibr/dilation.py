"""Nonisotropic dilation groups t^A = exp(log(t) A) on R^2.

A single closed form covers every 2x2 case (distinct real eigenvalues,
Jordan blocks, complex pairs): write A = a I + C with a = tr(A)/2 and C
traceless, so C^2 = mu^2 I with mu^2 = a^2 - det A, and

    exp(s A) = e^{s a} (cosh(s mu) I + s sinhc(s mu) C).

sinhc(z) = sinh(z)/z extends smoothly through z = 0, so no case split is
needed and the formula vectorizes over s.
"""

import numpy as np

from .errors import ConfigError


def _sinhc_cosh(z2):
    """Return (cosh(z), sinh(z)/z) from z^2, valid for either sign of z^2."""
    z2 = np.asarray(z2, dtype=float)
    pos = z2 > 1e-12
    neg = z2 < -1e-12
    c = np.ones_like(z2)
    s = np.ones_like(z2)
    if np.any(pos):
        z = np.sqrt(z2[pos])
        c[pos] = np.cosh(z)
        s[pos] = np.sinh(z) / z
    if np.any(neg):
        w = np.sqrt(-z2[neg])
        c[neg] = np.cos(w)
        s[neg] = np.sin(w) / w
    mid = ~(pos | neg)
    if np.any(mid):
        # series: cosh = 1 + z2/2 + z2^2/24, sinhc = 1 + z2/6 + z2^2/120
        y = z2[mid]
        c[mid] = 1.0 + y / 2.0 + y * y / 24.0
        s[mid] = 1.0 + y / 6.0 + y * y / 120.0
    return c, s


class DilationGroup(object):
    """The group {t^A : t > 0} for a fixed real 2x2 matrix A.

    Both eigenvalues of A must have positive real part, so orbits flow from
    the origin to infinity as t grows.
    """

    def __init__(self, A):
        try:
            A = np.asarray(A, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("A must be a 2x2 real matrix, got %r" % (A,))
        if A.shape != (2, 2):
            raise ConfigError("A must be a 2x2 real matrix, got shape %r" % (A.shape,))
        if not np.all(np.isfinite(A)):
            raise ConfigError("A must have finite entries, got %r" % (A.tolist(),))
        self.A = A
        eigvals = np.linalg.eigvals(A)
        self.eig_re = (float(eigvals[0].real), float(eigvals[1].real))
        if min(self.eig_re) <= 0.0:
            raise ConfigError(
                "dilation matrix needs Re(eigenvalues) > 0, got %r" % (self.eig_re,))
        self._a = 0.5 * (A[0, 0] + A[1, 1])
        self._C = A - self._a * np.eye(2)
        # mu^2 = a^2 - det(A); C^2 = mu^2 I
        self._mu2 = self._a ** 2 - float(np.linalg.det(A))
        # a when A = a I exactly (orbits are rays, t^A = t^a), else None
        self.scalar = None if np.any(self._C) else float(self._a)

    def _parts(self, t):
        """(e^{as}, cosh(s mu), s sinhc(s mu)) at s = log t, shaped like t."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise ConfigError("matrix power needs t > 0")
        s = np.log(t)
        c, shc = _sinhc_cosh(self._mu2 * s * s)
        return np.exp(self._a * s), c, s * shc

    def power(self, t):
        """t^A as a (2, 2) array for scalar t, or (..., 2, 2) for array t."""
        ea, c, q = self._parts(t)
        C = self._C
        out = np.empty(np.shape(c) + (2, 2))
        out[..., 0, 0] = ea * (c + q * C[0, 0])
        out[..., 0, 1] = ea * (q * C[0, 1])
        out[..., 1, 0] = ea * (q * C[1, 0])
        out[..., 1, 1] = ea * (c + q * C[1, 1])
        return out

    def apply(self, t, xi):
        """t^A xi with t scalar or shaped like xi[..., 0]; xi shape (..., 2).

        Forms the four entries of t^A with the expressions of power(), shaped
        like t, so no (..., 2, 2) array is built and the result is the same
        to the bit.
        """
        ea, c, q = self._parts(t)
        C = self._C
        xi = np.asarray(xi, dtype=float)
        x = ea * (c + q * C[0, 0]) * xi[..., 0] + ea * (q * C[0, 1]) * xi[..., 1]
        y = ea * (q * C[1, 0]) * xi[..., 0] + ea * (c + q * C[1, 1]) * xi[..., 1]
        return np.stack([x, y], axis=-1)


def orbit_tangent(group, xi, t=1.0):
    """Tangent to the orbit s -> s^A xi at s = t, i.e. t^{-1} A t^A xi."""
    xi = np.asarray(xi, dtype=float)
    if np.all(xi == 0.0):
        raise ConfigError("orbit tangent undefined at the origin")
    if t == 1.0:
        return group.A @ xi
    return (group.A @ group.apply(t, xi)) / t
