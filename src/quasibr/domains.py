"""Convex domains in R^2: boundary data, the scale constant M, boundary
arcs as convex graphs, and smooth approximation of rough boundaries.

Every domain is star-shaped about the origin and fully described by its
radial function r(theta) (the boundary point along direction theta is
r(theta) (cos theta, sin theta)).  Disk and superellipse carry exact radial
formulas, polygons carry exact edges, and mollified polygons carry a dense
radial sample table.

Validity contract: the domain must contain the closed ball of radius 8 and
sit inside the open ball of radius 2^M, M minimal (the scale constant).
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, GeometryError

BALL_RADIUS = 8.0


def _finite(value, what):
    """value as a finite float, or ConfigError."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError("%s must be a number, got %r" % (what, value))
    if not np.isfinite(value):
        raise ConfigError("%s must be finite, got %r" % (what, value))
    return value


def _positive(value, what):
    """value as a finite positive float, or ConfigError."""
    value = _finite(value, what)
    if value <= 0:
        raise ConfigError("%s must be positive, got %r" % (what, value))
    return value


def _rot(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class ConvexDomain(object):
    """Base class; subclasses provide radial() and radial_derivative()."""

    is_polygon = False

    def radial(self, theta):
        raise NotImplementedError

    def radial_derivative(self, theta):
        raise NotImplementedError

    def boundary_point(self, theta):
        theta = np.asarray(theta, dtype=float)
        r = self.radial(theta)
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)

    def max_radius(self):
        th = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
        return float(np.max(self.radial(th)))

    def inner_radius(self):
        """Distance from the origin to the boundary (min of support function)."""
        th = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
        pts = self.boundary_point(th)
        # support function h(u) = max_p <p, u>; its min over u is the inradius
        # at the origin.  Evaluate on the same angular grid.
        u = np.stack([np.cos(th), np.sin(th)], axis=-1)
        h = np.max(pts @ u.T, axis=0)
        return float(np.min(h))

    def contains(self, points):
        """Boolean mask: points strictly inside (radial comparison)."""
        points = np.asarray(points, dtype=float)
        r = np.hypot(points[..., 0], points[..., 1])
        th = np.arctan2(points[..., 1], points[..., 0])
        return r < self.radial(th)

    def tangent_direction(self, theta):
        """Unit tangent to the boundary at the point in direction theta
        (smooth domains only)."""
        theta = np.asarray(theta, dtype=float)
        r = self.radial(theta)
        dr = self.radial_derivative(theta)
        tx = dr * np.cos(theta) - r * np.sin(theta)
        ty = dr * np.sin(theta) + r * np.cos(theta)
        n = np.hypot(tx, ty)
        return np.stack([tx / n, ty / n], axis=-1)

    def theta_samples(self, n):
        """n boundary points with their supporting-line directions.

        Returns (points, [dirs1, dirs2]); for smooth domains the two
        direction arrays coincide.
        """
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        pts = self.boundary_point(th)
        dirs = self.tangent_direction(th)
        return pts, [dirs, dirs]


class Disk(ConvexDomain):
    def __init__(self, radius):
        self.radius = _positive(radius, "disk radius")

    def radial(self, theta):
        return np.full_like(np.asarray(theta, dtype=float), self.radius)

    def radial_derivative(self, theta):
        return np.zeros_like(np.asarray(theta, dtype=float))

    def max_radius(self):
        return self.radius

    def inner_radius(self):
        return self.radius


class Superellipse(ConvexDomain):
    """|x/a|^p + |y/b|^p <= 1 with p >= 2 (convex, smooth for p < inf)."""

    def __init__(self, a, b, p):
        self.a = _positive(a, "superellipse semi-axis a")
        self.b = _positive(b, "superellipse semi-axis b")
        self.p = _positive(p, "superellipse exponent")
        if self.p < 2:
            raise ConfigError("superellipse exponent must be >= 2 for smooth convexity")

    def _g(self, theta):
        return (np.abs(np.cos(theta) / self.a) ** self.p
                + np.abs(np.sin(theta) / self.b) ** self.p)

    def radial(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self._g(theta) ** (-1.0 / self.p)

    def radial_derivative(self, theta):
        theta = np.asarray(theta, dtype=float)
        c, s = np.cos(theta), np.sin(theta)
        g = self._g(theta)
        dg = (self.p * np.abs(c / self.a) ** (self.p - 1) * np.sign(c) * (-s / self.a)
              + self.p * np.abs(s / self.b) ** (self.p - 1) * np.sign(s) * (c / self.b))
        return -(1.0 / self.p) * g ** (-1.0 / self.p - 1.0) * dg


class Polygon(ConvexDomain):
    """Convex polygon with counterclockwise vertices and the origin inside."""

    is_polygon = True

    def __init__(self, vertices):
        try:
            V = np.asarray(vertices, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("polygon vertices must be numbers, got %r" % (vertices,))
        if V.ndim != 2 or V.shape[1] != 2 or len(V) < 3:
            raise ConfigError("polygon needs a (k, 2) vertex array, k >= 3")
        if not np.all(np.isfinite(V)):
            raise ConfigError("polygon vertices must be finite")
        # normalize to counterclockwise order
        area2 = np.sum(V[:, 0] * np.roll(V[:, 1], -1) - np.roll(V[:, 0], -1) * V[:, 1])
        if area2 < 0:
            V = V[::-1].copy()
        E = np.roll(V, -1, axis=0) - V
        cross = E[:, 0] * np.roll(E[:, 1], -1) - E[:, 1] * np.roll(E[:, 0], -1)
        if np.any(cross <= 0):
            raise GeometryError("polygon is not strictly convex")
        self.vertices = V
        self.edges = E
        self.vertex_angles = np.arctan2(V[:, 1], V[:, 0])

    def radial(self, theta):
        theta = np.asarray(theta, dtype=float)
        shape = theta.shape
        th = theta.reshape(-1)
        d = np.stack([np.cos(th), np.sin(th)], axis=-1)  # (m, 2)
        V, E = self.vertices, self.edges
        # ray o + s d meets edge V_k + u E_k: solve by 2x2 cross products
        denom = d[:, None, 0] * (-E[None, :, 1]) - d[:, None, 1] * (-E[None, :, 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (V[None, :, 0] * (-E[None, :, 1]) - V[None, :, 1] * (-E[None, :, 0])) / denom
            u = (d[:, None, 0] * V[None, :, 1] - d[:, None, 1] * V[None, :, 0]) / denom
        hit = (s > 0) & (u >= -1e-12) & (u <= 1 + 1e-12)
        s = np.where(hit, s, np.inf)
        r = np.min(s, axis=1)
        if not np.all(np.isfinite(r)):
            raise GeometryError("polygon does not surround the origin")
        return r.reshape(shape)

    def max_radius(self):
        return float(np.max(np.hypot(self.vertices[:, 0], self.vertices[:, 1])))

    def inner_radius(self):
        V, E = self.vertices, self.edges
        # distance from origin to each edge line
        num = np.abs(V[:, 0] * E[:, 1] - V[:, 1] * E[:, 0])
        return float(np.min(num / np.hypot(E[:, 0], E[:, 1])))

    def theta_samples(self, n):
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        pts = self.boundary_point(th)
        # edge direction at each sampled point
        ang = np.mod(th - self.vertex_angles[0], 2 * np.pi)
        bounds = np.mod(self.vertex_angles - self.vertex_angles[0], 2 * np.pi)
        order = np.argsort(bounds)
        idx = order[np.searchsorted(bounds[order], ang, side="right") - 1]
        dirs = self.edges[idx] / np.hypot(self.edges[idx, 0], self.edges[idx, 1])[:, None]
        points = [pts]
        d1 = [dirs]
        d2 = [dirs]
        # vertices contribute both adjacent edge directions
        eu = self.edges / np.hypot(self.edges[:, 0], self.edges[:, 1])[:, None]
        points.append(self.vertices)
        d1.append(np.roll(eu, 1, axis=0))
        d2.append(eu)
        return np.concatenate(points), [np.concatenate(d1), np.concatenate(d2)]


class SampledDomain(ConvexDomain):
    """Convex domain given by dense boundary samples (angle, radius).

    Linear interpolation of the radial table, i.e. geometrically the
    inscribed polygon on the sample points; with dense samples this
    represents a C^infty boundary to quadrature accuracy.
    """

    def __init__(self, thetas, radii):
        order = np.argsort(thetas)
        th = np.asarray(thetas, dtype=float)[order]
        rr = np.asarray(radii, dtype=float)[order]
        # drop duplicate angles so every interpolation segment has length > 0
        keep = np.concatenate([[True], np.diff(th) > 1e-12])
        self.thetas = th[keep]
        self.radii = rr[keep]
        if np.any(self.radii <= 0):
            raise GeometryError("sampled boundary must surround the origin")
        # periodic extension for interpolation
        self._th_ext = np.concatenate([
            self.thetas[-2:] - 2 * np.pi, self.thetas, self.thetas[:2] + 2 * np.pi])
        self._r_ext = np.concatenate([self.radii[-2:], self.radii, self.radii[:2]])

    def radial(self, theta):
        theta = np.asarray(theta, dtype=float)
        t = np.mod(theta + np.pi, 2 * np.pi) - np.pi
        return np.interp(t, self._th_ext, self._r_ext)

    def radial_derivative(self, theta):
        h = 1e-6
        return (self.radial(np.asarray(theta) + h) - self.radial(np.asarray(theta) - h)) / (2 * h)

    def convexity_defect(self):
        """Most negative cross product of consecutive boundary segments,
        normalized by segment lengths; >= -tol means convex."""
        p = np.stack([self.radii * np.cos(self.thetas),
                      self.radii * np.sin(self.thetas)], axis=-1)
        e = np.roll(p, -1, axis=0) - p
        cr = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        ln = np.hypot(e[:, 0], e[:, 1])
        return float(np.min(cr / (ln * np.roll(ln, -1))))


def compute_M(domain):
    """Least positive M with max boundary radius < 2^M; requires ball(8)
    inside the domain."""
    if domain.inner_radius() < BALL_RADIUS - 1e-9:
        raise GeometryError(
            "domain must contain the closed ball of radius 8 "
            "(inner radius %.4f)" % domain.inner_radius())
    rmax = domain.max_radius()
    M = 1
    while 2.0 ** M <= rmax:
        M += 1
    domain.M = M
    return M


_DOMAIN_FIELDS = {"disk": ("radius",), "superellipse": ("a", "b", "p"),
                  "polygon": ("vertices",),
                  "regular-polygon": ("k", "circumradius", "phase")}


def domain_from_config(cfg):
    """Build a domain from {"type": ...} configuration dict."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError("domain config must be a dict with a 'type' key")
    kind = cfg["type"]
    fields = _DOMAIN_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ConfigError("unknown domain type %r" % (kind,))
    unknown = sorted(set(cfg) - {"type"} - set(fields))
    if unknown:
        raise ConfigError("unknown %s field %r; known fields are %s"
                          % (kind, unknown[0], ", ".join(fields)))
    try:
        if kind == "disk":
            dom = Disk(cfg["radius"])
        elif kind == "superellipse":
            dom = Superellipse(cfg["a"], cfg["b"], cfg["p"])
        elif kind == "polygon":
            dom = Polygon(cfg["vertices"])
        else:
            dom = regular_polygon(cfg["k"], cfg["circumradius"],
                                  cfg.get("phase", 0.0))
    except KeyError as exc:
        raise ConfigError("domain config missing field %s" % exc)
    compute_M(dom)
    return dom


def regular_polygon(k, circumradius, phase=0.0):
    if not isinstance(k, (int, np.integer)) or k < 3:
        raise ConfigError("regular polygon needs an integer k >= 3, got %r" % (k,))
    circumradius = _positive(circumradius, "circumradius")
    ang = _finite(phase, "phase") + 2 * np.pi * np.arange(k) / k
    return Polygon(np.stack([circumradius * np.cos(ang),
                             circumradius * np.sin(ang)], axis=-1))


class BoundaryArc(object):
    """The lower boundary of the rotated domain over x1 in [-1, 1] as a
    convex graph x2 = u(t).

    gamma(t) = 2^M + u(t) lies in (1, 2^M); gamma_left/gamma_right are the
    one-sided derivatives of u (nondecreasing, gamma_left <= gamma_right at
    each point), exact for polygons.
    """

    T_LO, T_HI = -1.0, 1.0

    def __init__(self, domain, rotation):
        self.domain = domain
        self.rotation = float(rotation)
        self.M = getattr(domain, "M", None) or compute_M(domain)
        self._R = _rot(self.rotation)
        if domain.is_polygon:
            self._build_polygon_chain()
        else:
            self._build_smooth_table()

    # -- construction ------------------------------------------------------

    def _build_polygon_chain(self):
        V = (self._R @ self.domain.vertices.T).T
        k = len(V)
        nxt = np.roll(np.arange(k), -1)
        dx = V[nxt, 0] - V[:, 0]
        lower = dx > 0  # ccw polygon: the lower chain runs left to right
        xs, us, slopes = [], [], []
        start = None
        for i in range(k):
            if lower[i] and not lower[i - 1]:
                start = i
        if start is None:
            raise GeometryError("degenerate polygon chain")
        i = start
        while lower[i]:
            xs.append(V[i, 0])
            us.append(V[i, 1])
            slopes.append((V[nxt[i], 1] - V[i, 1]) / (V[nxt[i], 0] - V[i, 0]))
            i = nxt[i]
        xs.append(V[i, 0])
        us.append(V[i, 1])
        self._xs = np.asarray(xs)
        self._us = np.asarray(us)
        self._slopes = np.asarray(slopes)
        if self._xs[0] > self.T_LO - 0.2 or self._xs[-1] < self.T_HI + 0.2:
            raise GeometryError("lower boundary is not a graph over [-1, 1]")

    def _build_smooth_table(self):
        center = -np.pi / 2 - self.rotation
        psi = np.linspace(center - 0.7, center + 0.7, 24001)
        r = self.domain.radial(psi)
        dr = self.domain.radial_derivative(psi)
        ang = psi + self.rotation
        x1 = r * np.cos(ang)
        x2 = r * np.sin(ang)
        d1 = dr * np.cos(ang) - r * np.sin(ang)
        d2 = dr * np.sin(ang) + r * np.cos(ang)
        if np.any(np.diff(x1) <= 0):
            raise GeometryError("lower boundary is not a graph over [-1, 1]")
        if x1[0] > self.T_LO - 0.2 or x1[-1] < self.T_HI + 0.2:
            raise GeometryError("boundary sample window too narrow")
        self._xs = x1
        self._us = x2
        self._slope_table = d2 / d1

    # -- evaluation --------------------------------------------------------

    def u(self, t):
        """Lower-boundary height in rotated coordinates (negative)."""
        t = np.asarray(t, dtype=float)
        if self.domain.is_polygon:
            idx = np.clip(np.searchsorted(self._xs, t, side="right") - 1,
                          0, len(self._slopes) - 1)
            return self._us[idx] + self._slopes[idx] * (t - self._xs[idx])
        return np.interp(t, self._xs, self._us)

    def gamma(self, t):
        return 2.0 ** self.M + self.u(t)

    def gamma_left(self, t):
        t = np.asarray(t, dtype=float)
        if self.domain.is_polygon:
            idx = np.clip(np.searchsorted(self._xs, t, side="left") - 1,
                          0, len(self._slopes) - 1)
            return self._slopes[idx] + 0.0 * t
        return np.interp(t, self._xs, self._slope_table)

    def gamma_right(self, t):
        t = np.asarray(t, dtype=float)
        if self.domain.is_polygon:
            idx = np.clip(np.searchsorted(self._xs, t, side="right") - 1,
                          0, len(self._slopes) - 1)
            return self._slopes[idx] + 0.0 * t
        return np.interp(t, self._xs, self._slope_table)


def boundary_arc(domain, rotation):
    """Lemma-style parametrization of the rotated lower boundary."""
    return BoundaryArc(domain, rotation)


# -- smooth approximation ---------------------------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(48)


def _eta_norm_constant():
    # integral of exp(-1/(1-y^2)) over (-1, 1) by Gauss-Legendre
    y = _GL_NODES
    vals = np.exp(-1.0 / (1.0 - y ** 2))
    return float(np.sum(_GL_WEIGHTS * vals))


_ETA_MASS = _eta_norm_constant()  # ~0.443994


def eta_bump(x):
    """Even mollifier supported in (-1/2, 1/2) with unit mass."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 0.5
    y = 2.0 * x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - y ** 2))
    return out * (2.0 / _ETA_MASS)


def smooth_approximate(domain, n):
    """Inscribed n-gon with mollified vertices; returns a SampledDomain.

    Vertices sit at boundary points whose directions make angles 2 pi i / n
    with the vertical axis.  Each vertex is smoothed by convolving the local
    two-edge graph with the unit-mass even bump at scale C = 600 / d, where
    d is the shorter adjacent edge, so the rounding window has width d/600
    and the polygon is unchanged outside it.
    """
    if n < 8:
        raise GeometryError("smooth approximation needs n >= 8")
    M = getattr(domain, "M", None) or compute_M(domain)
    ang = np.pi / 2 - 2 * np.pi * np.arange(n) / n
    verts = domain.boundary_point(ang)

    edge_len = np.hypot(*(np.roll(verts, -1, axis=0) - verts).T)
    thetas, radii = [], []
    for i in range(n):
        v = verts[i]
        prev_v = verts[i - 1]
        next_v = verts[(i + 1) % n]
        d = min(edge_len[i - 1], edge_len[i])
        C = 600.0 / d
        half = 0.5 / C  # support radius of the scaled mollifier
        # local frame: rotate v to the positive x2-axis
        rot = np.pi / 2 - np.arctan2(v[1], v[0])
        R = _rot(rot)
        pv, nv, vv = R @ prev_v, R @ next_v, R @ v
        s_left = (vv[1] - pv[1]) / (vv[0] - pv[0])
        s_right = (nv[1] - vv[1]) / (nv[0] - vv[0])

        def graph(a):
            return vv[1] + np.where(a < 0, s_left * a, s_right * a)

        alphas = np.linspace(-3 * half, 3 * half, 121)
        tau = half * _GL_NODES
        w = half * _GL_WEIGHTS
        eta_vals = eta_bump(C * tau) * C
        smooth_vals = np.array(
            [np.sum(w * eta_vals * graph(a - tau)) for a in alphas])
        pts_local = np.stack([alphas, smooth_vals], axis=-1)
        pts = pts_local @ R  # R^{-1} = R^T applied from the right
        thetas.append(np.arctan2(pts[:, 1], pts[:, 0]))
        radii.append(np.hypot(pts[:, 0], pts[:, 1]))
        # straight part of the edge towards the next vertex
        a0 = vv[0] + 3 * half
        a1 = nv[0] - 3 * min(half, 0.5 / (600.0 / min(edge_len[i], edge_len[(i + 1) % n])))
        a = np.linspace(a0, a1, 64)
        pts_local = np.stack([a, graph(a)], axis=-1)
        pts = pts_local @ R
        thetas.append(np.arctan2(pts[:, 1], pts[:, 0]))
        radii.append(np.hypot(pts[:, 0], pts[:, 1]))

    out = SampledDomain(np.concatenate(thetas), np.concatenate(radii))
    rmin, rmax = out.radii.min(), out.radii.max()
    if not (rmin > 4.0 and rmax < 2.0 ** (M + 1)):
        raise GeometryError("smoothed polygon violates the ball sandwich")
    out.M = M  # inherit the parent scale constant
    return out
