"""Sector decomposition of the plane and the tile family B_{i,j,m,n}.

Sectors are built by walking the boundary counterclockwise: each sector
gets a rotation placing its arc inside the graph window {|x1| <= 1/2},
and the union of windows covers the boundary.  Tiles are curved boxes
bounded by two quasinorm level sets rho = s(1 +- 2 delta) and two dilation
orbits through refined cap endpoints.  Membership reduces to two interval
tests in the invariant coordinates (rho, omega), where omega is the polar
angle of the orbit projection onto the boundary.

The family is a product: an arc is one (sector i, interval I_j) with its
tau and omega windows, a shell one (m, n) with its rho window, and tile k
is arc k // n_shells times shell k % n_shells; Tiling.index finds k from
(i, j, m, n).  Tile generation n sits at rho ~ ratio^m 4^n (dilates by
(2^{2n})^A), which membership, multiplicity and the overlap counters read;
the partition sigma_{i,j,m,n} and what applies it sit at ratio^m 2^n (see
bumps).  The two agree at n = 0.
"""

from types import SimpleNamespace

import numpy as np

from .caps import DELTA_MAX, decompose
from .domains import _increasing_run, boundary_arc
from .errors import ConfigError, GeometryError

TAU_WINDOW = 0.5  # sector half-width in the rotated graph coordinate


def _wrap(a):
    return np.mod(np.asarray(a) + np.pi, 2 * np.pi) - np.pi


def _in_arc(omega, lo, hi):
    """Angles in the ccw arc from lo to hi (arc length < 2 pi)."""
    span = np.mod(hi - lo, 2 * np.pi)
    return np.mod(omega - lo, 2 * np.pi) <= span


class Sector(object):
    """One boundary sector: ccw angular window plus its graph rotation."""

    def __init__(self, index, omega_start, omega_end, rotation, domain):
        self.index = index
        self.omega_start = float(omega_start)
        self.omega_end = float(omega_end)
        self.rotation = float(rotation)
        self.domain = domain
        self.arc = boundary_arc(domain, rotation)

    @property
    def width(self):
        return self.omega_end - self.omega_start

    def tau_of_omega(self, omega):
        """Rotated x1 coordinate of the boundary point at polar angle omega."""
        omega = np.asarray(omega, dtype=float)
        return self.domain.radial(omega) * np.cos(omega + self.rotation)

    def omega_of_tau(self, tau):
        """Inverse of tau_of_omega on the graph window (monotone there)."""
        grid = np.linspace(self.omega_start - 0.45, self.omega_end + 0.45, 4001)
        tg = self.tau_of_omega(grid)
        # the maximal monotone piece through the window's centre
        lo, hi = _increasing_run(tg, len(grid) // 2)
        return np.interp(tau, tg[lo:hi + 1], grid[lo:hi + 1])


def build_sectors(pair):
    """Cover the boundary by rotated-graph sectors (ccw walk)."""
    from scipy.optimize import brentq  # deferred: few CLI runs build a tiling

    domain = pair.domain
    omega0 = -np.pi / 2
    sectors = []
    omega = omega0
    guard = int(4 * np.pi / (2 * np.arcsin(0.5 / domain.max_radius()))) + 8
    for i in range(guard):
        p = domain.boundary_point(omega)
        r = float(np.hypot(p[0], p[1]))
        # rotate the start point to frame angle -pi/2 - asin(1/(2r)),
        # which puts it at x1 = -1/2 on the lower graph
        target = -np.pi / 2 - np.arcsin(TAU_WINDOW / r)
        rotation = target - omega
        # next cut: first angle where the rotated x1 coordinate reaches +1/2
        def g(d):
            w = omega + d
            return domain.radial(w) * np.cos(w + rotation) - TAU_WINDOW
        probe = np.linspace(1e-9, 0.5, 2000)
        vals = g(probe)
        pos = np.flatnonzero(vals >= 0)
        if len(pos) == 0:
            raise GeometryError("sector walk failed to reach the window edge")
        k = pos[0]
        delta_omega = brentq(g, probe[max(k - 1, 0)], probe[k], xtol=1e-13)
        omega_end = omega + delta_omega
        if omega_end >= omega0 + 2 * np.pi:
            omega_end = omega0 + 2 * np.pi
        sectors.append(Sector(i, omega, omega_end, rotation, domain))
        omega = omega_end
        if omega >= omega0 + 2 * np.pi - 1e-12:
            break
    else:
        raise GeometryError("sector walk did not close after the guard count")
    return sectors


def m_shell_range(delta):
    """Indices m with shells r^m [1-2d, 1+2d] sandwiching [1/2, 2] in [1/4, 4].

    r = (1+2 delta)/(1-2 delta), so consecutive shells meet exactly.
    """
    r = (1.0 + 2.0 * delta) / (1.0 - 2.0 * delta)
    m_lo = int(np.floor(np.log(0.5 / (1.0 + 2.0 * delta)) / np.log(r)))
    m_hi = int(np.ceil(np.log(2.0 / (1.0 - 2.0 * delta)) / np.log(r)))
    return m_lo, m_hi


ARC_FIELDS = ("sector_idx", "j_idx", "tau_lo", "tau_hi", "omega_lo", "omega_hi")
SHELL_FIELDS = ("m_idx", "n_idx", "rho_lo", "rho_hi")


def _sector_arcs(sector, delta):
    """Arc columns (ARC_FIELDS) of one sector: its refined intervals that
    meet the sector's own angular window, with a small margin for the bump
    transitions."""
    iv = np.asarray(decompose(sector.arc, delta).refined)
    t0 = -TAU_WINDOW - 0.02
    t1 = sector.tau_of_omega(sector.omega_end) + 0.02
    keep = (iv[:, 1] >= t0) & (iv[:, 0] <= t1)
    j = np.flatnonzero(keep)
    omega = sector.omega_of_tau(iv[keep])
    return (np.full(len(j), sector.index), j, iv[keep, 0], iv[keep, 1],
            omega[:, 0], omega[:, 1])


class Tiling(object):
    """The full family {B_{i,j,m,n}} for one pair and delta.

    self.arcs / self.shells hold the ARC_FIELDS / SHELL_FIELDS columns; the
    same names on self are the per-tile arrays.
    """

    def __init__(self, pair, delta, n_range=(0, 0)):
        if not 0.0 < delta < DELTA_MAX:
            raise ConfigError("delta must lie in (0, %g)" % DELTA_MAX)
        self.pair = pair
        self.delta = float(delta)
        self.n_lo, self.n_hi = int(n_range[0]), int(n_range[1])
        self.sectors = build_sectors(pair)
        self.ratio = (1.0 + 2.0 * delta) / (1.0 - 2.0 * delta)
        self.m_lo, self.m_hi = m_shell_range(delta)
        cols = zip(*(_sector_arcs(s, delta) for s in self.sectors))
        self.arcs = SimpleNamespace(
            **{f: np.concatenate(c) for f, c in zip(ARC_FIELDS, cols)})
        ms = np.arange(self.m_lo, self.m_hi + 1)
        ns = np.arange(self.n_lo, self.n_hi + 1)
        m_idx, n_idx = np.repeat(ms, len(ns)), np.tile(ns, len(ms))
        scale = self.ratio ** m_idx * 4.0 ** n_idx
        self.shells = SimpleNamespace(m_idx=m_idx, n_idx=n_idx,
                                      rho_lo=scale * (1.0 - 2.0 * delta),
                                      rho_hi=scale * (1.0 + 2.0 * delta))
        self.n_shells = len(m_idx)
        n_arcs = len(self.arcs.sector_idx)
        for f in ARC_FIELDS:
            setattr(self, f, np.repeat(getattr(self.arcs, f), self.n_shells))
        for f in SHELL_FIELDS:
            setattr(self, f, np.tile(getattr(self.shells, f), n_arcs))
        self.size = n_arcs * self.n_shells

    def index(self, i, j, m, n):
        """Tile index of B_{i,j,m,n} (sector i, interval j, shell m, n)."""
        arc = np.flatnonzero((self.arcs.sector_idx == i)
                             & (self.arcs.j_idx == j))
        shell = np.flatnonzero((self.shells.m_idx == m)
                               & (self.shells.n_idx == n))
        if len(arc) == 0 or len(shell) == 0:
            raise ConfigError("indices %d,%d,%d,%d name no tile of the tiling"
                              % (i, j, m, n))
        return int(arc[0]) * self.n_shells + int(shell[0])

    def samples(self, idx, n_omega):
        """Point clouds covering the tiles of idx: shape (len(idx),
        3 n_omega, 2), n_omega boundary angles across each tile's arc on
        its rho_lo, geometric-mean and rho_hi levels (corners, edges)."""
        idx = np.asarray(idx, dtype=int)
        w = np.linspace(self.omega_lo[idx], self.omega_hi[idx], n_omega, axis=1)
        base = self.pair.domain.boundary_point(w)
        rho = np.exp(np.linspace(np.log(self.rho_lo[idx]),
                                 np.log(self.rho_hi[idx]), 3, axis=1))
        pts = self.pair.group.apply(rho[:, :, None], base[:, None])
        return pts.reshape(len(idx), 3 * n_omega, 2)

    def bbox(self, idx):
        """Boxes [lo, hi] of shape (len(idx), 2, 2) around each tile's
        17-angle samples, padded by 2% of their extent."""
        pts = self.samples(idx, 17)
        lo = pts.min(axis=1)
        hi = pts.max(axis=1)
        pad = 0.02 * np.maximum(hi - lo, 1e-12)
        return np.stack([lo - pad, hi + pad], axis=1)

    def contains(self, points, idx, rho_vals=None, tol=0.0):
        """Membership of points (..., 2) in each tile of idx: shape (..., len(idx)).

        x lies in tile k dilated by tol >= 0 iff rho_lo (1 - tol) <= rho(x)
        <= rho_hi (1 + tol) and omega(x) lies in the arc [omega_lo - tol,
        omega_hi + tol].  rho is evaluated once for all tiles, omega once
        at the points inside some tile's rho range.
        """
        points = np.asarray(points, dtype=float)
        idx = np.asarray(idx, dtype=int)
        if rho_vals is None:
            rho_vals = self.pair.rho(points)
        shape = np.shape(rho_vals)
        rho = np.asarray(rho_vals, dtype=float).reshape(-1, 1)
        out = ((rho >= self.rho_lo[idx] * (1.0 - tol))
               & (rho <= self.rho_hi[idx] * (1.0 + tol)))
        near = out.any(axis=1)
        if np.any(near):
            omega = self.pair.boundary_angle(points.reshape(-1, 2)[near],
                                             rho[near, 0])
            out[near] &= _in_arc(omega[:, None], self.omega_lo[idx] - tol,
                                 self.omega_hi[idx] + tol)
        return out.reshape(shape + (len(idx),))

    def multiplicity(self, points, rho_vals=None, omega_vals=None):
        """Number of tiles containing each point: (arcs holding omega) x
        (shells holding rho), by the two tests of contains at tol = 0."""
        points = np.asarray(points, dtype=float)
        if rho_vals is None:
            rho_vals = self.pair.rho(points)
        if omega_vals is None:
            omega_vals = self.pair.boundary_angle(points, rho_vals)
        in_arcs = np.zeros(np.shape(omega_vals), dtype=int)
        for lo, hi in zip(self.arcs.omega_lo, self.arcs.omega_hi):
            in_arcs += _in_arc(omega_vals, lo, hi)
        in_shells = np.zeros(np.shape(rho_vals), dtype=int)
        for lo, hi in zip(self.shells.rho_lo, self.shells.rho_hi):
            in_shells += (rho_vals >= lo) & (rho_vals <= hi)
        return in_arcs * in_shells


def sector0_band(tiling, rho, omega):
    """Cells with |rho - 1| < delta and omega in sector 0's window: the
    support of the band probes of the kernel maximal and tile-projection
    experiments."""
    sec = tiling.sectors[0]
    return ((np.abs(rho - 1.0) < tiling.delta)
            & _in_arc(omega, sec.omega_start, sec.omega_end))


# -- overlap counting ---------------------------------------------------------

N_SPAN = 2       # dyadic generations added on each side of the levels
REFINE_TOP = 12  # busiest box cells counted exactly


class OverlapReport(object):
    def __init__(self, delta, max_overlap):
        self.delta = float(delta)
        self.max_overlap = int(max_overlap)


def _t1_mask(pair, points, rho_vals):
    """Membership of points in T1 = union over k of (2^{4k})^A T0 with
    T0 = {1/4 <= rho <= 4, |x1| <= 1/2} (closure, conservative)."""
    points = np.asarray(points, dtype=float)
    rho_vals = np.asarray(rho_vals, dtype=float)
    out = np.zeros(np.shape(rho_vals), dtype=bool)
    pos = rho_vals > 0
    if not np.any(pos):
        return out
    lg = np.log2(rho_vals[pos])
    kc = np.round(lg / 4.0).astype(int)
    sub = np.zeros(int(np.sum(pos)), dtype=bool)
    for k in np.unique(kc):
        for kk in (k - 1, k, k + 1):
            scale_ok = np.abs(lg - 4.0 * kk) <= 2.0 + 1e-12
            if not np.any(scale_ok):
                continue
            moved = pair.group.apply(2.0 ** (-4.0 * kk), points[pos][scale_ok])
            sub[scale_ok] |= np.abs(moved[..., 0]) <= 0.5 + 1e-12
    out[pos] = sub
    return out


def _level_tiles_in_t1(tiling, t):
    """A_t: tiles meeting {rho = 1/t} inside T1 (closure), tested on 33
    points of each tile's angular window."""
    pair = tiling.pair
    level = 1.0 / t
    idx = np.flatnonzero((tiling.rho_lo <= level) & (level <= tiling.rho_hi))
    w = np.linspace(tiling.omega_lo[idx], tiling.omega_hi[idx], 33, axis=1)
    pts = pair.group.apply(level, pair.domain.boundary_point(w))
    return idx[_t1_mask(pair, pts, np.full(w.shape, level)).any(axis=1)]


def _overlap_tiling(pair, delta, *scales):
    """Tiling over the generations of the given scales, N_SPAN more each side."""
    n_lo = int(np.floor(np.log2(1.0 / max(scales)) / 2.0)) - N_SPAN
    n_hi = int(np.ceil(np.log2(1.0 / min(scales)) / 2.0)) + N_SPAN
    return Tiling(pair, delta, (n_lo, n_hi))


def _busiest_cells(boxes, spacing):
    """Box stage: multiplicity of the boxes (n, 2, 2) on a cell grid of the
    given spacing, via corner marks.  Returns the REFINE_TOP largest cell
    counts and their cell centres."""
    lo_all = boxes[:, 0].min(axis=0)
    hi_all = boxes[:, 1].max(axis=0)
    x_edges = np.arange(lo_all[0], hi_all[0] + spacing, spacing)
    y_edges = np.arange(lo_all[1], hi_all[1] + spacing, spacing)
    nx, ny = len(x_edges) - 1, len(y_edges) - 1
    if nx * ny > 6.0e7:
        raise ConfigError("overlap sample grid too large")
    acc = np.zeros((nx + 1, ny + 1), dtype=np.int32)
    ix0 = np.clip(np.searchsorted(x_edges, boxes[:, 0, 0], side="right") - 1, 0, nx)
    ix1 = np.clip(np.searchsorted(x_edges, boxes[:, 1, 0], side="left"), 0, nx)
    iy0 = np.clip(np.searchsorted(y_edges, boxes[:, 0, 1], side="right") - 1, 0, ny)
    iy1 = np.clip(np.searchsorted(y_edges, boxes[:, 1, 1], side="left"), 0, ny)
    np.add.at(acc, (ix0, iy0), 1)
    np.add.at(acc, (ix0, iy1), -1)
    np.add.at(acc, (ix1, iy0), -1)
    np.add.at(acc, (ix1, iy1), 1)
    flat = np.cumsum(np.cumsum(acc, axis=0), axis=1)[:nx, :ny].ravel()
    top = np.argsort(flat)[::-1][:REFINE_TOP]
    ix, iy = np.divmod(top, ny)
    centres = np.stack([x_edges[ix] + 0.5 * spacing,
                        y_edges[iy] + 0.5 * spacing], axis=1)
    return flat[top], centres


def _tile_lattice(tiling, k, spacing):
    """Sample lattice covering tile k at the given spacing (approx)."""
    pair = tiling.pair
    rho_lo, rho_hi = tiling.rho_lo[k], tiling.rho_hi[k]
    # physical tangential extent ~ |I_j|, radial extent ~ 4 delta * scale
    tau_span = tiling.tau_hi[k] - tiling.tau_lo[k]
    n_o = max(int(np.ceil(tau_span / spacing)) + 2, 4)
    n_r = max(int(np.ceil((rho_hi - rho_lo) * pair.domain.max_radius()
                          / spacing)) + 2, 3)
    base = pair.domain.boundary_point(
        np.linspace(tiling.omega_lo[k], tiling.omega_hi[k], min(n_o, 400)))
    rho = np.linspace(rho_lo, rho_hi, min(n_r, 60))
    return pair.group.apply(rho[:, None], base).reshape(-1, 2)


def _count_overlaps(tiling, au, boxes, clouds, candidates):
    """Max multiplicity of the sums S_a + B over first summands S_a and
    tiles B in au (tile indices).

    Conservative two-stage count: box accumulation on a cell grid of
    spacing delta/4, then exact Minkowski membership at the busiest cells:
    x lies in S_a + B iff x - S_a meets B, tested on the point cloud
    clouds[a] of S_a against B dilated by delta/8.  boxes[a] bounds S_a;
    candidates(x, sums) picks the pair ids a * len(au) + b to test at x.
    """
    delta = tiling.delta
    if len(boxes) == 0 or len(au) == 0:
        return OverlapReport(delta, 0)
    boxes_u = tiling.bbox(au)
    # Minkowski sum of boxes: componentwise interval sums, a-major
    sums = (boxes[:, None] + boxes_u[None, :]).reshape(-1, 2, 2)
    top_counts, centres = _busiest_cells(sums, delta / 4.0)
    best = 0
    for count, x in zip(top_counts, centres):
        if count <= best:
            break
        first, second = np.divmod(candidates(x, sums), len(au))
        mult = 0
        for a in np.unique(first):
            hit = tiling.contains(x - clouds[a], au[second[first == a]],
                                  tol=delta / 8.0)
            mult += int(np.count_nonzero(hit.any(axis=0)))
        best = max(best, mult)
    return OverlapReport(delta, best)


def _box_screen(x, sums):
    """Pair ids whose summed box contains x."""
    return np.flatnonzero(np.all((sums[:, 0] <= x) & (x <= sums[:, 1]), axis=1))


def count_sum_overlaps(pair, delta, u, t):
    """Max multiplicity of the Minkowski sums {A + B : A in A_t, B in A_u}.

    A is sampled on a delta/8 lattice; candidates are the pairs whose
    summed bounding box contains the cell centre.
    """
    if not 0.5 < u / t < 2.0:
        raise ConfigError("need 1/2 < u/t < 2")
    tiling = _overlap_tiling(pair, delta, t, u)
    at = _level_tiles_in_t1(tiling, t)
    au = _level_tiles_in_t1(tiling, u)
    clouds = [_tile_lattice(tiling, k, delta / 8.0) for k in at]
    return _count_overlaps(tiling, au, tiling.bbox(at), clouds, _box_screen)


def count_ball_sum_overlaps(pair, delta, u, t):
    """Max multiplicity of {A + B_rho(0, 2/t)} over A in A_u.

    The ball is sampled on two level sets and its centre; every tile of
    A_u is a candidate at each cell (no box screen).
    """
    tiling = _overlap_tiling(pair, delta, u)
    au = _level_tiles_in_t1(tiling, u)
    # bbox of the quasinorm ball {rho <= 2/t}
    bp = pair.group.apply(2.0 / t, pair.domain.boundary_point(
        np.linspace(-np.pi, np.pi, 257)))
    box = np.array([[bp.min(axis=0), bp.max(axis=0)]])
    ball_pts = pair.group.apply(2.0 / t, pair.domain.boundary_point(
        np.linspace(-np.pi, np.pi, 65)))
    ball_pts = np.concatenate([ball_pts, 0.5 * ball_pts, [[0.0, 0.0]]])
    return _count_overlaps(tiling, au, box, [ball_pts],
                           lambda x, sums: np.arange(len(sums)))


def active_time_measure(rho_lo, rho_hi, delta):
    """Logarithmic measure of {t : annulus t(1-d) <= rho <= t(1+d) meets
    the rho range [rho_lo, rho_hi] of a tile}, scanned at log-step delta/16."""
    step = delta / 16.0
    lo = np.log(rho_lo / (1.0 + delta)) - 4 * step
    hi = np.log(rho_hi / (1.0 - delta)) + 4 * step
    s = np.arange(lo, hi + step, step)
    t = np.exp(s)
    active = (t * (1.0 - delta) <= rho_hi) & (t * (1.0 + delta) >= rho_lo)
    return float(np.sum(active) * step)
