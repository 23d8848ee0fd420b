"""Cap decomposition of a convex boundary arc and its dyadic refinement.

A cap [a_l, a_{l+1}] is a maximal piece of the graph on which the slope
variation times the width stays below delta:

    G(t, a) = (t - a) (gamma'_L(t) - gamma'_R(a)) <= delta.

G is nonnegative and nondecreasing in t for a convex graph, so the cap
endpoints come from monotone bisection.  Each cap is then split into a
dyadic chain of intervals whose lengths halve towards the right endpoint,
down to length between delta/2 and delta.
"""

import numpy as np

from .errors import ConfigError, GeometryError

_BISECT_TOL = 1e-12


class CapDecomposition(object):
    """Caps {a_0, ..., a_Q} and refined intervals {I_j} of [-1, 1]."""

    def __init__(self, delta, points, refined, cap_of_interval):
        self.delta = float(delta)
        self.points = np.asarray(points, dtype=float)
        self.refined = [(float(a), float(b)) for a, b in refined]
        self.cap_of_interval = np.asarray(cap_of_interval, dtype=int)
        self.Q = len(self.points) - 1
        self.Qprime = len(self.refined)


DELTA_MAX = 2.0 ** -3  # smallness constant: admissible delta in (0, 1/8)


def _check_delta(arc, delta):
    if not 0.0 < delta < DELTA_MAX:
        raise ConfigError(
            "delta must lie in (0, %g), got %g" % (DELTA_MAX, delta))


def _cap_gap(arc, t, a):
    return (t - a) * (arc.gamma_left(t) - arc.gamma_right(a))


def cap_decomposition(arc, delta):
    """Increasing cap endpoints a_0 = -1 < a_1 < ... < a_Q = 1."""
    _check_delta(arc, delta)
    t_hi = arc.T_HI
    step = 2.0 ** (-arc.M) * delta
    pts = [arc.T_LO]
    a = arc.T_LO
    # slope data must be convex: gamma'_L <= gamma'_R pointwise and both
    # nondecreasing along the probe grid
    probe = np.linspace(arc.T_LO, t_hi, 2048)
    gl, gr = arc.gamma_left(probe), arc.gamma_right(probe)
    if np.any(gl > gr + 1e-9) or np.any(np.diff(gr) < -1e-7):
        raise GeometryError("boundary arc slopes are not convex-graph data")
    max_caps = int(np.ceil((t_hi - arc.T_LO) / step)) + 8
    for _ in range(max_caps):
        if _cap_gap(arc, t_hi, a) <= delta:
            # the rest of the arc is a single cap
            if a <= t_hi - step:
                pts.append(t_hi)
            else:
                pts.append(min(a + step, t_hi))
            break
        # a_l = inf{t > a : G(t, a) > delta}; G nondecreasing in t
        lo, hi = a, t_hi
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if _cap_gap(arc, mid, a) > delta:
                hi = mid
            else:
                lo = mid
        # lower bracket endpoint: G(lo, a) <= delta, so (left) holds exactly
        a_new = max(lo, a + step)
        if a_new >= t_hi:
            pts.append(t_hi)
            break
        pts.append(a_new)
        a = a_new
    else:
        raise GeometryError("cap decomposition failed to terminate")
    if pts[-1] < t_hi:
        pts.append(t_hi)
    return np.asarray(pts)


def refine_intervals(points, delta):
    """Dyadic interval chain per cap; returns (intervals, cap indices).

    A cap of length L > delta splits into lengths L/2, L/4, ..., L/2^k,
    L/2^k with k = ceil(log2(L/delta)), so the shortest piece lies in
    [delta/2, delta]; a cap of length <= delta stays whole.
    """
    if delta <= 0:
        raise ConfigError("delta must be positive")
    points = np.asarray(points, dtype=float)
    intervals = []
    cap_idx = []
    for l in range(len(points) - 1):
        a, b = points[l], points[l + 1]
        L = b - a
        if L <= delta * (1.0 + 1e-12):
            intervals.append((a, b))
            cap_idx.append(l)
            continue
        k = int(np.ceil(np.log2(L / delta)))
        lengths = L / 2.0 ** np.arange(1, k + 1)
        lengths = np.append(lengths, lengths[-1])  # doubled tail sums to L
        edges = a + np.concatenate([[0.0], np.cumsum(lengths)])
        edges[-1] = b
        for j in range(len(lengths)):
            intervals.append((edges[j], edges[j + 1]))
            cap_idx.append(l)
    return intervals, np.asarray(cap_idx, dtype=int)


def decompose(arc, delta):
    """Full cap decomposition with refinement as a CapDecomposition."""
    pts = cap_decomposition(arc, delta)
    refined, cap_idx = refine_intervals(pts, delta)
    return CapDecomposition(delta, pts, refined, cap_idx)


def check_invariants(arc, decomp):
    """Max violations of the cap conditions, each <= 0 up to rounding.

    Returns a dict with the worst slack of
      left:  G(a_{l+1}, a_l) - delta          (must be <= 0)
      right: delta - G(t, a_l) for t just past a_{l+1}  (must be < 0
             for every non-final cap, probed at t = a_{l+1} + tolerance)
      cover: endpoint mismatch of the refined intervals.
    """
    pts = decomp.points
    delta = decomp.delta
    left = np.max(_cap_gap(arc, pts[1:], pts[:-1]) - delta)
    right = -np.inf
    for l in range(decomp.Q - 1):
        t_probe = min(pts[l + 1] + 1e-9, arc.T_HI)
        if t_probe > pts[l + 1]:
            right = max(right, delta - _cap_gap(arc, t_probe, pts[l]))
    ends = np.array([i[1] for i in decomp.refined])
    starts = np.array([i[0] for i in decomp.refined])
    cover = max(abs(starts[0] - arc.T_LO), abs(ends[-1] - arc.T_HI),
                float(np.max(np.abs(starts[1:] - ends[:-1]))))
    return {"left": float(left), "right": float(right), "cover": float(cover)}
