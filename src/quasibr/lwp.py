"""Littlewood-Paley style square functions for tiles and dyadic shells.

Tile projections use enlarged bumps phi_{i,j,m,n} that are identically 1 on
the support of the matching partition member sigma_{i,j,m,n} and vanish
outside a fixed dilate of the tile, so that phi * sigma = sigma exactly.
"""

import numpy as np

from .bumps import plateau
from .errors import ConfigError
from .grid import SpectralBank
from .quasinorm import rho_omega_grid

_RADIAL_PAD = 2.0   # enlargement of the shell width, in transition units
_ANGULAR_PAD = 2.0  # enlargement of the tau window, in cut-width units


def _radial_window(lib, m):
    """[s_lo, s_hi], in s = log(rho 2^-n) / log r, where tile_bump's radial
    factor for shell m is 1; it vanishes outside (1.5 s_lo - 0.5 s_hi,
    1.5 s_hi - 0.5 s_lo).

    supp of psi_m phi0 lies in [m - 1/2 - w, m + 1/2 + w] (w = 1/8, half
    of the 0.25 radial step width), padded by _RADIAL_PAD * w; end members
    of the psi family extend to the phi0 cutoff instead.
    """
    w = 0.125
    s_lo = m - 0.5 - (1.0 + _RADIAL_PAD) * w
    s_hi = m + 0.5 + (1.0 + _RADIAL_PAD) * w
    if m == lib.m_lo:
        s_lo = min(s_lo, np.log(0.25) / lib.log_r - 1.0)
    if m == lib.m_hi:
        s_hi = max(s_hi, np.log(4.0) / lib.log_r + 1.0)
    return s_lo, s_hi


def _rho_support(lib, m, n):
    """(lo, hi): tile_bump on shell (m, n) vanishes off lo < rho < hi."""
    s_lo, s_hi = _radial_window(lib, int(m))
    scale = 2.0 ** float(n)
    return (scale * np.exp(lib.log_r * (1.5 * s_lo - 0.5 * s_hi)),
            scale * np.exp(lib.log_r * (1.5 * s_hi - 0.5 * s_lo)))


def tile_bump(lib, idx, rho, omega):
    """Enlarged bump for tile idx: 1 on supp sigma, 0 outside a dilate.

    Radial part: a plateau in s = log(rho 2^-n) / log r over
    _radial_window.  Angular part: same construction in tau.
    """
    tiling = lib.tiling
    arcs = tiling.arcs
    k = idx // tiling.n_shells
    i = int(arcs.sector_idx[k])
    n = int(tiling.n_idx[idx])

    safe = np.where(rho > 0, rho, 1.0)
    s = np.log(safe * 2.0 ** (-float(n))) / lib.log_r
    s_lo, s_hi = _radial_window(lib, int(tiling.m_idx[idx]))
    c = 0.5 * (s_lo + s_hi)
    rad = plateau((s - c) / (s_hi - s_lo))
    rad = np.where(rho > 0, rad, 0.0)

    tau = np.where(rho > 0, tiling.sectors[i].tau_of_omega(omega), 10.0)
    # pad past the tau-step transitions; end steps own the sector margin
    pad = (1.0 + _ANGULAR_PAD) * 0.5
    t_lo = arcs.tau_lo[k] - (0.4 if lib.arc_first[k]
                             else pad * lib.arc_width_lo[k])
    t_hi = arcs.tau_hi[k] + (0.4 if lib.arc_last[k]
                             else pad * lib.arc_width_hi[k])
    ct = 0.5 * (t_lo + t_hi)
    ang = plateau((tau - ct) / (t_hi - t_lo))
    # confine to the sector's neighborhood: tau_of_omega clamps outside the
    # sector, so the tau window alone would wrap around the circle
    dw = np.mod(omega - lib.mids[i] + np.pi, 2.0 * np.pi) - np.pi
    half = lib.half_widths[i] + 0.25
    ang = ang * plateau(dw / (2.0 * half))
    return rad * ang


def tile_projection_square_function(pair, delta, f, lib):
    """sqrt(sum over tiles |P~_{i,j,m,n} f|^2) with enlarged tile bumps.

    Tiles whose bump misses every bank cell in rho contribute exactly zero
    and are skipped, as are tiles with no live cell of f-hat within a
    factor 4 of their shell and near their sector (bank.live_screen); each
    bump is evaluated on the bank cells of its shell's rho support only.
    The result carries the count of non-empty pieces as .tiles_used.
    """
    tiling = lib.tiling
    shells, sec = tiling.shells, tiling.arcs.sector_idx
    bank = SpectralBank(pair, f)
    support = [bank.between(*_rho_support(lib, m, n))
               for m, n in zip(shells.m_idx, shells.n_idx)]
    half = lib.half_widths[sec] + 0.25
    screen = bank.live_screen(shells.rho_lo / 4.0, shells.rho_hi * 4.0,
                              lib.mids[sec] - 2.0 * half, 4.0 * half)
    screen &= np.array([c.start < c.stop for c in support])

    def pieces():
        for idx in np.flatnonzero(screen):
            cells = support[idx % tiling.n_shells]
            yield 1.0, cells, tile_bump(lib, idx, bank.rho[cells],
                                        bank.omega[cells])

    out, used = bank.reduce(pieces(), "sum")
    out.tiles_used = used
    return out


def check_tile_bump_reproduction(lib, n_tiles=40):
    """Max over seeded sampled tiles of |phi * sigma - sigma| on each
    tile's point cloud and a jittered copy of it."""
    tiling = lib.tiling
    rng = np.random.default_rng(0)
    idxs = rng.choice(tiling.size, size=min(n_tiles, tiling.size),
                      replace=False)
    clouds = tiling.samples(idxs, 120)
    worst = 0.0
    for idx, pts in zip(idxs, clouds):
        jitter = rng.normal(scale=0.01, size=pts.shape)
        pts = np.vstack([pts, pts + jitter])
        rho = tiling.pair.rho(pts)
        omega = tiling.pair.boundary_angle(pts, rho)
        sig = lib.sigma(idx, rho, omega)
        bump = tile_bump(lib, int(idx), rho, omega)
        worst = max(worst, float(np.max(np.abs(bump * sig - sig))))
    return worst


def dyadic_shell_bump(rho, n):
    """P_n symbol: 1 on {2^n/2 <= rho <= 2^{n+1}}, 0 off (2^{n-2}, 2^{n+2})."""
    safe = np.where(rho > 0, rho, 1.0)
    s = np.log2(safe) - n
    # plateau(s/2) is 1 for |s| <= 1 and vanishes for |s| >= 2
    return np.where(rho > 0, plateau(s / 2.0), 0.0)


def dyadic_projection_square_function(pair, f):
    """sqrt(sum over n |P_n f|^2) with quasiradial dyadic shell bumps."""
    rho, _ = rho_omega_grid(pair, f.N, f.L)
    pos = rho[rho > 0]
    if pos.size == 0:
        raise ConfigError("empty spectrum")
    n_lo = int(np.floor(np.log2(pos.min()))) - 2
    n_hi = int(np.ceil(np.log2(pos.max()))) + 2
    bank = SpectralBank(pair, f)
    pieces = ((1.0, slice(None), dyadic_shell_bump(bank.rho, n))
              for n in range(n_lo, n_hi + 1))
    return bank.reduce(pieces, "sum")[0]
