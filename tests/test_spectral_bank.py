"""The shared spectral-bank primitive against a brute-force reference.

Each reference applies every piece's symbol on the full frequency grid,
inverts the product with its own GridField round trip and reduces the
moduli, so it shares nothing with SpectralBank.  Two probes: one spectrum
with exact zeros off a band, and one that is nonzero on every cell.  Sum
reductions may form a piece on a smaller grid; the pieces that stay on the
full grid, and every max reduction, must match the plain full-grid loop
bit for bit.
"""

import numpy as np
import pytest
import scipy.fft

from quasibr.bumps import BumpLibrary, annulus_cutoff
from quasibr.grid import (GridField, SpectralBank, active_t_grid, br_symbol,
                          square_function_annulus, square_function_glambda)
from quasibr import lwp
from quasibr.lwp import (_radial_window, dyadic_projection_square_function,
                         dyadic_shell_bump, tile_bump,
                         tile_projection_square_function)
from quasibr.maximal import kernel_maximal
from quasibr.quasinorm import frequency_grid, rho_omega_grid
from quasibr.tiling import Tiling

N, L = 64, 8.0
DELTA = 2.0 ** -4
RTOL = 1e-12


@pytest.fixture(scope="module")
def lib(disk_pair):
    return BumpLibrary(Tiling(disk_pair, DELTA))


@pytest.fixture
def ifft2_sizes(monkeypatch):
    """Record the side of every ifft2 while active."""
    sizes = []
    inverse = scipy.fft.ifft2

    def recording(x, *args, **kwargs):
        sizes.append(np.shape(x)[0])
        return inverse(x, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "ifft2", recording)
    return sizes


def _probe(pair, lib, kind):
    """Random phases near rho = 1 in sector 0: a hard band (exact zeros
    elsewhere) or a Gaussian envelope (no zero cell)."""
    rho, omega = rho_omega_grid(pair, N, L)
    dw = np.mod(omega - lib.mids[0] + np.pi, 2.0 * np.pi) - np.pi
    phase = np.exp(2j * np.pi * np.random.default_rng(7).random((N, N)))
    if kind == "band":
        amp = ((np.abs(rho - 1.0) < 0.1) & (np.abs(dw) < 0.3)).astype(float)
    else:
        amp = np.exp(-((rho - 1.0) / 0.05) ** 2 - (dw / 0.3) ** 2)
    spec = amp * phase
    assert np.any(spec) and (kind == "band") == (not np.all(spec))
    return GridField(N, L, spec, "frequency")


def _naive(f, pieces, how):
    """(field, non-empty pieces) from (weight, full-grid symbol) pieces."""
    spec = f.to_frequency().values
    acc = np.zeros((f.N, f.N))
    used = 0
    for weight, symbol in pieces:
        piece_spec = symbol * spec
        if not np.any(piece_spec):
            continue
        used += 1
        mod = np.abs(GridField(f.N, f.L, piece_spec,
                               "frequency").to_physical().values)
        if how == "sum":
            acc += weight * mod ** 2
        else:
            acc = np.maximum(acc, mod)
    return (np.sqrt(acc) if how == "sum" else acc), used


def _trapezoid(t_grid):
    steps = np.diff(np.log(t_grid))
    w = np.zeros(len(t_grid))
    w[:-1] += 0.5 * steps
    w[1:] += 0.5 * steps
    return w


def _live(pair, f, threshold):
    rho, omega = rho_omega_grid(pair, N, L)
    amp = np.abs(f.to_frequency().values)
    live = amp > threshold * amp.max()
    return rho[live], omega[live]


def _assert_close(got, want):
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= RTOL, err


@pytest.mark.parametrize("kind", ["band", "smooth"])
def test_annulus_and_glambda_match_naive(disk_pair, lib, kind):
    f = _probe(disk_pair, lib, kind)
    rho, _ = rho_omega_grid(disk_pair, N, L)
    t_grid = active_t_grid(disk_pair, f, DELTA)
    want, _ = _naive(f, [(w, annulus_cutoff(DELTA, t)(rho))
                         for t, w in zip(t_grid, _trapezoid(t_grid))], "sum")
    _assert_close(square_function_annulus(disk_pair, f, DELTA).values, want)
    t_grid = np.exp(np.linspace(np.log(0.6), -np.log(0.6), 21))
    for lam in (-0.25, 0.5):
        want, _ = _naive(f, [(w, br_symbol(rho, t, lam))
                             for t, w in zip(t_grid, _trapezoid(t_grid))], "sum")
        got = square_function_glambda(disk_pair, f, lam, t_grid)
        _assert_close(got.values, want)


@pytest.mark.parametrize("kind", ["band", "smooth"])
def test_dyadic_square_function_matches_naive(disk_pair, lib, kind,
                                              ifft2_sizes):
    f = _probe(disk_pair, lib, kind)
    got = dyadic_projection_square_function(disk_pair, f).values
    # the shells about the origin, or the band, fit reduced grids
    assert min(ifft2_sizes) < N
    rho, _ = rho_omega_grid(disk_pair, N, L)
    pos = rho[rho > 0]
    ns = range(int(np.floor(np.log2(pos.min()))) - 2,
               int(np.ceil(np.log2(pos.max()))) + 3)
    want, _ = _naive(f, [(1.0, dyadic_shell_bump(rho, n)) for n in ns], "sum")
    _assert_close(got, want)


@pytest.mark.parametrize("kind", ["band", "smooth"])
def test_tile_square_function_matches_naive(disk_pair, lib, kind,
                                            ifft2_sizes):
    f = _probe(disk_pair, lib, kind)
    got = tile_projection_square_function(disk_pair, DELTA, f, lib)
    if kind == "band":
        # the band lies about 25 cells out, so a tile piece fits a grid
        # below N only after re-centring at its box midpoint
        reach = np.max(np.abs(np.concatenate(SpectralBank(disk_pair, f).k)))
        assert 2 * reach + 2 > N // 2 and min(ifft2_sizes) < N
    tiling = lib.tiling
    rho, omega = rho_omega_grid(disk_pair, N, L)
    rho_live, omega_live = _live(disk_pair, f, 1e-10)

    def pieces():
        for idx in range(tiling.size):
            sel = ((rho_live >= tiling.rho_lo[idx] / 4.0)
                   & (rho_live <= tiling.rho_hi[idx] * 4.0))
            i = int(tiling.sector_idx[idx])
            wlo = lib.mids[i] - 2.0 * (lib.half_widths[i] + 0.25)
            span = 4.0 * (lib.half_widths[i] + 0.25)
            if np.any(np.mod(omega_live[sel] - wlo, 2.0 * np.pi) <= span):
                yield 1.0, tile_bump(lib, idx, rho, omega)

    want, used = _naive(f, pieces(), "sum")
    assert got.tiles_used == used > 0
    _assert_close(got.values, want)


@pytest.mark.parametrize("kind", ["band", "smooth"])
def test_kernel_maximal_matches_naive(disk_pair, lib, kind):
    f = _probe(disk_pair, lib, kind)
    tiling = lib.tiling
    rho, omega = rho_omega_grid(disk_pair, N, L)
    rho_live, omega_live = _live(disk_pair, f, 1e-10)
    step = DELTA / 8.0

    def pieces():
        for idx in range(tiling.size):
            band = ((rho_live >= tiling.rho_lo[idx] / (1.0 + 4.0 * DELTA))
                    & (rho_live <= tiling.rho_hi[idx] * (1.0 + 4.0 * DELTA)))
            wl = tiling.omega_lo[idx] - 0.1
            span = np.mod(tiling.omega_hi[idx] + 0.1 - wl, 2 * np.pi)
            if not np.any(np.mod(omega_live[band] - wl, 2 * np.pi) <= span):
                continue
            sym = lib.sigma(int(tiling.sector_idx[idx]), int(tiling.j_idx[idx]),
                            int(tiling.m_idx[idx]), int(tiling.n_idx[idx]),
                            rho, omega)
            lo = np.log(tiling.rho_lo[idx] / (1.0 + DELTA)) - step
            hi = np.log(tiling.rho_hi[idx] / (1.0 - DELTA)) + step
            for s in np.arange(lo, hi + step, step):
                yield 1.0, annulus_cutoff(DELTA, np.exp(s))(rho) * sym

    want, used = _naive(f, pieces(), "max")
    assert used > 0
    _assert_close(kernel_maximal(disk_pair, DELTA, f, lib).values, want)


def test_bank_skips_empty_pieces_and_counts_the_rest(disk_pair, lib):
    f = _probe(disk_pair, lib, "band")
    bank = SpectralBank(disk_pair, f)
    assert np.all(bank.spec != 0) and np.all(np.diff(bank.rho) >= 0)
    ones = np.ones(len(bank.rho))
    pieces = [(1.0, slice(None), ones), (1.0, slice(None), 0.0 * ones),
              (1.0, bank.between(0.0, 0.5), ones[:0]), (3.0, slice(None), ones)]
    out, used = bank.reduce(pieces, "sum")
    assert used == 2
    _assert_close(out.values, 2.0 * np.abs(f.to_physical().values))
    peak, used = bank.reduce(pieces, "max")
    assert used == 2
    _assert_close(peak.values, np.abs(f.to_physical().values))


# -- reduced grids --------------------------------------------------------------

def _full_grid_reduce(bank, pieces, how):
    """The plain path: every non-empty piece inverted on the N x N grid."""
    acc = np.zeros((bank.N, bank.N))
    for weight, cells, values in pieces:
        coef = values * bank.spec[cells]
        if not np.any(coef):
            continue
        mult = np.zeros(bank.N * bank.N, dtype=complex)
        mult[bank.cells[cells]] = coef
        piece = scipy.fft.ifft2(mult.reshape(bank.N, bank.N), overwrite_x=True)
        mod2 = piece.real ** 2 + piece.imag ** 2
        if how == "sum":
            acc += weight * mod2
        else:
            np.maximum(acc, mod2, out=acc)
    return scipy.fft.fftshift(np.sqrt(acc)) / bank.h ** 2


def test_gaussian_annulus_pieces_use_three_reduced_grids(disk_pair,
                                                         ifft2_sizes):
    # f-hat is nonzero on every cell, the origin included, and the small-t
    # pieces have boxes of a few cells
    N2, L2, delta = 128, 12.0, 2.0 ** -5
    xi = frequency_grid(N2, L2)
    spec = np.exp(-0.5 * (xi[:, None] ** 2 + xi[None, :] ** 2))
    assert np.all(spec > 0)
    f = GridField(N2, L2, spec, "frequency")
    got = square_function_annulus(disk_pair, f, delta).values
    sizes = set(ifft2_sizes)
    assert len([M for M in sizes if M < N2]) >= 3, sizes
    rho, _ = rho_omega_grid(disk_pair, N2, L2)
    t_grid = active_t_grid(disk_pair, f, delta)
    want, _ = _naive(f, [(w, annulus_cutoff(delta, t)(rho))
                         for t, w in zip(t_grid, _trapezoid(t_grid))], "sum")
    _assert_close(got, want)


def _mask(bank, cells):
    """Full-grid (centred) indicator of the bank cells `cells`."""
    sym = np.zeros(bank.N * bank.N)
    sym[bank.cells[cells]] = 1.0
    return scipy.fft.fftshift(sym.reshape(bank.N, bank.N))


def test_single_far_cell_is_recentred_on_the_smallest_grid(disk_pair, lib,
                                                           ifft2_sizes):
    f = _probe(disk_pair, lib, "smooth")
    bank = SpectralBank(disk_pair, f)
    k1, k2 = bank.k
    far = np.flatnonzero(np.maximum(np.abs(k1), np.abs(k2)) > 20)[:1]
    near = np.flatnonzero(np.maximum(np.abs(k1 - k1[far]),
                                     np.abs(k2 - k2[far])) <= 3)
    assert near.size > 1
    out, used = bank.reduce([(2.0, far, np.ones(1)),
                             (0.5, near, np.ones(near.size))], "sum")
    assert used == 2 and ifft2_sizes[:2] == [16, 16]
    want, _ = _naive(f, [(2.0, _mask(bank, far)),
                         (0.5, _mask(bank, near))], "sum")
    _assert_close(out.values, want)


@pytest.mark.parametrize("kind", ["band", "smooth"])
def test_max_reduction_is_bit_identical_to_full_grid_loop(disk_pair, lib,
                                                          kind):
    f = _probe(disk_pair, lib, kind)
    bank = SpectralBank(disk_pair, f)
    t_grid = active_t_grid(disk_pair, f, DELTA)

    def pieces():
        for t in t_grid:
            cells = bank.between(t * (1.0 - 2.0 * DELTA), t * (1.0 + 2.0 * DELTA))
            yield 1.0, cells, annulus_cutoff(DELTA, t)(bank.rho[cells])

    got, _ = bank.reduce(pieces(), "max")
    assert np.array_equal(got.values, _full_grid_reduce(bank, pieces(), "max"))


def test_full_grid_sum_pieces_are_bit_identical(disk_pair, lib):
    # balls about the origin filled by the smooth probe's f-hat: every
    # piece's box needs the full grid
    bank = SpectralBank(disk_pair, _probe(disk_pair, lib, "smooth"))

    def pieces():
        for t in (0.8, 1.0, 1.25):
            cells = bank.between(0.0, t)
            yield 0.1, cells, br_symbol(bank.rho[cells], t, 0.5)

    got, _ = bank.reduce(pieces(), "sum")
    assert np.array_equal(got.values, _full_grid_reduce(bank, pieces(), "sum"))


# -- the shells x arcs live-cell screen ----------------------------------------

SCREEN_CASES = [pytest.param(pair, n_range, kind,
                             id="%s-n%d..%d-%s" % (pair, *n_range, kind))
                for pair in ("disk_pair", "hexagon_pair")
                for n_range in ((0, 0), (-1, 1))
                for kind in ("band", "smooth")]


def _screen_case(request, pair, n_range, kind):
    pair = request.getfixturevalue(pair)
    lib = BumpLibrary(Tiling(pair, DELTA, n_range=n_range))
    return pair, lib, _probe(pair, lib, kind)


def _bank_live(bank, floor=0.0):
    amp = np.abs(bank.spec)
    live = amp > 1e-10 * max(np.max(amp, initial=0.0), floor)
    return bank.rho[live], bank.omega[live]


def _per_tile_lwp_pieces(bank, lib, applied):
    """The per-tile screen loop of tile_projection_square_function, one
    tile at a time; records the tiles it applies."""
    tiling = lib.tiling
    rho_live, omega_live = _bank_live(bank, 1e-300)
    for idx in range(tiling.size):
        s_lo, s_hi = _radial_window(lib, int(tiling.m_idx[idx]))
        scale = 2.0 ** float(tiling.n_idx[idx])
        cells = bank.between(
            scale * np.exp(lib.log_r * (1.5 * s_lo - 0.5 * s_hi)),
            scale * np.exp(lib.log_r * (1.5 * s_hi - 0.5 * s_lo)))
        if cells.start == cells.stop:
            continue
        sel = ((rho_live >= tiling.rho_lo[idx] / 4.0)
               & (rho_live <= tiling.rho_hi[idx] * 4.0))
        if not np.any(sel):
            continue
        i = int(tiling.sector_idx[idx])
        wlo = lib.mids[i] - 2.0 * (lib.half_widths[i] + 0.25)
        span = 4.0 * (lib.half_widths[i] + 0.25)
        if not np.any(np.mod(omega_live[sel] - wlo, 2.0 * np.pi) <= span):
            continue
        applied.append(idx)
        yield 1.0, cells, tile_bump(lib, idx, bank.rho[cells],
                                    bank.omega[cells])


def _per_tile_kernel_pieces(bank, lib, delta, sigma, applied):
    """The per-tile screen loop of kernel_maximal; records the (i, j, m, n)
    it evaluates sigma at."""
    tiling = lib.tiling
    rho_live, omega_live = _bank_live(bank)
    scale = tiling.ratio ** tiling.m_idx * 2.0 ** tiling.n_idx
    member_lo, member_hi = scale * (1 - 2 * delta), scale * (1 + 2 * delta)
    step = delta / 8.0
    for idx in range(tiling.size):
        rho_lo, rho_hi = member_lo[idx], member_hi[idx]
        band = ((rho_live >= rho_lo / (1.0 + 4.0 * delta))
                & (rho_live <= rho_hi * (1.0 + 4.0 * delta)))
        if not np.any(band):
            continue
        wl = tiling.omega_lo[idx] - 0.1
        wh = tiling.omega_hi[idx] + 0.1
        span = np.mod(wh - wl, 2 * np.pi)
        if not np.any(np.mod(omega_live[band] - wl, 2 * np.pi) <= span):
            continue
        tile = (int(tiling.sector_idx[idx]), int(tiling.j_idx[idx]),
                int(tiling.m_idx[idx]), int(tiling.n_idx[idx]))
        applied.append(tile)
        sym = sigma(lib, *tile, bank.rho, bank.omega)
        cells = np.flatnonzero(sym)
        if cells.size == 0:
            continue
        sym, rho = sym[cells], bank.rho[cells]
        lo = np.log(rho_lo / (1.0 + delta)) - step
        hi = np.log(rho_hi / (1.0 - delta)) + step
        for s in np.arange(lo, hi + step, step):
            yield 1.0, cells, annulus_cutoff(delta, np.exp(s))(rho) * sym


@pytest.mark.parametrize("pair, n_range, kind", SCREEN_CASES)
def test_tile_square_function_applies_the_per_tile_screen_tiles(
        request, monkeypatch, pair, n_range, kind):
    pair, lib, f = _screen_case(request, pair, n_range, kind)
    bank = SpectralBank(pair, f)
    want_tiles = []
    want, want_used = bank.reduce(_per_tile_lwp_pieces(bank, lib, want_tiles),
                                  "sum")
    got_tiles = []

    def recording(lib, idx, rho, omega):
        got_tiles.append(int(idx))
        return tile_bump(lib, idx, rho, omega)

    monkeypatch.setattr(lwp, "tile_bump", recording)
    got = tile_projection_square_function(pair, DELTA, f, lib)
    assert got_tiles == want_tiles and len(want_tiles) > 0
    assert got.tiles_used == want_used
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("pair, n_range, kind", SCREEN_CASES)
def test_kernel_maximal_applies_the_per_tile_screen_tiles(
        request, monkeypatch, pair, n_range, kind):
    pair, lib, f = _screen_case(request, pair, n_range, kind)
    sigma = BumpLibrary.sigma
    bank = SpectralBank(pair, f)
    want_tiles = []
    want, _ = bank.reduce(
        _per_tile_kernel_pieces(bank, lib, DELTA, sigma, want_tiles), "max")
    got_tiles = []

    def recording(self, i, j, m, n, rho, omega):
        got_tiles.append((int(i), int(j), int(m), int(n)))
        return sigma(self, i, j, m, n, rho, omega)

    monkeypatch.setattr(BumpLibrary, "sigma", recording)
    got = kernel_maximal(pair, DELTA, f, lib)
    assert got_tiles == want_tiles and len(want_tiles) > 0
    assert np.array_equal(got.values, want.values)
