"""The shared spectral-bank primitive against a brute-force reference.

Each reference applies every piece's symbol on the full frequency grid,
inverts the product with its own GridField round trip and reduces the
moduli, so it shares nothing with SpectralBank.  Two probes: one spectrum
with exact zeros off a band, and one that is nonzero on every cell.
"""

import numpy as np
import pytest

from quasibr.bumps import BumpLibrary, annulus_cutoff
from quasibr.grid import (GridField, SpectralBank, active_t_grid, br_symbol,
                          square_function_annulus, square_function_glambda)
from quasibr.lwp import (dyadic_projection_square_function,
                         dyadic_shell_bump, tile_bump,
                         tile_projection_square_function)
from quasibr.maximal import kernel_maximal
from quasibr.quasinorm import rho_omega_grid
from quasibr.tiling import Tiling

N, L = 64, 8.0
DELTA = 2.0 ** -4
RTOL = 1e-12


@pytest.fixture(scope="module")
def lib(disk_pair):
    return BumpLibrary(Tiling(disk_pair, DELTA))


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
    acc = np.zeros((N, N))
    used = 0
    for weight, symbol in pieces:
        piece_spec = symbol * spec
        if not np.any(piece_spec):
            continue
        used += 1
        mod = np.abs(GridField(N, L, piece_spec, "frequency").to_physical().values)
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
def test_dyadic_square_function_matches_naive(disk_pair, lib, kind):
    f = _probe(disk_pair, lib, kind)
    rho, _ = rho_omega_grid(disk_pair, N, L)
    pos = rho[rho > 0]
    ns = range(int(np.floor(np.log2(pos.min()))) - 2,
               int(np.ceil(np.log2(pos.max()))) + 3)
    want, _ = _naive(f, [(1.0, dyadic_shell_bump(rho, n)) for n in ns], "sum")
    _assert_close(dyadic_projection_square_function(disk_pair, f).values, want)


@pytest.mark.parametrize("kind", ["band", "smooth"])
def test_tile_square_function_matches_naive(disk_pair, lib, kind):
    f = _probe(disk_pair, lib, kind)
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
    got = tile_projection_square_function(disk_pair, DELTA, f, lib)
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
