import numpy as np
import pytest

from quasibr.bumps import plateau
from quasibr.errors import ConfigError
from quasibr.grid import (GridField, apply_multiplier,
                          apply_quasiradial_multiplier, br_symbol,
                          bochner_riesz_mean, dyadic_decompose_br,
                          active_t_grid, square_function_annulus,
                          square_function_glambda, standard_family,
                          delta_scaling_experiment, hormander_sobolev_norm)
from quasibr.quasinorm import frequency_grid, rho_omega_grid


def _random_field(N=64, L=8.0, seed=0):
    rng = np.random.default_rng(seed)
    return GridField(N, L, rng.normal(size=(N, N))
                     + 1j * rng.normal(size=(N, N)), "physical")


def test_transform_round_trip():
    f = _random_field()
    back = f.to_frequency().to_physical()
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_parseval():
    f = _random_field()
    spec = f.to_frequency()
    phys_l2 = f.norm(2)
    dxi = np.pi / f.L
    spec_l2 = np.sqrt(np.sum(np.abs(spec.values) ** 2) * dxi ** 2)
    assert abs(phys_l2 - spec_l2 / (2 * np.pi)) < 1e-10 * phys_l2


def test_single_frequency_multiplier():
    # multiplying the spectrum of a plane wave scales it pointwise
    N, L = 64, 8.0
    x = (2.0 * L / N) * np.arange(-N // 2, N // 2)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    xi0 = np.pi / L * 4
    f = GridField(N, L, np.exp(1j * xi0 * X1), "physical")
    xi = frequency_grid(N, L)
    XI1, _ = np.meshgrid(xi, xi, indexing="ij")
    g =apply_multiplier(f, 2.0 * (np.abs(XI1 - xi0) < 1e-9))
    assert np.max(np.abs(g.values - 2.0 * f.values)) < 1e-10


def test_br_symbol_properties():
    rho = np.array([0.0, 0.5, 1.0, 2.0])
    s = br_symbol(rho, 1.0, -0.5)
    assert s[2] == 0.0 and s[3] == 0.0      # singular sample set to zero
    assert s[0] == 1.0
    assert np.isclose(s[1], 0.5 ** -0.5)


def test_br_mean_recovers_f_at_huge_t(disk_pair):
    f = _random_field(64, 8.0)
    out = bochner_riesz_mean(disk_pair, f, 1e12, 1.0)
    rel = np.max(np.abs(out.values - f.values)) / np.max(np.abs(f.values))
    assert rel < 1e-10


def test_br_mean_rejects_bad_t(disk_pair):
    with pytest.raises(ConfigError):
        bochner_riesz_mean(disk_pair, _random_field(), 0.0, 1.0)


def test_dyadic_decomposition_telescopes(disk_pair):
    lam = 0.3
    pieces = dyadic_decompose_br(disk_pair, lam, 2.0 ** -6)
    rho = np.linspace(0.0, 1.5, 2001)
    total = sum(p(rho) for p in pieces)
    want = br_symbol(rho, 1.0, lam)
    assert np.max(np.abs(total - want)) < 1e-14


def test_active_t_grid_step_guard(disk_pair):
    f = standard_family(disk_pair, 64, 6.0, 2.0 ** -4)[0][1]
    with pytest.raises(ConfigError):
        active_t_grid(disk_pair, f, 2.0 ** -4, step=2.0 ** -4)


def test_active_t_grid_starts_at_the_first_live_scale(disk_pair):
    # the Gaussian's f-hat is live at the origin, so the lattice itself
    # starts at rho = 1e-12; the trimmed grid must be a suffix of it whose
    # dropped scales all carry exactly zero pieces
    N, L, delta = 64, 6.0, 2.0 ** -3
    f = dict(standard_family(disk_pair, N, L, delta))["gaussian"]
    rho, _ = rho_omega_grid(disk_pair, N, L)
    amp = np.abs(f.to_frequency().values)
    live = amp > 1e-12 * amp.max()
    assert live[N // 2, N // 2] and rho[N // 2, N // 2] == 0.0
    step = delta / 8.0
    lo = np.log(1e-12 / (1.0 + delta)) - 2 * step
    hi = np.log(float(rho[live].max()) / (1.0 - delta)) + 2 * step
    lattice = np.exp(np.arange(lo, hi + step, step))
    t_grid = active_t_grid(disk_pair, f, delta)
    assert 1 < len(t_grid) < len(lattice) // 2
    assert np.array_equal(t_grid, lattice[len(lattice) - len(t_grid):])
    pos = rho[live & (rho > 0)]
    t0, t1 = t_grid[:2]
    assert not np.any((pos > t0 * (1.0 - delta)) & (pos < t0 * (1.0 + delta)))
    assert np.any((pos > t1 * (1.0 - delta)) & (pos < t1 * (1.0 + delta)))
    got = square_function_annulus(disk_pair, f, delta)
    want = square_function_annulus(disk_pair, f, delta, t_grid=lattice)
    assert np.array_equal(got.values, want.values)


def test_square_function_single_ring_oracle(disk_pair):
    # spectrum on a single thin ring rho ~ 1: every t-piece is a scalar
    # multiple of f, so S f = c |f| with
    # c^2 = integral Phi((rho/t - 1)/delta)^2 dt/t computable in 1-D
    N, L = 128, 12.0
    delta = 2.0 ** -4
    rho, _ = rho_omega_grid(disk_pair, N, L)
    ring = np.abs(rho - 1.0) < 0.002
    spec = np.where(ring, 1.0 + 0j, 0.0)
    f = GridField(N, L, spec, "frequency").to_physical()
    rho0 = float(rho[ring].mean())
    sf = square_function_annulus(disk_pair, f, delta)
    fx = np.abs(f.values)
    keep = fx > 0.0
    c_grid = float(np.median(sf.values.real[keep] / fx[keep]))
    ts = active_t_grid(disk_pair, f, delta)
    vals = plateau((rho0 / ts - 1.0) / delta) ** 2
    c2 = np.trapezoid(vals, np.log(ts))
    # the ring cells spread over ~1e-3 in rho, limiting the match
    assert abs(c_grid - np.sqrt(c2)) / np.sqrt(c2) < 5e-4


def test_glambda_lambda_zero_matches_indicator(disk_pair):
    # lambda = 0 means sharp ball multipliers
    N, L = 64, 6.0
    f = standard_family(disk_pair, N, L, 2.0 ** -4, seed=1)[0][1]
    t_grid = np.exp(np.linspace(np.log(0.8), np.log(1.4), 30))
    g = square_function_glambda(disk_pair, f, 0.0, t_grid)
    assert g.norm(2) > 0.0


def test_standard_family_guard(disk_pair):
    with pytest.raises(ConfigError):
        standard_family(disk_pair, 32, 64.0, 2.0 ** -4)  # max xi < 1


def test_delta_scaling_slope_small_grid(disk_pair):
    rep = delta_scaling_experiment(disk_pair, [2.0 ** -3, 2.0 ** -4, 2.0 ** -5],
                                   (128, 12.0))
    assert 0.3 < rep.slope < 0.7
    assert set(rep.ratios[2.0 ** -3]) == {"random-phase", "focusing",
                                          "gaussian"}


def test_hormander_constant_multiplier_t_independent():
    vals = [hormander_sobolev_norm(lambda s: np.ones_like(s), 0.6,
                                   t_grid=[t]) for t in (0.5, 1.0, 4.0)]
    assert max(vals) - min(vals) < 1e-10


def test_hormander_rough_multiplier_flagged_infinite():
    m = lambda s: np.where(s < 1.0, np.maximum(1.0 - s, 0.0) ** 0.25, 0.0)
    assert np.isinf(hormander_sobolev_norm(m, 0.6))


def test_hormander_smooth_bump_matches_fine_quadrature():
    m = lambda s: plateau((s - 1.0) * 2.0)
    val = hormander_sobolev_norm(m, 0.6)
    ref = hormander_sobolev_norm(m, 0.6, base_n=2 ** 17, ladder=1)
    assert abs(val - ref) / ref < 1e-2
