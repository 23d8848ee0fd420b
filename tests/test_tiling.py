import numpy as np
import pytest

from quasibr.errors import ConfigError
from quasibr.tiling import (Tiling, _in_arc, _level_tiles_in_t1, _t1_mask,
                            build_sectors, m_shell_range, count_sum_overlaps,
                            count_ball_sum_overlaps, active_time_measure)


def test_disk_sector_count_oracle(disk_pair):
    # each sector spans the chord angle 2 asin(1/(2R)) on the circle, so the
    # walk closes after about 2 pi / (2 asin(1/20)) ~ 62.8 sectors
    sectors = build_sectors(disk_pair)
    want = 2 * np.pi / (2 * np.arcsin(1.0 / 20.0))
    assert abs(len(sectors) - want) <= 1.0


def test_sector_walk_closes(all_pairs):
    for name, pair in all_pairs:
        sectors = build_sectors(pair)
        widths = [s.width for s in sectors]
        assert np.isclose(sum(widths), 2 * np.pi, atol=1e-8), name
        for a, b in zip(sectors, sectors[1:]):
            assert np.isclose(np.mod(b.omega_start - a.omega_end, 2 * np.pi),
                              0.0, atol=1e-9), name


def test_index_names_each_tile_and_rejects_the_rest(disk_pair):
    tiling = Tiling(disk_pair, 2.0 ** -4, n_range=(-1, 1))
    names = zip(tiling.sector_idx, tiling.j_idx, tiling.m_idx, tiling.n_idx)
    assert [tiling.index(*name) for name in names] == list(range(tiling.size))
    arcs = tiling.arcs
    j_last = int(arcs.j_idx[-1])  # retained in the last sector
    j0 = int(arcs.j_idx[arcs.sector_idx == 0].max()) + 1  # not in sector 0
    for name in ((-1, j_last, 0, 0), (len(tiling.sectors), j_last, 0, 0),
                 (0, j0, 0, 0), (0, int(arcs.j_idx[0]), tiling.m_hi + 1, 0),
                 (0, int(arcs.j_idx[0]), 0, 2)):
        with pytest.raises(ConfigError, match="name no tile of the tiling"):
            tiling.index(*name)


@pytest.mark.parametrize("delta", [2.0 ** -4, 2.0 ** -5])
def test_arcs_tile_each_sector_in_order(all_pairs, delta):
    # the layout BumpLibrary's per-arc tau steps rely on: sectors ascending,
    # each sector's intervals contiguous in j, neighbours sharing a tau end
    for name, pair in all_pairs:
        arcs = Tiling(pair, delta).arcs
        sec, j = arcs.sector_idx, arcs.j_idx
        assert np.array_equal(np.unique(sec), np.arange(sec.max() + 1)), name
        assert np.all(np.diff(sec) >= 0), name
        same = sec[1:] == sec[:-1]
        assert np.all(j[1:][same] == j[:-1][same] + 1), name
        assert np.array_equal(arcs.tau_hi[:-1][same],
                              arcs.tau_lo[1:][same]), name


def test_sector_tau_normalization(disk_pair):
    # the rotated frame puts the sector's start at graph coordinate -1/2
    for s in build_sectors(disk_pair)[:5]:
        assert abs(s.tau_of_omega(s.omega_start) + 0.5) < 1e-6


def test_m_shell_range_covers_center_annulus():
    for delta in (2.0 ** -4, 2.0 ** -6, 2.0 ** -9):
        m_lo, m_hi = m_shell_range(delta)
        r = (1.0 + 2.0 * delta) / (1.0 - 2.0 * delta)
        assert r ** m_lo * (1.0 - 2.0 * delta) <= 0.5
        assert r ** m_hi * (1.0 + 2.0 * delta) >= 2.0


def test_tile_shells_touch():
    # consecutive radial shells share endpoints exactly: the ratio is
    # (1 + 2 delta)/(1 - 2 delta)
    delta = 2.0 ** -4
    r = (1.0 + 2.0 * delta) / (1.0 - 2.0 * delta)
    assert np.isclose(r * (1.0 - 2.0 * delta), 1.0 + 2.0 * delta)


def test_delta_range_guard(disk_pair):
    with pytest.raises(ConfigError):
        Tiling(disk_pair, 0.25)


@pytest.mark.parametrize("name", ["disk_pair", "disk_aniso_pair",
                                  "hexagon_pair"])
def test_multiplicity_covers_annulus(request, name):
    pair = request.getfixturevalue(name)
    delta = 2.0 ** -5
    tiling = Tiling(pair, delta, n_range=(-1, 1))
    # the layout: tile k is arc k // n_shells times shell k % n_shells
    arc, shell = np.divmod(np.arange(tiling.size), tiling.n_shells)
    assert tiling.size == len(tiling.arcs.sector_idx) * tiling.n_shells
    for f in ("omega_lo", "omega_hi", "sector_idx", "j_idx"):
        assert np.array_equal(getattr(tiling, f), getattr(tiling.arcs, f)[arc])
    for f in ("rho_lo", "rho_hi", "m_idx", "n_idx"):
        assert np.array_equal(getattr(tiling, f),
                              getattr(tiling.shells, f)[shell])
    rng = np.random.default_rng(0)
    ang = rng.uniform(-np.pi, np.pi, 4000)
    lev = np.exp(rng.uniform(np.log(0.5), np.log(2.0), 4000))
    pts = pair.group.apply(lev, pair.domain.boundary_point(ang))
    mult = tiling.multiplicity(pts)
    assert mult.min() >= 1       # covering
    assert mult.max() <= 8       # bounded overlap
    # the per-tile count, without the arc x shell factoring
    rho = pair.rho(pts[:400])
    omega = pair.boundary_angle(pts[:400], rho)
    want = sum(_in_arc(omega, tiling.omega_lo[k], tiling.omega_hi[k])
               & (rho >= tiling.rho_lo[k]) & (rho <= tiling.rho_hi[k])
               for k in range(tiling.size))
    assert np.array_equal(mult[:400], want)


def test_tile_membership_is_invariant_box(disk_pair):
    tiling = Tiling(disk_pair, 2.0 ** -4)
    k = tiling.size // 2
    pts = tiling.samples([k], 40)[0]
    rho = disk_pair.rho(pts)
    assert np.all(tiling.contains(pts, [k], rho, tol=1e-9))
    # scaling far out of the rho range leaves the tile
    far = disk_pair.group.apply(10.0, pts)
    assert not np.any(tiling.contains(far, [k], disk_pair.rho(far)))


def test_ball_sum_overlap_small(disk_pair):
    delta = 2.0 ** -5
    rep = count_ball_sum_overlaps(disk_pair, delta, u=1.0,
                                  t=delta ** -8)
    assert rep.max_overlap <= 8


def test_tiling_contains_matches_tile_view(disk_pair):
    tiling = Tiling(disk_pair, 2.0 ** -4)
    idx = np.arange(0, tiling.size, 7)
    pts = tiling.samples(idx, 9).reshape(-1, 2)
    hit = tiling.contains(pts, idx, tol=1e-3)
    assert hit.shape == (len(pts), len(idx))
    assert hit.any(axis=0).all()
    # one tile at a time gives the same columns
    for col, k in enumerate(idx):
        assert np.array_equal(hit[:, col],
                              tiling.contains(pts, [k], tol=1e-3)[:, 0])


def test_sum_overlap_count_pinned(disk_pair):
    # the count at delta = 2^-4 on the radius-10 disk with A = I; criterion 4
    # fits these counts across delta
    assert count_sum_overlaps(disk_pair, 2.0 ** -4, 1.0, 1.0).max_overlap == 56


@pytest.mark.parametrize("k, want", [(4, 3), (5, 5)])
def test_ball_sum_overlap_count_pinned(disk_pair, k, want):
    delta = 2.0 ** -k
    rep = count_ball_sum_overlaps(disk_pair, delta, 1.0, delta ** -8)
    assert rep.max_overlap == want


def _level_tiles_reference(tiling, t):
    # one tile at a time: rho range holds 1/t and the tile's 33-point
    # angular grid meets T1
    pair = tiling.pair
    level = 1.0 / t
    keep = []
    for k in range(tiling.size):
        if not tiling.rho_lo[k] <= level <= tiling.rho_hi[k]:
            continue
        w = np.linspace(tiling.omega_lo[k], tiling.omega_hi[k], 33)
        pts = pair.group.apply(level, pair.domain.boundary_point(w))
        if np.any(_t1_mask(pair, pts, np.full(33, level))):
            keep.append(k)
    return np.asarray(keep, dtype=int)


@pytest.mark.parametrize("name", ["disk_pair", "hexagon_pair"])
def test_level_tiles_match_per_tile_loop(request, name):
    pair = request.getfixturevalue(name)
    tiling = Tiling(pair, 2.0 ** -4, n_range=(-2, 2))
    for t in (0.7, 1.0, 1.3):
        got = _level_tiles_in_t1(tiling, t)
        assert len(got) > 0
        assert np.array_equal(got, _level_tiles_reference(tiling, t))


def test_active_time_measure_disk(disk_pair):
    # a tile with rho range [r_lo, r_hi] is active for t in an interval of
    # logarithmic length log((r_hi/r_lo) (1+delta)/(1-delta))
    delta = 2.0 ** -4
    tiling = Tiling(disk_pair, delta)
    r_lo, r_hi = tiling.rho_lo[0], tiling.rho_hi[0]
    meas = active_time_measure(r_lo, r_hi, delta)
    want = np.log((r_hi / r_lo) * (1.0 + delta) / (1.0 - delta))
    assert abs(meas - want) < 0.05 * want


def _per_tile_samples(tiling, k, n_omega):
    # one tile at a time with scalar linspace endpoints: n_omega boundary
    # angles on each of three geometric rho levels
    pair = tiling.pair
    w = np.linspace(tiling.omega_lo[k], tiling.omega_hi[k], n_omega)
    base = pair.domain.boundary_point(w)
    rho = np.exp(np.linspace(np.log(tiling.rho_lo[k]),
                             np.log(tiling.rho_hi[k]), 3))
    return np.concatenate([pair.group.apply(r, base) for r in rho])


@pytest.mark.parametrize("name", ["disk_pair", "disk_aniso_pair",
                                  "hexagon_pair"])
def test_samples_and_bbox_match_per_tile_loop(request, name):
    pair = request.getfixturevalue(name)
    tiling = Tiling(pair, 2.0 ** -4, n_range=(-1, 1))
    idx = np.arange(tiling.size)
    clouds = tiling.samples(idx, 120)
    boxes = tiling.bbox(idx)
    assert clouds.shape == (tiling.size, 360, 2)
    assert boxes.shape == (tiling.size, 2, 2)
    for k in idx:
        assert np.array_equal(clouds[k], _per_tile_samples(tiling, k, 120))
        pts = _per_tile_samples(tiling, k, 17)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        pad = 0.02 * np.maximum(hi - lo, 1e-12)
        assert np.array_equal(boxes[k], np.array([lo - pad, hi + pad]))
