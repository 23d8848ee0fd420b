"""In-process workloads: ``sqfn`` (square-function delta scaling) and
``tiles`` (tile-indexed operators).

Every job calls quasibr through module attributes (``grid.square_function_
annulus`` rather than an imported name) so that the tracer's wrappers see
the call.  Every pair the workload builds stays referenced until the run
ends: the rho/omega grid cache is keyed by ``id(pair)``, and a freed pair's
id can be handed to a new one.
"""

import resource

import numpy as np

from quasibr import bumps, domains, grid, lwp, maximal, quasinorm, tiling

from common import PAIRS, CheckFailed, Job, derive_seed


def build_pair(name):
    domain_cfg, A = PAIRS[name]
    return quasinorm.check_compatibility(domains.domain_from_config(domain_cfg),
                                         np.array(A, dtype=float))


def stale_grid_probe(pair, N, L, rng, cells=16):
    """Compare a pair's cached rho grid with direct eval_rho on seeded cells.

    A grid cached for another pair whose id() this pair reuses differs from
    the direct evaluation by far more than the bisection tolerance.
    """
    rho, _ = quasinorm.rho_omega_grid(pair, N, L)
    idx = rng.integers(0, N, size=(cells, 2))
    xi1 = quasinorm.frequency_grid(N, L)
    xi = np.stack([xi1[idx[:, 0]], xi1[idx[:, 1]]], axis=-1)
    direct = quasinorm.eval_rho(pair, xi)
    cached = rho[idx[:, 0], idx[:, 1]]
    err = float(np.max(np.abs(cached - direct) / np.maximum(direct, 1e-300)))
    if not err <= 1e-9:
        raise CheckFailed("stale rho grid: cached rho differs from eval_rho "
                          "by %.3e relative" % err)
    return {"max_rel_err_ok": True}


def _finite_positive(value, what):
    if not (np.isfinite(value) and value > 0):
        raise CheckFailed("%s is %r, expected finite and positive" % (what, value))
    return float(value)


class InProcessWorkload(object):
    """Shared set-up for the in-process workloads."""

    import_stmt = "import scipy.fft, quasibr"
    in_process = True
    pair_names = ()
    N = L = None
    # a single process: no children and no child span summaries
    children = unexpected = 0
    summaries = ()

    def __init__(self, seed):
        self.seed = seed
        self.keep = []       # every pair built in this run
        self.pairs = {}

    def setup(self):
        """Build the pairs and warm their rho/omega grids."""
        pairs = {name: build_pair(name) for name in self.pair_names}
        for pair in pairs.values():
            quasinorm.rho_omega_grid(pair, self.N, self.L)
        self.keep.extend(pairs.values())
        self.pairs = pairs

    def start_pass(self, traced):
        pass

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def checks(self):
        def probe():
            rng = np.random.default_rng(derive_seed(self.seed, "stale-probe"))
            radius = float(9.0 + 2.0 * rng.random())
            pair = quasinorm.check_compatibility(domains.Disk(radius), np.eye(2))
            self.keep.append(pair)
            return stale_grid_probe(pair, 64, 8.0, rng)
        return [Job("stale-grid-probe", probe)]


class SqfnWorkload(InProcessWorkload):
    """Square functions as delta shrinks, the path of criteria 7 and 8."""

    name = "sqfn"
    pair_names = ("disk-iso", "disk-aniso")
    N, L = 256, 30.0
    DELTA_EXPONENTS = (3, 4, 5)
    PROBES = ("random-phase", "focusing", "gaussian")
    LAMBDAS = (-0.25, 0.0, 0.5)
    T_GRID = np.exp(np.linspace(np.log(0.6), -np.log(0.6), 41))

    def _annulus_job(self, pair_name, k, probe):
        def run():
            pair = self.pairs[pair_name]
            delta = 2.0 ** -k
            fam = dict(grid.standard_family(
                pair, self.N, self.L, delta,
                seed=derive_seed(self.seed, pair_name, k)))
            f = fam[probe]
            sf = grid.square_function_annulus(pair, f, delta)
            return {"l4_ratio": _finite_positive(sf.norm(4) / f.norm(4),
                                                 "L4 ratio")}
        return Job("sqfn:%s:d%d:%s" % (pair_name, k, probe), run)

    def _glambda_job(self, pair_name, lam):
        def run():
            pair = self.pairs[pair_name]
            rho, _ = quasinorm.rho_omega_grid(pair, self.N, self.L)
            spec = np.where(np.abs(rho - 1.0) <= 0.1, 1.0 + 0j, 0.0)
            f = grid.GridField(self.N, self.L, spec, "frequency").to_physical()
            g = grid.square_function_glambda(pair, f, lam, self.T_GRID)
            return {"l4_ratio": _finite_positive(g.norm(4) / f.norm(4),
                                                 "G^lambda ratio")}
        return Job("glambda:%s:lam%g" % (pair_name, lam), run)

    def jobs(self):
        out = []
        for p in self.pair_names:
            for k in self.DELTA_EXPONENTS:
                out.extend(self._annulus_job(p, k, probe) for probe in self.PROBES)
            out.extend(self._glambda_job(p, lam) for lam in self.LAMBDAS)
        order = np.random.default_rng(derive_seed(self.seed, "order")).permutation(len(out))
        return [out[i] for i in order]


class TilesWorkload(InProcessWorkload):
    """Tile-indexed operators: tiling, caps, bumps, lwp, kernel maximal."""

    name = "tiles"
    pair_names = ("disk-iso", "hexagon")
    N, L = 128, 12.0
    # (pair, delta exponent); the hexagon at 2^-5 and the overlap count at
    # 2^-5 are left out so that one pass fits the run length
    GROUPS = (("disk-iso", 4), ("disk-iso", 5), ("hexagon", 4))
    OVERLAP_GROUP = ("disk-iso", 4)
    SAMPLE = 16384

    def _group(self, pair_name, k):
        """Jobs for one (pair, delta); they share state, so run in order."""
        state = {}
        delta = 2.0 ** -k
        rng = np.random.default_rng(derive_seed(self.seed, pair_name, k))
        tag = "%s:d%d" % (pair_name, k)

        def build():
            pair = self.pairs[pair_name]
            # the partition over three dyadic shells covers rho in [1/2, 2]
            full = tiling.Tiling(pair, delta, n_range=(-1, 1))
            state["full"] = full
            state["full_lib"] = bumps.BumpLibrary(full)
            # the probes use the single-shell tiling, as lwp-probe does
            probe = tiling.Tiling(pair, delta)
            state["lib"] = bumps.BumpLibrary(probe)
            rho, omega = quasinorm.rho_omega_grid(pair, self.N, self.L)
            sec = probe.sectors[0]
            span = np.mod(sec.omega_end - sec.omega_start, 2 * np.pi)
            band = (np.abs(rho - 1.0) < delta) & \
                (np.mod(omega - sec.omega_start, 2 * np.pi) <= span)
            if not np.any(band):
                raise CheckFailed("probe band empty")
            spec = np.where(band, np.exp(2j * np.pi * rng.random((self.N, self.N))), 0)
            state["f"] = grid.GridField(self.N, self.L, spec, "frequency")
            return {"tiles": int(full.size), "probe_tiles": int(probe.size)}

        def partition():
            pair = self.pairs[pair_name]
            ang = rng.uniform(-np.pi, np.pi, self.SAMPLE)
            lev = np.exp(rng.uniform(np.log(0.5), np.log(2.0), self.SAMPLE))
            pts = pair.group.apply(lev, pair.domain.boundary_point(ang))
            rho = pair.rho(pts)
            omega = pair.boundary_angle(pts, rho)
            state["sample"] = (pts, rho, omega)
            # each job drops what no later job of its group uses, so that the
            # peak memory does not depend on the seeded group order
            lib = state.pop("full_lib")
            dev = float(np.max(np.abs(lib.sum_sigma(rho, omega) - 1.0)))
            if not dev <= 1e-6:
                raise CheckFailed("partition of unity deviates by %.3e" % dev)
            return {"pou_dev": dev}

        def multiplicity():
            pts, rho, omega = state.pop("sample")
            m = int(state.pop("full").multiplicity(pts, rho, omega).max())
            if m < 1:
                raise CheckFailed("sample points lie in no tile")
            return {"max_multiplicity": m}

        def lwp_probe():
            f = state["f"]
            sq = lwp.tile_projection_square_function(self.pairs[pair_name], delta,
                                                     f, state["lib"])
            ratio = sq.norm(2) / f.to_physical().norm(2)
            return {"l2_ratio": _finite_positive(ratio, "tile square function ratio"),
                    "tiles_used": int(sq.tiles_used)}

        def kernel_maximal():
            f = state.pop("f")
            mf = maximal.kernel_maximal(self.pairs[pair_name], delta, f, state.pop("lib"))
            ratio = mf.norm(2) / f.to_physical().norm(2)
            return {"l2_ratio": _finite_positive(ratio, "kernel maximal ratio")}

        def overlaps():
            rep = tiling.count_sum_overlaps(self.pairs[pair_name], delta, 1.0, 1.0)
            return {"max_overlap": int(rep.max_overlap)}

        jobs = [Job("tiles:%s:build" % tag, build),
                Job("tiles:%s:partition" % tag, partition),
                Job("tiles:%s:multiplicity" % tag, multiplicity),
                Job("tiles:%s:lwp" % tag, lwp_probe),
                Job("tiles:%s:kernel-maximal" % tag, kernel_maximal)]
        if (pair_name, k) == self.OVERLAP_GROUP:
            jobs.append(Job("tiles:%s:overlaps" % tag, overlaps))
        return jobs

    def jobs(self):
        order = np.random.default_rng(derive_seed(self.seed, "order")).permutation(len(self.GROUPS))
        return [job for i in order for job in self._group(*self.GROUPS[i])]
