"""Command line experiment runner.

Each subcommand reads an optional JSON config, runs one study, and writes
CSV curves plus a JSON summary embedding the config hash and a manifest of
versions and parameters.  Exit codes: 0 pass, 2 threshold failure,
3 configuration error (a malformed command line included),
4 numerical-resolution error.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .bumps import BumpLibrary, full_annulus_symbol, kernel_annulus_l1, \
    kernel_build, kernel_from_rho_symbol, plateau
from .caps import decompose
from .dilation import DilationGroup
from .domains import _finite, boundary_arc, domain_from_config
from .errors import ConfigError, GeometryError, ResolutionError, \
    ThresholdFailure
from .grid import GridField, bochner_riesz_mean, delta_scaling_experiment, \
    hormander_sobolev_norm, square_function_glambda, standard_family
from .lwp import tile_projection_square_function
from .maximal import RectangleFamily, focusing_function, kernel_maximal, \
    nikodym_maximal
from .quasinorm import check_compatibility, rho_omega_grid
from .tiling import Tiling, active_time_measure, count_sum_overlaps, \
    sector0_band

_CONFIG_KEYS = ("A", "domain", "rotation")


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError("unknown config key %r; known keys are %s"
                          % (unknown[0], ", ".join(_CONFIG_KEYS)))
    return cfg


def _config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _build_pair(cfg):
    dom_cfg = cfg.get("domain", {"type": "disk", "radius": 10.0})
    domain = domain_from_config(dom_cfg)
    return check_compatibility(
        domain, DilationGroup(cfg.get("A", [[1.0, 0.0], [0.0, 1.0]])))


def _parse_deltas(text):
    """'2^-3..2^-7' or comma list of floats / 2^-k tokens."""
    def one(tok):
        tok = tok.strip()
        if tok.startswith("2^"):
            return 2.0 ** float(tok[2:])
        return float(tok)
    if ".." in text:
        a, b = text.split("..")
        ka = int(round(np.log2(one(a))))
        kb = int(round(np.log2(one(b))))
        step = -1 if kb < ka else 1
        return [2.0 ** k for k in range(ka, kb + step, step)]
    return [one(t) for t in text.split(",")]


def _parse_grid(text):
    """'N,L': N an even integer >= 2 (the FFT layout of frequency_grid needs
    N even), L finite and positive."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("grid must be 'N,L', got %r" % text)
    N, L = int(parts[0]), float(parts[1])
    if N < 2 or N % 2:
        raise argparse.ArgumentTypeError(
            "grid N must be an even integer >= 2, got %d" % N)
    if not (np.isfinite(L) and L > 0):
        raise argparse.ArgumentTypeError(
            "grid L must be finite and positive, got %r" % L)
    return N, L


def _parse_sizes(text):
    """Comma list of integers N >= 1."""
    sizes = [int(v) for v in text.split(",")]
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError(
            "every N must be at least 1, got %s" % text)
    return sizes


def _need_scales(values, flag, least=2):
    """ConfigError unless values holds `least` distinct scales: a growth
    fit on fewer tests nothing."""
    if len(set(values)) < least:
        raise ConfigError("%s needs at least %d distinct values for a growth "
                          "fit, got %d" % (flag, least, len(set(values))))


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_json(path, payload, cfg, params):
    payload = dict(payload)
    payload["config"] = cfg
    payload["config_hash"] = _config_hash(cfg)
    payload["manifest"] = {
        "package": __version__,
        "numpy": np.__version__,
        "parameters": params,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# -- subcommand implementations ------------------------------------------------

def cmd_decompose(args, cfg):
    pair = _build_pair(cfg)
    arc = boundary_arc(pair.domain,
                       _finite(cfg.get("rotation", 0.0), "rotation"))
    d = decompose(arc, args.delta)
    payload = {
        "delta": args.delta,
        "points": list(d.points),
        "intervals": [list(iv) for iv in d.refined],
        "Q": d.Q,
        "Qprime": d.Qprime,
    }
    _write_json(_out_path(args, "decompose.json"), payload, cfg,
                {"delta": args.delta})
    return 0


def cmd_tile(args, cfg):
    pair = _build_pair(cfg)
    tiling = Tiling(pair, args.delta)
    rows = [(int(tiling.sector_idx[k]), int(tiling.j_idx[k]),
             int(tiling.m_idx[k]), int(tiling.n_idx[k]),
             float(tiling.rho_lo[k]), float(tiling.rho_hi[k]),
             float(tiling.tau_lo[k]), float(tiling.tau_hi[k]))
            for k in range(tiling.size)]
    _write_csv(_out_path(args, "tiles.csv"),
               ["sector", "interval", "m", "n",
                "rho_lo", "rho_hi", "tau_lo", "tau_hi"], rows)
    payload = {"delta": args.delta, "n_tiles": tiling.size,
               "n_sectors": len(tiling.sectors)}
    _write_json(_out_path(args, "tile.json"), payload, cfg,
                {"delta": args.delta})
    return 0


def cmd_overlap_count(args, cfg):
    _need_scales(args.deltas, "--deltas", 3)
    pair = _build_pair(cfg)
    deltas = args.deltas
    rows = []
    for delta in deltas:
        rep = count_sum_overlaps(pair, delta, u=args.u, t=args.t)
        rows.append((delta, rep.max_overlap))
    _write_csv(_out_path(args, "overlap.csv"), ["delta", "count"], rows)
    counts = np.array([r[1] for r in rows], dtype=float)
    x = np.log(1.0 / np.array(deltas)) ** 2
    b, a = np.polyfit(x, counts, 1)
    fitted = a + b * x
    resid = float(np.max(np.abs(counts - fitted) / fitted))
    payload = {"deltas": deltas, "counts": counts.tolist(),
               "fit": {"a": a, "b": b, "max_rel_residual": resid},
               "pass": bool(b > 0 and resid < 0.2)}
    _write_json(_out_path(args, "overlap.json"), payload, cfg,
                {"u": args.u, "t": args.t})
    if not payload["pass"]:
        raise ThresholdFailure("overlap fit failed: b=%g resid=%g" % (b, resid))
    return 0


def cmd_active_time(args, cfg):
    if args.tiles < 1:
        raise ConfigError("--tiles must be at least 1")
    pair = _build_pair(cfg)
    tiling = Tiling(pair, args.delta)
    rng = np.random.default_rng(args.seed)
    picks = rng.choice(tiling.size, size=min(args.tiles, tiling.size),
                       replace=False)
    rows = []
    for k in picks:
        meas = active_time_measure(tiling.rho_lo[k], tiling.rho_hi[k],
                                   args.delta)
        rows.append((int(k), meas, meas / args.delta))
    _write_csv(_out_path(args, "active_time.csv"),
               ["tile", "measure", "measure_over_delta"], rows)
    ratios = [r[2] for r in rows]
    payload = {"delta": args.delta, "max_ratio": max(ratios),
               "min_ratio": min(ratios)}
    _write_json(_out_path(args, "active_time.json"), payload, cfg,
                {"delta": args.delta, "tiles": len(rows)})
    return 0


def cmd_kernel_l1(args, cfg):
    pair = _build_pair(cfg)
    N, L = args.grid
    if args.indices is not None:
        try:
            i, j, m, n = (int(v) for v in args.indices.split(","))
        except ValueError:
            raise ConfigError("indices must be four integers i,j,m,n")
        tiling = Tiling(pair, args.delta)
        arcs, shells = tiling.arcs, tiling.shells
        if not (np.any((arcs.sector_idx == i) & (arcs.j_idx == j))
                and np.any((shells.m_idx == m) & (shells.n_idx == n))):
            raise ConfigError("indices %s name no tile of the tiling"
                              % args.indices)
        lib = BumpLibrary(tiling)
        kern = kernel_build(lib, pair, (i, j, m, n), (N, L),
                            tail_tol=args.tail_tol)
    else:
        sym = full_annulus_symbol(args.l)
        kern = kernel_from_rho_symbol(pair, sym, (N, L),
                                      tail_tol=args.tail_tol)
    unit = 1.0 / pair.domain.max_radius()
    rows = [(k, kernel_annulus_l1(kern, k, unit=unit))
            for k in range(args.k_min, args.k_max + 1)]
    _write_csv(_out_path(args, "kernel_l1.csv"), ["k", "value"], rows)
    payload = {"delta": args.delta, "l1": kern.l1(), "l2": kern.l2()}
    _write_json(_out_path(args, "kernel_l1.json"), payload, cfg,
                {"grid": [N, L], "indices": args.indices, "l": args.l})
    return 0


def cmd_sqfn_scaling(args, cfg):
    _need_scales(args.deltas, "--deltas")
    pair = _build_pair(cfg)
    rep = delta_scaling_experiment(pair, args.deltas, args.grid,
                                   seed=args.seed)
    rows = [(d, r, fid) for d in rep.deltas
            for fid, r in sorted(rep.ratios[d].items())]
    _write_csv(_out_path(args, "sqfn_scaling.csv"),
               ["delta", "ratio", "function_id"], rows)
    payload = rep.to_dict()
    payload["pass"] = bool(payload["slope"] >= args.slope_min)
    _write_json(_out_path(args, "sqfn_scaling.json"), payload, cfg,
                {"deltas": args.deltas, "grid": list(args.grid),
                 "seed": args.seed})
    if not payload["pass"]:
        raise ThresholdFailure("scaling slope %.3f below %.3f"
                               % (payload["slope"], args.slope_min))
    return 0


def cmd_glambda_probe(args, cfg):
    pair = _build_pair(cfg)
    rows = []
    for N in args.Ns:
        L = args.L_per_N * N
        fams = standard_family(pair, N, L, args.delta, seed=args.seed)
        t_grid = np.exp(np.linspace(np.log(0.6), np.log(1.8), args.nt))
        for name, f in fams:
            g = square_function_glambda(pair, f, args.lam, t_grid)
            rows.append((N, args.lam, name,
                         g.norm(4) / f.to_physical().norm(4)))
    _write_csv(_out_path(args, "glambda.csv"),
               ["N", "lambda", "function_id", "ratio"], rows)
    by_name = {}
    for N, _, name, r in rows:
        by_name.setdefault(name, []).append(r)
    spreads = {k: (max(v) - min(v)) / max(v) for k, v in by_name.items()}
    payload = {"lambda": args.lam, "spreads": spreads,
               "pass": bool(max(spreads.values()) < 0.5)}
    _write_json(_out_path(args, "glambda.json"), payload, cfg,
                {"Ns": args.Ns, "lambda": args.lam, "seed": args.seed})
    if not payload["pass"]:
        raise ThresholdFailure("G^lambda ratio varies by more than 50%")
    return 0


def cmd_maximal_growth(args, cfg):
    _need_scales(args.Ns, "--Ns")
    group = None
    if "A" in cfg:
        group = DilationGroup(cfg["A"])
    rows = []
    for Nd in args.Ns:
        lam = args.lam if args.lam is not None else 1.0 / Nd
        h = lam / 4.0
        Ng = 1 << int(np.ceil(np.log2(2.0 / h)))
        fam = RectangleFamily(lam, Nd, group=group)
        f = focusing_function(Ng, 1.0, fam)
        mf = nikodym_maximal(f, fam)
        rows.append((Nd, mf.norm(2) / f.norm(2)))
    _write_csv(_out_path(args, "maximal_growth.csv"), ["N", "ratio"], rows)
    logN = np.log([r[0] for r in rows])
    logr = np.log([r[1] for r in rows])
    slope = float(np.polyfit(logN, logr, 1)[0])
    payload = {"Ns": args.Ns, "ratios": [r[1] for r in rows],
               "exponent": slope, "pass": bool(slope <= 0.2)}
    _write_json(_out_path(args, "maximal_growth.json"), payload, cfg,
                {"Ns": args.Ns, "lambda": args.lam})
    if not payload["pass"]:
        raise ThresholdFailure("Nikodym exponent %.3f exceeds 0.2" % slope)
    return 0


def _sector0_probe_rows(args, cfg, operator):
    """(delta, ||operator f||_2 / ||f||_2) per delta, f a random-phase
    spectrum on |rho - 1| < delta inside sector 0 of the tiling, and the
    fitted exponent in 1/delta."""
    _need_scales(args.deltas, "--deltas")
    pair = _build_pair(cfg)
    N, L = args.grid
    rho, omega = rho_omega_grid(pair, N, L)
    rng = np.random.default_rng(args.seed)
    rows = []
    for delta in args.deltas:
        tiling = Tiling(pair, delta)
        band = sector0_band(tiling, rho, omega)
        if not np.any(band):
            raise ResolutionError("probe band empty; refine the grid")
        spec = np.where(band, np.exp(2j * np.pi * rng.random((N, N))), 0)
        f = GridField(N, L, spec, "frequency")
        out = operator(pair, delta, f, BumpLibrary(tiling))
        rows.append((delta, out.norm(2) / f.to_physical().norm(2)))
    ld = np.log(1.0 / np.array([r[0] for r in rows]))
    lr = np.log([r[1] for r in rows])
    expo = float(np.polyfit(ld, lr, 1)[0])
    return rows, expo


def cmd_kernel_maximal_probe(args, cfg):
    rows, expo = _sector0_probe_rows(args, cfg, kernel_maximal)
    _write_csv(_out_path(args, "kernel_maximal.csv"), ["delta", "ratio"], rows)
    payload = {"deltas": args.deltas, "ratios": [r[1] for r in rows],
               "exponent": expo, "pass": bool(expo <= 0.1)}
    _write_json(_out_path(args, "kernel_maximal.json"), payload, cfg,
                {"grid": list(args.grid), "seed": args.seed})
    if not payload["pass"]:
        raise ThresholdFailure("kernel maximal exponent %.3f > 0.1" % expo)
    return 0


def cmd_lwp_probe(args, cfg):
    rows, expo = _sector0_probe_rows(args, cfg, tile_projection_square_function)
    _write_csv(_out_path(args, "lwp.csv"), ["delta", "ratio"], rows)
    payload = {"deltas": args.deltas, "ratios": [r[1] for r in rows],
               "exponent": expo, "pass": bool(abs(expo) <= 0.1)}
    _write_json(_out_path(args, "lwp.json"), payload, cfg,
                {"grid": list(args.grid), "seed": args.seed})
    if not payload["pass"]:
        raise ThresholdFailure("tile square function exponent %.3f" % expo)
    return 0


_MULTIPLIERS = {
    "one": lambda s: np.ones_like(s),
    "bump": lambda s: plateau((s - 1.0) * 2.0),
}


def _multiplier(args):
    if args.multiplier in _MULTIPLIERS:
        return _MULTIPLIERS[args.multiplier]
    if args.multiplier == "br":
        lam = args.lam if args.lam is not None else 1.0
        return lambda s: np.where(s < 1.0, np.maximum(1.0 - s, 0.0) ** lam,
                                  0.0)
    raise ConfigError("unknown multiplier %r; use one, bump or br"
                      % args.multiplier)


def cmd_mult_norm(args, cfg):
    m = _multiplier(args)
    val = hormander_sobolev_norm(m, args.alpha)
    payload = {"multiplier": args.multiplier, "alpha": args.alpha,
               "lambda": args.lam,
               "value": ("inf" if np.isinf(val) else val)}
    _write_json(_out_path(args, "mult_norm.json"), payload, cfg,
                {"alpha": args.alpha})
    return 0


def cmd_br_mean(args, cfg):
    pair = _build_pair(cfg)
    N, L = args.grid
    fams = standard_family(pair, N, L, args.delta, seed=args.seed)
    rows = []
    for name, f in fams:
        out = bochner_riesz_mean(pair, f, args.t, args.lam)
        rows.append((name, f.to_physical().norm(4), out.norm(4)))
    _write_csv(_out_path(args, "br_mean.csv"),
               ["function_id", "input_l4", "output_l4"], rows)
    payload = {"t": args.t, "lambda": args.lam,
               "ratios": {r[0]: r[2] / r[1] for r in rows}}
    _write_json(_out_path(args, "br_mean.json"), payload, cfg,
                {"grid": [N, L], "t": args.t, "lambda": args.lam})
    return 0


# -- argument parsing ----------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors: exit 3, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    ap = _Parser(
        prog="quasibr",
        description="numerical experiments for quasiradial Bochner-Riesz "
                    "square functions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="boundary cap decomposition")
    _add_common(p)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("tile", help="build the frequency tiling")
    _add_common(p)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_tile)

    p = sub.add_parser("overlap-count", help="sum-set overlap counting")
    _add_common(p)
    p.add_argument("--deltas", type=_parse_deltas, required=True)
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.set_defaults(func=cmd_overlap_count)

    p = sub.add_parser("active-time", help="active scale measure per tile")
    _add_common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--tiles", type=int, default=50)
    p.set_defaults(func=cmd_active_time)

    p = sub.add_parser("kernel-l1", help="kernel annulus L1 table")
    _add_common(p)
    p.add_argument("--delta", type=float, default=2.0 ** -4)
    p.add_argument("--grid", type=_parse_grid, default=(2048, 240.0))
    p.add_argument("--indices", default=None, help="i,j,m,n tile indices")
    p.add_argument("--l", type=int, default=5,
                   help="full-annulus symbol sharpness when no tile given")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--tail-tol", type=float, default=5e-3)
    p.set_defaults(func=cmd_kernel_l1)

    p = sub.add_parser("sqfn-scaling", help="square function delta scaling")
    _add_common(p)
    p.add_argument("--deltas", type=_parse_deltas,
                   default=[2.0 ** -3, 2.0 ** -4, 2.0 ** -5])
    p.add_argument("--grid", type=_parse_grid, default=(256, 24.0))
    p.add_argument("--slope-min", type=float, default=0.45)
    p.set_defaults(func=cmd_sqfn_scaling)

    p = sub.add_parser("glambda-probe", help="G^lambda stability probe")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--Ns", type=_parse_sizes,
                   default=[128, 256])
    p.add_argument("--L-per-N", type=float, default=0.09375)
    p.add_argument("--delta", type=float, default=2.0 ** -4)
    p.add_argument("--nt", type=int, default=40)
    p.set_defaults(func=cmd_glambda_probe)

    p = sub.add_parser("maximal-growth", help="Nikodym maximal growth in N")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--Ns", type=_parse_sizes,
                   default=[8, 16, 32])
    p.set_defaults(func=cmd_maximal_growth)

    p = sub.add_parser("kernel-maximal-probe", help="tile kernel maximal")
    _add_common(p)
    p.add_argument("--deltas", type=_parse_deltas,
                   default=[2.0 ** -4, 2.0 ** -5])
    p.add_argument("--grid", type=_parse_grid, default=(256, 24.0))
    p.set_defaults(func=cmd_kernel_maximal_probe)

    p = sub.add_parser("lwp-probe", help="tile projection square function")
    _add_common(p)
    p.add_argument("--deltas", type=_parse_deltas,
                   default=[2.0 ** -4, 2.0 ** -5])
    p.add_argument("--grid", type=_parse_grid, default=(256, 24.0))
    p.set_defaults(func=cmd_lwp_probe)

    p = sub.add_parser("mult-norm", help="weighted multiplier functional")
    _add_common(p)
    p.add_argument("--multiplier", default="bump")
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.set_defaults(func=cmd_mult_norm)

    p = sub.add_parser("br-mean", help="apply one generalized mean")
    _add_common(p)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--grid", type=_parse_grid, default=(256, 24.0))
    p.add_argument("--delta", type=float, default=2.0 ** -4)
    p.set_defaults(func=cmd_br_mean)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    cfg = {}
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except (ConfigError, GeometryError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 3
    except ResolutionError as exc:
        print("resolution error: %s" % exc, file=sys.stderr)
        return 4
    except ThresholdFailure as exc:
        print("threshold failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
