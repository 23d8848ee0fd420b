"""Command line experiment runner.

Each subcommand reads an optional JSON config, runs one study, and writes
CSV curves plus a JSON summary embedding the config hash and a manifest of
versions and parameters.  Exit codes: 0 pass, 2 threshold failure,
3 configuration error (a malformed command line included),
4 numerical-resolution error.

Every option is declared once in `_OPTIONS` with its argparse spec and its
value rule; every subcommand is declared once with `_command`.  `main`
checks the options, runs the study, then writes its CSV and JSON and turns
`"pass": false` into exit 2.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bumps import BumpLibrary, full_annulus_symbol, plateau
from .caps import DELTA_MAX, decompose
from .dilation import DilationGroup
from .domains import _finite, _positive, boundary_arc, domain_from_config
from .errors import ConfigError, GeometryError, ResolutionError, \
    ThresholdFailure
from .grid import GridField, bochner_riesz_mean, delta_scaling_experiment, \
    hormander_sobolev_norm, kernel_annulus_l1, kernel_build, \
    kernel_from_rho_symbol, square_function_glambda, standard_family
from .lwp import tile_projection_square_function
from .maximal import RectangleFamily, focusing_function, kernel_maximal, \
    nikodym_maximal
from .quasinorm import check_compatibility, rho_omega_grid
from .tiling import Tiling, active_time_measure, count_sum_overlaps, \
    sector0_band

_CONFIG_KEYS = ("A", "domain", "rotation")
_GRID_MAX = 4096  # largest side of --grid, --Ns grids and focusing grids


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


# -- options -------------------------------------------------------------------
# Parsers (argparse `type`) reject malformed text as usage errors; rules
# (value, flag) -> value run after parsing and raise ConfigError.

def _parse_deltas(text):
    """'2^-3..2^-7' or comma list of floats / 2^-k tokens."""
    def one(tok):
        tok = tok.strip()
        if tok.startswith("2^"):
            return 2.0 ** float(tok[2:])
        return float(tok)
    try:
        if ".." in text:
            a, b = text.split("..")
            ka = int(round(math.log2(one(a))))
            kb = int(round(math.log2(one(b))))
            step = -1 if kb < ka else 1
            return [2.0 ** k for k in range(ka, kb + step, step)]
        return [one(t) for t in text.split(",")]
    except OverflowError:
        raise argparse.ArgumentTypeError("deltas out of range: %r" % text)


def _parse_grid(text):
    """'N,L': N an even integer in [2, _GRID_MAX] (the FFT layout of
    frequency_grid needs N even), L finite and positive."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("grid must be 'N,L', got %r" % text)
    N, L = int(parts[0]), float(parts[1])
    if not 2 <= N <= _GRID_MAX or N % 2:
        raise argparse.ArgumentTypeError(
            "grid N must be an even integer in [2, %d], got %d"
            % (_GRID_MAX, N))
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


def _deltas_in_range(deltas, flag):
    for delta in deltas:
        if not 0.0 < delta <= DELTA_MAX:
            raise ConfigError("%s: delta must lie in (0, %g], got %r"
                              % (flag, DELTA_MAX, delta))
    return deltas


def _at_least_one(value, flag):
    if value < 1:
        raise ConfigError("%s must be at least 1, got %d" % (flag, value))
    return value


def _tile_indices(text, flag):
    try:
        i, j, m, n = (int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError("indices must be four integers i,j,m,n")
    return i, j, m, n


# rho profiles m(s) for mult-norm; br reads --lambda (default 1)
_MULTIPLIERS = {
    "one": lambda s, lam: np.ones_like(s),
    "bump": lambda s, lam: plateau((s - 1.0) * 2.0),
    "br": lambda s, lam: np.where(
        s < 1.0, np.maximum(1.0 - s, 0.0) ** (1.0 if lam is None else lam),
        0.0),
}


# dest: (flag, argparse keywords, rule or None)
_OPTIONS = {
    "config": ("--config", {"help": "JSON config file"}, None),
    "seed": ("--seed", {"type": int, "default": 0}, None),
    "out": ("--out", {"default": ".", "help": "output directory"}, None),
    "delta": ("--delta", {"type": float, "default": 2.0 ** -4}, _finite),
    "deltas": ("--deltas", {"type": _parse_deltas}, _deltas_in_range),
    "grid": ("--grid", {"type": _parse_grid, "default": (256, 24.0)}, None),
    "Ns": ("--Ns", {"type": _parse_sizes}, None),
    "lam": ("--lambda", {"type": float}, _finite),
    "u": ("--u", {"type": float, "default": 1.0}, _finite),
    "t": ("--t", {"type": float, "default": 1.0}, _finite),
    "tiles": ("--tiles", {"type": int, "default": 50}, _at_least_one),
    "indices": ("--indices", {"help": "i,j,m,n tile indices"}, _tile_indices),
    "l": ("--l", {"type": int, "default": 5, "help": "full-annulus symbol "
                  "sharpness when no tile given"}, None),
    "k_min": ("--k-min", {"type": int, "default": 1}, None),
    "k_max": ("--k-max", {"type": int, "default": 10}, None),
    "tail_tol": ("--tail-tol", {"type": float, "default": 5e-3}, _finite),
    "slope_min": ("--slope-min", {"type": float, "default": 0.45}, _finite),
    "L_per_N": ("--L-per-N", {"type": float, "default": 0.09375}, _positive),
    "nt": ("--nt", {"type": int, "default": 40}, _at_least_one),
    "multiplier": ("--multiplier", {"default": "bump",
                                    "choices": tuple(_MULTIPLIERS)}, None),
    "alpha": ("--alpha", {"type": float, "default": 0.6}, _finite),
}

_REQUIRED = object()

_Command = collections.namedtuple(
    "_Command", "study help csv json options defaults scales")

# what a study hands the runner: the summary payload, the CSV header and
# rows (None when the study writes no CSV), and the message for exit 2
# when payload["pass"] is false
_Study = collections.namedtuple("_Study", "payload header rows failure",
                                defaults=(None, None, None))

_COMMANDS = {}


def _command(name, help, files, options, scales=None, **defaults):
    """Declare subcommand `name`: `files` its (CSV or None, JSON) names,
    `options` the _OPTIONS it takes besides config, seed and out,
    `defaults` those that differ from _OPTIONS (_REQUIRED: none), and
    `scales` the (option, least) distinct-value count its fit needs."""
    def register(study):
        _COMMANDS[name] = _Command(
            study, help, files[0], files[1],
            ["config", "seed", "out"] + options.split(), defaults, scales)
        return study
    return register


# -- subcommand implementations ------------------------------------------------

@_command("decompose", "boundary cap decomposition",
          (None, "decompose.json"), "delta", delta=_REQUIRED)
def cmd_decompose(args, cfg):
    pair = _build_pair(cfg)
    arc = boundary_arc(pair.domain,
                       _finite(cfg.get("rotation", 0.0), "rotation"))
    d = decompose(arc, args.delta)
    return _Study({"delta": args.delta, "points": list(d.points),
                   "intervals": [list(iv) for iv in d.refined],
                   "Q": d.Q, "Qprime": d.Qprime})


@_command("tile", "build the frequency tiling", ("tiles.csv", "tile.json"),
          "delta", delta=_REQUIRED)
def cmd_tile(args, cfg):
    tiling = Tiling(_build_pair(cfg), args.delta)
    rows = [(int(tiling.sector_idx[k]), int(tiling.j_idx[k]),
             int(tiling.m_idx[k]), int(tiling.n_idx[k]),
             float(tiling.rho_lo[k]), float(tiling.rho_hi[k]),
             float(tiling.tau_lo[k]), float(tiling.tau_hi[k]))
            for k in range(tiling.size)]
    return _Study({"delta": args.delta, "n_tiles": tiling.size,
                   "n_sectors": len(tiling.sectors)},
                  ["sector", "interval", "m", "n",
                   "rho_lo", "rho_hi", "tau_lo", "tau_hi"], rows)


@_command("overlap-count", "sum-set overlap counting",
          ("overlap.csv", "overlap.json"), "deltas u t", scales=("deltas", 3),
          deltas=_REQUIRED)
def cmd_overlap_count(args, cfg):
    pair = _build_pair(cfg)
    rows = [(delta, count_sum_overlaps(pair, delta, u=args.u,
                                       t=args.t).max_overlap)
            for delta in args.deltas]
    counts = np.array([r[1] for r in rows], dtype=float)
    x = np.log(1.0 / np.array(args.deltas)) ** 2
    b, a = np.polyfit(x, counts, 1)
    fitted = a + b * x
    resid = float(np.max(np.abs(counts - fitted) / fitted))
    return _Study({"deltas": args.deltas, "counts": counts.tolist(),
                   "fit": {"a": a, "b": b, "max_rel_residual": resid},
                   "pass": bool(b > 0 and resid < 0.2)},
                  ["delta", "count"], rows,
                  "overlap fit failed: b=%g resid=%g" % (b, resid))


@_command("active-time", "active scale measure per tile",
          ("active_time.csv", "active_time.json"), "delta tiles",
          delta=_REQUIRED)
def cmd_active_time(args, cfg):
    tiling = Tiling(_build_pair(cfg), args.delta)
    rng = np.random.default_rng(args.seed)
    picks = rng.choice(tiling.size, size=min(args.tiles, tiling.size),
                       replace=False)
    rows = []
    for k in picks:
        meas = active_time_measure(tiling.rho_lo[k], tiling.rho_hi[k],
                                   args.delta)
        rows.append((int(k), meas, meas / args.delta))
    ratios = [r[2] for r in rows]
    return _Study({"delta": args.delta, "max_ratio": max(ratios),
                   "min_ratio": min(ratios)},
                  ["tile", "measure", "measure_over_delta"], rows)


@_command("kernel-l1", "kernel annulus L1 table",
          ("kernel_l1.csv", "kernel_l1.json"),
          "delta grid indices l k_min k_max tail_tol", grid=(2048, 240.0))
def cmd_kernel_l1(args, cfg):
    if args.k_min > args.k_max:
        raise ConfigError("--k-min %d exceeds --k-max %d"
                          % (args.k_min, args.k_max))
    pair = _build_pair(cfg)
    if args.indices is not None:
        tiling = Tiling(pair, args.delta)
        kern = kernel_build(BumpLibrary(tiling), tiling.index(*args.indices),
                            args.grid, tail_tol=args.tail_tol)
    else:
        kern = kernel_from_rho_symbol(pair, full_annulus_symbol(args.l),
                                      args.grid, tail_tol=args.tail_tol)
    unit = 1.0 / pair.domain.max_radius()
    rows = [(k, kernel_annulus_l1(kern, k, unit=unit))
            for k in range(args.k_min, args.k_max + 1)]
    return _Study({"delta": args.delta, "l1": kern.norm(1),
                   "l2": kern.norm(2)}, ["k", "value"], rows)


@_command("sqfn-scaling", "square function delta scaling",
          ("sqfn_scaling.csv", "sqfn_scaling.json"), "deltas grid slope_min",
          scales=("deltas", 2), deltas=[2.0 ** -3, 2.0 ** -4, 2.0 ** -5])
def cmd_sqfn_scaling(args, cfg):
    rep = delta_scaling_experiment(_build_pair(cfg), args.deltas, args.grid,
                                   seed=args.seed)
    rows = [(d, r, fid) for d in rep.deltas
            for fid, r in sorted(rep.ratios[d].items())]
    payload = rep.to_dict()
    payload["pass"] = bool(payload["slope"] >= args.slope_min)
    return _Study(payload, ["delta", "ratio", "function_id"], rows,
                  "scaling slope %.3f below %.3f"
                  % (payload["slope"], args.slope_min))


@_command("glambda-probe", "G^lambda stability probe",
          ("glambda.csv", "glambda.json"), "lam Ns L_per_N delta nt",
          scales=("Ns", 2), lam=0.0, Ns=[128, 256])
def cmd_glambda_probe(args, cfg):
    if max(args.Ns) > _GRID_MAX:
        raise ConfigError("--Ns: grid size %d exceeds %d"
                          % (max(args.Ns), _GRID_MAX))
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
    by_name = {}
    for N, _, name, r in rows:
        by_name.setdefault(name, []).append(r)
    spreads = {k: (max(v) - min(v)) / max(v) for k, v in by_name.items()}
    return _Study({"lambda": args.lam, "spreads": spreads,
                   "pass": bool(max(spreads.values()) < 0.5)},
                  ["N", "lambda", "function_id", "ratio"], rows,
                  "G^lambda ratio varies by more than 50%")


@_command("maximal-growth", "Nikodym maximal growth in N",
          ("maximal_growth.csv", "maximal_growth.json"), "lam Ns",
          scales=("Ns", 2), Ns=[8, 16, 32])
def cmd_maximal_growth(args, cfg):
    if args.lam is not None:
        _positive(args.lam, "--lambda")
    lams = [args.lam if args.lam is not None else 1.0 / Nd for Nd in args.Ns]
    # the focusing grid has 2^ceil(log2(8 / lambda)) cells a side
    if min(lams) < 8.0 / _GRID_MAX:
        raise ConfigError("lambda = %g (--lambda, or 1/N) is below 2^-9: its "
                          "focusing grid would exceed %d^2"
                          % (min(lams), _GRID_MAX))
    group = DilationGroup(cfg["A"]) if "A" in cfg else None
    rows = []
    for Nd, lam in zip(args.Ns, lams):
        h = lam / 4.0
        Ng = 1 << int(np.ceil(np.log2(2.0 / h)))
        fam = RectangleFamily(lam, Nd, group=group)
        f = focusing_function(Ng, 1.0, fam)
        mf = nikodym_maximal(f, fam)
        rows.append((Nd, mf.norm(2) / f.norm(2)))
    logN = np.log([r[0] for r in rows])
    logr = np.log([r[1] for r in rows])
    slope = float(np.polyfit(logN, logr, 1)[0])
    return _Study({"Ns": args.Ns, "ratios": [r[1] for r in rows],
                   "exponent": slope, "pass": bool(slope <= 0.2)},
                  ["N", "ratio"], rows,
                  "Nikodym exponent %.3f exceeds 0.2" % slope)


def _sector0_probe(args, cfg, operator, passes, failure):
    """(delta, ||operator f||_2 / ||f||_2) per delta, f a random-phase
    spectrum on |rho - 1| < delta inside sector 0 of the tiling, and the
    fitted exponent in 1/delta, which must satisfy `passes`."""
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
    return _Study({"deltas": args.deltas, "ratios": [r[1] for r in rows],
                   "exponent": expo, "pass": bool(passes(expo))},
                  ["delta", "ratio"], rows, failure % expo)


@_command("kernel-maximal-probe", "tile kernel maximal",
          ("kernel_maximal.csv", "kernel_maximal.json"), "deltas grid",
          scales=("deltas", 2), deltas=[2.0 ** -4, 2.0 ** -5])
def cmd_kernel_maximal_probe(args, cfg):
    return _sector0_probe(args, cfg, kernel_maximal, lambda e: e <= 0.1,
                          "kernel maximal exponent %.3f > 0.1")


@_command("lwp-probe", "tile projection square function",
          ("lwp.csv", "lwp.json"), "deltas grid",
          scales=("deltas", 2), deltas=[2.0 ** -4, 2.0 ** -5])
def cmd_lwp_probe(args, cfg):
    return _sector0_probe(args, cfg, tile_projection_square_function,
                          lambda e: abs(e) <= 0.1,
                          "tile square function exponent %.3f")


@_command("mult-norm", "weighted multiplier functional",
          (None, "mult_norm.json"), "multiplier alpha lam")
def cmd_mult_norm(args, cfg):
    val = hormander_sobolev_norm(
        lambda s: _MULTIPLIERS[args.multiplier](s, args.lam), args.alpha)
    return _Study({"multiplier": args.multiplier, "alpha": args.alpha,
                   "lambda": args.lam,
                   "value": ("inf" if np.isinf(val) else val)})


@_command("br-mean", "apply one generalized mean",
          ("br_mean.csv", "br_mean.json"), "t lam grid delta", lam=0.5)
def cmd_br_mean(args, cfg):
    pair = _build_pair(cfg)
    N, L = args.grid
    rows = [(name, f.to_physical().norm(4),
             bochner_riesz_mean(pair, f, args.t, args.lam).norm(4))
            for name, f in standard_family(pair, N, L, args.delta,
                                           seed=args.seed)]
    return _Study({"t": args.t, "lambda": args.lam,
                   "ratios": {r[0]: r[2] / r[1] for r in rows}},
                  ["function_id", "input_l4", "output_l4"], rows)


# -- argument parsing and the runner -------------------------------------------

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
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for dest in cmd.options:
            flag, kwargs, _ = _OPTIONS[dest]
            default = cmd.defaults.get(dest, kwargs.get("default"))
            p.add_argument(flag, **dict(kwargs, dest=dest, default=default,
                                        required=default is _REQUIRED))
    return ap


def _run(args):
    """Check the options, run the study, write its CSV then its JSON, and
    raise ThresholdFailure when it did not pass."""
    cmd = _COMMANDS[args.command]
    for dest in cmd.options:
        flag, _, rule = _OPTIONS[dest]
        if rule is not None and getattr(args, dest) is not None:
            setattr(args, dest, rule(getattr(args, dest), flag))
    if cmd.scales is not None:
        dest, least = cmd.scales
        got = len(set(getattr(args, dest)))
        if got < least:
            raise ConfigError("%s needs at least %d distinct values, got %d"
                              % (_OPTIONS[dest][0], least, got))
    cfg = _load_config(args.config)
    study = cmd.study(args, cfg)
    os.makedirs(args.out, exist_ok=True)
    if study.rows is not None:
        with open(os.path.join(args.out, cmd.csv), "w") as fh:
            fh.write(",".join(study.header) + "\n")
            for row in study.rows:
                fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in row) + "\n")
    payload = dict(study.payload, config=cfg, config_hash=_config_hash(cfg))
    payload["manifest"] = {
        "package": __version__,
        "numpy": np.__version__,
        "parameters": {_OPTIONS[dest][0][2:]: getattr(args, dest)
                       for dest in cmd.options
                       if dest not in ("config", "out")},
    }
    with open(os.path.join(args.out, cmd.json), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    if not study.payload.get("pass", True):
        raise ThresholdFailure(study.failure)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except (ConfigError, GeometryError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 3
    except ResolutionError as exc:
        print("resolution error: %s" % exc, file=sys.stderr)
        return 4
    except ThresholdFailure as exc:
        print("threshold failure: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
