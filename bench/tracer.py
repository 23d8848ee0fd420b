"""Span tracer for the benchmark.

The tracer times calls into quasibr's public functions and the scipy.fft
entry points the package calls.  It wraps them at run time from outside the
package: every binding of a target (the defining module, modules that
imported it by name, the class for methods) is replaced by a wrapper and
restored on uninstall.  Each call records a span (name, start, end, parent
span, job id) in memory; hooks at the same boundaries count the work done.
``summary()`` reduces the spans to calls, total time and self time per span
name, and ``layer_metrics()`` turns a summary into the per-layer metrics
listed in BENCHMARK.json.
"""

import csv
import functools
import importlib
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy as np

SQFN_SPANS = ("grid.square_function_annulus", "grid.square_function_glambda")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _points(xi):
    """Number of 2-D points in an array of shape (..., 2)."""
    return int(np.size(xi)) // 2


# -- counting hooks: before(tracer, args, kwargs) -> token,
#    after(tracer, token, result) -------------------------------------------

def _eval_rho(tr, args, kwargs):
    tr.counts["eval_rho_calls"] += 1
    tr.counts["rho_points"] += _points(_arg(args, kwargs, 1, "xi"))


def _grid_before(tr, args, kwargs):
    # a pair referenced here keeps its id() out of reuse for the whole run
    tr.keep.append(_arg(args, kwargs, 0, "pair"))
    return tr.counts["eval_rho_calls"]


def _grid_after(tr, calls_before, result):
    built = tr.counts["eval_rho_calls"] > calls_before
    tr.counts["rho_grid_builds" if built else "rho_grid_hits"] += 1


def _power(tr, args, kwargs):
    tr.counts["power_calls"] += 1
    tr.counts["power_points"] += int(np.size(_arg(args, kwargs, 1, "t")))


def _radial(tr, args, kwargs):
    n = int(np.size(_arg(args, kwargs, 1, "theta")))
    tr.counts["radial_points"] += n
    if tr.depth["quasinorm.eval_rho"]:
        tr.counts["radial_points_in_rho"] += n


def _decompose(tr, args, kwargs):
    tr.counts["decompose_calls"] += 1


def _tiling_before(tr, args, kwargs):
    return args[0]


def _tiling_after(tr, tiling, result):
    tr.counts["tiles_built"] += tiling.size


def _smoothstep(tr, args, kwargs):
    tr.counts["smoothstep_points"] += int(np.size(_arg(args, kwargs, 0, "x")))


def _t_grid_after(tr, token, result):
    # the t-grid a square function builds for itself when given none
    if tr.depth["grid.square_function_annulus"]:
        tr.counts["t_steps"] += len(result)


def _annulus(tr, args, kwargs):
    t_grid = _arg(args, kwargs, 3, "t_grid")
    if t_grid is not None:
        tr.counts["t_steps"] += len(t_grid)


def _glambda(tr, args, kwargs):
    tr.counts["t_steps"] += len(_arg(args, kwargs, 3, "t_grid"))


def _fft(tr, args, kwargs, inverse):
    n = int(np.size(_arg(args, kwargs, 0, "x")))
    tr.counts["ffts"] += 1
    tr.counts["fft_cells"] += n
    # computed, not measured: 5 n log2 n flop per complex transform
    tr.flop += 5.0 * n * np.log2(max(n, 2))
    if inverse and any(tr.depth[s] for s in SQFN_SPANS):
        tr.counts["sqfn_ffts"] += 1
    if inverse and tr.depth["maximal.kernel_maximal"]:
        tr.counts["kernel_pieces"] += 1


def _nikodym(tr, args, kwargs):
    fam = _arg(args, kwargs, 1, "fam")
    tr.counts["rect_convs"] += fam.N * (fam.k_range[1] - fam.k_range[0] + 1)


def _tile_bump(tr, args, kwargs):
    tr.counts["tile_bumps"] += 1


def _tiles_used(tr, token, result):
    tr.counts["tiles_used"] += int(result.tiles_used)


# span name -> (module, attribute path, before hook, after hook)
TARGETS = {
    "quasinorm.check_compatibility": ("quasibr.quasinorm", "check_compatibility", None, None),
    "quasinorm.eval_rho": ("quasibr.quasinorm", "eval_rho", _eval_rho, None),
    "quasinorm.rho_omega_grid": ("quasibr.quasinorm", "rho_omega_grid", _grid_before, _grid_after),
    "dilation.power": ("quasibr.dilation", "DilationGroup.power", _power, None),
    "domains.radial.disk": ("quasibr.domains", "Disk.radial", _radial, None),
    "domains.radial.superellipse": ("quasibr.domains", "Superellipse.radial", _radial, None),
    "domains.radial.polygon": ("quasibr.domains", "Polygon.radial", _radial, None),
    "domains.radial.sampled": ("quasibr.domains", "SampledDomain.radial", _radial, None),
    "caps.decompose": ("quasibr.caps", "decompose", _decompose, None),
    "tiling.Tiling": ("quasibr.tiling", "Tiling.__init__", _tiling_before, _tiling_after),
    "tiling.multiplicity": ("quasibr.tiling", "Tiling.multiplicity", None, None),
    "tiling.count_sum_overlaps": ("quasibr.tiling", "count_sum_overlaps", None, None),
    "bumps.smoothstep": ("quasibr.bumps", "smoothstep", _smoothstep, None),
    "bumps.BumpLibrary": ("quasibr.bumps", "BumpLibrary.__init__", None, None),
    "bumps.sigma": ("quasibr.bumps", "BumpLibrary.sigma", None, None),
    "bumps.sum_sigma": ("quasibr.bumps", "BumpLibrary.sum_sigma", None, None),
    "grid.standard_family": ("quasibr.grid", "standard_family", None, None),
    "grid.active_t_grid": ("quasibr.grid", "active_t_grid", None, _t_grid_after),
    "grid.square_function_annulus": ("quasibr.grid", "square_function_annulus", _annulus, None),
    "grid.square_function_glambda": ("quasibr.grid", "square_function_glambda", _glambda, None),
    "grid.bochner_riesz_mean": ("quasibr.grid", "bochner_riesz_mean", None, None),
    "maximal.nikodym_maximal": ("quasibr.maximal", "nikodym_maximal", _nikodym, None),
    "maximal.kernel_maximal": ("quasibr.maximal", "kernel_maximal", None, None),
    "lwp.tile_projection_square_function": ("quasibr.lwp", "tile_projection_square_function", None, _tiles_used),
    "lwp.tile_bump": ("quasibr.lwp", "tile_bump", _tile_bump, None),
    "cli.main": ("quasibr.cli", "main", None, None),
    "fft.fft2": ("scipy.fft", "fft2", lambda tr, a, k: _fft(tr, a, k, False), None),
    "fft.ifft2": ("scipy.fft", "ifft2", lambda tr, a, k: _fft(tr, a, k, True), None),
}


class Tracer(object):
    """Spans and counters for one traced stretch of a run."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, job)
        self.stack = []
        self.depth = Counter()   # open spans per name
        self.counts = Counter()
        self.flop = 0.0
        self.job = None
        self.keep = []
        self._patched = []

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every binding of each target by a recording wrapper."""
        for name, (modname, attr, before, after) in TARGETS.items():
            module = owner = importlib.import_module(modname)
            *path, key = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = vars(owner)[key]
            wrapper = self._wrap(name, orig, before, after)
            self._set(owner, key, orig, wrapper)
            if not path:
                for other in list(sys.modules.values()):
                    mname = getattr(other, "__name__", "") or ""
                    if other is module or not mname.startswith("quasibr"):
                        continue
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            self._set(other, key, orig, wrapper)
        return self

    def _set(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    def _wrap(self, name, fn, before, after):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(tr, args, kwargs) if before is not None else None
            idx = len(tr.spans)
            parent = tr.stack[-1] if tr.stack else -1
            tr.spans.append(None)
            tr.stack.append(idx)
            tr.depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.depth[name] -= 1
                tr.stack.pop()
                tr.spans[idx] = (name, t0, t1, parent, tr.job)
            if after is not None:
                after(tr, token, result)
            return result
        return wrapper

    # -- reduction -----------------------------------------------------------

    def summary(self):
        """Calls, total seconds and self seconds per span name, plus counts."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        names = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += (t1 - t0) - child[i]
        counts = dict(self.counts)
        counts["spans"] = len(self.spans)
        return {"counts": counts, "flop": self.flop, "names": names,
                "import_s": []}

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent", "job"])
            for i, (name, t0, t1, parent, job) in enumerate(self.spans):
                out.writerow([i, name, repr(t0), repr(t1), parent, job])


def merge(summaries):
    """Sum a list of summaries (one per traced process or stretch)."""
    total = {"counts": Counter(), "flop": 0.0, "names": {}, "import_s": []}
    for s in summaries:
        total["counts"].update(s["counts"])
        total["flop"] += s["flop"]
        total["import_s"].extend(s["import_s"])
        for name, (calls, tot, own) in s["names"].items():
            entry = total["names"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += tot
            entry[2] += own
    return total


def layer_metrics(s):
    """Per-layer metrics of BENCHMARK.json from a merged summary.

    The cli.jobs, cli.unexpected_exit, repo.src_lines and trace.overhead_s
    entries come from the runner, not from spans.
    """
    c = s["counts"]
    names = s["names"]

    def total(*span_names):
        return sum(names.get(n, (0, 0.0, 0.0))[1] for n in span_names)

    def self_time(module):
        return sum(v[2] for k, v in names.items() if k.split(".")[0] == module)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "quasinorm.rho_grid_builds": c.get("rho_grid_builds", 0),
        "quasinorm.rho_grid_hits": c.get("rho_grid_hits", 0),
        "quasinorm.rho_points": c.get("rho_points", 0),
        "quasinorm.radial_evals_per_point": ratio(
            c.get("radial_points_in_rho", 0), c.get("rho_points", 0)),
        "quasinorm.self_s": self_time("quasinorm"),
        "dilation.power_calls": c.get("power_calls", 0),
        "dilation.power_points": c.get("power_points", 0),
        "dilation.self_s": self_time("dilation"),
        "domains.radial_points": c.get("radial_points", 0),
        "domains.self_s": self_time("domains"),
        "caps.decompose_calls": c.get("decompose_calls", 0),
        "caps.self_s": self_time("caps"),
        "tiling.tiles_built": c.get("tiles_built", 0),
        "tiling.build_s": total("tiling.Tiling"),
        "tiling.multiplicity_s": total("tiling.multiplicity"),
        "tiling.overlap_s": total("tiling.count_sum_overlaps"),
        "tiling.self_s": self_time("tiling"),
        "bumps.smoothstep_points": c.get("smoothstep_points", 0),
        "bumps.sum_sigma_s": total("bumps.sum_sigma"),
        "bumps.self_s": self_time("bumps"),
        "grid.t_steps": c.get("t_steps", 0),
        "grid.ffts": c.get("ffts", 0),
        "grid.fft_cells": c.get("fft_cells", 0),
        "grid.nonempty_frac": ratio(c.get("sqfn_ffts", 0), c.get("t_steps", 0)),
        "grid.fft_s": total("fft.fft2", "fft.ifft2"),
        "grid.sqfn_s": total(*SQFN_SPANS),
        "grid.fft_gflop": s["flop"] / 1e9,
        "grid.self_s": self_time("grid"),
        "maximal.nikodym_s": total("maximal.nikodym_maximal"),
        "maximal.rect_convs": c.get("rect_convs", 0),
        "maximal.kernel_max_s": total("maximal.kernel_maximal"),
        "maximal.kernel_pieces": c.get("kernel_pieces", 0),
        "maximal.self_s": self_time("maximal"),
        "lwp.tile_bumps": c.get("tile_bumps", 0),
        "lwp.tiles_used": c.get("tiles_used", 0),
        "lwp.useful_frac": ratio(c.get("tiles_used", 0), c.get("tile_bumps", 0)),
        "lwp.tile_sqfn_s": total("lwp.tile_projection_square_function"),
        "lwp.self_s": self_time("lwp"),
        "cli.import_s": (statistics.median(s["import_s"])
                         if s["import_s"] else 0.0),
        "cli.main_s": total("cli.main"),
        "trace.spans": c.get("spans", 0),
    }
