"""quasibr benchmark entry point.

    python3 bench/run.py --workload {sqfn,tiles,cold-cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The seed generates every input (random
phases, sample points, configs, job order).  A run sets up the workload
several times, then repeats the job list (a closed loop with one client:
each job starts when the previous one has finished) while the measured time
stays within --seconds, checking every job's output against the stored
reference.  The second-to-last line of stdout is the run record (host,
pass times, job tail, failures); the last line is the result object with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The record is also written to .bench_out/.  See bench/README.md.
"""

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from time import perf_counter

import refs
from common import child_env

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("sqfn", "tiles", "cold-cli")
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def pin_threads(nproc):
    """At most nproc BLAS/OpenMP threads; scipy.fft keeps its 1 worker."""
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, ""))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def host_info(nproc):
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(d, f)) for f in ("level", "type", "size"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches["L%s" % level] = size
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": nproc, "cpu": model, "L2": caches.get("L2"),
            "L3": caches.get("L3"), "python": platform.python_version(),
            "numpy": versions["numpy"], "scipy": versions["scipy"],
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "scipy_fft_workers": 1}


def fresh_import_s(stmt):
    """Seconds a fresh interpreter spends on the workload's imports."""
    code = ("from time import perf_counter as c; t = c(); %s; print(c() - t)"
            % stmt)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(ROOT),
                          stdout=subprocess.PIPE, timeout=120, check=True)
    return float(proc.stdout)


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def tail_percentile(times):
    """Highest percentile with at least ten jobs beyond it (not gated)."""
    n = len(times)
    if n < 20:
        return None
    ordered = sorted(times)
    return {"percentile": 100.0 * (n - 10) / n, "value_s": ordered[n - 11],
            "jobs": n}


class Run(object):
    """Runs passes of a workload and checks every output."""

    def __init__(self, workload, expected, stored_seed):
        self.workload = workload
        self.expected = expected
        self.stored_seed = stored_seed
        self.attempted = 0
        self.failures = []
        self.outputs = {}
        self.job_times = {}

    def _check(self, key, out):
        if key not in self.expected:
            if self.stored_seed:
                self.failures.append("%s: no stored reference" % key)
            return
        bad = refs.mismatches(out, self.expected[key])
        if bad:
            self.failures.append("%s: differs from reference: %s" % (key, "; ".join(bad[:3])))

    def run_jobs(self, jobs, tracer=None):
        """Run jobs in order; returns (wall seconds, per-job seconds)."""
        times = []
        t_start = perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.job = job.key
            self.attempted += 1
            t0 = perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # a failing job is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                self.failures.append("%s: %s: %s" % (job.key, type(exc).__name__, exc))
                out = None
            times.append(perf_counter() - t0)
            self.job_times.setdefault(job.key, []).append(times[-1])
            if out is not None:
                self.outputs[job.key] = out
                self._check(job.key, out)
        return perf_counter() - t_start, times


def make_workload(name, seed, run_dir):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if name == "cold-cli":
        from coldcli import ColdCliWorkload
        return ColdCliWorkload(seed, ROOT, run_dir)
    import inproc
    return {"sqfn": inproc.SqfnWorkload, "tiles": inproc.TilesWorkload}[name](seed)


def timed_run(run, seconds):
    """End-to-end metrics, measured with tracing off."""
    wl = run.workload
    imports = [fresh_import_s(wl.import_stmt) for _ in range(SETUP_REPEATS)]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
    run.run_jobs(wl.checks())
    passes, job_times = [], []
    t_start = perf_counter()
    while True:
        wall, times = run.run_jobs(wl.jobs())
        passes.append(wall)
        job_times.extend(times)
        if perf_counter() - t_start + wall > seconds:
            break
    metrics = {
        "wall_s": statistics.median(passes),
        "job_p50_s": statistics.median(job_times),
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    detail = {"passes_s": passes, "jobs": len(job_times),
              "job_tail": tail_percentile(job_times),
              "setup": {"fresh_import_s": imports, "setup_s": setups}}
    return metrics, detail


def traced_run(run, seconds, spans_path):
    """Per-layer metrics from one traced set-up and pass, and the overhead of
    tracing (traced minus untraced pass time, medians)."""
    import tracer
    wl = run.workload
    tr = tracer.Tracer()

    def traced_pass(first):
        nonlocal tr
        if not first:
            tr = tracer.Tracer()
        wl.start_pass(traced=True)
        if wl.in_process:
            tr.install()
        try:
            if first:
                tr.job = "setup"
                wl.setup()
                run.run_jobs(wl.checks(), tr)
            return run.run_jobs(wl.jobs(), tr)[0]
        finally:
            tr.uninstall()

    traced = [traced_pass(True)]
    summary = tracer.merge([tr.summary()] + list(wl.summaries))
    children, unexpected = wl.children, wl.unexpected
    if wl.in_process:
        tr.write_spans(spans_path + ".csv")
    else:
        # the children's summaries and spans, next to each other per job
        shutil.copytree(wl.trace_dir, spans_path, dirs_exist_ok=True)
    untraced = []
    t_start = perf_counter()
    while True:
        wl.start_pass(traced=False)
        untraced.append(run.run_jobs(wl.jobs())[0])
        if perf_counter() - t_start + traced[-1] > seconds:
            break
        traced.append(traced_pass(False))
        if perf_counter() - t_start + untraced[-1] > seconds:
            break
    metrics = tracer.layer_metrics(summary)
    metrics.update({
        "cli.jobs": children,
        "cli.unexpected_exit": unexpected,
        "repo.src_lines": src_lines(),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    })
    detail = {"traced_passes_s": traced, "untraced_passes_s": untraced}
    return metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's outputs as its reference "
                         "(only for a seed with none stored)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quasibr", "__init__.py")):
        print("bench: no quasibr sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    nproc = len(os.sched_getaffinity(0))
    pin_threads(nproc)

    ref_path = os.path.join(BENCH_DIR, "reference", args.workload + ".json")
    expected, ref_note = refs.expected_for(refs.load(ref_path), args.seed)
    if args.record:
        # only the checks that hold for every seed apply to a new reference
        expected, ref_note = {}, "recording seed %d" % args.seed
    run_dir = os.path.join(OUT_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        wl = make_workload(args.workload, args.seed, run_dir)
        run = Run(wl, expected, ref_note.startswith("stored"))
        if args.trace:
            spans_path = os.path.join(OUT_ROOT, "spans-%s-seed%d"
                                      % (args.workload, args.seed))
            metrics, detail = traced_run(run, args.seconds, spans_path)
            names = spec["per_layer"]
        else:
            metrics, detail = timed_run(run, args.seconds)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if set(metrics) != {m["name"] for m in names}:
        raise RuntimeError("metrics %s do not match BENCHMARK.json"
                           % sorted(set(metrics) ^ {m["name"] for m in names}))

    failed = len(run.failures)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_info(nproc), "reference": ref_note,
              "attempted": run.attempted, "failed": failed,
              "fail_frac": failed / run.attempted,
              "failures": run.failures[:20]}
    record.update(detail)
    record["job_median_s"] = {k: statistics.median(v) for k, v in sorted(run.job_times.items())}
    if args.record:
        if failed:
            print("bench: not recording a run with failures", file=sys.stderr)
            return 1
        refs.record(ref_path, args.seed, run.outputs)
        record["reference"] = "recorded for seed %d" % args.seed
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in names}}
    record["metrics"] = result["metrics"]
    with open(os.path.join(OUT_ROOT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
