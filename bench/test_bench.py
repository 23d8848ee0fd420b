"""Self-tests of the benchmark's checks: a wrong output and a stale rho grid
must each be counted as a failure, and the tracer must count exactly and
leave the package as it found it."""

import copy
import os
import sys

import pytest

import refs
import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import inproc  # noqa: E402  (needs the package path above)
import tracer  # noqa: E402
from quasibr import quasinorm  # noqa: E402


@pytest.fixture(scope="module")
def sqfn():
    wl = inproc.SqfnWorkload(seed=0)
    wl.setup()
    return wl


def _job(wl, key):
    return [j for j in wl.jobs() if j.key == key]


def test_mismatches_tolerate_rounding_only():
    exp = {"ratio": 0.5, "count": 3, "fields": {"points": [0.25, -1.0]}}
    same = {"ratio": 0.5 * (1 + 1e-12), "count": 3, "fields": {"points": [0.25, -1.0]}}
    assert refs.mismatches(same, exp) == []
    assert refs.mismatches(dict(same, ratio=0.5 * (1 + 1e-6)), exp)
    assert refs.mismatches(dict(same, count=4), exp)
    assert refs.mismatches({"ratio": 0.5, "count": 3}, exp)


def test_altered_reference_value_counts_as_failure(sqfn):
    jobs = _job(sqfn, "glambda:disk-iso:lam0")
    probe = run.Run(sqfn, {}, stored_seed=False)
    probe.run_jobs(jobs)
    observed = probe.outputs["glambda:disk-iso:lam0"]

    exact = run.Run(sqfn, {"glambda:disk-iso:lam0": observed}, stored_seed=True)
    exact.run_jobs(jobs)
    assert exact.failures == []

    altered = copy.deepcopy(observed)
    altered["l4_ratio"] *= 1.0 + 1e-6
    wrong = run.Run(sqfn, {"glambda:disk-iso:lam0": altered}, stored_seed=True)
    wrong.run_jobs(jobs)
    assert wrong.attempted == 1 and len(wrong.failures) == 1


def test_stale_rho_grid_counts_as_failure(sqfn, monkeypatch):
    fresh = run.Run(sqfn, {}, stored_seed=False)
    fresh.run_jobs(sqfn.checks())
    assert fresh.failures == []

    # a grid cached for another pair, as an id() reused after garbage
    # collection would hand out
    other = inproc.build_pair("disk-aniso")
    real = quasinorm.rho_omega_grid
    monkeypatch.setattr(quasinorm, "rho_omega_grid",
                        lambda pair, N, L: real(other, N, L))
    stale = run.Run(sqfn, {}, stored_seed=False)
    stale.run_jobs(sqfn.checks())
    assert len(stale.failures) == 1 and "stale rho grid" in stale.failures[0]


def test_tracer_counts_repeat_and_uninstall_restores(sqfn):
    original = quasinorm.eval_rho
    counts = []
    for _ in range(2):
        tr = tracer.Tracer().install()
        try:
            sqfn.checks()[0].run()
            _job(sqfn, "sqfn:disk-aniso:d3:focusing")[0].run()
        finally:
            tr.uninstall()
        counts.append(tr.summary()["counts"])
    assert quasinorm.eval_rho is original
    assert counts[0] == counts[1]
    assert counts[0]["ffts"] > 0 and counts[0]["t_steps"] > 0
    assert counts[0]["rho_grid_hits"] > 0
