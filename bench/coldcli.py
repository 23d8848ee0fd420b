"""The ``cold-cli`` workload: each job is one ``python -m quasibr.cli``
invocation in a fresh process, so every job pays the import, a fresh pair
and a cold rho grid, as a command-line user does.

The parent process imports nothing numerical.  In a traced pass each child
runs ``cli_child.py``, which installs the tracer before calling
``quasibr.cli.main`` and writes its span summary for the parent.
"""

import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys

from common import PAIRS, CheckFailed, Job, child_env, derive_seed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 150
# keys every summary carries that describe the run, not its results
_DESCRIPTIVE = ("config", "config_hash", "manifest")


def summary_fields(out_dir):
    """Result fields of every JSON summary a command wrote."""
    fields = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as fh:
                payload = json.load(fh)
            fields[name] = {k: v for k, v in payload.items() if k not in _DESCRIPTIVE}
    return fields


def same_bytes(dir_a, dir_b):
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


class ColdCliWorkload(object):
    name = "cold-cli"
    import_stmt = "import quasibr.cli"
    in_process = False
    BR_GRID = "256,30"

    def __init__(self, seed, root, run_dir):
        self.seed = seed
        self.root = root
        self.run_dir = run_dir
        self.trace_dir = os.path.join(run_dir, "trace")
        self.traced = False
        self.summaries = []      # span summaries of traced children
        self.unexpected = 0      # children that exited with another code
        self.children = 0
        self.env = child_env(root)

    def setup(self):
        """Write the seeded JSON configs the jobs read."""
        cfg_dir = os.path.join(self.run_dir, "configs")
        os.makedirs(cfg_dir, exist_ok=True)
        self.configs = {}
        for name, (domain, A) in PAIRS.items():
            self.configs[name] = self._write(cfg_dir, name, {"domain": domain, "A": A})
        rotation = random.Random(derive_seed(self.seed, "rotation")).uniform(0.0, 2 * math.pi)
        self.configs["rotated-disk"] = self._write(
            cfg_dir, "rotated-disk",
            {"domain": PAIRS["disk-iso"][0], "rotation": rotation})

    @staticmethod
    def _write(cfg_dir, name, cfg):
        path = os.path.join(cfg_dir, name + ".json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def checks(self):
        return []

    def start_pass(self, traced):
        self.traced = traced
        self.summaries = []
        self.children = self.unexpected = 0

    @staticmethod
    def peak_rss_mb():
        """High-water RSS of the largest child waited for."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def _out_dir(self, key):
        return os.path.join(self.run_dir, "out", key.replace(":", "_"))

    def _invoke(self, key, argv, expected_exit):
        out = self._out_dir(key)
        shutil.rmtree(out, ignore_errors=True)
        if self.traced:
            trace_path = os.path.join(self.trace_dir, key.replace(":", "_") + ".json")
            os.makedirs(self.trace_dir, exist_ok=True)
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), trace_path]
        else:
            cmd = [sys.executable, "-m", "quasibr.cli"]
        proc = subprocess.run(cmd + argv + ["--out", out], cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
        self.children += 1
        if self.traced:
            with open(trace_path) as fh:
                self.summaries.append(json.load(fh))
        if proc.returncode != expected_exit:
            self.unexpected += 1
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise CheckFailed("exit %d, expected %d: %s"
                              % (proc.returncode, expected_exit, " ".join(tail)))
        return {"exit": proc.returncode, "summary": summary_fields(out)}

    def _job(self, key, argv, expected_exit=0):
        return Job(key, lambda: self._invoke(key, argv, expected_exit))

    def _rerun_job(self, original_key, argv):
        key = original_key + ":rerun"

        def run():
            out = self._invoke(key, argv, 0)
            if not same_bytes(self._out_dir(original_key), self._out_dir(key)):
                raise CheckFailed("rerun of %s is not byte-identical" % original_key)
            return out
        return Job(key, run)

    def jobs(self):
        br = {}
        for name in PAIRS:
            br[name] = ["br-mean", "--grid", self.BR_GRID,
                        "--seed", str(derive_seed(self.seed, name)),
                        "--config", self.configs[name]]
        out = [self._job("br-mean:" + name, argv) for name, argv in br.items()]
        out += [
            # a window whose kernel passes the tail-mass check (exit 0)
            self._job("kernel-l1", ["kernel-l1", "--grid", "512,60", "--l", "3",
                                    "--k-max", "8"]),
            self._job("maximal-growth", ["maximal-growth", "--Ns", "8,16,32,64"]),
            self._job("decompose", ["decompose", "--delta", "0.015625",
                                    "--config", self.configs["rotated-disk"]]),
            self._job("tile", ["tile", "--delta", "0.015625"]),
            self._job("mult-norm", ["mult-norm"]),
        ]
        rng = random.Random(derive_seed(self.seed, "order"))
        rng.shuffle(out)
        # the byte-identity rerun goes somewhere after its original
        first = [j.key for j in out].index("br-mean:disk-iso")
        out.insert(rng.randint(first + 1, len(out)),
                   self._rerun_job("br-mean:disk-iso", br["disk-iso"]))
        return out
