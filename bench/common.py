"""Definitions shared by the workloads; imports nothing numerical."""

import collections
import hashlib
import math
import os

# Job: key names the job in references and reports; run() does the work and
# returns the outputs that the reference comparison checks.
Job = collections.namedtuple("Job", "key run")


class CheckFailed(Exception):
    """A seed-independent check on a job's output failed."""


# (domain config, dilation matrix A) as the quasibr JSON config spells them
PAIRS = {
    "disk-iso": ({"type": "disk", "radius": 10.0}, [[1.0, 0.0], [0.0, 1.0]]),
    "disk-aniso": ({"type": "disk", "radius": 10.0}, [[1.0, 0.0], [0.0, 2.0]]),
    "superellipse": ({"type": "superellipse", "a": 10.0, "b": 10.0, "p": 4.0},
                     [[1.0, 0.0], [0.0, 1.0]]),
    "hexagon": ({"type": "regular-polygon", "k": 6, "circumradius": 12.0,
                 "phase": math.pi / 2}, [[1.0, 0.0], [0.0, 1.0]]),
    # complex eigenvalues 1 +- 0.5i: orbits spiral
    "spiral": ({"type": "disk", "radius": 10.0}, [[1.0, -0.5], [0.5, 1.0]]),
}


def derive_seed(seed, *parts):
    """A 32-bit seed for one input, fixed by the workload seed and a label."""
    blob = repr((seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "little")


def child_env(root):
    """Environment for a child process that imports quasibr from root/src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env
