"""Stored reference outputs and their comparison.

A reference file holds, per workload seed, the outputs of every job as the
seed code produced them: ``{"seeds": {"<seed>": {"<job key>": outputs}}}``.
For a seed with no stored values, the outputs that were identical for every
stored seed are seed-independent and are still checked.
"""

import json
import math
import os

# "the same numbers beyond rounding"
RTOL = 1e-9
ATOL = 1e-12


def load(path):
    if not os.path.exists(path):
        return {"seeds": {}}
    with open(path) as fh:
        return json.load(fh)


def expected_for(ref, seed):
    """(expected outputs per job key, description of where they came from)."""
    seeds = ref["seeds"]
    if str(seed) in seeds:
        return seeds[str(seed)], "stored for seed %d" % seed
    if len(seeds) < 2:
        return {}, "no stored reference for seed %d" % seed
    stored = list(seeds.values())
    common = {key: val for key, val in stored[0].items()
              if all(other.get(key) == val for other in stored[1:])}
    return common, ("seed %d not stored: checked the %d seed-independent "
                    "job outputs of %d stored seeds" % (seed, len(common), len(stored)))


def mismatches(observed, expected, path=""):
    """Paths where observed differs from expected beyond rounding."""
    if isinstance(expected, dict):
        if not isinstance(observed, dict):
            return [path or "/"]
        out = []
        for key, val in expected.items():
            sub = "%s/%s" % (path, key)
            if key not in observed:
                out.append(sub + " missing")
            else:
                out.extend(mismatches(observed[key], val, sub))
        return out
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            return [path + " length"]
        out = []
        for i, (o, e) in enumerate(zip(observed, expected)):
            out.extend(mismatches(o, e, "%s[%d]" % (path, i)))
        return out
    if isinstance(expected, float) and isinstance(observed, (int, float)) \
            and not isinstance(observed, bool):
        if math.isclose(observed, expected, rel_tol=RTOL, abs_tol=ATOL) \
                or (math.isnan(observed) and math.isnan(expected)):
            return []
        return ["%s %r != %r" % (path, observed, expected)]
    if observed != expected or type(observed) is not type(expected):
        return ["%s %r != %r" % (path, observed, expected)]
    return []


def record(path, seed, outputs):
    """Store outputs for a seed that has none yet; never overwrite."""
    ref = load(path)
    if str(seed) in ref["seeds"]:
        raise ValueError("reference for seed %d already stored in %s"
                         % (seed, path))
    ref["seeds"][str(seed)] = outputs
    ref["seeds"] = dict(sorted(ref["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=False)
        fh.write("\n")
