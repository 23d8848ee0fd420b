"""Run one quasibr command with the benchmark's tracer installed.

Usage: python3 bench/cli_child.py SUMMARY_JSON <quasibr arguments...>

Times a fresh-process ``import quasibr.cli``, installs the tracer, calls
``quasibr.cli.main`` with the remaining arguments, writes the span summary
(and the spans, next to it as CSV) and exits with main's return code.
"""

import json
import os
import sys
from time import perf_counter


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import quasibr.cli
    import_s = perf_counter() - t0
    import tracer
    tr = tracer.Tracer().install()
    tr.job = argv[0] if argv else None
    try:
        rc = quasibr.cli.main(argv)
    finally:
        tr.uninstall()
        summary = tr.summary()
        summary["import_s"] = [import_s]
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)
        tr.write_spans(os.path.splitext(summary_path)[0] + ".spans.csv")
    return rc


if __name__ == "__main__":
    sys.exit(main())
