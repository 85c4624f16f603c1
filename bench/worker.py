"""One untraced pass of a workload in a fresh interpreter.

Usage: python3 bench/worker.py JOBS_JSON

JOBS_JSON holds a list of `tda` argument lists. The worker times the
import of `tda.cli`, then runs the jobs one after another through
`tda.cli.main(argv)`, and prints one JSON line: the import time, the wall
time of all jobs, the peak RSS of this process, and each job's exit code
and standard output.
"""

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout


def main(jobs_path: str) -> None:
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)

    t0 = time.perf_counter()
    import tda.cli

    setup_s = time.perf_counter() - t0

    results = []
    t0 = time.perf_counter()
    for argv in jobs:
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = tda.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing job is a failed job, not a failed pass
            code = "exception: " + traceback.format_exc(limit=3)
        results.append({"code": code, "stdout": buf.getvalue()})
    wall_s = time.perf_counter() - t0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "module": tda.cli.__file__,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "jobs": results,
    }))


if __name__ == "__main__":
    main(sys.argv[1])
