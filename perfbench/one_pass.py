"""One timed pass of ``cdmos solve`` in a fresh interpreter.

    python3 perfbench/one_pass.py SRC PROBLEM OUT MODE [CLI-ARG ...]

SRC is the directory holding the ``cdmos`` package to load, PROBLEM the
problem file, OUT where the JSON result goes, and MODE one of ``setup``
(stop after the set-up measurement), ``solve`` or ``trace``.  The CLI-ARGs
are passed to ``cdmos.cli.main``.

The pass measures two intervals:

* ``setup_s``: importing ``cdmos.cli`` and parsing the problem file;
* ``solve_s``: the call ``cdmos.cli.main(CLI-ARGs)`` until it returns.

In ``trace`` mode, spans are installed between the two (see spans.py) and
written with the result once the solve has returned.  Only ``sys`` and
``time`` are imported before set-up is timed, so the harness preloads
nothing that ``cdmos`` imports.
"""

import sys
import time

if __name__ == "__main__":
    src, problem, out, mode = sys.argv[1:5]
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import cdmos.cli as cli
    with open(problem) as fh:
        cli.parse_problem(fh.read())
    result = {"setup_s": time.perf_counter() - t0}

    import json
    import os
    import resource
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: loaded cdmos from {cli.__file__}, not from {src}",
              file=sys.stderr)
        sys.exit(3)
    if mode != "setup":
        rec = None
        if mode == "trace":
            import spans
            rec = spans.Recorder()
            result["missing"] = spans.install(rec)
        t0 = time.perf_counter()
        if rec is None:
            rc = cli.main(argv)
        else:
            rc = rec.call(spans.ROOT, cli.main, argv)
        result["solve_s"] = time.perf_counter() - t0
        result["rc"] = rc
        if rec is not None:
            result["spans"] = rec.spans
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             * 1024 / 1e6)
    with open(out, "w") as fh:
        json.dump(result, fh)
