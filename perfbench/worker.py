"""The benchmark's measuring worker: one fresh, single-threaded process.

    python3 worker.py MANIFEST

MANIFEST (JSON) names the cmreg source directory, the jobs (name and argv
of `cmreg compute`), the seconds to measure, whether to trace, and the file
to write the results to.  The worker is a closed-loop client: it calls
`cmreg.cli.run(argv, out, err)` in-process for one job at a time and passes
over the job list while one more pass would end less than half a pass after
the seconds (at least one pass).  With tracing, untraced and traced passes alternate.

Each round of passes runs pinned to the next CPU the worker may use, in
turn.  On a shared host each CPU has spells of seconds to a minute in which
another tenant slows it, and they seldom coincide, so every job gets
attempts on every CPU and its fastest attempt is one on an undisturbed CPU.
"""

import gc
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

from tracer import Tracer, layer_metrics


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code, error = cli.run(argv, out, err), None
    except Exception:
        code, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "exit": code, "error": error, "stdout": out.getvalue()}


def run_pass(cli, jobs, tracer=None):
    gc.collect()
    results = []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["name"]
        results.append(run_job(cli, job["argv"]))
    return {"seconds": time.perf_counter() - start, "jobs": results}


def save_spans(path, spans):
    """Append spans as JSON lines; a kept basis is written as its length."""
    with open(path, "a", encoding="utf-8") as fh:
        for s in spans:
            note = len(s[-1]) if isinstance(s[-1], list) else s[-1]
            fh.write(json.dumps(s[:-1] + [note]) + "\n")


def main(manifest_path):
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    src = os.path.realpath(manifest["src"])
    sys.path.insert(0, src)
    import cmreg
    import cmreg.cli as cli
    import cmreg.fields

    if not os.path.realpath(cmreg.__file__).startswith(src + os.sep):
        raise SystemExit("cmreg imported from %s, not from %s" % (cmreg.__file__, src))

    jobs = manifest["jobs"]
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    tracer = Tracer() if manifest["trace"] else None
    untraced, traced, layers = [], [], []
    while True:
        os.sched_setaffinity(0, {cpus[len(untraced) % len(cpus)]})
        last = [run_pass(cli, jobs)]
        untraced.append(last[0])
        if tracer is not None:
            with tracer:
                last.append(run_pass(cli, jobs, tracer))
            traced.append(last[1])
            spans = tracer.take()
            layers.append(layer_metrics(spans))
            save_spans(manifest["spans"], spans)
        # stop unless one more round would end less than half a round past
        # the seconds, so that a run measures about that long
        round_s = sum(p["seconds"] for p in last)
        if time.perf_counter() - start + round_s / 2 > manifest["seconds"]:
            break

    mpq = cmreg.fields._mpq
    result = {
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": "%s.%s" % (mpq.__module__, mpq.__name__),
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
    }
    with open(manifest["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
