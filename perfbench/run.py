"""The cmreg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Makes the workload's ideal files from the seed, computes every job's
expected answer by a second route, then runs the jobs in a fresh worker
process (see worker.py) for S seconds and checks every answer.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from traced passes, which alternate with untraced passes.
Everything the run writes goes under .bench_build/perfbench/ in the
checkout.  See README.md in this directory.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import median_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

# seconds the worker may run beyond --seconds, for its last pass; a run with
# --seconds 36, as BENCHMARK.json sets it, then ends within 180 s
TIME_MARGIN = 135.0
SETUP_SAMPLES = 10  # fresh interpreters timed before the worker, and again after


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="seconds to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(samples):
    """Append the times from starting a fresh interpreter until cmreg.cli is
    imported, for several starts after one that fills the bytecode cache."""
    code = "import cmreg.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    env = worker_env()
    for k in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT)
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line != b"ready\n":
            raise RuntimeError("a fresh interpreter could not import cmreg.cli")
        if k:
            samples.append(ready - start)


def run_worker(manifest, timeout):
    path = os.path.join(manifest["dir"], "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), path], env=worker_env(), cwd=ROOT)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("the worker ran past the time limit")
    if code != 0:
        raise RuntimeError("the worker exited with code %d" % code)
    with open(manifest["out"], encoding="utf-8") as fh:
        return json.load(fh)


def best_times(passes):
    """Each job's fastest attempt over the passes."""
    return [min(p["jobs"][k]["seconds"] for p in passes) for k in range(len(passes[0]["jobs"]))]


def check_attempt(expect, job, attempt):
    """None if the attempt gave the expected answer, else why it failed."""
    if attempt["error"] is not None:
        return "exception: " + attempt["error"].strip().splitlines()[-1]
    if attempt["exit"] != 0:
        return "exit code %s" % attempt["exit"]
    if job["answer"] is None:
        return "no expected answer: " + job["answer_error"]
    try:
        answer = expect.job_answer(attempt["stdout"], job["method"])
    except (ValueError, KeyError) as exc:
        return "unreadable output: %r" % exc
    problem = expect.answer_problem(job["answer"], answer)
    return None if problem is None else "wrong answer: " + problem


def stamp(args, result):
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "cmreg", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass  # no git, or not a git checkout: the source hash identifies the code
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": result["python"],
        "backend": result["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "cmreg", "cli.py")):
        sys.exit("error: no cmreg source under %s" % SRC)
    sys.path.insert(0, SRC)
    import expect
    jobs = workloads.jobs(args.workload, args.seed)

    work = os.path.join(WORK, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for job in jobs:
        path = os.path.join(work, job["name"] + ".ideal")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(job["text"])
        job["argv"] = ["compute", "--input", path, "--json", "--seed", "0"] + job["args"]
        try:
            job["answer"], job["answer_error"] = expect.expected_answer(job), None
        except Exception as exc:  # the job then fails every attempt, with this reason
            job["answer"], job["answer_error"] = None, "%s: %s" % (type(exc).__name__, exc)

    setup_samples = []
    if not args.trace:
        measure_setup(setup_samples)
    manifest = {
        "dir": work,
        "src": SRC,
        "jobs": [{"name": j["name"], "argv": j["argv"]} for j in jobs],
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "out": os.path.join(work, "worker.json"),
        "spans": os.path.join(work, "spans.jsonl"),
    }
    result = run_worker(manifest, args.seconds + TIME_MARGIN - (time.perf_counter() - started))
    if not args.trace:
        measure_setup(setup_samples)

    first = result["untraced"][0]["jobs"]
    # every attempt is checked; a traced attempt must also print exactly what
    # the untraced attempt of the same job printed
    failures = {}
    attempted = failed = 0
    for p in result["untraced"] + result["traced"]:
        for job, attempt in zip(jobs, p["jobs"]):
            attempted += 1
            why = check_attempt(expect, job, attempt)
            if why is not None:
                failures.setdefault(job["name"], why)
                failed += 1
    identical = all(
        p["jobs"][k]["stdout"] == first[k]["stdout"]
        for p in result["untraced"] + result["traced"]
        for k in range(len(jobs))
    )
    correct = identical and all(j["defect"] for j in jobs if j["name"] in failures)

    # a job's time is its fastest attempt in the run: the host's speed swings
    # for seconds at a time, and another process can only slow a job down
    best = best_times(result["untraced"])
    if args.trace:
        metrics = median_metrics(result["layers"])
        metrics["trace_overhead_frac"] = {
            "value": sum(best_times(result["traced"])) / sum(best) - 1.0,
            "unit": "frac",
        }
    else:
        metrics = {
            "wall_s": {"value": sum(best), "unit": "s"},
            "job_p50_s": {"value": statistics.median(best), "unit": "s"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }

    info = stamp(args, result)
    print("cmreg benchmark: " + ", ".join("%s=%s" % kv for kv in info.items()))
    print(
        "%d jobs x %d untraced + %d traced passes; %d of %d attempts failed (fail_frac %.4f)"
        % (len(jobs), len(result["untraced"]), len(result["traced"]), failed, attempted, failed / attempted)
    )
    passes = [p["seconds"] for p in result["untraced"]]
    print(
        "untraced pass: median %.4f s, fastest %.4f s, slowest %.4f s"
        % (statistics.median(passes), min(passes), max(passes))
    )
    for job, t in zip(jobs, best):
        print("  job %-12s fastest of %d attempts %.4f s" % (job["name"], len(result["untraced"]), t))
    if not args.trace:
        print("job_p50_s is the median of %d job times; setup_s of %d starts" % (len(best), len(setup_samples)))
    for job in jobs:
        if job["name"] in failures:
            kind = "known defect" if job["defect"] else "UNEXPECTED"
            print("FAILED %s (%s): %s" % (job["name"], kind, failures[job["name"]]))
    if not identical:
        print("FAILED: the CLI output differed between passes" + (" or under tracing" if args.trace else ""))
    for name, m in metrics.items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"stamp": info, "failures": failures, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
