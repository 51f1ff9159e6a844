#!/usr/bin/env python3
"""Repository benchmark: builds repo_bench from source and runs one workload.

    python3 perfbench/run.py --workload put-1k --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
repository's libraries plus perfbench/repo_bench.cpp into .bench_build/
(RelWithDebInfo, like the root project); later calls rebuild incrementally.
repo_bench's output is passed through: an "# env" line, for --trace 1 a span
breakdown, and last the JSON result line.

Steadiness summary (not used by single runs):

    python3 perfbench/run.py --workload put-1k --seed 1 --seconds 20 --trace 0 --repeat 10

runs seeds seed..seed+N-1 one after another and prints, per metric, the
median, the quartiles, the interquartile range as a share of the median and
the max/min ratio.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "repo_bench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: repository sources (src/) not found next to perfbench/")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "repo_bench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def source_id():
    """Git commit when the checkout is a repository, else a hash of the sources."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = r.stdout.split()
        if r.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except OSError:
        pass
    h = hashlib.sha1()
    for base in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def run_once(args, seed, src):
    data_dir = os.path.join(BUILD, "data-%d-%d" % (os.getpid(), seed))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--source-id", src]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return None, ""
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log("perfbench: repo_bench exited with %d" % r.returncode)
        return None, r.stdout
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: last line is not a JSON result")
        return None, r.stdout
    return result, r.stdout


def summarize(results):
    names = list(results[0]["metrics"].keys())
    print("%-34s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "iqr/med", "max/min"))
    for n in names:
        vals = [r["metrics"][n]["value"] for r in results]
        unit = results[0]["metrics"][n]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        lo, hi = min(vals), max(vals)
        mm = hi / lo if lo > 0 else float("nan")
        print("%-34s %12.6g %12.6g %12.6g %8.3f %8.3f  %s" % (n, med, q1, q3, spread, mm, unit))
    print("correct: %s; failed ops: %d of %d" % (
        all(r["correct"] for r in results), sum(r["failed"] for r in results),
        sum(r["attempted"] for r in results)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness summary over this many seeds")
    args = ap.parse_args()

    if not build():
        return 2
    src = source_id()
    if args.repeat <= 0:
        result, out = run_once(args, args.seed, src)
        sys.stdout.write(out)
        sys.stdout.flush()
        return 0 if result is not None else 1

    results = []
    for i in range(args.repeat):
        result, out = run_once(args, args.seed + i, src)
        if result is None:
            sys.stdout.write(out)
            return 1
        env = next((l for l in out.splitlines() if l.startswith("# env ")), "")
        log("seed %d: %s" % (args.seed + i, env[6:]))
        log("  " + " ".join("%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items()))
        results.append(result)
    summarize(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
