#!/usr/bin/env python3
"""Benchmark entry point: build the perfbench Go command and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-1ch --seed 1 --seconds 30 --trace 0

It builds perfbench/ (a Go module of its own that imports the simulator) into
.bench_build/, runs the chosen workload in a fresh process, prints the report lines, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list.

    python3 perfbench/run.py --steadiness --runs 5 [--workloads a,b] [--seconds 30]

runs two sets of runs of the same code (every run with its own seed) and
prints, for every (workload, metric), each set's median and quartiles, the
spread (quartile distance / median) and the relative gap between the two
medians, next to the metric's bound. Every build, cache and scratch file stays
under .bench_build/ in the checkout.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
CHILD_TIMEOUT_S = 170
WORKLOADS = ("sweep-1ch", "rubixd-mixed")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout(root):
    """The benchmark builds the simulator from source: refuse to run without it."""
    for rel in ("go.mod", "internal/sim", "internal/server", "perfbench/go.mod", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, rel)):
            fail("%s not found: run from the root of a full checkout of the repository" % rel)


def build_env(root):
    """Go toolchain environment confined to the checkout's build directory."""
    b = os.path.join(root, BUILD_DIR)
    env = dict(os.environ)
    env.update({
        "HOME": os.path.join(b, "home"),
        "XDG_CONFIG_HOME": os.path.join(b, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(b, "home", ".cache"),
        "GOCACHE": os.path.join(b, "gocache"),
        "GOPATH": os.path.join(b, "gopath"),
        "GOMODCACHE": os.path.join(b, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(b, "tmp"),
        "TMPDIR": os.path.join(b, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    for d in ("home", "gocache", "gopath", "tmp", "work"):
        os.makedirs(os.path.join(b, d), exist_ok=True)
    return env


def build(root, env):
    if shutil.which("go", path=env.get("PATH")) is None:
        fail("the go toolchain is not on PATH")
    out = os.path.join(root, BUILD_DIR, "perfbench")
    proc = subprocess.run(["go", "build", "-o", out, "."], cwd=os.path.join(root, "perfbench"),
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        fail("build failed:\n" + proc.stdout, 1)
    return out


def run_child(binary, root, env, args):
    """Run the benchmark binary in a fresh process; return (exit code, stdout lines)."""
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-golden", os.path.join("perfbench", "golden.json"),
           "-work", os.path.join(BUILD_DIR, "work")]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload exceeded %d s" % CHILD_TIMEOUT_S, 1)
    return proc.returncode, proc.stdout.splitlines()


def run_once(args):
    root = os.getcwd()
    check_checkout(root)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    env = build_env(root)
    binary = build(root, env)
    code, lines = run_child(binary, root, env, args)
    if code != 0 or not lines:
        for line in lines:
            print(line)
        fail("workload %s exited with code %d" % (args.workload, code), 1)
    try:
        child = json.loads(lines[-1])
    except ValueError:
        fail("workload printed no result line", 1)
    for line in lines[:-1]:
        print(line)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    got = child["metrics"]
    metrics = {}
    correct = child["failed"] == 0 and child["attempted"] > 0
    for m in wanted:
        v = got.get(m["name"])
        if v is None or v["unit"] != m["unit"] or not math.isfinite(v["value"]):
            print("missing or malformed metric %s: %r" % (m["name"], v))
            correct = False
            continue
        metrics[m["name"]] = {"value": v["value"], "unit": v["unit"]}
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))


# --- steadiness report --------------------------------------------------------

def parse_report(lines):
    """Every 'metric <name> <value> <unit>' line of one run."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            try:
                out[parts[1]] = (float(parts[2]), parts[3])
            except ValueError:
                pass
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def steadiness(args):
    root = os.getcwd()
    check_checkout(root)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    workloads = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    sets = [{}, {}]
    host = None
    for si in range(2):
        for i in range(args.runs):
            for w in workloads:
                seed = args.seed + 1000 * si + i
                cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.splitlines()
                if proc.returncode != 0 or not lines:
                    fail("steadiness run %s seed %d failed" % (w, seed), 1)
                res = json.loads(lines[-1])
                host = host or next((l for l in lines if l.startswith("host ")), None)
                rep = parse_report(lines[:-1])
                for name, m in res["metrics"].items():
                    rep[name] = (m["value"], m["unit"])
                rep["failed_ratio"] = (res["failed"] / res["attempted"], "ratio")
                for name, (v, unit) in rep.items():
                    sets[si].setdefault((w, name, unit), []).append(v)
                print("set %d run %d %s seed=%d correct=%s %s" % (
                    si + 1, i + 1, w, seed, res["correct"],
                    " ".join("%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))),
                    flush=True)
    print()
    print(host)
    print("%-13s %-24s %-9s %11s %11s %11s %7s | %11s %11s %11s %7s | %7s %6s" % (
        "workload", "metric", "unit", "A.q1", "A.median", "A.q3", "A.sprd",
        "B.q1", "B.median", "B.q3", "B.sprd", "gap", "bound"))
    worst = {}
    for key in sorted(sets[0]):
        w, name, unit = key
        a, b = sets[0][key], sets[1].get(key, [])
        if not b:
            continue
        qa, qb = quartiles(a), quartiles(b)
        spread = lambda q: (q[2] - q[0]) / abs(q[1]) if q[1] else float("nan")
        gap = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
        bound = bounds.get(name)
        print("%-13s %-24s %-9s %11.5g %11.5g %11.5g %7.3f | %11.5g %11.5g %11.5g %7.3f | %+7.3f %6s" % (
            w, name, unit, qa[0], qa[1], qa[2], spread(qa), qb[0], qb[1], qb[2], spread(qb),
            gap, "%.3f" % bound if bound is not None else "-"))
        if bound is not None:
            worse = -gap if name in higher else gap
            worst[(w, name)] = (max(spread(qa), spread(qb)), worse, bound)
    print()
    print("per gated metric: the larger of the two sets' spreads (setup_s is exempt), and how much "
          "worse set B's median is than set A's (negative = better)")
    for (w, name), (sp, worse, bound) in sorted(worst.items()):
        ok = (name == "setup_s" or sp <= bound) and worse <= bound
        print("%-13s %-20s spread %.3f (bound/3 = %.3f) B worse by %+.3f bound %.3f %s" % (
            w, name, sp, bound / 3, worse, bound, "ok" if ok else "OUT OF BOUND"))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true", help="run two sets of runs and report their spread")
    p.add_argument("--runs", type=int, default=5, help="runs per workload per set (steadiness mode)")
    p.add_argument("--workloads", default="", help="comma-separated workloads (steadiness mode)")
    args = p.parse_args()
    if args.steadiness:
        steadiness(args)
        return
    if not args.workload:
        p.error("--workload is required")
    run_once(args)


if __name__ == "__main__":
    main()
