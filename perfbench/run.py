#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (a CMake package over ../src) into
$CARGO_TARGET_DIR or .bench_build/, generates the workload's CSVs for the
seed (cached by workload, seed and size), runs the measured process and
relays its output. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when any
operation failed, the build failed or the sources are missing.

--smoke runs every workload at a tiny size, traced and untraced, and checks
that each metric named in BENCHMARK.json is emitted with its unit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Generated input sizes: rows of the discovery pair, and rows of the bulk
# source the formula is replayed over. README.md explains the choices.
SIZES = {
    "citeseer": {"rows": 30000, "bulk_rows": 200000},
    "fullname": {"rows": 50000, "bulk_rows": 400000},
    "parts-bulk": {"rows": 4000, "bulk_rows": 500000},
}
SMOKE_SIZES = {
    "citeseer": {"rows": 4000, "bulk_rows": 8000},
    "fullname": {"rows": 3000, "bulk_rows": 8000},
    "parts-bulk": {"rows": 1500, "bulk_rows": 20000},
}
# Seconds one invocation may take once the programs are built; the first
# invocation in a checkout may take longer, because it builds.
RUN_BUDGET_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build(out):
    """Configures (once) and builds the two benchmark programs."""
    cmake_dir = os.path.join(out, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", cmake_dir, "--target", "perfbench_run",
           "perfbench_gen", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return cmake_dir


def source_id():
    """The commit when ROOT is a clean git work tree; the commit plus a digest
    of the sources built when src/ or perfbench/ has uncommitted changes;
    else the digest alone."""
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if rev.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            status = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--",
                 "src", "perfbench"],
                capture_output=True, text=True, timeout=10)
            if status.returncode == 0 and not status.stdout.strip():
                return lines[1]
            return lines[1] + "-dirty-" + source_digest()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest()


def source_digest():
    """A digest of the files under src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def clean_env(out):
    """The measured process sees no MCSM_* overrides and spills in-tree."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCSM_")}
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def generate(bin_dir, out, workload, seed, size, env):
    name = "%s-s%d-r%d-b%d" % (workload, seed, size["rows"], size["bulk_rows"])
    data = os.path.join(out, "data", name)
    if os.path.exists(os.path.join(data, "meta.txt")):
        return data
    cmd = [os.path.join(bin_dir, "perfbench_gen"), "--workload", workload,
           "--seed", str(seed), "--rows", str(size["rows"]),
           "--bulk-rows", str(size["bulk_rows"]), "--out", data]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return data


def measure(bin_dir, data, args, commit, env, deadline, extra=()):
    """Runs the measured process; returns (exit code, stdout lines)."""
    cmd = [os.path.join(bin_dir, "perfbench_run"), "--workload", args.workload,
           "--data", data, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--seed", str(args.seed),
           "--commit", commit] + list(extra)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("measured process killed after %.0f s" % timeout)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def prepare(workload, seed, size):
    """Builds the programs and the inputs; returns (bin_dir, data, env,
    deadline), where the deadline bounds the rest of the invocation."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no mcsm sources next to perfbench/ (expected %s)" %
            os.path.join(ROOT, "src"))
        return None
    out = build_dir()
    bin_dir = build(out)
    if bin_dir is None:
        log("build failed")
        return None
    deadline = time.monotonic() + RUN_BUDGET_S
    env = clean_env(out)
    data = generate(bin_dir, out, workload, seed, size, env)
    if data is None:
        log("input generation failed")
        return None
    return bin_dir, data, env, deadline


def run_once(args):
    prepared = prepare(args.workload, args.seed, SIZES[args.workload])
    if prepared is None:
        return 2
    bin_dir, data, env, deadline = prepared
    code, lines = measure(bin_dir, data, args, source_id(), env, deadline)
    for line in lines:
        print(line)
    if code == 0 and parse_result(lines) is None:
        log("measured process printed no result line")
        return 1
    return code


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    commit = source_id()
    for workload in SIZES:
        prepared = prepare(workload, 1, SMOKE_SIZES[workload])
        if prepared is None:
            return 2
        bin_dir, data, env, deadline = prepared
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=0.1,
                                      trace=trace)
            code, lines = measure(bin_dir, data, args, commit, env, deadline,
                                  ["--min-reps", "1"])
            tag = "%s trace=%d" % (workload, trace)
            found = smoke_problems(code, parse_result(lines), expected[trace])
            log("smoke %s: %s" % (tag, "ok" if not found else "FAILED"))
            problems += ["%s: %s" % (tag, p) for p in found]
    for p in problems:
        log("smoke: " + p)
    return 1 if problems else 0


def smoke_problems(code, result, expected):
    """What is wrong with one smoke run, given the metrics it must emit."""
    if code != 0 or result is None or not result["correct"] or \
            result["failed"] != 0 or result["attempted"] < 1:
        return ["exit %d, result %s" % (code, result)]
    problems = []
    metrics = result["metrics"]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing %s" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("%s has unit %s, BENCHMARK.json says %s" %
                            (m["name"], got.get("unit"), m["unit"]))
    names = {m["name"] for m in expected}
    for name in sorted(set(metrics) - names):
        problems.append("%s is not in BENCHMARK.json" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-input self-test of every workload")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
