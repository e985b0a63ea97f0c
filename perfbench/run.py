#!/usr/bin/env python3
"""Run one workload of the profisched benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the library from
../src) into .bench_build/cmake on first use, runs it, checks its output
digest against perfbench/digests.json when the seed has a committed one, and
writes the full result (host block included) to .bench_build/results/. The
last line on stdout is the result as one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def jobs():
    return str(min(4, len(os.sched_getaffinity(0))))


def build():
    """Configure once, then bring the benchmark binary and the CLI up to date."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs(), "--target", "perfbench",
                      "profisched_cli"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                if "-S" in cmd:  # never leave a half-configured tree behind
                    shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                fail(f"build step failed: {' '.join(cmd)} (see {log_path})")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("model name", "Model")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest():
    """sha256 over every file the benchmark builds from, so results of
    different code never pass for the same commit."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    h.update(open(os.path.join(ROOT, "CMakeLists.txt"), "rb").read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def host_block(binary_host):
    host = {"cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0))}
    host.update(binary_host)
    host["commit"] = commit()
    host["source_sha256"] = source_digest()
    return host


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or bench["run_seconds"]

    build()
    with open(os.path.join(HERE, "digests.json")) as f:
        expected = json.load(f).get(args.workload, {}).get(str(args.seed))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--work", os.path.join(BUILD_ROOT, "work", tag)]
    if expected:
        cmd += ["--expect", expected]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD_ROOT, "traces", tag + ".tsv")]
    started = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(os.path.join(BUILD_ROOT, "work", tag), ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    raw = json.loads(lines[-1])

    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    if missing:
        fail(f"perfbench did not report {', '.join(missing)}")
    metrics = {m["name"]: raw["metrics"][m["name"]] for m in wanted}
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=seconds, passes=raw["passes"], digest=raw["digest"],
                  expected_digest=expected, wall_s=time.time() - started,
                  host=host_block(raw["host"]))
    os.makedirs(os.path.join(BUILD_ROOT, "results"), exist_ok=True)
    out = os.path.join(BUILD_ROOT, "results", tag + ".json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print(f"digest {raw['digest']} (committed: {expected or 'none for this seed'}); "
          f"result written to {os.path.relpath(out, ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
