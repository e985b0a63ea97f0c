#!/usr/bin/env python3
"""Flat gprof profile of one workload's `profisched` CLI run.

    python3 perfbench/profile.py [--workload sweep_edf] [--seed 1]

Builds the CLI a second time with `-pg -fno-inline-functions` in its own
directory (.bench_build/gprof; the timed build is never instrumented), runs
the workload's CLI command lines (the ones test_bench.py checks against the
in-process run), and prints `gprof -b -p`. Workloads whose CLI form is
several processes (shard_cache) profile the last one only. Prints the
first LINES lines of the flat profile.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

GPROF_DIR = os.path.join(run.BUILD_ROOT, "gprof")
FLAGS = "-pg -fno-inline-functions"
LINES = 25


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="sweep_edf")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if not shutil.which("gprof"):
        run.fail("gprof not found")

    run.build()
    work = os.path.join(GPROF_DIR, "run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "cli"))
    emitted = subprocess.run([run.BINARY, "--workload", args.workload, "--seed", str(args.seed),
                              "--emit", work, "--work", os.path.join(work, "tmp")],
                             capture_output=True, text=True, check=True)
    commands = json.loads(emitted.stdout.strip().splitlines()[-1])["cli"]

    build_dir = os.path.join(GPROF_DIR, "cmake")
    with open(os.path.join(GPROF_DIR, "build.log"), "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
                            f"-DCMAKE_CXX_FLAGS={FLAGS}", "-DCMAKE_EXE_LINKER_FLAGS=-pg"],
                           stdout=log, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", run.jobs(), "--target",
                        "profisched_cli"], stdout=log, stderr=subprocess.STDOUT, check=True)
    cli = os.path.join(build_dir, "profisched", "profisched")
    for argv in commands:  # gmon.out lands in cwd; the last command's survives
        subprocess.run([cli] + argv, cwd=work, stdout=subprocess.DEVNULL, check=True)
    print(f"$ profisched {' '.join(commands[-1])}")
    flat = subprocess.run(["gprof", "-b", "-p", cli, os.path.join(work, "gmon.out")],
                          capture_output=True, text=True, check=True).stdout
    # Demangled template names run to kilobytes; the head of each is enough.
    print("\n".join(line[:150] for line in flat.splitlines()[:LINES]))


if __name__ == "__main__":
    main()
