#!/usr/bin/env python3
"""One-off served-vs-batch probe: per-job wall time of a small sweep
submitted to a running `profisched serve`, against a fresh `profisched sweep`
process for the same flags. Not a workload and not gated; its result is
recorded in perfbench/README.md.

    python3 perfbench/probe_serve.py

A served job is timed from the submit call until STATUS reports it done,
polling with `profisched submit --status` (the shipped `--wait` polls every
200 ms, which would quantize the result). Each shape runs JOBS jobs each way.
Builds the CLI via run.py first.
"""

import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (build() and the build directory)

CLI = os.path.join(run.CMAKE_DIR, "profisched", "profisched")
SHAPES = {
    "1-scenario": ["--scenarios", "1", "--u", "0.5:0.5:1"],
    "small": ["--scenarios", "10", "--masters", "3", "--streams", "4", "--u", "0.2:0.9:4"],
}
JOBS = 20


def served_job(sock, flags):
    t0 = time.perf_counter()
    out = subprocess.run([CLI, "submit", "--socket", sock, "--mode", "sweep"] + flags,
                         capture_output=True, text=True, check=True).stdout
    job = out.split("submitted job ", 1)[1].split()[0]
    while True:
        status = subprocess.run([CLI, "submit", "--socket", sock, "--status"],
                                capture_output=True, text=True, check=True).stdout
        line = next((ln for ln in status.splitlines() if ln.startswith(f"job {job} ")), "")
        state = line.split()[2] if len(line.split()) > 2 else "missing"
        if state not in ("queued", "running"):
            if state != "done":
                raise RuntimeError(f"served job {job} ended {state!r}")
            return time.perf_counter() - t0


def batch_job(flags):
    t0 = time.perf_counter()
    subprocess.run([CLI, "sweep", "--threads", "1"] + flags, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def main():
    run.build()
    work = os.path.join(run.BUILD_ROOT, "probe_serve")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    sock = os.path.join(work, "serve.sock")
    server = subprocess.Popen([CLI, "serve", "--socket", sock, "--threads", "1"],
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + 10
        while not os.path.exists(sock):
            if time.time() > deadline or server.poll() is not None:
                raise RuntimeError("serve did not start")
            time.sleep(0.01)
        for name, flags in SHAPES.items():
            served = [served_job(sock, flags) for _ in range(JOBS)]
            batch = [batch_job(flags) for _ in range(JOBS)]
            print(f"{name:10s} served median {statistics.median(served) * 1e3:7.2f} ms   "
                  f"batch median {statistics.median(batch) * 1e3:7.2f} ms   "
                  f"({JOBS} jobs each)")
    finally:
        subprocess.run([CLI, "submit", "--socket", sock, "--shutdown"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
