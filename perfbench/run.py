#!/usr/bin/env python3
"""End-to-end benchmark of the PyPIM stack.

Builds the benchmark program (perfbench.cpp against the library in
../src) under .bench_build/, runs one workload, checks the architectural
counters it reports against expected.json, and prints the result as the
last line of standard output:

    python3 perfbench/run.py --workload cordic --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics. README.md describes workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cordic", "sort", "io", "fleet")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "src" / "pim" / "pypim.hpp").is_file():
        fail(f"no PyPIM sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode:
        fail("build failed")


def source_digest():
    """SHA-256 over the library sources and this benchmark."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    build()

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    if r.returncode != 0 or not r.stdout.strip():
        fail(f"benchmark program exited with {r.returncode}")
    rec = json.loads(r.stdout.strip().splitlines()[-1])

    # Architecture guard: the simulated work of a warm pass is fixed by
    # the program and the modelled design, never by the host.
    problems = []
    if not rec["arch_stable"]:
        problems.append("architectural counters differ between passes")
    if rec["arch"] != expected[args.workload]:
        problems.append(f"architectural counters {rec['arch']} differ "
                        f"from expected.json {expected[args.workload]}")

    names = {m["name"]: m["unit"] for m in
             spec["per_layer" if args.trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in rec["metrics"].items()}
    if got != names:
        problems.append(f"metrics {sorted(got.items())} do not match "
                        f"BENCHMARK.json {sorted(names.items())}")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "engine_config": rec["config"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": "Release",
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "cold_starts": rec["cold_starts"],
        "warm_passes": rec["warm_passes"],
        "pass_wall_s": rec["pass_wall_s"],
        "arch": rec["arch"],
        "cold_arch": rec["cold_arch"],
    }
    print(json.dumps({"record": record}))

    correct = not problems and rec["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
