#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test          # build and run the benchmark's tests

Run from the root of a checkout. The first call configures and builds
perfbench/ (and with it the program's libraries from src/) into the directory
named by CARGO_TARGET_DIR, default .bench_build; later calls rebuild only what
changed. Working files (NVMe swap files, traces, metrics JSONL) go under
.bench_work/. The last line of standard output is the result JSON; every other
line, and all build output, goes to standard error or precedes it.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / target


def declared_names(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    if args.test:
        exe = build("perfbench_tests")
        sys.exit(subprocess.run([str(exe)], cwd=exe.parent).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    start = time.monotonic()
    exe = build("zibench")
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    budget = max(30.0, RUN_TIMEOUT_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {budget:.0f} s", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"workload exited with code {proc.returncode}", 1)

    # The metric names and units are declared once, in BENCHMARK.json; a
    # result that drifts from them is an error, not a silent rename.
    result = json.loads(lines[-1])
    names = declared_names(bool(args.trace))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if names is not None and got != names:
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        units = sorted(k for k in set(names) & set(got) if names[k] != got[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
