#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload table3_global --seed 2001 \
        --seconds 45 --trace 0

Run from the root of a source tree.  Builds the mapper library, the
server and the perfbench binary from source (Release, under
$CARGO_TARGET_DIR or .bench_build), runs its self-tests, then the
workload.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Results with their header and the traced run's spans land in
.perfbench_out/.  Exits non-zero on a build failure, a failed self-test, a
wrong answer, or a result that does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table3_global", "table3_complete", "serve_mix")
OUT_DIR = ".perfbench_out"  # relative to ROOT; keeps socket paths short
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def source_digest():
    """Identity of the sources measured: a hash over the mapper's tree."""
    digest = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in ("src", "examples"):
        paths.extend(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_benchmark(argv):
    """Run perfbench in its own process group, so a timeout also stops the
    server it spawned."""
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        return None, 1
    return out, child.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        parser.error("--seconds must be in [1, 600] and --seed >= 0")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: no mapper sources next to", HERE)
        return 2

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    started = time.monotonic()
    if not build(build_dir):
        log("perfbench: build failed")
        return 1
    log(f"perfbench: build ready in {time.monotonic() - started:.1f} s")
    selftest = subprocess.run([str(build_dir / "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("perfbench: self-tests failed")
        return 1

    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    out, code = run_benchmark([
        str(build_dir / "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", str(build_dir / "gmm" / "mapper_serve"),
        "--out", OUT_DIR, "--commit", source_digest()])
    if out is None:
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: the run printed no result line")
        return 1
    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if expected is not None and got != expected:
        log("perfbench: metrics differ from BENCHMARK.json:",
            sorted(set(expected.items()) ^ set(got.items())))
        return 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
