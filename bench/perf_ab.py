#!/usr/bin/env python3
"""A/B the repository benchmark: a parent commit against the working tree.

    python3 bench/perf_ab.py --parent HEAD~1 \
        --workloads table3_global,serve_mix --seconds 45

Run from anywhere inside the repository.  Exports the parent commit (git
archive) and the working tree (tracked plus untracked, unignored files)
into a work directory, builds perfbench in each the way perfbench/run.py
does, and prints each build's perfbench::probe_ms address mod 64 and
whether the .text sections of perfbench and mapper_serve are identical
in both builds.  Then runs --pairs ABBA pairs per workload (pair 1 runs
parent then change, pair 2 change then parent, ...) through each tree's
own perfbench/run.py, and tabulates per run the scaled end-to-end
metrics, host.probe_p10_ms and the unscaled measured.* values, with a
per-workload summary: medians, the parent's quartiles, how many pairs
the change won, and a verdict against the metric's BENCHMARK.json bound
(a fraction of the parent's median): "within bound", "WORSE than bound",
or "unresolved" when the parent's quartile spread is wider than the
bound and not every change run reads better than every parent run.  The
same verdict is printed for each measured.* timing under its metric's
bound.  Last, it runs each tree once more per workload with --trace 1
(same seed and --seconds) and prints the exact search and service counts
of both side by side, marking every count that differs: a change meant
to keep the search must keep them all.  One traced run per tree supports
no per-layer timing, so only those counts are recorded.

Why: perfbench divides every timing by the p10 of probe_ms, a dense loop
whose speed depends on where its code lands, so a change that only shifts
the link layout can move every scaled timing by tens of percent.  Pairs
whose builds put probe_ms at different offsets mod 64, or whose probe
p10 differ by more than 10%, are flagged; compare their measured.*
values, which are not scaled.  When both binaries' .text sections are
identical, no timing difference between the builds can come from code.
Exits non-zero when a build or a run fails or a run reports a wrong
answer.
"""

import argparse
import io
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

TIMINGS = ("setup_s", "solve_s", "solve_p50_ms", "hit_p50_ms", "near_p50_ms")
PROBE_NOTE = "host.probe_p10_ms"
# Per-layer counts of a traced run that do not depend on the host's speed.
COUNTS = ("ilp.nodes", "ilp.cuts", "ilp.rc_fixed", "lp.pivots",
          "lp.refactorizations", "lp.work_units", "mapping.retries",
          "service.near_misses", "service.cache_hit_ratio")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def git(root, *args, **kwargs):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, **kwargs).stdout


def export_commit(root, commit, dest):
    archive = git(root, "archive", "--format=tar", commit)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)  # git's own archive: trusted member paths


def export_working_tree(root, dest):
    listing = git(root, "ls-files", "-z", "--cached", "--others",
                  "--exclude-standard")
    for name in filter(None, listing.decode().split("\0")):
        source = root / name
        if not source.is_file():
            continue  # deleted in the working tree
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)


def build(tree):
    """Build perfbench exactly where perfbench/run.py will look for it."""
    build_dir = tree / ".bench_build" / "perfbench"
    steps = [["cmake", "-S", str(tree / "perfbench"), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", "4"]]
    for step in steps:
        if subprocess.run(step, stdout=subprocess.DEVNULL,
                          stderr=sys.stderr).returncode:
            return None
    return build_dir / "perfbench"


def text_section(binary):
    """The bytes of the binary's .text section, or None."""
    with tempfile.TemporaryDirectory() as scratch:
        out = pathlib.Path(scratch) / "text"
        proc = subprocess.run(["objcopy", "-O", "binary",
                               "--only-section=.text", str(binary), str(out)],
                              capture_output=True)
        return out.read_bytes() if proc.returncode == 0 else None


def probe_offset(binary):
    out = subprocess.run(["nm", "-C", str(binary)], check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        parts = line.split(maxsplit=2)
        if len(parts) == 3 and parts[2].startswith("perfbench::probe_ms("):
            address = int(parts[0], 16)
            return address, address % 64
    return None, None


def run_once(tree, workload, seed, seconds, trace=0):
    # Without CARGO_TARGET_DIR run.py uses the tree's own build.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(proc.stderr[-2000:])
        return None
    notes = {}
    for line in lines[:-1]:
        # Note lines: "#   <name> <text>".
        parts = line[1:].split(maxsplit=1) if line.startswith("#   ") else []
        if len(parts) == 2:
            notes[parts[0]] = parts[1]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    measured = {name: float(notes["measured." + name])
                for name in TIMINGS if "measured." + name in notes}
    probe = notes.get(PROBE_NOTE, "nan").split()[0]
    return {"ok": proc.returncode == 0 and result.get("correct") is True
                  and result.get("failed") == 0,
            "failed": result.get("failed"), "correct": result.get("correct"),
            "metrics": metrics, "measured": measured,
            "probe_p10_ms": float(probe)}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(p, c, bound, sign):
    """The change's median against the parent's, `sign` = +1 when higher
    is better; `bound` is the allowed worsening as a fraction."""
    median = statistics.median(p)
    if bound is None or not median:
        return ""
    lo, hi = quartiles(p)
    if (hi - lo) / abs(median) > bound and \
            not all(sign * (b - a) > 0 for a in p for b in c):
        return "unresolved"
    worse = -sign * (statistics.median(c) - median) / abs(median)
    return "WORSE than bound" if worse > bound else "within bound"


def summary_line(name, p, c, sign, bound):
    lo, hi = quartiles(p)
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    move = (statistics.median(c) / statistics.median(p) - 1) * 100 \
        if statistics.median(p) else 0.0
    bound_text = f"bound {bound:.0%} " if bound is not None else ""
    print(f"  {name:22s} P {statistics.median(p):10.5g} "
          f"[{lo:.5g}-{hi:.5g}]  C {statistics.median(c):10.5g}  "
          f"{move:+6.1f}%  wins {wins}/{len(p)}  {bound_text}"
          f"{verdict(p, c, bound, sign)}")


def summarize(workload, runs, better, bounds):
    print(f"\n== {workload}: medians (parent quartiles), change wins / pairs,"
          " verdict")
    for name in sorted(runs[0]["P"]["metrics"]):
        summary_line(name, [r["P"]["metrics"][name] for r in runs],
                     [r["C"]["metrics"][name] for r in runs],
                     -1 if better.get(name) == "lower" else 1,
                     bounds.get(name))
    print(f"== {workload}: measured.* (unscaled)")
    for name in TIMINGS:
        if all(name in r[side]["measured"] for r in runs for side in "PC"):
            summary_line("measured." + name,
                         [r["P"]["measured"][name] for r in runs],
                         [r["C"]["measured"][name] for r in runs], -1,
                         bounds.get(name))


def compare_counts(workload, traced):
    print(f"\n== {workload}: traced counts (--trace 1, one run per tree)")
    for name in COUNTS:
        p, c = (traced[side].get(name) for side in ("P", "C"))
        mark = "" if p == c else "  DIFFERS"
        print(f"  {name:24s} P {p if p is not None else '-':>14}  "
              f"C {c if c is not None else '-':>14}{mark}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="commit to compare against, e.g. HEAD~1")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="table3_global,serve_mix")
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--work", help="work directory (default: a new "
                        "temporary directory, kept for inspection)")
    parser.add_argument("--json", help="also write every run here")
    args = parser.parse_args()

    root = pathlib.Path(git(pathlib.Path.cwd(), "rev-parse",
                            "--show-toplevel").decode().strip())
    work = pathlib.Path(args.work or tempfile.mkdtemp(prefix="perf_ab-"))
    trees = {"P": work / "parent", "C": work / "change"}
    for tree in trees.values():
        if tree.exists():
            shutil.rmtree(tree)
        tree.mkdir(parents=True)
    export_commit(root, args.parent, trees["P"])
    export_working_tree(root, trees["C"])
    log(f"perf_ab: work directory {work}")

    offsets = {}
    texts = {}
    for side, tree in trees.items():
        binary = build(tree)
        if binary is None:
            log(f"perf_ab: build of {tree} failed")
            return 1
        address, offsets[side] = probe_offset(binary)
        label = "parent" if side == "P" else "change"
        print(f"{label}: probe_ms at {address:#x} ({offsets[side]} mod 64)"
              if address is not None else f"{label}: probe_ms not found")
        # run.py serves from the mapper_serve built next to perfbench.
        texts[side] = {name: text_section(path) for name, path in
                       (("perfbench", binary),
                        ("mapper_serve", binary.parent / "gmm" /
                         "mapper_serve"))}
    text_identical = {}
    for name, p in texts["P"].items():
        c = texts["C"][name]
        text_identical[name] = p is not None and p == c
        if p is None or c is None:
            state = "not readable (objcopy failed)"
        elif p == c:
            state = "identical to the parent's"
        else:
            state = f"differs ({len(p)} bytes parent, {len(c)} change)"
        print(f"{name}: .text {state}")
    layout_differs = offsets["P"] != offsets["C"]
    if layout_differs:
        print("FLAG: probe_ms offsets differ; scaled timings can move with "
              "the probe alone, compare measured.*")

    spec = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"parent": args.parent, "probe_offset_mod64": offsets,
              "text_identical": text_identical, "workloads": {},
              "traced": {}}
    for workload in filter(None, args.workloads.split(",")):
        runs = []
        print(f"\n== {workload}: {args.pairs} ABBA pairs of {args.seconds} s")
        print("  run  probe_p10  " + "  ".join(f"{m:>12s}" for m in
            ("setup_s", "solve_s", "solve_p50_ms", "proved_share",
             "peak_rss_mb", "hit_p50_ms", "near_p50_ms")) +
            "   measured " + "/".join(TIMINGS))
        for pair in range(1, args.pairs + 1):
            order = ("P", "C") if pair % 2 else ("C", "P")
            runs.append({})
            for side in order:
                run = run_once(trees[side], workload, args.seed, args.seconds)
                if run is None or not run["ok"]:
                    log(f"perf_ab: {side}{pair} on {workload} failed: {run}")
                    return 1
                runs[-1][side] = run
                m = run["metrics"]
                print(f"  {side}{pair:<3d} {run['probe_p10_ms']:8.3f}  " +
                    "  ".join(f"{m[k]:12.5g}" for k in
                              ("setup_s", "solve_s", "solve_p50_ms",
                               "proved_share", "peak_rss_mb", "hit_p50_ms",
                               "near_p50_ms")) + "   " +
                    "/".join(f"{run['measured'].get(k, float('nan')):.5g}"
                             for k in TIMINGS), flush=True)
            ratio = runs[-1]["C"]["probe_p10_ms"] / runs[-1]["P"]["probe_p10_ms"]
            flags = []
            if layout_differs:
                flags.append("probe offsets differ")
            if not 0.9 <= ratio <= 1.1:
                flags.append(f"probe p10 C/P {ratio:.2f}")
            if flags:
                print(f"  pair {pair}: FLAG " + "; ".join(flags))
        if runs:
            summarize(workload, runs, better, bounds)
        traced = {}
        for side in ("P", "C"):
            run = run_once(trees[side], workload, args.seed, args.seconds,
                           trace=1)
            if run is None or not run["ok"]:
                log(f"perf_ab: traced {side} run on {workload} failed: {run}")
                return 1
            traced[side] = {name: run["metrics"][name] for name in COUNTS
                            if name in run["metrics"]}
        compare_counts(workload, traced)
        record["workloads"][workload] = runs
        record["traced"][workload] = traced
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
