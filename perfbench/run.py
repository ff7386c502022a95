#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One run of one workload, as BENCHMARK.json's command does it:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

The last line of stdout is the run's JSON result; build output and progress
go to stderr.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ledger.  Without --seconds the run measures for BENCHMARK.json's
run_seconds, the binary's own default.

Every workload, both passes, merged into one snapshot file:

    python3 perfbench/run.py --all --seed 1 --out perfbench/snapshots/BENCHMARK_<rev>.json

--all fails when a run fails or when a workload's layer shares sum to more
than SHARE_SUM_LIMIT of its untraced wall.

The program is built from source (CMake, Release) into .bench_build/ at the
repository root.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHARES = ["mem.access_share", "mem.invalidate_share", "mem.tlb_share",
          "cpu.preexec_share", "vm.share", "sched.share", "storage.dma_share"]
# Layer shares summing past this mean the replays overstate some layer.
SHARE_SUM_LIMIT = 1.1


def build_dir():
    return ROOT / ".bench_build" / "perfbench"


def build(target="its_workload"):
    """Configures on first use, then builds; returns the binary path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if subprocess.run(
            ["ninja", "--version"], capture_output=True).returncode == 0 else []
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release", *gen],
                           stdout=sys.stderr)
        if r.returncode != 0:
            sys.exit(r.returncode)
    r = subprocess.run(["cmake", "--build", str(out), "--target", target,
                        "--parallel", "2"], stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(r.returncode)
    return out / target


def run_one(binary, workload, seed, seconds, trace, capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if not capture:
        return subprocess.run(cmd).returncode, None
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None


def fingerprint():
    cache = (build_dir() / "CMakeCache.txt").read_text()
    compiler = next(line.split("=", 1)[1] for line in cache.splitlines()
                    if line.startswith("CMAKE_CXX_COMPILER:"))
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    return {"cpus": os.cpu_count(), "compiler": version, "build": "Release",
            "machine": platform.machine()}


def revision():
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_all(args):
    binary = build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    snap = {"revision": revision(), "machine": fingerprint(), "seed": args.seed,
            "seconds": seconds, "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            print(f"== {name} --trace {trace}", file=sys.stderr)
            code, res = run_one(binary, name, args.seed, seconds, trace, True)
            ok = ok and code == 0 and res is not None and res["correct"]
            if res is None:
                continue
            entry[key] = {k: v["value"] for k, v in res["metrics"].items()}
            entry[f"{key}_runs"] = {"correct": res["correct"],
                                    "attempted": res["attempted"],
                                    "failed": res["failed"]}
        layers = entry.get("per_layer", {})
        if layers:
            entry["costliest_layer"] = max(SHARES, key=lambda s: layers[s])
            entry["share_sum"] = sum(layers[s] for s in SHARES)
            if entry["share_sum"] > SHARE_SUM_LIMIT:
                print(f"{name}: layer shares sum to {entry['share_sum']:.3f}, "
                      f"above {SHARE_SUM_LIMIT}", file=sys.stderr)
                ok = False
        snap["workloads"][name] = entry
    text = json.dumps(snap, indent=2, sort_keys=False) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload, both passes, and merge the results")
    p.add_argument("--out", help="with --all: write the merged snapshot here")
    args = p.parse_args()
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("--workload or --all is required")
    code, _ = run_one(build(), args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
