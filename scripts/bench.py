#!/usr/bin/env python3
"""Run the benchmark on every workload and write one BENCH_<LABEL>.json.

For each workload in BENCHMARK.json this runs ``bench/run.py`` untraced at
each of SEEDS and traced once (at the first seed), each run in its own
process, and collects the JSON line every run prints last.  The file holds
each seed's end-to-end metrics, their medians, failed/attempted per run,
each seed's per-operation latencies (``op_latency_s``, copied from the run's
``.bench_out/<workload>-seed<N>-trace0.json``), the traced per-layer
metrics, and the interpreter, numpy version, core count and git commit of
the checkout.

Usage:
    python scripts/bench.py LABEL [--seconds S]

The file goes to the root of the checkout that holds this script.  To
measure an older commit, copy the script into a checkout of it (see the
README) and run it from there.  One label takes about eight minutes on two
cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def git(*args: str):
    """Output of a git command in the checkout, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    """The summary line of one ``bench/run.py`` run."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--trace", str(trace), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"bench/run.py {workload} seed {seed} trace {trace} exited {out.returncode}")
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    summary["metrics"] = {k: m["value"] for k, m in summary["metrics"].items()}
    if not trace:
        report = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
        summary["op_latency_s"] = json.loads(report.read_text())["op_latency_s"]
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--seconds", type=float, default=8.0, help="passed to bench/run.py")
    args = ap.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    workloads = {}
    for w in declared["workloads"]:
        name = w["name"]
        seeds = {}
        for seed in SEEDS:
            seeds[str(seed)] = run(name, seed, 0, args.seconds)
            print(f"{name} seed {seed}: {json.dumps(seeds[str(seed)]['metrics'])}", flush=True)
        traced = run(name, SEEDS[0], 1, args.seconds)
        workloads[name] = {
            "seeds": seeds,
            "median": {
                m["name"]: statistics.median(s["metrics"][m["name"]] for s in seeds.values())
                for m in declared["end_to_end"]
            },
            "traced": traced,
        }

    dirty = git("status", "--porcelain", "--", "src", "bench", "configs")
    report = {
        "label": args.label,
        "seeds": list(SEEDS),
        "traced_seed": SEEDS[0],
        "seconds": args.seconds,
        "units": {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "git_commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": None if dirty is None else bool(dirty),
        },
        "workloads": workloads,
    }
    target = ROOT / f"BENCH_{args.label}.json"
    target.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
