#!/usr/bin/env python3
"""Interleaved benchmark pairs between this checkout and another one.

Each pair runs ``bench/run.py`` untraced at one seed (pair i at seed
FIRST + i) in both checkouts, back to back, alternating which side goes
first, so the two runs of a pair share one period of a shared host.  It
prints every pair's end-to-end metrics (the ones BENCHMARK.json declares)
and failed/attempted counts, then per metric each side's median and
quartiles, the change of the medians, and in how many pairs this checkout
did better.

Usage:
    python scripts/bench_pairs.py OTHER_CHECKOUT [--workload W] [--pairs N]
                                  [--seconds S] [--seed FIRST]

Without ``--workload`` every workload in BENCHMARK.json gets N pairs in
turn.  Each checkout's ``bench/``, ``src/``, ``configs/`` and
``BENCHMARK.json`` are copied into a temporary directory and run from
there, so nothing is written into either checkout.  The metrics and which
way is better come from this checkout's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("bench", "src", "configs", "BENCHMARK.json")


def stage(checkout: Path, into: Path) -> Path:
    """Copy what ``bench/run.py`` reads from a checkout into ``into``."""
    for name in COPIED:
        src = checkout / name
        if src.is_dir():
            shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
        else:
            shutil.copy2(src, into / name)
    return into


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The summary line of one untraced ``bench/run.py`` run in ``tree``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", "0", "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"bench/run.py {workload} seed {seed} in {tree} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(xs: list) -> list:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3


def pairs(trees: dict, workload: str, metrics: list, args) -> None:
    """Run and print ``args.pairs`` pairs of one workload, then the summary."""
    values = {side: {m["name"]: [] for m in metrics} for side in trees}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("this", "other") if i % 2 == 0 else ("other", "this")
        runs = {side: run(trees[side], workload, seed, args.seconds) for side in order}
        cells = []
        for m in metrics:
            name = m["name"]
            for side in trees:
                values[side][name].append(runs[side]["metrics"][name]["value"])
            cells.append(f"{name} {values['other'][name][-1]:.6g}/{values['this'][name][-1]:.6g}")
        failed = "/".join(f"{runs[s]['failed']}of{runs[s]['attempted']}" for s in ("other", "this"))
        print(f"{workload} seed {seed} ({order[0]} first): {', '.join(cells)}, failed {failed}", flush=True)
    print(f"{workload}: {args.pairs} pairs, other -> this (median [quartiles]), pairs where this is better")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        a, b = values["other"][name], values["this"][name]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] / qa[1] - 1) * 100 if qa[1] else float("nan")
        print(
            f"  {name:18s} {qa[1]:.6g} [{qa[0]:.6g}-{qa[2]:.6g}] -> {qb[1]:.6g} [{qb[0]:.6g}-{qb[2]:.6g}]"
            f"  {change:+.1f} %  {wins} of {len(a)} ({m['better']} is better)"
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="the checkout to compare against, usually the parent commit")
    ap.add_argument("--workload", help="one workload of BENCHMARK.json (default: each in turn)")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=8.0, help="passed to bench/run.py")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    other = args.other.resolve()
    if not (other / "bench" / "run.py").is_file():
        ap.error(f"{other} holds no bench/run.py")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {}
        for side, checkout in (("this", ROOT), ("other", other)):
            (Path(tmp) / side).mkdir()
            trees[side] = stage(checkout, Path(tmp) / side)
        for workload in [args.workload] if args.workload else names:
            pairs(trees, workload, declared["end_to_end"], args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
