#!/usr/bin/env python3
"""Benchmark this checkout against another in interleaved pairs; write BENCH_<LABEL>.json.

    python scripts/bench.py OTHER_CHECKOUT LABEL [--workload W] [--pairs N] [--seconds S] [--seed FIRST]

Both checkouts are copied to a temporary directory.  For each workload (or only
W), pair i runs ``bench/run.py`` untraced at seed FIRST + i on both sides back
to back, this checkout first when i is even; then each side runs once traced at
seed FIRST.  It prints each pair; per end-to-end metric, the medians,
quartiles, % change and pairs won; and the three latency groups whose summed
latency moved most.  The file, at this checkout's root, holds it
all, both commits and the environment.  OTHER_CHECKOUT ``.``: an A/A baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("bench", "src", "configs", "BENCHMARK.json")
SIDES = ("other", "this")


def commit(checkout: Path) -> dict:
    """The checkout's commit and whether its src/, bench/ or configs/ differ (None outside git)."""
    if not (checkout / ".git").exists():
        return {"git_commit": None, "uncommitted_changes": None}
    head, status = (
        subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout
        for args in (["rev-parse", "HEAD"], ["status", "--porcelain", "--", "src", "bench", "configs"])
    )
    return {"git_commit": head.strip(), "uncommitted_changes": bool(status)}


def stage(checkout: Path, into: Path) -> Path:
    """Copy what ``bench/run.py`` reads from a checkout into ``into``."""
    into.mkdir()
    for name in COPIED:
        if (checkout / name).is_dir():
            shutil.copytree(checkout / name, into / name, ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
        else:
            shutil.copy2(checkout / name, into / name)
    return into


def latency_groups(latencies: dict) -> dict:
    """Per-operation latencies grouped by label with every ``#<k> `` token
    removed (``#0 F*G`` and ``#7 F*G`` are one group): count, median, max
    and sum.  The sum shows what a median hides: a few slow members, such
    as the widest products among a group's 80."""
    groups = {}
    for label, seconds in latencies.items():
        groups.setdefault(re.sub(r"#\d+ ", "", label), []).append(seconds)
    return {
        label: {"count": len(xs), "median": statistics.median(xs), "max": max(xs), "sum": sum(xs)}
        for label, xs in sorted(groups.items())
    }


_GROUP = re.compile(r'\{\s*("count": \d+),\s*("max": [^,\s]+),\s*("median": [^,\s]+),\s*("sum": [^,\s]+)\s*\}')


def dumps(report: dict) -> str:
    """The report as sorted JSON, one key a line, except that each latency group takes one line."""
    return _GROUP.sub(r"{\1, \2, \3, \4}", json.dumps(report, indent=1, sort_keys=True)) + "\n"


def moved_groups(pairs: list, n: int = 3) -> list:
    """The ``n`` latency groups whose summed latency moved most between the
    sides, by the change of its median over the pairs: (label, other,
    this, change in %), largest move in seconds first.  Only groups that
    every run has are ranked (labels may name a seed's own inputs)."""
    medians = {
        label: [statistics.median(p[side]["op_latency_s"][label]["sum"] for p in pairs) for side in SIDES]
        for label in sorted(set.intersection(*(set(p[side]["op_latency_s"]) for p in pairs for side in SIDES)))
    }
    moved = sorted(medians.items(), key=lambda item: -abs(item[1][1] - item[1][0]))[:n]
    return [(label, a, b, (b / a - 1) * 100 if a else None) for label, (a, b) in moved]


def run(tree: Path, workload: str, seed: int, trace: int, seconds: float) -> dict:
    """The summary line of one ``bench/run.py`` run in ``tree``; untraced, with its grouped op latencies."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(trace), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{out.stderr}{' '.join(cmd[1:])} in {tree} exited {out.returncode}")
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    summary["metrics"] = {k: m["value"] for k, m in summary["metrics"].items()}
    if not trace:
        report = tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
        summary["op_latency_s"] = latency_groups(json.loads(report.read_text())["op_latency_s"])
    return summary


def order(i: int) -> tuple:
    return ("this", "other") if i % 2 == 0 else ("other", "this")


def quartiles(xs: list) -> list:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3


def compare(other: list, this: list, better: str) -> dict:
    """Medians, quartiles, % change of the medians and pairs each side did strictly better."""
    q = {"other": quartiles(other), "this": quartiles(this)}
    sign = 1 if better == "higher" else -1
    return {
        "better": better, "median": {side: q[side][1] for side in SIDES},
        "quartiles": {side: [q[side][0], q[side][2]] for side in SIDES},
        "change_pct": (q["this"][1] / q["other"][1] - 1) * 100 if q["other"][1] else None,
        "wins": {"this": sum(sign * (y - x) > 0 for x, y in zip(other, this)),
                 "other": sum(sign * (x - y) > 0 for x, y in zip(other, this))},
    }


def bench_workload(trees: dict, workload: str, metrics: dict, args, k: int) -> dict:
    """Untraced pairs of one workload, their summary per metric, and a traced run per side."""
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        runs = {side: run(trees[side], workload, seed, 0, args.seconds) for side in order(i)}
        pairs.append({"seed": seed, "first": order(i)[0], **runs})
        values = ", ".join(f"{n} {runs['other']['metrics'][n]:.6g}/{runs['this']['metrics'][n]:.6g}" for n in metrics)
        failed = "/".join(f"{runs[s]['failed']} of {runs[s]['attempted']}" for s in SIDES)
        print(f"{workload} seed {seed} ({order(i)[0]} first): {values}, failed {failed}", flush=True)
    series = {n: [[p[side]["metrics"][n] for p in pairs] for side in SIDES] for n in metrics}
    summary = {n: compare(*series[n], better) for n, better in metrics.items()}
    print(f"{workload}: {args.pairs} pairs, other -> this: median [quartiles], change, pairs won by this/other")
    for n, c in summary.items():
        qa, qb = (quartiles(xs) for xs in series[n])
        change = "n/a" if c["change_pct"] is None else f"{c['change_pct']:+.1f} %"
        print(f"  {n:18s} {qa[1]:.6g} [{qa[0]:.6g}-{qa[2]:.6g}] -> {qb[1]:.6g} [{qb[0]:.6g}-{qb[2]:.6g}]"
              f"  {change}  {c['wins']['this']}/{c['wins']['other']} of {args.pairs} ({c['better']} is better)")
    print("  summed op latency, median over the pairs, of the groups that moved most:")
    for label, a, b, change in moved_groups(pairs):
        print(f"    {label:30s} {a * 1e3:.4g} -> {b * 1e3:.4g} ms" + ("" if change is None else f"  {change:+.1f} %"))
    traced = {side: run(trees[side], workload, args.seed, 1, args.seconds) for side in order(k)}
    return {"pairs": pairs, "summary": summary, "traced": traced}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="the checkout to compare against, usually the parent commit")
    ap.add_argument("label", help="the file written is BENCH_<LABEL>.json")
    ap.add_argument("--workload", choices=names, help="one workload (default: each in turn)")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=8.0, help="passed to bench/run.py")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    checkouts = {"this": ROOT, "other": args.other.resolve()}
    if not (checkouts["other"] / "bench" / "run.py").is_file():
        ap.error(f"{checkouts['other']} holds no bench/run.py")
    report = {
        "label": args.label, "first_seed": args.seed, "pairs": args.pairs, "seconds": args.seconds,
        "units": {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "cpu_count": os.cpu_count(), "platform": platform.platform()},
        "checkouts": {side: commit(path) for side, path in checkouts.items()},
        "workloads": {},
    }
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {side: stage(path, Path(tmp) / side) for side, path in checkouts.items()}
        for k, name in enumerate([args.workload] if args.workload else names):
            report["workloads"][name] = bench_workload(trees, name, metrics, args, k)
    target = ROOT / f"BENCH_{args.label}.json"
    target.write_text(dumps(report))
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
