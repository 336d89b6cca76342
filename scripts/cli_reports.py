#!/usr/bin/env python3
"""Write every deterministic CLI report of the shipped configs to its own file.

For each config this runs validate, analyze, extend, verify and envelope, and
norm and crossed-norm on each of its elements, all with ``--no-timestamp``
and the config's own policy.  Report ``<config>.<command>.json`` or
``<config>.<command>.<element>.json`` goes to OUTDIR.  Running the script from
two checkouts into two directories and comparing them with ``diff -r`` shows
whether a change moved any printed value.

Usage:
    python scripts/cli_reports.py OUTDIR [--config configs/full-2.json ...]
    python scripts/cli_reports.py OUTDIR --against PARENT_OUTDIR

Prints one ``exit-code file`` line per run.  Exits 1 if a run wrote no
report (exit code 2 or 4), else 0.

With ``--against`` nothing is run: the reports already in OUTDIR are
compared with those in PARENT_OUTDIR.  It prints how many are
byte-identical, each file found on one side only, and for each JSON report
that differs every changed leaf as ``file: path: old -> new``.  Then one
line per changed path, list indices dropped, over all reports: the number
of changed leaves, the largest relative change |new - old| / max(|old|,
|new|) among the numeric ones (``-`` if none is), and the path, as in
``18 1.97e-16 results.estimate.detail.cycle_value``.  Exits 1 if anything
differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from semicrossed.cli import main as cli_main  # noqa: E402

COMMANDS = ("validate", "analyze", "extend", "verify", "envelope")


def runs(config: Path) -> list:
    """(file name, CLI arguments) of every report for one config."""
    elements = sorted(json.loads(config.read_text()).get("elements", {}))
    out = [(f"{config.stem}.{cmd}.json", [cmd]) for cmd in COMMANDS]
    out += [
        (f"{config.stem}.{cmd}.{e}.json", [cmd, e])
        for e in elements
        for cmd in ("norm", "crossed-norm")
    ]
    return out


def leaves(value, path: str = "") -> dict:
    """JSON path -> leaf (as JSON text) of a parsed report, in document order."""
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return {path: json.dumps(value)}
    return {p: leaf for sub, v in items for p, leaf in leaves(v, sub).items()}


def relative_change(old: str, new: str):
    """|new - old| / max(|old|, |new|) of two numeric JSON leaves, else None."""
    a, b = (json.loads(v) for v in (old, new))
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return None
    return abs(b - a) / max(abs(a), abs(b))


def compare(new_dir: Path, old_dir: Path) -> int:
    """Print how the reports in ``new_dir`` differ from those in
    ``old_dir``; return 1 if any do, else 0."""
    new = {p.name: p.read_bytes() for p in new_dir.iterdir() if p.is_file()}
    old = {p.name: p.read_bytes() for p in old_dir.iterdir() if p.is_file()}
    both = sorted(new.keys() & old.keys())
    same = [name for name in both if new[name] == old[name]]
    print(f"{len(same)} of {len(both)} reports in both directories are byte-identical")
    for name in sorted(old.keys() - new.keys()):
        print(f"only in {old_dir}: {name}")
    for name in sorted(new.keys() - old.keys()):
        print(f"only in {new_dir}: {name}")
    summary: dict = {}  # path without list indices -> relative change of each changed leaf, or None
    for name in both:
        if new[name] == old[name]:
            continue
        try:
            a, b = leaves(json.loads(old[name])), leaves(json.loads(new[name]))
        except ValueError:
            print(f"{name}: differs (not JSON)")
            continue
        changed = [p for p in {**a, **b} if a.get(p) != b.get(p)]
        for p in changed:
            print(f"{name}: {p}: {a.get(p, '<missing>')} -> {b.get(p, '<missing>')}")
            move = relative_change(a[p], b[p]) if p in a and p in b else None
            summary.setdefault(re.sub(r"\[\d+\]", "", p), []).append(move)
        if not changed:
            print(f"{name}: same values, different bytes")
    for path, moves in sorted(summary.items()):
        numeric = [m for m in moves if m is not None]
        print(f"{len(moves)} {max(numeric):.2e} {path}" if numeric else f"{len(moves)} - {path}")
    return int(len(same) < len(new.keys() | old.keys()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument(
        "--config",
        action="append",
        type=Path,
        help="config to run (repeatable; default: every configs/*.json)",
    )
    ap.add_argument("--against", type=Path, help="compare OUTDIR's reports with this directory's; run nothing")
    args = ap.parse_args()
    if args.against:
        return compare(args.outdir, args.against)
    configs = args.config or sorted((ROOT / "configs").glob("*.json"))
    args.outdir.mkdir(parents=True, exist_ok=True)
    missing = 0
    for config in configs:
        for name, argv in runs(config):
            target = args.outdir / name
            target.unlink(missing_ok=True)
            argv = argv + ["--config", str(config), "--no-timestamp", "--out", str(target)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = cli_main(argv)
            missing += not target.exists()
            print(rc, name)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
