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

Prints one ``exit-code file`` line per run.  Exits 1 if a run wrote no
report (exit code 2 or 4), else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument(
        "--config",
        action="append",
        type=Path,
        help="config to run (repeatable; default: every configs/*.json)",
    )
    args = ap.parse_args()
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
