#!/usr/bin/env python3
"""Time the CLI on one-cycle graphs of growing alphabet size.

For each M this writes the config of one cycle 0 -> 1 -> ... -> M-1 -> 0
with the elements 1 + U (``onePlusU``) and U - U² (``uMinusU2``) and policy
``beam:8`` to a temporary directory, then runs extend, norm onePlusU,
crossed-norm onePlusU, verify and envelope on it, each with
``--no-timestamp`` in a fresh interpreter.  It prints one line per run: the
alphabet size, the command, its exit code and its wall time in seconds
(interpreter start-up and imports included).

Usage:
    python scripts/scale_report.py M [M ...]

Exits 1 if any run exits with a code other than 0, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ["extend"],
    ["norm", "onePlusU"],
    ["crossed-norm", "onePlusU"],
    ["verify"],
    ["envelope"],
)


def one_cycle_config(m: int) -> dict:
    """The config of one cycle through all m symbols in order."""
    return {
        "name": f"cycle-{m}",
        "alphabet_size": m,
        "edges": [[int(j == (i + 1) % m) for j in range(m)] for i in range(m)],
        "functions": {"minusOne": {"window": 1, "values": {f"{a},": -1.0 for a in range(m)}}},
        "elements": {
            "onePlusU": [{"power": 0}, {"power": 1}],
            "uMinusU2": [{"power": 1}, {"power": 2, "function": "minusOne"}],
        },
        "policy": {"mode": "beam:8"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", type=int, nargs="+", metavar="M", help="alphabet size")
    args = ap.parse_args()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}  # this checkout's package
    failed = 0
    print(f"{'M':>5}  {'command':<26} {'exit':>4}  {'wall_s':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        for m in args.sizes:
            config = Path(tmp) / f"cycle-{m}.json"
            config.write_text(json.dumps(one_cycle_config(m)))
            for argv in COMMANDS:
                cmd = [sys.executable, "-m", "semicrossed", *argv, "--config", str(config), "--no-timestamp"]
                t0 = time.perf_counter()
                rc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
                elapsed = time.perf_counter() - t0
                failed += rc != 0
                print(f"{m:>5}  {' '.join(argv):<26} {rc:>4}  {elapsed:>7.2f}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
