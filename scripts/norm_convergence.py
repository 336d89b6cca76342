#!/usr/bin/env python3
"""Trace how the certified norm bounds sharpen as the truncation doubles.

For one config element this prints the (truncation-free) cycle bound and the
upper bound Σₙ‖fₙ‖∞ (an estimate whose bound reaches it stops at that
level), then, per truncation level K: the word-search bound, the running
one-sided total, and the two-sided value of the embedded element — the gap
in the last column is the quantity that the isometric-embedding claim
predicts should vanish.

Usage:
    python scripts/norm_convergence.py --config configs/golden-mean.json \
        --element onePlusU [--k-max 256] [--csv out.csv]
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from semicrossed.algebra import embed_poly, l1_norm  # noqa: E402
from semicrossed.cli import _apply_overrides  # noqa: E402
from semicrossed.config import load_config  # noqa: E402
from semicrossed.errors import ConfigError  # noqa: E402
from semicrossed.representations import (  # noqa: E402
    constant_A,
    constant_B,
    crossed_norm,
    semicrossed_norm,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--element", required=True)
    ap.add_argument("--k-max", type=int, default=256)
    ap.add_argument("--csv", help="write the table as CSV")
    args = ap.parse_args()

    try:
        cfg = load_config(args.config)
        # the rule of ``semicrossed norm``: K_max must be positive, and a
        # K_initial above it is lowered to it
        policy = _apply_overrides(cfg.policy, k_max=args.k_max)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.element not in cfg.elements:
        known = ", ".join(sorted(cfg.elements))
        print(f"unknown element {args.element!r}; config has: {known}", file=sys.stderr)
        return 2
    F = cfg.elements[args.element]

    B = constant_B(F, policy.max_period, policy.lambda_grid, policy.refine_steps)
    print(f"cycle bound (truncation-free): {B.value:.12f} on cycle {B.cycle}")
    # a lower bound that reaches the sum closes the bracket: that level is the last
    print(f"upper bound Σₙ‖fₙ‖∞:          {l1_norm(F):.12f}\n")

    one = semicrossed_norm(F, policy, cycle_search=B)
    two = crossed_norm(embed_poly(F), policy, cycle_search=B)
    two_at = dict(two.history)

    rows = []
    header = f"{'K':>6s} {'word bound':>16s} {'one-sided':>16s} {'two-sided':>16s} {'gap':>12s}"
    print(header)
    print("-" * len(header))
    A = None  # each level continues from the last one's search, as in the estimate
    for K, total in one.history:
        A = constant_A(F, K, mode=policy.mode, cap=policy.word_cap, previous=A)
        word = A.value if A is not None else float("nan")
        crossed_val = two_at.get(K, two.value)
        gap = total - crossed_val
        rows.append((K, word, total, crossed_val, gap))
        print(f"{K:6d} {word:16.12f} {total:16.12f} {crossed_val:16.12f} {gap:12.3e}")

    print(f"\none-sided: {one.value:.12f} (converged: {one.converged})")
    print(f"two-sided: {two.value:.12f} (converged: {two.converged})")
    print(f"final gap: {one.value - two.value:.3e}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["K", "word_bound", "one_sided", "two_sided", "gap"])
            w.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
