#!/usr/bin/env python3
"""Survey the bundled system catalog.

For every named graph: the four dynamical properties on both sides of the
extension, the structural envelope verdicts, and a small isometry sweep.
Prints an aligned text table; --json writes the raw rows.

Usage:
    python scripts/catalog_report.py [--k-max 64] [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from semicrossed.algebra import semicrossed_poly, u_power, multiply  # noqa: E402
from semicrossed.catalog import CATALOG  # noqa: E402
from semicrossed.dynamics import make_cylinder  # noqa: E402
from semicrossed.envelope import envelope_report  # noqa: E402
from semicrossed.extension import transfer_check  # noqa: E402
from semicrossed.representations import TruncationPolicy  # noqa: E402


def sweep_elements(g):
    f = make_cylinder(g, 1, {w: 1.0 if w[0] == 0 else 0.5 for w in g.admissible_words(1)})
    return {
        "U": u_power(g, 1),
        "onePlusU": u_power(g, 0) + u_power(g, 1),
        "fU": multiply(semicrossed_poly(g, {0: f}), u_power(g, 1)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k-max", type=int, default=64)
    ap.add_argument("--tol", type=float, default=1e-4)
    ap.add_argument("--json", help="also dump rows as JSON")
    args = ap.parse_args()

    # K_initial 8, lowered to a smaller --k-max as ``semicrossed --k-max`` does
    policy = TruncationPolicy(k_start=min(8, args.k_max), k_max=args.k_max, tol=args.tol, max_period=2)
    rows = []
    for name, entry in CATALOG.items():
        g = entry.graph
        props = {r.property: (r.base, r.extension, r.agreement) for r in transfer_check(g)}
        elements = sweep_elements(g)
        labels = sorted(elements)
        rep = envelope_report(g, [elements[k] for k in labels], policy, labels=labels, name=name)
        max_gap = max(abs(r.gap) for r in rep.embedding_sweep)
        rows.append(
            {
                "name": name,
                "summary": entry.summary,
                "properties": props,
                "simple": rep.envelope_simple,
                "semisimple": rep.semisimple_predicate,
                "implication_ok": rep.implication_ok,
                "max_embedding_gap": max_gap,
                "regularization_ok": all(r.ok for r in rep.regularization_rows),
            }
        )

    head = f"{'system':18s} {'trans':5s} {'perdn':5s} {'minml':5s} {'recdn':5s} {'simple':6s} {'semis':5s} {'impl':4s} {'gap':10s} {'reg':3s}"
    print(head)
    print("-" * len(head))
    for r in rows:
        p = r["properties"]
        flag = lambda key: "yes" if p[key][0] else "no"  # noqa: E731
        print(
            f"{r['name']:18s} {flag('transitive'):5s} {flag('periodic_dense'):5s} "
            f"{flag('minimal'):5s} {flag('recurrent_dense'):5s} "
            f"{'yes' if r['simple'] else 'no':6s} {'yes' if r['semisimple'] else 'no':5s} "
            f"{'ok' if r['implication_ok'] else 'BAD':4s} {r['max_embedding_gap']:<10.2e} "
            f"{'ok' if r['regularization_ok'] else 'BAD'}"
        )
    agree = all(all(v[2] for v in r["properties"].values()) for r in rows)
    implied = all(r["implication_ok"] for r in rows)
    print(f"\ntransfer agreement on all {4 * len(rows)} cells: {agree}")
    print(f"simple => semisimple everywhere: {implied}")
    converse = [r["name"] for r in rows if r["semisimple"] and not r["simple"]]
    print(f"semisimple but not simple (converse fails): {', '.join(converse)}")

    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=2, sort_keys=True, default=list) + "\n")
        print(f"\nwrote {args.json}")
    return 0 if (agree and implied) else 1


if __name__ == "__main__":
    sys.exit(main())
