"""Command-line front end.

Every command reads one JSON system config, runs a pipeline, and emits a
JSON report with the shape::

    {"command", "inputs", "results", "diagnostics", "version"[, "timestamp"]}

``diagnostics`` always carries the ``lambda_resolution`` actually used on
the spectral circle and ``caps_hit``.  A ``norm`` or ``crossed-norm``
report keeps its doubling-truncation trace once, as
``results.estimate.history``; ``--csv`` writes those rows.  Its
``converged`` means a plateau (two levels agree within the tolerance) or a
closed bracket (the value reached ``detail.upper`` = Σₙ‖fₙ‖∞).  Reports are
deterministic for a fixed config and flag set once ``--no-timestamp`` is
passed: keys are sorted and every value is plain data.

Exit codes: 0 success, 2 config/usage error or unwritable output, 3 a norm
loop stopped at ``K_max`` without meeting tolerance, 4 a cap was exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import random
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from . import __version__
from .algebra import embed_poly, multiply, semicrossed_poly, u_power
from .config import SystemConfig, load_config, policy_data
from .dynamics import (
    LassoPoint,
    compose_shift,
    cycle_horizon,
    enumerate_cycles,
    girth,
    itinerary,
    make_cylinder,
    make_lasso,
)
from .envelope import envelope_report
from .errors import ConfigError, GeneratorExhausted, Overflow, PolicyError, SeparationFailure
from .extension import (
    BiLassoPoint,
    backward_orbit_view,
    classify_extended_point,
    lift_point,
    transfer_check,
)
from .representations import (
    build_pi_x,
    crossed_norm,
    semicrossed_norm,
    verify_nest_truncation,
    verify_norm_lemmas,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CAP = 4


# ---------------------------------------------------------------------------
# plain-data serialization


def _data(value):
    """Recursively convert library values to JSON-ready plain data."""
    if isinstance(value, complex):
        return value.real if value.imag == 0.0 else [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_data(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _data(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _data(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def _estimate_data(est) -> dict:
    return {
        "value": est.value,
        "K": est.history[-1][0],
        "converged": est.converged,
        "history": [[K, v] for K, v in est.history],
        "detail": _data(dict(est.diagnostics)),
    }


def _point_data(x: BiLassoPoint) -> dict:
    return {
        "kind": "bilasso",
        "left": list(x.left),
        "center": list(x.center),
        "at": x.start,
        "right": list(x.right),
    }


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(cfg: SystemConfig, policy, args) -> tuple:
    return {"config": _data(dict(cfg.normalized))}, True


def _cmd_analyze(cfg: SystemConfig, policy, args) -> tuple:
    rows = transfer_check(cfg.graph)
    table = [
        {
            "property": r.property,
            "base": r.base,
            "extension": r.extension,
            "agreement": r.agreement,
        }
        for r in rows
    ]
    return {"transfer": table, "all_agree": all(r.agreement for r in rows)}, True


def _cmd_extend(cfg: SystemConfig, policy, args) -> tuple:
    g = cfg.graph
    fibers = {}
    for name in sorted(cfg.points):
        x = cfg.points[name]
        if isinstance(x, BiLassoPoint):
            xt = x
            source = "given"
        else:
            xt = lift_point(x) if isinstance(x, LassoPoint) else lift_point(_stream_lasso(x))
            source = "lifted"
        cls = classify_extended_point(xt)
        coords = backward_orbit_view(xt, 4)
        fibers[name] = {
            "source": source,
            "point": _point_data(xt),
            "classification": _data(cls),
            "backward_coordinates": [list(itinerary(r, 8)) for r in coords],
        }
    cycles = enumerate_cycles(g, cycle_horizon(g, policy.max_period))
    results = {
        "alphabet_size": g.alphabet_size,
        "girth": girth(g),
        "cycles": [list(c.word) for c in cycles],
        "fibers": fibers,
    }
    return results, True


def _stream_lasso(x) -> LassoPoint:
    """A lasso surrogate for a stream point: an explicit prefix of up to 64
    symbols (no further than the stream's horizon) closed by a reachable
    cycle, enough for structural lifting demos."""
    g = x.graph
    pre = itinerary(x, min(64, x.horizon))
    cyc = enumerate_cycles(g, cycle_horizon(g))[0]
    # walk the prefix until the cycle's entry symbol is admissible
    while pre and not g.is_edge(pre[-1], cyc.word[0]):
        pre = pre[:-1]
    return make_lasso(g, pre, cyc.word)


def _resolve_element(cfg: SystemConfig, name: str):
    if name not in cfg.elements:
        known = ", ".join(sorted(cfg.elements)) or "none defined"
        raise ConfigError(f"elements.{name}: unknown element (config has: {known})")
    return cfg.elements[name]


def _cmd_norm(cfg: SystemConfig, policy, args) -> tuple:
    """``norm`` and ``crossed-norm``: the named element's estimate in its
    own algebra or embedded, with the config's points of that flavour."""
    F = _resolve_element(cfg, args.element)
    two_sided = args.command == "crossed-norm"
    extra = tuple(x for x in cfg.points.values() if isinstance(x, BiLassoPoint) == two_sided)
    est = crossed_norm(embed_poly(F), policy, extra) if two_sided else semicrossed_norm(F, policy, extra)
    results = {"element": args.element, "estimate": _estimate_data(est)}
    return results, est.converged


def _default_elements(cfg: SystemConfig) -> dict:
    """Fallback sweep elements when the config declares none: the shift
    generator, its unital companion, and a weighted shift."""
    g = cfg.graph
    f = make_cylinder(g, 1, {w: 1.0 if w[0] == 0 else 0.5 for w in g.admissible_words(1)})
    return {
        "U": u_power(g, 1),
        "onePlusU": u_power(g, 0) + u_power(g, 1),
        "weightedShift": multiply(semicrossed_poly(g, {0: f}), u_power(g, 1)),
    }


def _cmd_verify(cfg: SystemConfig, policy, args) -> tuple:
    g = cfg.graph
    rng = random.Random(0)

    # covariance: moving a function across the shift generator is exact
    triples = 25
    exact = 0
    samples = [make_lasso(g, (), c.word) for c in enumerate_cycles(g, cycle_horizon(g, 2))]
    U = u_power(g, 1)
    for _ in range(triples):
        w = rng.randint(1, 2)
        f = make_cylinder(
            g,
            w,
            {u: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for u in g.admissible_words(w)},
        )
        x = rng.choice(samples)
        K = rng.randint(4, 32)
        left = multiply(semicrossed_poly(g, {0: f}), U)
        right = multiply(U, semicrossed_poly(g, {0: compose_shift(f, 1)}))
        if (build_pi_x(left, x, K) == build_pi_x(right, x, K)).all():
            exact += 1
    covariance = {"triples": triples, "exact": exact, "precision": "exact"}

    # norm consistency on sampled elements
    elements = dict(cfg.elements) or _default_elements(cfg)
    lemma_reports = {}
    for name in sorted(elements)[:2]:
        rep = verify_norm_lemmas(
            elements[name],
            K=min(policy.k_max, 128),
            max_period=min(policy.max_period, 2),
            lambda_grid=policy.lambda_grid,
            refine_steps=policy.refine_steps,
        )
        lemma_reports[name] = {
            "ok": rep.ok,
            "K": rep.K,
            "tolerance": rep.tol,
            "cycle_rows": [_data(r) for r in rep.cycle_rows],
            "ray_rows": [_data(r) for r in rep.ray_rows],
        }

    # diagonal-separation (nest) checks on the configured points
    nest, periodic = {}, True  # periodic: every point the check fails on is periodic
    for name in sorted(cfg.points):
        x = cfg.points[name]
        K = 8 if isinstance(x, BiLassoPoint) else 16
        try:
            rep = verify_nest_truncation(x, K)
            nest[name] = {"separated": True, **_data(rep)}
        except (SeparationFailure, GeneratorExhausted) as exc:
            nest[name] = {"separated": False, "K": K, "reason": str(exc)}
            periodic = periodic and isinstance(exc, SeparationFailure) and exc.periodic

    ok = exact == triples and all(r["ok"] for r in lemma_reports.values()) and periodic
    results = {"covariance": covariance, "norm_lemmas": lemma_reports, "nest": nest, "ok": ok}
    return results, True


def _cmd_envelope(cfg: SystemConfig, policy, args) -> tuple:
    elements = dict(cfg.elements) or _default_elements(cfg)
    names = sorted(elements)
    rep = envelope_report(
        cfg.graph,
        [elements[n] for n in names],
        policy,
        labels=names,
        name=cfg.name,
    )
    results = {
        "system": rep.system,
        "minimal_extension": rep.minimal_extension,
        "envelope_simple": rep.envelope_simple,
        "recurrent_dense": rep.recurrent_dense,
        "semisimple_predicate": rep.semisimple_predicate,
        "implication_ok": rep.implication_ok,
        "embedding_sweep": [
            {
                "element": r.label,
                "semicrossed": r.semicrossed_value,
                "crossed": r.crossed_value,
                "gap": r.gap,
                "K_max": policy.k_max,
            }
            for r in rep.embedding_sweep
        ],
        "regularization": [
            {
                "sample": r.label,
                "shift": r.shift,
                "landed_one_sided": r.landed,
                "norm_before": r.norm_before,
                "norm_after": r.norm_after,
                "ok": r.ok,
            }
            for r in rep.regularization_rows
        ],
        "ok": rep.ok,
    }
    return results, True


_COMMANDS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "extend": _cmd_extend,
    "norm": _cmd_norm,
    "crossed-norm": _cmd_norm,
    "verify": _cmd_verify,
    "envelope": _cmd_envelope,
}


# ---------------------------------------------------------------------------
# plumbing


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON system config")
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    common.add_argument("--csv", help="also write sweep/history rows as CSV")
    common.add_argument("--k-max", type=int, help="override policy.K_max")
    common.add_argument("--tol", type=float, help="override policy.tolerance")
    common.add_argument("--lambda-grid", type=int, help="override policy.lambda_grid")
    common.add_argument("--max-period", type=int, help="override policy.max_period")
    common.add_argument("--mode", help="override policy.mode: exhaustive | beam:<width>")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp so identical runs emit identical bytes",
    )

    parser = argparse.ArgumentParser(
        prog="semicrossed",
        description="shift systems, their polynomial algebras, and certified norms",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common], help="echo the normalized config")
    sub.add_parser("analyze", parents=[common], help="base/extension property table")
    sub.add_parser("extend", parents=[common], help="extension structure and sample fibers")
    p = sub.add_parser("norm", parents=[common], help="one-sided norm of a named element")
    p.add_argument("element")
    p = sub.add_parser(
        "crossed-norm", parents=[common], help="two-sided norm of a named element, embedded"
    )
    p.add_argument("element")
    sub.add_parser("verify", parents=[common], help="covariance, norm-lemma, and nest checks")
    sub.add_parser("envelope", parents=[common], help="structural verdicts and isometry sweep")
    return parser


def _apply_overrides(policy, **flags):
    """``policy`` with the flags given set; a K_initial above ``--k-max`` is lowered to it."""
    updates = {field: value for field, value in flags.items() if value is not None}
    if "k_max" in updates:
        updates["k_start"] = min(policy.k_start, updates["k_max"])
    try:
        return dataclasses.replace(policy, **updates)
    except PolicyError as exc:
        raise ConfigError(f"--{exc.field.replace('_', '-')}: {exc.reason}") from None


def _csv_text(command: str, results: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if command == "envelope":
        writer.writerow(["element", "semicrossed", "crossed", "gap"])
        for row in results["embedding_sweep"]:
            writer.writerow([row["element"], row["semicrossed"], row["crossed"], row["gap"]])
    else:
        writer.writerow(["K", "value"])
        writer.writerows(results["estimate"]["history"] if "estimate" in results else [])
    return buf.getvalue()


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        flags = ("k_max", "tol", "lambda_grid", "max_period", "mode")
        policy = _apply_overrides(cfg.policy, **{f: getattr(args, f) for f in flags})
        results, converged = _COMMANDS[args.command](cfg, policy, args)
    except (ConfigError, GeneratorExhausted) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Overflow as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP

    inputs = dict(cfg.normalized)
    inputs["policy"] = policy_data(policy)
    report = {
        "command": args.command,
        "inputs": _data(inputs),
        "results": results,
        "diagnostics": {
            "lambda_resolution": {
                "grid": policy.lambda_grid,
                "refine_steps": policy.refine_steps,
            },
            "caps_hit": [],
        },
        "version": __version__,
    }
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    for path, body in ((args.out, text), (args.csv, _csv_text(args.command, results))):
        try:
            if path:
                Path(path).write_text(body, newline="")
        except OSError as exc:
            print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_CONFIG
    if not args.out:
        sys.stdout.write(text)
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
