"""The four workloads: their inputs, their operations and the checks on
every output.

Each workload generates plain-data inputs from its seed (``generate``),
turns them into library objects during set-up (``build``, timed as
``setup_s``) and returns a list of operations.  An operation is one library
or CLI call; one pass runs the list once, in a seeded order, with one
caller that issues the next operation when the previous one returns.
``check`` runs after the timed phase and compares each output with the
oracle.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Mapping, Optional


import gen
import oracle
import tracing

PACKAGE = "semicrossed"


def package_modules() -> list:
    """Every loaded module of the package, for rebinding traced names."""
    return [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]


def import_library() -> SimpleNamespace:
    """Import the package from scratch: earlier imports are dropped first,
    so every set-up pays the import (numpy stays loaded).  The result has
    the package and one attribute per layer module."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in tracing.LAYERS}
    return SimpleNamespace(package=package, modules=modules, **modules)


@dataclass(frozen=True)
class Failed:
    """Outcome of an operation that raised."""

    kind: str
    message: str


@dataclass
class Op:
    """One library or CLI call.  ``check`` lists violated invariants (a
    wrong output); ``accuracy`` lists estimates outside a tolerance the
    acceptance tests hold the library to (a failed operation, not a wrong
    one); ``norms`` pairs each reported norm with the oracle's certified
    lower bound.  All three take (output, outputs of the pass).

    ``repeats`` is the fixed number of calls per pass.  The workload sets
    it from static properties of the inputs, so that quick operations get
    enough calls for their median to be steady.  A ``last`` operation
    is a known-bad one whose failure would skew the others' figures (it
    runs out of memory); it is called after every other operation."""

    label: str
    call: Callable  # (outputs of this pass so far) -> output
    check: Callable
    accuracy: Optional[Callable] = None
    norms: Optional[Callable] = None
    repeats: int = 1
    last: bool = False


def canon(x):
    """Hashable canonical form of an output, exact to the last bit."""
    if isinstance(x, (float, complex)):
        return repr(x)
    if x is None or isinstance(x, (str, int, bool)):
        return x
    if isinstance(x, Mapping):
        return tuple(sorted((repr(canon(k)), canon(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            (f.name, canon(getattr(x, f.name))) for f in dataclasses.fields(x)
        )
    return repr(x)


def digest(x) -> str:
    return hashlib.sha256(repr(canon(x)).encode()).hexdigest()


def build_poly(lib: SimpleNamespace, g, spec: dict):
    return lib.algebra.semicrossed_poly(
        g, {n: lib.dynamics.make_cylinder(g, w, vals) for n, (_, w, vals) in spec.items()}
    )


def _degree(spec: dict) -> int:
    return max(spec)


def _wmax(spec: dict) -> int:
    return max(w for _, w, _ in spec.values())


class Workload:
    name = ""
    nominal_pass_s = 1.0  # one pass on the reference machine (2 cores, 1 BLAS thread)
    memory_budget_mib: Optional[int] = None

    def __init__(self, root, seed: int):
        self.root = root
        self.seed = seed
        self.configs = gen.read_configs(root / "configs")
        self.edges = {name: gen.edges_of(cfg) for name, cfg in self.configs.items()}
        self.large = {name for name, e in self.edges.items() if gen.is_large(e)}
        self.rng = gen.rng_for(self.name, seed)
        self.inputs = self.generate()
        self._bounds = {}

    def generate(self) -> dict:
        raise NotImplementedError

    def build(self, lib: SimpleNamespace) -> list:
        raise NotImplementedError

    def build_checked(self, lib: SimpleNamespace) -> list:
        """Operations run once, untimed, after the timed phase: they add to
        the accuracy figures and the failure count, not to the timings."""
        return []

    def sizes(self) -> dict:
        raise NotImplementedError

    def load_configs(self, lib: SimpleNamespace) -> dict:
        return {name: lib.config.load_config(cfg["_path"]) for name, cfg in self.configs.items()}

    def lower_bound(self, key, spec: dict, cname: str) -> float:
        if key not in self._bounds:
            self._bounds[key] = oracle.certified_lower_bound(
                oracle.spec_terms(spec), self.edges[cname]
            )
        return self._bounds[key]

    def shuffled(self, items: list) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items


def _poly_count_windows(specs) -> dict:
    specs = list(specs)
    windows = sorted({w for s in specs for w in gen.poly_windows(s)})
    return {"polynomials": len(specs), "windows": windows}


def check_norm_value(value: float, spec: dict) -> list:
    """Upper bound l1(F), and the closed forms of test_02 and test_03."""
    problems = []
    if not math.isfinite(value):
        return [f"norm {value!r} is not finite"]
    bound = oracle.l1(oracle.spec_terms(spec))
    if value > bound + oracle.REL_TOL * max(1.0, bound):
        problems.append(f"norm {value!r} exceeds the l1 bound {bound!r}")
    known = oracle.closed_form(spec)
    if known == 1.0 and abs(value - 1.0) > oracle.REL_TOL:
        problems.append(f"norm of U is {value!r}, not 1")
    if known == 2.0 and not (1.99 <= value <= 2.0 + oracle.REL_TOL):
        problems.append(f"norm of 1+U is {value!r}, not 2")
    return problems


def check_estimate(est, spec: dict) -> list:
    problems = check_norm_value(est.value, spec)
    levels = [v for _, v in est.history]
    if any(b < a for a, b in zip(levels, levels[1:])):
        problems.append(f"doubling history decreases: {levels}")
    if levels and levels[-1] != est.value:
        problems.append("value is not the last history level")
    return problems


# ---------------------------------------------------------------------------


class NormSweep(Workload):
    """Many small norm estimates at each config's own policy: the cycle
    search on the spectral circle and beam scoring take the time."""

    name = "norm-sweep"
    nominal_pass_s = 10.0
    # Shapes (power -> window) of the random elements drawn on every config:
    # degree <= 3, windows <= 2, random values; 77 draws in all.  They are
    # estimated once, untimed, after the timed phase, for the accuracy
    # figures.  Whether an estimate settles at K = 16 or runs on to K_max
    # depends on the random values, and the late ones cost 10-100x the
    # rest, so timing the draws would make the timings a function of the
    # seed; the timed phase estimates the config elements.
    SHAPES = (
        {0: 2, 1: 1, 3: 2},
        {0: 1, 1: 2, 2: 1},
        {0: 1, 1: 1},
        {0: 2, 2: 2},
        {1: 1, 3: 1},
        {0: 1, 1: 1, 2: 2, 3: 1},
        {0: 2, 1: 2},
    )
    # Calls per pass.  On the large graphs an envelope report takes
    # 0.25-1.8 s and is called once, and an estimate takes up to 0.2 s; on
    # the others every operation takes 5-130 ms.
    LARGE_REPEATS = 2
    QUICK_REPEATS = 4

    def generate(self) -> dict:
        polys, timed, untimed = {}, [], []
        for cname in sorted(self.configs):
            specs = gen.config_element_specs(self.configs[cname])
            timed += [("envelope", cname, None)]
            timed += [(kind, cname, key) for key in specs for kind in ("norm", "crossed-norm")]
            for i, shape in enumerate(self.SHAPES):
                specs[f"r{i}"] = gen.poly_with_windows(self.rng, self.edges[cname], shape)
                untimed += [("norm", cname, f"r{i}"), ("crossed-norm", cname, f"r{i}")]
            polys[cname] = specs
        return {"polys": polys, "order": self.shuffled(timed), "checked": untimed}

    def sizes(self) -> dict:
        specs = [s for per in self.inputs["polys"].values() for s in per.values()]
        return {
            **_poly_count_windows(specs),
            "K": "policy K_initial..K_max (8..256)",
            "configs": sorted(self.configs),
            "random_per_config": len(self.SHAPES),
        }

    def build(self, lib: SimpleNamespace) -> list:
        return self._ops(lib, self.inputs["order"])

    def build_checked(self, lib: SimpleNamespace) -> list:
        ops = self._ops(lib, self.inputs["checked"])
        for op in ops:
            op.repeats = 1  # untimed: one call gives the output to check
        return ops

    def _ops(self, lib: SimpleNamespace, order: list) -> list:
        cfgs = self.load_configs(lib)
        bilasso = lib.extension.BiLassoPoint
        objects = {}
        for _, cname, key in order:
            if key is not None and (cname, key) not in objects:
                cfg = cfgs[cname]
                spec = self.inputs["polys"][cname][key]
                F = cfg.elements[key] if key in cfg.elements else build_poly(lib, cfg.graph, spec)
                objects[cname, key] = (F, lib.algebra.embed_poly(F))
        ops = []
        for kind, cname, key in order:
            cfg = cfgs[cname]
            if kind == "envelope":
                op = self._envelope_op(lib, cfg, cname)
            else:
                F, E = objects[cname, key]
                spec = self.inputs["polys"][cname][key]
                one = tuple(x for x in cfg.points.values() if not isinstance(x, bilasso))
                two = tuple(x for x in cfg.points.values() if isinstance(x, bilasso))
                op = self._norm_op(lib, kind, cname, key, spec, F, E, cfg.policy, one, two)
            if cname not in self.large:
                op.repeats = self.QUICK_REPEATS
            elif kind != "envelope":
                op.repeats = self.LARGE_REPEATS
            ops.append(op)
        return ops

    def _norm_op(self, lib, kind, cname, key, spec, F, E, policy, one, two) -> Op:
        label = f"{kind} {cname}/{key}"
        if kind == "norm":
            call = lambda env: lib.representations.semicrossed_norm(F, policy, points=one)
        else:
            call = lambda env: lib.representations.crossed_norm(E, policy, points=two)

        def accuracy(est, env):
            partner = env.get(f"norm {cname}/{key}")
            if kind == "crossed-norm" and not isinstance(partner, Failed):
                gap = abs(partner.value - est.value)
                if gap > oracle.AGREEMENT_TOL:
                    return [f"one- and two-sided norms differ by {gap:.3e}"]
            return []

        def norms(est, env):
            return [(self.lower_bound((cname, key), spec, cname), est.value)]

        return Op(label, call, lambda est, env: check_estimate(est, spec), accuracy, norms)

    def _envelope_op(self, lib, cfg, cname) -> Op:
        names = sorted(cfg.elements)
        elements = [cfg.elements[n] for n in names]
        specs = self.inputs["polys"][cname]

        def call(env):
            return lib.envelope.envelope_report(
                cfg.graph, elements, cfg.policy, labels=names, name=cfg.name
            )

        def check(rep, env):
            problems = []
            if not rep.ok or not rep.implication_ok:
                problems.append("envelope report not ok")
            for row in rep.embedding_sweep:
                for value in (row.semicrossed_value, row.crossed_value):
                    problems += check_norm_value(value, specs[row.label])
            return problems

        def accuracy(rep, env):
            return [
                f"{row.label}: embedding gap {row.gap:.3e}"
                for row in rep.embedding_sweep
                if abs(row.gap) > oracle.AGREEMENT_TOL
            ]

        def norms(rep, env):
            out = []
            for row in rep.embedding_sweep:
                bound = self.lower_bound((cname, row.label), specs[row.label], cname)
                out += [(bound, row.semicrossed_value), (bound, row.crossed_value)]
            return out

        return Op(f"envelope {cname}", call, check, accuracy, norms)


# ---------------------------------------------------------------------------


class DeepTruncation(Workload):
    """A few large dense pictures and word searches: dense K x K builds and
    full SVDs take the time.  ``norm-sweep`` uses the same layer through
    tiny matrices, so a change that trades one regime for the other shows
    on one of the two."""

    name = "deep-truncation"
    nominal_pass_s = 8.5
    PI_K = (128, 256, 512, 1024)
    # two-sided truncation at K is 2K+1 wide: the same widths as PI_K
    PI2_K = (64, 128, 256, 512)
    EXHAUSTIVE_K = 10
    BEAM_K = 256
    BEAM_MODE = "beam:8"
    BEAM_OPS = 2
    # Calls per pass: pictures 1024 wide and more, and the beam searches,
    # take 0.5-1.2 s; the rest at most 0.15 s.
    HEAVY_WIDTH = 1024
    QUICK_REPEATS = 3
    # Fixed shapes (power -> window), random values: a dense picture costs
    # the same whatever the seed.
    SHAPE = {0: 2, 1: 1, 2: 2, 3: 1}
    EXHAUSTIVE_SHAPES = ({0: 1, 1: 2}, {0: 2, 1: 1, 2: 2}, {0: 1, 2: 2, 3: 1}, {0: 2, 1: 2, 2: 1, 3: 2})

    def _random(self, cname: str, shape=None) -> dict:
        return gen.poly_with_windows(self.rng, self.edges[cname], shape or self.SHAPE)

    def generate(self) -> dict:
        points = {
            kind: [
                (cname, pname)
                for cname, cfg in sorted(self.configs.items())
                for pname, p in sorted(cfg.get("points", {}).items())
                if p["kind"] == kind and (kind != "lasso" or p.get("pre"))
            ]
            for kind in ("stream", "bilasso", "lasso")
        }
        words = [c for c in sorted(self.configs) if not gen.is_permutation(self.edges[c])]
        two_symbol = [c for c in words if len(self.edges[c]) == 2]
        two_sided = gen.choose(self.rng, points["bilasso"], 1) + gen.choose(self.rng, points["lasso"], 1)
        cases = {
            "pi": [(c, p, self._random(c)) for c, p in points["stream"]],
            "Pi": [(c, p, self._random(c)) for c, p in two_sided],
            "exhaustive": [
                (c, self._random(c, shape)) for c in two_symbol for shape in self.EXHAUSTIVE_SHAPES
            ],
            "beam": [(c, self._random(c)) for c in gen.choose(self.rng, words, self.BEAM_OPS)],
        }
        order = [("pi", i, K) for i in range(len(cases["pi"])) for K in self.PI_K]
        order += [("Pi", i, K) for i in range(len(cases["Pi"])) for K in self.PI2_K]
        order += [("exhaustive", i, self.EXHAUSTIVE_K) for i in range(len(cases["exhaustive"]))]
        order += [("beam", i, self.BEAM_K) for i in range(len(cases["beam"]))]
        # closed forms: ||U|| = 1 (test_02) and the 1+U truncation (test_03)
        order += [("anchor", ("full-2", "thueMorse", "U"), 256)]
        order += [("anchor", ("golden-mean", "fib", "onePlusU"), 512)]
        return {"cases": cases, "order": self.shuffled(order)}

    def sizes(self) -> dict:
        cases = self.inputs["cases"]
        specs = [c[-1] for kind in cases.values() for c in kind]
        return {
            **_poly_count_windows(specs),
            "K": {
                "norm_pi_x": list(self.PI_K),
                "norm_Pi_x": list(self.PI2_K),
                "constant_A exhaustive": self.EXHAUSTIVE_K,
                f"constant_A {self.BEAM_MODE}": self.BEAM_K,
            },
            "configs": sorted({c[0] for kind in cases.values() for c in kind}),
            "points": sorted({f"{c[0]}/{c[1]}" for c in cases["pi"] + cases["Pi"]}),
        }

    def build(self, lib: SimpleNamespace) -> list:
        cfgs = self.load_configs(lib)
        cases = self.inputs["cases"]
        pi = [(cfgs[c].points[p], build_poly(lib, cfgs[c].graph, s)) for c, p, s in cases["pi"]]
        Pi = []
        for c, p, s in cases["Pi"]:
            x = cfgs[c].points[p]
            if not isinstance(x, lib.extension.BiLassoPoint):
                x = lib.extension.lift_point(x)
            Pi.append((x, lib.algebra.embed_poly(build_poly(lib, cfgs[c].graph, s))))
        exhaustive = [build_poly(lib, cfgs[c].graph, s) for c, s in cases["exhaustive"]]
        beam = [build_poly(lib, cfgs[c].graph, s) for c, s in cases["beam"]]
        ops = []
        for kind, i, K in self.inputs["order"]:
            if kind == "pi":
                op = self._pi_op(lib, i, K, *pi[i])
            elif kind == "Pi":
                op = self._Pi_op(lib, i, K, *Pi[i])
            elif kind == "exhaustive":
                op = self._exhaustive_op(lib, i, K, exhaustive[i])
            elif kind == "beam":
                op = self._beam_op(lib, i, K, beam[i])
            else:
                cname, pname, element = i
                cfg = cfgs[cname]
                op = self._anchor_op(lib, cname, element, K, cfg.points[pname], cfg.elements[element])
            width = 2 * K + 1 if kind == "Pi" else K
            heavy = kind == "beam" or width >= self.HEAVY_WIDTH
            op.repeats = 1 if heavy else self.QUICK_REPEATS
            ops.append(op)
        return ops

    def _monotone(self, env, kind: str, i: int, ks) -> list:
        values = [env.get(f"{kind} #{i} K={k}") for k in ks]
        values = [v for v in values if isinstance(v, float)]
        if any(b < a - oracle.REL_TOL for a, b in zip(values, values[1:])):
            return [f"{kind} #{i}: certified values decrease in K: {values}"]
        return []

    def _pi_op(self, lib, i, K, x, F) -> Op:
        spec = self.inputs["cases"]["pi"][i][2]

        def check(value, env):
            problems = check_norm_value(value, spec)
            if K == self.PI_K[0]:
                terms = oracle.spec_terms(spec)
                sym = lib.dynamics.itinerary(x, K + _wmax(spec))
                M = oracle.picture(terms, oracle.tuple_reader(sym), range(K - _degree(spec)), range(K))
                if not oracle.close(oracle.sigma_max(M), value):
                    problems.append(f"norm_pi_x {value!r} != oracle {oracle.sigma_max(M)!r}")
            if K == self.PI_K[-1]:
                problems += self._monotone(env, "norm_pi_x", i, self.PI_K)
            return problems

        return Op(f"norm_pi_x #{i} K={K}", lambda env: lib.representations.norm_pi_x(F, x, K), check)

    def _Pi_op(self, lib, i, K, x, E) -> Op:
        spec = self.inputs["cases"]["Pi"][i][2]

        def check(value, env):
            problems = check_norm_value(value, spec)
            if K == self.PI2_K[0]:
                terms = oracle.embedded_terms(oracle.spec_terms(spec))
                cols = range(-K, K - max(spec) + 1)
                M = oracle.picture(terms, x.window, cols, range(-K, K + 1))
                if not oracle.close(oracle.sigma_max(M), value):
                    problems.append(f"norm_Pi_x {value!r} != oracle {oracle.sigma_max(M)!r}")
            if K == self.PI2_K[-1]:
                problems += self._monotone(env, "norm_Pi_x", i, self.PI2_K)
            return problems

        return Op(f"norm_Pi_x #{i} K={K}", lambda env: lib.representations.norm_Pi_x(E, x, K), check)

    def _exhaustive_op(self, lib, i, K, F) -> Op:
        cname, spec = self.inputs["cases"]["exhaustive"][i]

        def check(res, env):
            terms = oracle.spec_terms(spec)
            value, _, count = oracle.window_norms(terms, self.edges[cname], K + _wmax(spec) - 1)
            problems = check_norm_value(res.value, spec)
            if not oracle.close(res.value, value):
                problems.append(f"exhaustive constant_A {res.value!r} != oracle {value!r}")
            if res.scored != count:
                problems.append(f"scored {res.scored} words, oracle has {count}")
            return problems

        call = lambda env: lib.representations.constant_A(F, K, mode="exhaustive")
        return Op(f"constant_A exhaustive #{i} {cname} K={K}", call, check)

    def _beam_op(self, lib, i, K, F) -> Op:
        cname, spec = self.inputs["cases"]["beam"][i]

        def check(res, env):
            terms = oracle.spec_terms(spec)
            word = tuple(res.word)
            problems = check_norm_value(res.value, spec)
            if len(word) != K + _wmax(spec) - 1 or not oracle.admissible(self.edges[cname], word):
                return problems + [f"beam word {word!r} is not an admissible window"]
            if not oracle.close(oracle.block_norm(terms, word), res.value):
                problems.append(f"beam value {res.value!r} is not its word's block norm")
            return problems

        call = lambda env: lib.representations.constant_A(F, K, mode=self.BEAM_MODE)
        return Op(f"constant_A {self.BEAM_MODE} #{i} {cname} K={K}", call, check)

    def _anchor_op(self, lib, cname, element, K, x, F) -> Op:
        expected = 1.0 if element == "U" else oracle.one_plus_u_anchor(K)

        def check(value, env):
            if abs(value - expected) > oracle.REL_TOL:
                return [f"{element} at K={K}: {value!r}, closed form {expected!r}"]
            return []

        call = lambda env: lib.representations.norm_pi_x(F, x, K)
        return Op(f"norm_pi_x {cname}/{element} K={K}", call, check)


# ---------------------------------------------------------------------------


class Certify(Workload):
    """The CLI's certification commands on every shipped config, called
    in-process; the nest-truncation tables of ``verify`` take the time."""

    name = "certify"
    nominal_pass_s = 14.0
    COMMANDS = ("verify", "analyze", "extend")
    # full-3 ``verify`` builds every admissible word of width 16 and runs
    # out of this budget; the failure is counted, not skipped.  It runs
    # after the other operations, so that peak_rss_mb shows their memory
    # rather than this limit.
    memory_budget_mib = 512
    KNOWN_BAD = {("full-3", "verify")}
    # Calls per pass: ``verify`` on a large graph takes 1.5-8 s, every
    # other call a few milliseconds.
    QUICK_REPEATS = 6

    def generate(self) -> dict:
        order = [(c, cmd) for c in sorted(self.configs) for cmd in self.COMMANDS]
        return {"order": self.shuffled(order)}

    def sizes(self) -> dict:
        return {
            "polynomials": 0,
            "windows": [],
            "K": "verify: nest K=16 base, K=8 extension; norm lemmas K<=128",
            "configs": sorted(self.configs),
            "commands": list(self.COMMANDS),
        }

    def build(self, lib: SimpleNamespace) -> list:
        self.load_configs(lib)
        return [self._op(lib, cname, cmd) for cname, cmd in self.inputs["order"]]

    def _op(self, lib, cname, cmd) -> Op:
        argv = [cmd, "--config", self.configs[cname]["_path"], "--no-timestamp"]

        def call(env):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = lib.cli.main(argv)
            return (rc, out.getvalue(), err.getvalue())

        def check(res, env):
            rc, text, err = res
            if rc != 0:
                return [f"exit code {rc}: {err.strip()[:200]}"]
            report = json.loads(text)
            results = report["results"]
            problems = [] if report["command"] == cmd else [f"report is for {report['command']}"]
            if cmd == "verify" and results.get("ok") is not True:
                problems.append("verify results.ok is not true")
            if cmd == "analyze" and results.get("all_agree") is not True:
                problems.append("analyze: base and extension properties disagree")
            if cmd == "extend":
                if sorted(results["fibers"]) != sorted(self.configs[cname].get("points", {})):
                    problems.append("extend: fibers do not match the config's points")
                if not results["cycles"]:
                    problems.append("extend: no cycles")
            return problems

        heavy = cmd == "verify" and cname in self.large
        repeats = 1 if heavy else self.QUICK_REPEATS
        return Op(f"cli {cmd} {cname}", call, check, repeats=repeats, last=(cname, cmd) in self.KNOWN_BAD)


# ---------------------------------------------------------------------------


class Algebra(Workload):
    """Polynomial arithmetic only; builds no matrices, so it bypasses the
    representations layer."""

    name = "algebra"
    nominal_pass_s = 0.12
    # Shapes (power -> window) of the factors F, G, H of one group: windows
    # up to 3, degrees up to 3.  Every graph gets every shape, so seeds
    # differ in values and order only, not in the amount of work.
    SHAPES = (
        ({0: 1, 1: 2}, {0: 2, 1: 1}, {1: 3}),
        ({0: 3, 2: 1}, {0: 1, 1: 1, 2: 2}, {0: 2, 1: 2}),
        ({0: 2, 1: 3, 3: 1}, {1: 2, 2: 3}, {0: 1, 2: 2, 3: 3}),
        ({0: 1, 1: 1, 2: 1, 3: 1}, {0: 3}, {0: 2, 3: 1}),
    )
    VALUE_SETS = 2
    K = 12  # truncation of the oracle's pictures
    SEGMENT = 40  # two-sided sample segment covers -SEGMENT .. SEGMENT

    def generate(self) -> dict:
        graphs = [c for c in sorted(self.configs) if len(self.edges[c]) in (2, 3)]
        plan = [(c, s) for c in graphs for s in self.SHAPES for _ in range(self.VALUE_SETS)]
        # alpha power 1..2 and V^-k with k in 1..3 cycle over the plan, so
        # they too are the same multiset for every seed
        plan = [(c, s, 1 + i % 2, 1 + i % 3) for i, (c, s) in enumerate(plan)]
        groups = []
        for cname, shape, alpha, k in self.shuffled(plan):
            e = self.edges[cname]
            F, G, H = (gen.poly_with_windows(self.rng, e, w) for w in shape)
            groups.append(
                {
                    "config": cname,
                    "F": F,
                    "G": G,
                    "H": H,
                    "c": complex(self.rng.uniform(-2, 2), self.rng.uniform(-2, 2)),
                    "alpha": alpha,
                    "k": k,
                    "walk": gen.random_walk(self.rng, e, 64),
                    "segment": gen.random_walk(self.rng, e, 2 * self.SEGMENT + 1),
                }
            )
        return {"groups": groups}

    def sizes(self) -> dict:
        groups = self.inputs["groups"]
        specs = [g[k] for g in groups for k in "FGH"]
        return {
            **_poly_count_windows(specs),
            "K": f"oracle pictures {self.K}x{self.K} one-sided, {2 * self.K + 1} two-sided",
            "configs": sorted({g["config"] for g in groups}),
            "groups": len(groups),
            "ops_per_group": 9,
        }

    def build(self, lib: SimpleNamespace) -> list:
        cfgs = self.load_configs(lib)
        ops = []
        for i, grp in enumerate(self.inputs["groups"]):
            g = cfgs[grp["config"]].graph
            F, G, H = (build_poly(lib, g, grp[k]) for k in "FGH")
            V = lib.algebra.crossed_u_power(g, -grp["k"])
            ops += self._group_ops(lib, i, grp, F, G, H, V)
        return ops

    def _group_ops(self, lib, i, grp, F, G, H, V) -> list:
        alg = lib.algebra
        p = f"#{i} "
        K, walk = self.K, grp["walk"]
        c, n, k = grp["c"], grp["alpha"], grp["k"]
        seg = oracle.tuple_reader(grp["segment"], origin=-self.SEGMENT)
        cols = range(-K, K + 1)
        T = oracle.poly_terms

        def one(terms, sym=walk):
            return oracle.picture(terms, oracle.tuple_reader(sym), range(K), range(K))

        def two(terms, shift=0):
            return oracle.picture(terms, seg, [col + shift for col in cols], cols)

        def spec(name):
            return one(oracle.spec_terms(grp[name]))

        def same(expected):
            def check(out, env):
                return [] if oracle.close(one(T(out)), expected()) else ["picture mismatch"]

            return check

        def check_alpha(out, env):
            if oracle.close(one(T(out)), one(oracle.spec_terms(grp["F"]), walk[n:])):
                return []
            return ["alpha(F) at x differs from F at the shifted point"]

        def check_embed(out, env):
            if T(out) == oracle.embedded_terms(oracle.spec_terms(grp["F"])):
                return []
            return ["embedded coefficients are not F's tables read from coordinate 1"]

        def check_cmul(out, env):
            # E V^-k: column j of the product is column j - k of E
            E = oracle.embedded_terms(oracle.spec_terms(grp["F"]))
            return [] if oracle.close(two(T(out)), two(E, -k)) else ["E V^-k picture mismatch"]

        def check_regularize(out, env):
            m, R = out
            Gc = T(env[p + "E*V^-k"])
            problems = []
            if any(power < 0 for power, _, _, _ in T(R)):
                problems.append("regularized element has negative powers")
            if not oracle.close(two(oracle.embedded_terms(T(R))), two(Gc, m)):
                problems.append("embed(F) != G V^m")
            lowest = min(power for power, _, _, _ in Gc)
            first = min(start for _, start, _, _ in Gc)
            if m > 0 and lowest + m - 1 >= 0 and first + m - 1 >= 1:
                problems.append(f"m = {m} is not the smallest shift")
            return problems

        return [
            Op(p + "F*G", lambda env: alg.multiply(F, G), same(lambda: spec("F") @ spec("G"))),
            Op(
                p + "(F*G)*H",
                lambda env: alg.multiply(env[p + "F*G"], H),
                same(lambda: spec("F") @ spec("G") @ spec("H")),
            ),
            Op(p + "F+G", lambda env: F + G, same(lambda: spec("F") + spec("G"))),
            Op(p + "F-G", lambda env: F - G, same(lambda: spec("F") - spec("G"))),
            Op(p + "c*F", lambda env: c * F, same(lambda: c * spec("F"))),
            Op(p + "alpha(F)", lambda env: alg.alpha_endomorphism(F, n), check_alpha),
            Op(p + "embed(F)", lambda env: alg.embed_poly(F), check_embed),
            Op(p + "E*V^-k", lambda env: alg.multiply(env[p + "embed(F)"], V), check_cmul),
            Op(
                p + "regularize",
                lambda env: alg.regularize_right_multiply(env[p + "E*V^-k"]),
                check_regularize,
            ),
        ]


WORKLOADS = {w.name: w for w in (NormSweep, DeepTruncation, Certify, Algebra)}
