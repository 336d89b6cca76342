"""Tests of the benchmark harness itself:

    python3 -m pytest bench/tests
"""

import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings(lib):
    """Every function-valued attribute of every package module, and the
    traced method, by identity."""
    out = {}
    for mod in workloads.package_modules():
        for attr, obj in vars(mod).items():
            if callable(obj):
                out[mod.__name__, attr] = id(obj)
    graph = lib.dynamics.SftGraph
    out["SftGraph", "admissible_words"] = id(graph.__dict__["admissible_words"])
    return out


def _slice(workload, lib):
    """A few cheap operations of one workload (whole groups, so operations
    that read an earlier one's output keep it)."""
    ops = workload.build(lib)
    if isinstance(workload, workloads.Algebra):
        return ops[:27]
    if isinstance(workload, workloads.Certify):
        return [op for op in ops if op.label.endswith(("fixed-point", "two-cycle"))]
    return [op for op in ops if not op.label.startswith("envelope")][:12]


@pytest.fixture(params=["algebra", "certify", "norm-sweep"])
def workload(request):
    return workloads.WORKLOADS[request.param](ROOT, seed=3)


def test_traced_run_restores_every_wrapped_attribute(workload):
    lib = workloads.import_library()
    ops = _slice(workload, lib)
    before = _bindings(lib)
    tracer = tracing.Tracer(lib.modules, workloads.package_modules())
    with tracer:
        # names rebound by importing modules are wrapped too
        assert lib.cli.build_pi_x is lib.representations.build_pi_x
        assert lib.cli.build_pi_x.__wrapped__ is not None
        assert lib.package.multiply is lib.algebra.multiply
        assert hasattr(lib.dynamics.SftGraph.admissible_words, "__wrapped__")
        run.run_phase(ops, 1, tracer)
    assert tracer.spans
    assert _bindings(lib) == before


def test_self_time_on_synthetic_nested_spans():
    # (name, op, start, end, parent, error)
    spans = [
        ("cli.main", 0, 0.0, 10.0, -1, None),
        ("representations.verify_nest_truncation", 0, 1.0, 4.0, 0, None),
        ("extension.make_two_sided", 0, 2.0, 3.0, 1, None),
        ("representations.build_Pi_x", 0, 5.0, 9.0, 0, "MemoryError"),
        ("dynamics.itinerary", 0, 6.0, 6.5, 3, "MemoryError"),
        ("representations.operator_norm", 0, 6.5, 8.0, 3, None),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    summary = tracing.summarize(spans, {})
    layers = summary["layer_self_s"]
    assert layers["cli"] == pytest.approx(3.0)
    assert layers["representations"] == pytest.approx(2.0 + 2.0 + 1.5)
    assert layers["extension"] == pytest.approx(1.0)
    assert layers["dynamics"] == pytest.approx(0.5)
    assert sum(layers.values()) == pytest.approx(10.0)
    # an exception counts once per layer it leaves
    assert summary["errors"]["dynamics"] == {"MemoryError": 1}
    assert summary["errors"]["representations"] == {"MemoryError": 1}
    assert summary["errors"]["cli"] == {}


def test_traced_and_untraced_runs_return_identical_results(workload):
    lib = workloads.import_library()
    plain = run.run_phase(_slice(workload, lib), 1)
    lib = workloads.import_library()
    tracer = tracing.Tracer(lib.modules, workloads.package_modules())
    with tracer:
        traced = run.run_phase(_slice(workload, lib), 1, tracer)
    assert traced.digests == plain.digests
    assert not plain.raised


def test_calls_made_depend_on_the_operation_list_alone():
    order = []

    def op(label, repeats=1, last=False, fail=False):
        def call(env):
            order.append(label)
            if fail:
                raise MemoryError
            return label

        return workloads.Op(label, call, lambda out, env: [], repeats=repeats, last=last)

    ops = [op("a", repeats=3), op("bad", last=True, fail=True), op("b")]
    phase = run.run_phase(ops, 2)
    # a's calls at 0, 1/3 and 2/3 of the pass, b's at 1/2; the ``last`` op
    # after every pass
    assert order == ["a", "a", "b", "a"] * 2 + ["bad"]
    assert [len(t) for t in phase.times] == [6, 1, 2]
    assert len(phase.reference) >= 2  # the reference kernel is timed every pass
    assert phase.raised == {1}
    assert run.attempted_calls(phase) == 9
    assert run.check_phase(ops, phase).failed == 1


def test_norm_sweep_times_no_draws_and_checks_all():
    w = workloads.NormSweep(ROOT, seed=3)
    draws = {(c, k) for c, per in w.inputs["polys"].items() for k in per if k.startswith("r")}
    timed = {(c, k) for kind, c, k in w.inputs["order"] if (c, k) in draws}
    checked = {(c, k) for kind, c, k in w.inputs["checked"]}
    assert len(draws) == 77
    assert checked == draws and not timed


def test_oracle_reproduces_the_norm_of_one_plus_u():
    edges = ((True, True), (True, True))  # full 2-shift
    one = {w: 1 + 0j for w in gen.admissible_words(edges, 1)}
    spec = {0: (0, 1, one), 1: (0, 1, one)}
    terms = oracle.spec_terms(spec)
    # test_03: the column-complete truncation at K = 512 has norm 2 cos(pi/1024)
    assert oracle.block_norm(terms, (0,) * 511) == pytest.approx(2 * math.cos(math.pi / 1024), abs=1e-9)
    assert oracle.one_plus_u_anchor(512) == pytest.approx(2 * math.cos(math.pi / 1024), abs=1e-15)
    # every window of n columns gives 2 cos(pi / (2n + 2)), below ||1 + U|| = 2 = l1
    value, _, count = oracle.window_norms(terms, edges, 10)
    assert count == 2**10
    assert value == pytest.approx(2 * math.cos(math.pi / 22), abs=1e-12)
    assert oracle.closed_form(spec) == 2.0
    assert oracle.l1(terms) == 2.0


def test_inputs_are_a_function_of_the_seed():
    for name, cls in workloads.WORKLOADS.items():
        first = gen.digest(cls(ROOT, seed=7).inputs)
        assert gen.digest(cls(ROOT, seed=7).inputs) == first, name
        assert gen.digest(cls(ROOT, seed=8).inputs) != first, name


def test_harrell_davis():
    assert run.harrell_davis([5.0], 0.5) == pytest.approx(5.0)
    assert run.harrell_davis(list(range(101)), 0.5) == pytest.approx(50.0)
    # across a gap in the middle it moves part of the way, not the whole gap
    low = run.harrell_davis([1.0] * 73 + [2.0] * 70, 0.5)
    high = run.harrell_davis([1.0] * 70 + [2.0] * 73, 0.5)
    assert 1.0 < low < high < 2.0
    # a tail quantile weighs the top ranks
    values = list(range(1, 254))
    p = run.tail_percentile(len(values))
    assert p == 96.0
    assert 240 < run.harrell_davis(values, p / 100) < 246


def test_each_call_is_scaled_by_the_kernel_timings_around_it():
    nominal = run.reference.NOMINAL_S
    phase = run.Phase(times=[[0.2, 0.4]], starts=[[0.5, 10.0]])
    # the machine ran at reference speed near t = 0 and at half speed near t = 10
    phase.reference_at = [0.0, 0.3, 10.5]
    phase.reference = [nominal, nominal, 2 * nominal]
    assert phase.scaled_times() == [[pytest.approx(0.2), pytest.approx(0.2)]]
    # with no timing within the window, the nearest one scales the call
    phase.starts = [[0.5, 5.0]]
    assert phase.scaled_times() == [[pytest.approx(0.2), pytest.approx(0.4)]]
