"""Invertible extension: bi-infinite points, lifting, property transfer,
and two-sided cylinder functions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicrossed.dynamics import (
    cylinder_add,
    cylinder_mul,
    eval_cylinder,
    itinerary,
    make_cylinder,
    make_lasso,
    make_stream,
    shift_point,
    sup_norm,
    validate_sft,
)
from semicrossed.errors import GeneratorExhausted, WordInadmissible
from semicrossed.extension import (
    PROPERTIES,
    apply_phi_tilde,
    backward_orbit_view,
    bilasso_from_cycle,
    classify_extended_point,
    embed_function,
    eval_two_sided,
    lift_point,
    make_bilasso,
    make_two_sided,
    project_p,
    property_check,
    ray_point,
    same_bisequence,
    shift_window,
    to_one_sided,
    transfer_check,
)
from semicrossed import streams

from semicrossed.representations import seam_points

from conftest import rand_cylinder, rand_graph, rand_lasso


def _walks(g, length, rng):
    w = [rng.choice(range(g.alphabet_size))]
    while not g.followers(w[0]):  # pragma: no cover - validated graphs
        w = [rng.choice(range(g.alphabet_size))]
    for _ in range(length - 1):
        w.append(rng.choice(g.followers(w[-1])))
    return tuple(w)


# ---------------------------------------------------------------------------
# bi-lasso construction and canonical form


def test_bilasso_symbol_layout(gm):
    x = make_bilasso(gm, (0,), (1, 0, 0), 2, (0, 1))
    # left of start: cycle (0) ending at index 1; center at 2,3,4; right cycle after
    assert [x.symbol_at(i) for i in range(-2, 9)] == [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1]
    assert x.window(2, 5) == (1, 0, 0)


def test_bilasso_rejects_bad_loops_and_seams(gm):
    with pytest.raises(WordInadmissible):
        make_bilasso(gm, (1,), (), 0, (0,))  # left loop 1->1 inadmissible
    with pytest.raises(WordInadmissible):
        make_bilasso(gm, (0,), (1, 1), 0, (0,))  # center word inadmissible
    with pytest.raises(WordInadmissible):
        make_bilasso(gm, (0, 1), (), 0, (1, 0))  # seam 1->1 at the junction


def test_canonical_form_periodic_least_rotation(full2):
    # a globally periodic sequence is stored as its least rotation with the
    # anchor in the first period window
    x = make_bilasso(full2, (1, 0, 1, 0), (), 4, (1, 0, 1, 0))
    assert x.left == (0, 1) and x.right == (0, 1) and x.center == ()
    assert 0 <= x.start < 2
    y = make_bilasso(full2, (0, 1), (), -3, (0, 1))
    assert y.left == y.right == (0, 1)
    assert 0 <= y.start < 2


def test_canonical_form_absorbs_center_into_loops(full2):
    # trailing center symbols equal to the right loop's last symbol are
    # absorbed by rotating the loop; leading ones matching the left loop
    # head move the anchor instead
    x = make_bilasso(full2, (0,), (1, 1, 0), 0, (1, 0))
    assert x.center == (1,) and x.right == (1, 0)
    y = make_bilasso(full2, (0,), (0, 1, 1, 0), 0, (1, 0))
    assert y.center == (1,) and y.start == 1
    assert same_bisequence(x, make_bilasso(full2, (0,), (1,), 0, (1, 0)))


def test_junction_of_identical_loops_collapses(full2):
    # aperiodic seam between two copies of the same loop word at different
    # phases stays aperiodic; identical phases collapse to a periodic point
    per = make_bilasso(full2, (0, 1), (), 6, (0, 1))
    assert classify_extended_point(per).periodic
    seam = make_bilasso(full2, (1, 0), (), 7, (0, 1))
    cls = classify_extended_point(seam)
    assert not cls.periodic and cls.finite_coordinate_repeats


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_make_bilasso_preserves_bisequence(data):
    g = validate_sft(2, [[1, 1], [1, 0]])
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    left = _walks(g, data.draw(st.integers(1, 4)), rng)
    if not g.is_edge(left[-1], left[0]):
        return
    center = ()
    right = left if data.draw(st.booleans()) else None
    if right is None:
        right = _walks(g, data.draw(st.integers(1, 4)), rng)
        if not (g.is_edge(right[-1], right[0]) and g.is_edge(right[-1], right[0])):
            return
    start = data.draw(st.integers(-6, 6))
    lw, rw = len(left), len(right)
    # seams: left loop tail -> center/right head
    if not g.is_edge(left[-1], right[0]):
        return
    x = make_bilasso(g, left, center, start, right)

    def raw(i):
        if i < start:
            return left[(i - start) % lw]
        return right[(i - start) % rw]

    for i in range(start - 3 * lw * rw, start + 3 * lw * rw):
        assert x.symbol_at(i) == raw(i)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_idempotent_and_semantic(data):
    g = validate_sft(2, [[1, 1], [1, 1]])
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    left = _walks(g, data.draw(st.integers(1, 3)), rng)
    right = _walks(g, data.draw(st.integers(1, 3)), rng)
    center = _walks(g, data.draw(st.integers(0, 3)), rng) if data.draw(st.booleans()) else ()
    start = data.draw(st.integers(-5, 5))
    x = make_bilasso(g, left, center, start, right)
    again = make_bilasso(g, x.left, x.center, x.start, x.right)
    assert x == again
    assert same_bisequence(x, again)


def test_equality_is_semantic(full2):
    a = make_bilasso(full2, (0, 1), (1, 1), 2, (0,))
    b = make_bilasso(full2, (1, 0), (1, 1), 2, (0,))
    # different presentations of the same sequence normalize to equal objects
    assert same_bisequence(a, b) == (a == b)


# ---------------------------------------------------------------------------
# the homeomorphism and its inverse


def test_phi_tilde_shifts_windows(gm):
    x = make_bilasso(gm, (0, 1), (0, 0), 1, (0,))
    y = apply_phi_tilde(x, 3)
    for i in range(-6, 7):
        assert y.symbol_at(i) == x.symbol_at(i + 3)


@given(st.integers(-5, 5))
@settings(max_examples=20, deadline=None)
def test_phi_tilde_round_trip(n):
    g = validate_sft(2, [[1, 1], [1, 0]])
    x = make_bilasso(g, (0, 1), (0, 0, 1), 0, (0,))
    assert apply_phi_tilde(apply_phi_tilde(x, n), -n) == x


def test_phi_tilde_preserves_classification(full2):
    x = make_bilasso(full2, (0, 1), (), 3, (0, 1, 1))
    for n in (-2, 1, 5):
        assert classify_extended_point(apply_phi_tilde(x, n)) == classify_extended_point(x)


# ---------------------------------------------------------------------------
# lifting one-sided points


def test_lift_periodic_point_uses_least_predecessors(gm):
    x = make_lasso(gm, (), (0, 1))
    xt = lift_point(x)
    # the backward history fills with the least admissible predecessor (0),
    # giving ...000 . (01)^inf rather than the rotation-periodic lift
    assert xt == make_bilasso(gm, (0,), (), 1, (0, 1))
    assert itinerary(project_p(xt), 8) == itinerary(x, 8)


def test_lift_fixed_point_is_periodic(gm):
    xt = lift_point(make_lasso(gm, (), (0,)))
    assert classify_extended_point(xt).periodic
    assert classify_extended_point(xt).period == 1


def test_project_after_lift_is_identity(gm, full2):
    rng = random.Random(9)
    for g in (gm, full2):
        for _ in range(20):
            walk = _walks(g, rng.randint(1, 6), rng)
            per = _walks(g, rng.randint(1, 3), rng)
            if not (g.is_edge(per[-1], per[0]) and g.is_edge(walk[-1], per[0])):
                continue
            x = make_lasso(g, walk, per)
            assert itinerary(project_p(lift_point(x)), 24) == itinerary(x, 24)


def test_backward_orbit_coordinates_satisfy_the_defining_relation(gm):
    """Coordinate n of the backward orbit maps to coordinate n-1 under the
    one-sided shift: that is what being a backward orbit means."""
    xt = lift_point(make_lasso(gm, (1, 0, 0, 1), (0, 0, 1)))
    coords = backward_orbit_view(xt, 6)
    for n in range(1, 6):
        assert itinerary(shift_point(coords[n]), 16) == itinerary(coords[n - 1], 16)


def test_lift_stream_point_round_trip(full2):
    x = make_stream(full2, streams.ThueMorse(), check_to=512)
    # streams lift via their certified prefix; check through a lasso stand-in
    pre = itinerary(x, 40)
    y = make_lasso(full2, pre, (0,))
    xt = lift_point(y)
    assert itinerary(project_p(xt), 40) == pre


def test_bilasso_from_cycle(gm):
    x = bilasso_from_cycle(gm, (0, 1))
    assert classify_extended_point(x).periodic
    assert [x.symbol_at(i) for i in range(1, 5)] == [0, 1, 0, 1]


# ---------------------------------------------------------------------------
# property transfer


EXPECTED_BASE = {
    "full-2": dict(transitive=True, periodic_dense=True, minimal=False, recurrent_dense=True),
    "golden-mean": dict(transitive=True, periodic_dense=True, minimal=False, recurrent_dense=True),
    "two-cycle": dict(transitive=True, periodic_dense=True, minimal=True, recurrent_dense=True),
    "sink-tail": dict(
        transitive=False, periodic_dense=False, minimal=False, recurrent_dense=False
    ),
    "two-fixed-points": dict(
        transitive=False, periodic_dense=True, minimal=False, recurrent_dense=True
    ),
}


def test_property_table_pinned_values():
    from semicrossed.catalog import get_system

    for name, want in EXPECTED_BASE.items():
        g = get_system(name)
        for prop, value in want.items():
            assert property_check(g, prop, "base") == value, (name, prop)


def test_transfer_agreement_whole_catalog():
    """Base and extension predicates are computed by different algorithms
    (word closure vs strongly-connected components) and must agree."""
    from semicrossed.catalog import CATALOG

    for name, entry in CATALOG.items():
        for row in transfer_check(entry.graph):
            assert row.agreement, (name, row)


def _tarjan_scc_ids(g) -> list:
    """Iterative Tarjan strongly-connected-component ids: the component
    rule the extension side used before its transitive closure, kept as the
    reference."""
    m = g.alphabet_size
    index, low, comp = [-1] * m, [0] * m, [-1] * m
    on_stack = [False] * m
    stack: list = []
    counter = n_comp = 0
    for root in range(m):
        if index[root] != -1:
            continue
        work = [(root, iter(g.followers(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(g.followers(w))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
    return comp


def _reference_property(g, prop: str, side: str) -> bool:
    """The property checks as they were before the exact edge test and the
    transitive closure: the base side closes every admissible word up to
    length 6, the extension side compares Tarjan components."""
    m = g.alphabet_size
    if side == "extension":
        comp = _tarjan_scc_ids(g)
        if prop == "transitive":
            return len(set(comp)) == 1
        if prop == "minimal":
            return g.is_permutation() and len(set(comp)) == 1
        return all(comp[a] == comp[b] for a in range(m) for b in range(m) if g.edges[a][b])
    reach = {}
    for a in range(m):
        seen, frontier = {a}, [a]
        while frontier:
            for w in g.followers(frontier.pop()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        reach[a] = seen
    if prop == "transitive":
        return all(b in reach[a] for a in range(m) for b in range(m))
    if prop == "minimal":
        return g.count_words(2) == m and all(b in reach[a] for a in range(m) for b in range(m))
    return all(w[0] in reach[w[-1]] for n in range(1, 7) for w in g.admissible_words(n))


@given(st.integers(0, 10**9), st.sampled_from([0.3, 0.5, 0.7]))
@settings(max_examples=150, deadline=None)
def test_property_checks_match_the_reference(seed, density):
    """The exact edge test (base) and the components of the transitive
    closure (extension) give the verdicts of the word-closure loop and of
    Tarjan's components, for every property on random graphs of up to 7
    symbols."""
    g = rand_graph(random.Random(seed), 7, density)
    for prop in PROPERTIES:
        for side in ("base", "extension"):
            assert property_check(g, prop, side) == _reference_property(g, prop, side), (prop, side)


def test_property_check_rejects_unknown(gm):
    with pytest.raises(ValueError):
        property_check(gm, "mixing", "base")
    with pytest.raises(ValueError):
        property_check(gm, "minimal", "sideways")
    assert set(PROPERTIES) == {"transitive", "periodic_dense", "minimal", "recurrent_dense"}


# ---------------------------------------------------------------------------
# two-sided cylinder functions


def test_embed_function_anchors_at_one(gm):
    rng = random.Random(11)
    f = rand_cylinder(rng, gm, 2)
    ft = embed_function(f)
    assert ft.start == 1 and ft.window == 2
    x = bilasso_from_cycle(gm, (0, 1))
    assert eval_two_sided(ft, x) == eval_cylinder(f, ray_point(x, 1))


def test_two_sided_eval_reads_window_at_start(full2):
    ft = make_two_sided(full2, -1, 3, {w: float(sum(w)) for w in full2.admissible_words(3)})
    x = make_bilasso(full2, (0,), (1, 1, 0), 0, (0, 1))
    assert eval_two_sided(ft, x) == float(x.symbol_at(-1) + x.symbol_at(0) + x.symbol_at(1))


def test_shift_window_translates_evaluation(full2):
    rng = random.Random(12)
    f = rand_cylinder(rng, full2, 2)
    ft = embed_function(f)
    x = make_bilasso(full2, (0, 1), (1,), 0, (0,))
    for n in (-3, -1, 0, 2):
        moved = shift_window(ft, n)
        assert moved.start == ft.start + n
        assert eval_two_sided(moved, x) == eval_two_sided(ft, apply_phi_tilde(x, n))


def test_to_one_sided_round_trip(gm):
    rng = random.Random(13)
    f = rand_cylinder(rng, gm, 2)
    assert to_one_sided(embed_function(f)) == f
    # windows reaching left of the anchor cannot come back
    with pytest.raises(ValueError):
        to_one_sided(shift_window(embed_function(f), -1))
    # windows strictly right of the anchor come back as f after two shifts
    pushed = to_one_sided(shift_window(embed_function(f), 2))
    for pre, per in (((0, 1), (0, 0, 1)), ((1,), (0,)), ((), (0, 1)), ((1, 0, 1), (0,))):
        x = make_lasso(gm, pre, per)
        y = shift_point(shift_point(x))
        assert eval_cylinder(pushed, x) == eval_cylinder(f, y)


def test_arithmetic_never_mixes_flavours(full2):
    f = make_two_sided(full2, 1, 1, {(0,): 1.0, (1,): 2.0})
    down = to_one_sided(f)
    for op in (cylinder_add, cylinder_mul):
        with pytest.raises(TypeError):
            op(f, down)
        with pytest.raises(TypeError):
            op(down, f)
    assert down != f and embed_function(down) == f


def test_two_sided_arithmetic_and_norm(full2):
    a = make_two_sided(full2, 0, 1, {(0,): 1.0, (1,): -2.0})
    b = make_two_sided(full2, 1, 1, {(0,): 0.5, (1,): 3.0})
    x = make_bilasso(full2, (0,), (1,), 1, (0,))
    s = cylinder_add(a, b)
    p = cylinder_mul(a, b)
    assert eval_two_sided(s, x) == eval_two_sided(a, x) + eval_two_sided(b, x)
    assert eval_two_sided(p, x) == eval_two_sided(a, x) * eval_two_sided(b, x)
    assert sup_norm(a) == 2.0


# ---------------------------------------------------------------------------
# range reads agree with symbol-by-symbol reads


def _range(data, x):
    """A (lo, hi) pair wholly left of the center, straddling it, wholly
    right of it, empty, or reversed."""
    s, e = x.start, x.center_end
    kind = data.draw(st.sampled_from(["left", "straddle", "right", "empty", "reversed"]))
    if kind == "left":
        hi = data.draw(st.integers(s - 30, s))
        return hi - data.draw(st.integers(1, 30)), hi
    if kind == "straddle":
        return s - data.draw(st.integers(1, 30)), e + data.draw(st.integers(1, 30))
    if kind == "right":
        lo = data.draw(st.integers(e, e + 30))
        return lo, lo + data.draw(st.integers(1, 30))
    lo = data.draw(st.integers(s - 40, e + 40))
    return lo, lo - (kind == "reversed") * data.draw(st.integers(1, 10))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_window_and_itinerary_match_symbol_reads(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    g = rand_graph(rng, 4)
    y = rand_lasso(rng, g)
    points = [lift_point(y), *seam_points(g, cap=3)]
    x = apply_phi_tilde(data.draw(st.sampled_from(points)), data.draw(st.integers(-6, 6)))
    for _ in range(4):
        lo, hi = _range(data, x)
        assert x.window(lo, hi) == tuple(x.symbol_at(i) for i in range(lo, hi))
    n = data.draw(st.integers(0, 3 * (len(y.pre) + len(y.per)) + 5))
    assert itinerary(y, n) == tuple(y.symbol_at(k) for k in range(n))

    # streams on the full 2-shift, where every rule below is admissible
    full2 = validate_sft(2, [[1, 1], [1, 1]])
    rules = {
        "thue-morse": streams.ThueMorse,
        "fibonacci": streams.fibonacci_word,
        "mechanical": streams.golden_mechanical,
        "prefixed": lambda: streams.prefixed((1, 1, 0), streams.fibonacci_word()),
        "nested": lambda: streams.prefixed((1,), streams.prefixed((0, 1), streams.thue_morse_substitution())),
    }
    make = rules[data.draw(st.sampled_from(sorted(rules)))]
    offset = data.draw(st.integers(0, 20))
    check_to = data.draw(st.integers(1, 80))
    x = make_stream(full2, make(), check_to, offset)
    reference = make()  # a separate instance expands its own prefix
    for length in data.draw(st.lists(st.integers(0, 90), min_size=1, max_size=4)):
        if length > max(0, check_to - offset):
            with pytest.raises(GeneratorExhausted):
                itinerary(x, length)
        else:
            assert itinerary(x, length) == tuple(reference.symbol(offset + k) for k in range(length))


def test_substitution_prefix_stays_out_of_equality():
    a, b = streams.fibonacci_word(), streams.fibonacci_word()
    assert a.symbols(0, 4096)[:8] == (0, 1, 0, 0, 1, 0, 1, 0)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert len(a._expanded) >= 4096 and not b._expanded


def test_evaluation_at_a_point_of_another_graph_raises(gm, full2):
    """1^inf is a full-2 point and no golden-mean point: a golden-mean
    cylinder of either flavour has no value there, as ``build_pi_x`` has no
    picture."""
    values = {(0,): 1, (1,): 2}
    with pytest.raises(ValueError, match="another graph"):
        eval_cylinder(make_cylinder(gm, 1, values), make_lasso(full2, (), (1, 1)))
    with pytest.raises(ValueError, match="another graph"):
        eval_two_sided(make_two_sided(gm, 0, 1, values), make_bilasso(full2, (1,), (), 0, (1,)))
    # a graph equal to golden-mean's, built separately, is its graph
    same = validate_sft(2, [[1, 1], [1, 0]])
    assert eval_cylinder(make_cylinder(gm, 1, values), make_lasso(same, (), (0, 1))) == 1
    assert eval_two_sided(make_two_sided(gm, 0, 1, values), make_bilasso(same, (0,), (1,), 0, (0,))) == 2


def test_points_of_two_graphs_are_never_the_same_bisequence(full2, full3):
    """The fixed point 0 of full-2 and of full-3 read the same symbols, but
    they are points of different spaces."""
    x, y = bilasso_from_cycle(full2, (0,)), bilasso_from_cycle(full3, (0,))
    assert x.window(-4, 4) == y.window(-4, 4)
    assert not same_bisequence(x, y)
    assert same_bisequence(x, bilasso_from_cycle(full2, (0, 0)))
