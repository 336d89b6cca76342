"""One-sided shift spaces: validation, words, cycles, points, cylinder functions."""

import math
import operator
import pickle
import random
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semicrossed import dynamics
from semicrossed.config import load_config
from semicrossed.dynamics import (
    MAX_CHECKED_SYMBOLS,
    MAX_LISTED_WORDS,
    ArrayTable,
    CylinderFunction,
    IndicatorTable,
    WordTable,
    _cycle_positions,
    _exact,
    _gather,
    _primitive_root,
    _positions,
    _product,
    _rank,
    _rows,
    as_word,
    classify_point,
    compose_shift,
    constant_cylinder,
    cylinder_add,
    cylinder_mul,
    cylinder_scale,
    enumerate_cycles,
    eval_cylinder,
    extend_window,
    girth,
    itinerary,
    is_constant,
    make_cylinder,
    make_lasso,
    make_stream,
    shift_point,
    sup_norm,
    table_values,
    validate_sft,
)
from semicrossed.algebra import crossed_poly, from_function, multiply, semicrossed_poly
from semicrossed.catalog import catalog_names, get_system
from semicrossed.errors import (
    DeadState,
    GeneratorExhausted,
    NotSurjective,
    Overflow,
    WordInadmissible,
)
from semicrossed.extension import TwoSidedCylinder, make_two_sided
from semicrossed import streams

from conftest import rand_cylinder, rand_graph


# ---------------------------------------------------------------------------
# graph validation


def test_dead_state_rejected():
    with pytest.raises(DeadState):
        validate_sft(2, [[1, 0], [0, 0]])


def test_non_surjective_rejected():
    # symbol 0 has no predecessor: the shift would not be onto
    with pytest.raises(NotSurjective):
        validate_sft(2, [[0, 1], [0, 1]])


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        validate_sft(2, [[1, 1]])
    with pytest.raises(ValueError):
        validate_sft(2, [[1, 1, 1], [1, 1, 1]])


def test_graph_queries(gm):
    assert gm.is_edge(0, 1) and not gm.is_edge(1, 1)
    assert gm.followers(0) == (0, 1)
    assert gm.followers(1) == (0,)
    assert gm.predecessors(1) == (0,)
    assert gm.word_admissible((0, 1, 0, 0, 1))
    assert not gm.word_admissible((0, 1, 1))
    assert not gm.word_admissible((0, 2))


def test_golden_mean_word_counts(gm):
    # words avoiding "11" are counted by Fibonacci numbers
    assert [gm.count_words(n) for n in range(1, 7)] == [2, 3, 5, 8, 13, 21]
    for n in range(1, 7):
        assert len(gm.admissible_words(n)) == gm.count_words(n)


def test_count_words_matches_enumeration_full3(full3):
    assert full3.count_words(4) == 81
    assert len(full3.admissible_words(4)) == 81


def test_equal_graphs_share_their_hash_and_cache_entries():
    a = validate_sft(2, [[1, 1], [1, 0]])
    b = validate_sft(2, [(True, True), (True, False)])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != validate_sft(2, [[1, 1], [1, 1]]) and a != (2, a.edges)
    assert a.admissible_words(5) is b.admissible_words(5)
    assert _positions(a, 4) is _positions(b, 4)
    assert _gather(a, 4, 1, 2) is _gather(b, 4, 1, 2)
    c = pickle.loads(pickle.dumps(a))
    assert c == a and hash(c) == hash(a) and {a: 1}[c] == 1
    assert c.admissible_words(5) is a.admissible_words(5)


def test_permutation_predicates(cyc2, full2):
    assert cyc2.is_permutation()
    assert not full2.is_permutation()


# ---------------------------------------------------------------------------
# cycles


def test_full2_cycles_up_to_4(full2):
    words = [c.word for c in enumerate_cycles(full2, 4)]
    assert words == [
        (0,),
        (1,),
        (0, 1),
        (0, 0, 1),
        (0, 1, 1),
        (0, 0, 0, 1),
        (0, 0, 1, 1),
        (0, 1, 1, 1),
    ]


def test_cycles_are_least_rotations_and_primitive(gm):
    for c in enumerate_cycles(gm, 5):
        rots = [c.word[i:] + c.word[:i] for i in range(len(c.word))]
        assert c.word == min(rots)
        assert len(set(rots)) == len(c.word)  # primitive


def test_cycle_cap_overflow(full2):
    with pytest.raises(Overflow):
        enumerate_cycles(full2, 8, cap=3)


def test_cycle_cap_overflow_is_raised_on_every_call(full2):
    """The cycle cache keeps listings, not failures: each call past the cap
    raises again, and the listing under the cap is still returned."""
    for _ in range(3):
        with pytest.raises(Overflow):
            enumerate_cycles(full2, 4, cap=7)
    assert len(enumerate_cycles(full2, 4, cap=8)) == 8


def test_girth():
    assert girth(validate_sft(2, [[0, 1], [1, 0]])) == 2
    assert girth(validate_sft(3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == 3
    assert girth(validate_sft(2, [[1, 1], [1, 0]])) == 1


# ---------------------------------------------------------------------------
# lasso points


def test_lasso_normal_form(gm):
    # period reduced to its primitive root
    x = make_lasso(gm, (), (0, 1, 0, 1))
    assert x.per == (0, 1) and x.pre == ()
    # preperiod symbols that duplicate the period tail are absorbed
    y = make_lasso(gm, (0, 1, 0), (0, 1, 0))
    assert y.preperiod == 0
    # the sequence itself is unchanged by normalization
    z = make_lasso(gm, (0, 0, 1), (0, 0, 1))
    assert itinerary(z, 12) == (0, 0, 1) * 4


def test_lasso_rejects_inadmissible(gm):
    with pytest.raises(WordInadmissible):
        make_lasso(gm, (), (1, 1))
    with pytest.raises(WordInadmissible):
        make_lasso(gm, (1, 1), (0,))
    with pytest.raises(WordInadmissible):
        # seam pre->per and the period wrap must both be edges
        make_lasso(gm, (1,), (1, 0))


def test_lasso_empty_period_rejected(gm):
    with pytest.raises(ValueError):
        make_lasso(gm, (0,), ())


def test_shift_point_drops_first_symbol(gm):
    x = make_lasso(gm, (1, 0), (0, 1))
    assert itinerary(shift_point(x), 8) == itinerary(x, 9)[1:]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lasso_normalization_preserves_sequence(data):
    g = validate_sft(2, [[1, 1], [1, 0]])
    # build an arbitrary admissible walk, split into pre | per
    length = data.draw(st.integers(2, 10))
    walk = [data.draw(st.sampled_from(g.followers(0)))]
    for _ in range(length - 1):
        walk.append(data.draw(st.sampled_from(g.followers(walk[-1]))))
    cut = data.draw(st.integers(0, length - 1))
    pre, per = tuple(walk[:cut]), tuple(walk[cut:])
    if not g.is_edge(per[-1], per[0]):
        return  # not a closable period; nothing to test
    x = make_lasso(g, pre, per)
    want = tuple((pre + per * (20 // len(per) + 2))[:20])
    assert itinerary(x, 20) == want


def test_classify_lasso(gm):
    assert classify_point(make_lasso(gm, (), (0, 1))).kind == "periodic"
    c = classify_point(make_lasso(gm, (1,), (0,)))
    assert c.kind == "eventually_periodic" and c.preperiod == 1 and c.period == 1


# ---------------------------------------------------------------------------
# itinerary streams


def test_thue_morse_stream(full2):
    x = make_stream(full2, streams.ThueMorse(), check_to=512)
    # parity of binary digit sums, computed here independently
    want = tuple(bin(n).count("1") % 2 for n in range(24))
    assert itinerary(x, 24) == want


def test_stream_horizon_is_enforced(full2):
    x = make_stream(full2, streams.ThueMorse(), check_to=32)
    itinerary(x, 32)
    with pytest.raises(GeneratorExhausted):
        itinerary(x, 33)


def test_stream_past_its_horizon_reads_nothing(full2):
    """A stream shifted past its horizon still reads zero symbols; reading
    one raises."""
    x = shift_point(shift_point(make_stream(full2, streams.ThueMorse(), check_to=1)))
    assert x.horizon == 0 and itinerary(x, 0) == ()
    with pytest.raises(GeneratorExhausted, match="length 1 exceeds certified horizon 0"):
        itinerary(x, 1)


def test_stream_rejects_a_negative_offset(full2):
    """A negative offset read symbols before the rule's start: at -2 the
    prefixed Thue-Morse stream read (1, 0, 1, 1, 0, 0) with horizon 18."""
    rule = streams.prefixed((1, 1, 0), streams.ThueMorse())
    with pytest.raises(ValueError, match="offset"):
        make_stream(full2, rule, 16, offset=-2)


def test_shift_point_moves_a_stream_one_symbol():
    g = get_system("golden-mean")
    x = make_stream(g, streams.prefixed((1, 0, 0), streams.fibonacci_word()), check_to=64)
    assert itinerary(x, 8) == (1, 0, 0, 0, 1, 0, 0, 1)
    y = shift_point(x)
    assert itinerary(y, 7) == (0, 0, 0, 1, 0, 0, 1)
    assert y.horizon == x.horizon - 1


@pytest.mark.parametrize("name", catalog_names())
def test_admissible_words_are_listed_in_lexicographic_order(name):
    """The listing extends each word by its followers in ascending order,
    so it comes out sorted with no sort."""
    g = get_system(name)
    for length in range(9):
        words = g.admissible_words(length)
        assert list(words) == sorted(words)
        assert len(words) == g.count_words(length)


def test_stream_admissibility_checked_up_front(gm):
    # Thue-Morse contains "11", which the golden-mean shift forbids
    with pytest.raises(WordInadmissible):
        make_stream(gm, streams.ThueMorse(), check_to=64)


def test_fibonacci_word_two_ways(gm):
    """The substitution fixed point and the exact mechanical word are
    independent constructions of the same sequence."""
    a = make_stream(gm, streams.fibonacci_word(), check_to=600)
    b = make_stream(gm, streams.golden_mechanical(), check_to=600)
    assert itinerary(a, 500) == itinerary(b, 500)
    assert itinerary(a, 16) == (0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0)


def test_substitution_word_has_no_negative_indices():
    """The fixed point starts at index 0: a negative index used to wrap
    round the expanded prefix (symbols(-2, 3) read (0, 1, 0, 1, 0))."""
    word = streams.fibonacci_word()
    with pytest.raises(ValueError):
        word.symbols(-2, 3)
    with pytest.raises(ValueError):
        word.symbol(-1)
    assert [word.symbol(n) for n in range(8)] == list(word.symbols(0, 8)) == [0, 1, 0, 0, 1, 0, 1, 0]
    assert word.symbols(5, 5) == word.symbols(6, 2) == ()


def test_prefixed_splice(full2):
    rule = streams.prefixed((1, 1, 0), streams.ThueMorse())
    x = make_stream(full2, rule, check_to=64)
    tm = tuple(bin(n).count("1") % 2 for n in range(8))
    assert itinerary(x, 11) == (1, 1, 0) + tm


_TAILS = (
    streams.ThueMorse(),
    streams.fibonacci_word(),
    streams.golden_mechanical(),
    streams.prefixed((1, 0), streams.ThueMorse()),
)


@pytest.mark.parametrize("tail", _TAILS, ids=lambda t: type(t).__name__)
@pytest.mark.parametrize("prefix", [(), (1,), (0, 1, 1)])
def test_prefixed_rule_reads_a_range_as_its_symbols(prefix, tail):
    """Every range starting inside the prefix, at its end or past it, read
    bit for bit as its symbols, over tails read in numpy (Thue-Morse, a
    substitution), one symbol at a time (a mechanical word) or prefixed."""
    rule = streams.prefixed(prefix, tail)
    for lo in range(len(prefix) + 4):
        for hi in range(lo - 1, lo + 9):
            assert rule.symbols(lo, hi) == tuple(rule.symbol(n) for n in range(lo, hi))
    assert rule.symbols(0, 4096) == tuple(rule.symbol(n) for n in range(4096))
    with pytest.raises(ValueError):
        rule.symbols(-1, 2)


def _below_affine_sqrt(m: int, a: int, b: int, d: int) -> bool:
    """m <= a + b*sqrt(d) in exact integer arithmetic: b*sqrt(d) >= m - a
    compared through squares, on the sign of each side."""
    t = m - a
    if b >= 0:
        return t <= 0 or b * b * d >= t * t
    return t <= 0 and t * t >= b * b * d


@given(st.integers(-10**6, 10**6), st.integers(-10**3, 10**3), st.integers(0, 10**4), st.integers(1, 10**3))
@example(7, 0, 5, 3)  # b == 0: a rational slope
@example(-7, 3, 49, 4)  # an exact square with b > 0
@example(7, -3, 49, 4)  # an exact square with b < 0
@example(0, 1, 5, 2)  # b > 0 with an irrational root
@settings(max_examples=300, deadline=None)
def test_floor_affine_sqrt_is_the_exact_floor(a, b, d, c):
    """floor((a + b*sqrt(d)) / c) is the one k with k*c <= a + b*sqrt(d) <
    (k + 1)*c, checked by exact comparisons over every branch: b == 0, an
    exact square root, and an irrational one of either sign."""
    k = streams._floor_affine_sqrt(a, b, d, c)
    assert _below_affine_sqrt(k * c, a, b, d)
    assert not _below_affine_sqrt((k + 1) * c, a, b, d)


_MECHANICAL = (
    streams.golden_mechanical(),
    streams.MechanicalWord(p=-1, q=1, d=5, r=2),  # slope (sqrt 5 - 1)/2, q > 0
    streams.MechanicalWord(p=-1, q=1, d=5, r=2, rho_num=1, rho_den=3, n0=-4),  # b < 0 below index 4
    streams.MechanicalWord(p=2, q=0, d=5, r=5),  # rational slope 2/5: b == 0
    streams.MechanicalWord(p=-1, q=1, d=4, r=3),  # sqrt(4) exact: slope 1/3
)


@pytest.mark.parametrize("rule", _MECHANICAL, ids=["golden", "q>0", "intercept", "rational", "exact-root"])
def test_mechanical_word_reads_a_range_as_its_symbols(rule):
    """Every range within 0..300 reads as its symbols, directly and under a
    prefix, for slopes with q of either sign, a rational slope, an exact
    square root, an intercept and a negative index origin."""
    ref = tuple(rule.symbol(n) for n in range(301))
    for lo in range(301):
        for hi in (*range(lo - 1, min(lo + 12, 301)), 301 - lo % 5):
            assert rule.symbols(lo, hi) == tuple(ref[n] for n in range(lo, hi))
    tail = streams.prefixed((1, 0), rule)
    for lo in range(0, 40):
        for hi in range(lo - 1, lo + 40):
            assert tail.symbols(lo, hi) == tuple(tail.symbol(n) for n in range(lo, hi))
    assert tail.symbols(0, 302) == (1, 0) + ref[:300]


def test_mechanical_word_reads_each_floor_once(gm, monkeypatch):
    """A range of n symbols costs n + 1 exact floors, not 2n, and a stream
    certified from a mechanical word reads its range through them."""
    calls = []
    floor = streams._floor_affine_sqrt
    monkeypatch.setattr(streams, "_floor_affine_sqrt", lambda *args: calls.append(args) or floor(*args))
    rule = streams.golden_mechanical()
    assert len(rule.symbols(10, 110)) == 100 and len(calls) == 101
    calls.clear()
    x = make_stream(gm, rule, check_to=500)
    assert len(calls) == 501
    assert itinerary(x, 500) == itinerary(make_stream(gm, streams.fibonacci_word(), check_to=500), 500)


def test_substitution_must_be_prolongable():
    with pytest.raises(ValueError):
        streams.substitution({0: (1, 0), 1: (0,)}, seed=0)


def test_stream_offset_shifts_indexing(full2):
    base = make_stream(full2, streams.ThueMorse(), check_to=64)
    moved = make_stream(full2, streams.ThueMorse(), check_to=64, offset=5)
    assert itinerary(moved, 20) == itinerary(base, 25)[5:]


def test_classify_stream_certifies_no_short_period(full2):
    x = make_stream(full2, streams.ThueMorse(), check_to=256)
    c = classify_point(x, bound=8)
    assert c.kind == "aperiodic_up_to"
    assert c.bound == 8


def test_classify_stream_on_secretly_periodic_rule(full2):
    x = make_stream(full2, streams.prefixed((0, 1), streams.ThueMorse()), check_to=256)
    # the point is aperiodic, but a small bound is still certified honestly
    c = classify_point(x, bound=4)
    assert c.kind == "aperiodic_up_to" and c.bound == 4


def test_classify_stream_stops_at_a_period_of_its_scan(full2):
    """A stream whose scanned prefix repeats with period 2 certifies no
    period past 1: the scan stops at the first period with no witness."""
    x = make_stream(full2, streams.prefixed((0, 1) * 40, streams.ThueMorse()), check_to=256)
    assert itinerary(x, 64) == (0, 1) * 32
    c = classify_point(x, bound=4)
    assert c.kind == "aperiodic_up_to" and c.bound == 1
    c = classify_point(x, bound=40)  # the scan reaches the Thue-Morse tail
    assert c.kind == "aperiodic_up_to" and c.bound == 40


@given(st.integers(1, 2**45), st.integers(0, 300))
@example(2**32 - 150, 300)  # across a carry into the upper half of the bits
@example(2**62 - 100, 200)  # past 2^62 the rest is read one symbol at a time
@settings(max_examples=60, deadline=None)
def test_thue_morse_reads_a_range_as_its_symbols(lo, length):
    tm = streams.ThueMorse()
    assert tm.symbols(lo, lo + length) == tuple(tm.symbol(n) for n in range(lo, lo + length))


def _expanded_by_lists(rules, seed: int, length: int) -> list:
    """A substitution's prefix expanded a whole level at a time by a list
    comprehension: the reference for the numpy expansion."""
    images, word = dict(rules), [seed]
    while len(word) < length:
        word = [s for a in word for s in images[a]]
    return word


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_substitution_expansion_matches_the_list_expansion(seed):
    """Random prolongable substitutions on up to four symbols, read in
    ranges of random order, so the prefix grows between reads."""
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    first = rng.randrange(k)
    images = {s: tuple(rng.randrange(k) for _ in range(rng.randint(1, 3))) for s in range(k)}
    images[first] = (first,) + tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))
    rule = streams.substitution(images, first)
    want = _expanded_by_lists(rule.rules, first, 800)
    for _ in range(5):
        lo = rng.randint(0, 400)
        hi = lo + rng.randint(0, 400)
        assert rule.symbols(lo, hi) == tuple(want[lo:hi])


def test_substitution_rejects_what_it_cannot_expand():
    """A symbol with no image used to raise KeyError at the first
    expansion that met it, a traceback from a config."""
    with pytest.raises(ValueError, match="symbol 2 of an image has no image"):
        streams.substitution({0: (0, 2)})
    with pytest.raises(ValueError, match="fails to grow"):
        streams.substitution({0: (0,)}).symbols(0, 2)


@dataclass(frozen=True)
class _Listed:
    """A rule emitting a given finite sequence, one ``symbol(n)`` at a time."""

    seq: tuple

    def symbol(self, n: int) -> int:
        return self.seq[n]


def _first_fault(g, rule, check_to: int, offset: int):
    """The message of the symbol-by-symbol check ``make_stream`` made before
    it checked in numpy, or None when the range is admissible."""
    prev = None
    for i in range(offset, check_to):
        s = rule.symbol(i)
        if not 0 <= s < g.alphabet_size:
            return f"stream emits symbol {s} outside alphabet at index {i}"
        if prev is not None and not g.is_edge(prev, s):
            return f"stream emits forbidden pair ({prev},{s}) at index {i - 1}"
        prev = s
    return None


@pytest.mark.parametrize(
    "seq, offset, message",
    [
        ((0, 1, 1, 2), 0, "forbidden pair (1,1) at index 1"),
        ((0, 1, 2, 1, 1), 0, "symbol 2 outside alphabet at index 2"),  # (1, 2) is never checked
        ((1, 1, 0, 1, 1), 1, "forbidden pair (1,1) at index 3"),
        ((1, 1, -1), 1, "symbol -1 outside alphabet at index 2"),
        ((0, 1, 1, 7), 1, "forbidden pair (1,1) at index 1"),
        # the pair (1, -1) and the symbol -1 are met at one step: the symbol
        # is named (an array lookup of the pair would wrap round to (1, 1))
        ((0, 1, -1), 0, "symbol -1 outside alphabet at index 2"),
        ((0, 1, 9, 1), 0, "symbol 9 outside alphabet at index 2"),
        ((0, 0, 1, 0, 5), 0, "symbol 5 outside alphabet at index 4"),
    ],
)
def test_stream_check_names_its_first_fault(gm, seq, offset, message):
    rule = _Listed(seq)
    assert _first_fault(gm, rule, len(seq), offset).endswith(message)
    with pytest.raises(WordInadmissible, match=f"^stream emits {re.escape(message)}$"):
        make_stream(gm, rule, len(seq), offset)


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_stream_check_matches_the_symbol_loop(seed):
    """Random walks with symbols outside the alphabet and forbidden pairs
    spliced in, checked from random offsets: the same first fault, or none."""
    rng = random.Random(seed)
    g = rand_graph(rng, 3, density=0.5)
    seq = [rng.randrange(g.alphabet_size)]
    for _ in range(rng.randint(0, 30)):
        seq.append(rng.choice(g.followers(seq[-1])))
    for _ in range(rng.randint(0, 3)):
        seq[rng.randrange(len(seq))] = rng.randint(-1, g.alphabet_size)
    rule, offset = _Listed(tuple(seq)), rng.randint(0, len(seq))
    want = _first_fault(g, rule, len(seq), offset)
    if want is None:
        assert make_stream(g, rule, len(seq), offset).horizon == len(seq) - offset
    else:
        with pytest.raises(WordInadmissible) as info:
            make_stream(g, rule, len(seq), offset)
        assert str(info.value) == want


class _Unread:
    def symbol(self, n: int) -> int:
        raise AssertionError("read before the cap was checked")


def test_stream_certification_is_capped_before_reading(full2):
    """At most ``MAX_CHECKED_SYMBOLS`` symbols from the offset on; one more
    raises Overflow before the rule is read."""
    with pytest.raises(Overflow, match=rf"certifying {MAX_CHECKED_SYMBOLS + 1} stream symbols exceeds the cap"):
        make_stream(full2, _Unread(), check_to=MAX_CHECKED_SYMBOLS + 1)
    with pytest.raises(Overflow):
        make_stream(full2, _Unread(), check_to=MAX_CHECKED_SYMBOLS + 9, offset=8)
    x = make_stream(full2, streams.ThueMorse(), check_to=MAX_CHECKED_SYMBOLS + 8, offset=8)
    assert x.horizon == MAX_CHECKED_SYMBOLS


# ---------------------------------------------------------------------------
# cylinder functions


def test_make_cylinder_requires_all_words(gm):
    with pytest.raises(ValueError):
        make_cylinder(gm, 1, {(0,): 1.0})
    with pytest.raises(WordInadmissible):
        make_cylinder(gm, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})


def test_eval_cylinder_reads_leading_window(gm):
    f = make_cylinder(gm, 2, {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0})
    x = make_lasso(gm, (0, 1), (0,))
    assert eval_cylinder(f, x) == 2.0
    assert eval_cylinder(f, shift_point(x)) == 3.0


def test_compose_shift_is_evaluation_after_shift(gm):
    rng_words = [((0,), (0, 1)), ((1, 0), (0,)), ((), (0, 0, 1))]
    f = make_cylinder(gm, 2, {(0, 0): 1.5, (0, 1): -0.5, (1, 0): 2.0})
    for n in range(4):
        fn = compose_shift(f, n)
        for pre, per in rng_words:
            x = make_lasso(gm, pre, per)
            y = x
            for _ in range(n):
                y = shift_point(y)
            assert eval_cylinder(fn, x) == eval_cylinder(f, y)


def test_compose_shift_widens_window(gm):
    # f o shift^3 reads the fourth coordinate: it depends on 4 symbols
    f = make_cylinder(gm, 1, {(0,): 1.0, (1,): 2.0})
    f3 = compose_shift(f, 3)
    assert f3.start + f3.window == 4
    for u in gm.admissible_words(4):
        x = make_lasso(gm, u, (0,))
        assert eval_cylinder(f3, x) == f.values[u[3:]]


def test_extend_window_keeps_values(full2):
    import random

    rng = random.Random(3)
    f = rand_cylinder(rng, full2, 1)
    wide = extend_window(f, 3)
    assert wide.window == 3
    for pre in ((), (1,), (0, 1)):
        x = make_lasso(full2, pre, (0, 1))
        assert eval_cylinder(wide, x) == eval_cylinder(f, x)


def test_cylinder_arithmetic(full2):
    import random

    rng = random.Random(4)
    f = rand_cylinder(rng, full2, 1)
    h = rand_cylinder(rng, full2, 2)
    x = make_lasso(full2, (1,), (0, 1, 1))
    s = cylinder_add(f, h)
    p = cylinder_mul(f, h)
    c = cylinder_scale(f, 2.5j)
    assert eval_cylinder(s, x) == eval_cylinder(f, x) + eval_cylinder(h, x)
    assert eval_cylinder(p, x) == eval_cylinder(f, x) * eval_cylinder(h, x)
    assert eval_cylinder(c, x) == 2.5j * eval_cylinder(f, x)


def test_sup_norm_is_exact_max(full2):
    f = make_cylinder(full2, 2, {(0, 0): 1, (0, 1): -3, (1, 0): 2j, (1, 1): 0})
    assert sup_norm(f) == 3.0


def test_constant_cylinder(gm):
    f = constant_cylinder(gm, 4.0)
    assert is_constant(f) and sup_norm(f) == 4.0
    assert not is_constant(make_cylinder(gm, 1, {(0,): 1, (1,): 2}))


# ---------------------------------------------------------------------------
# indicator tables and the listing cap


def test_indicator_table_equals_the_dense_indicator(gm):
    words = gm.admissible_words(4)
    for target in words:
        dense = {u: 1.0 if u == target else 0.0 for u in words}
        lazy = IndicatorTable(gm, target)
        assert CylinderFunction(gm, 4, lazy) == make_cylinder(gm, 4, dense)
        assert TwoSidedCylinder(gm, -2, 4, lazy) == make_two_sided(gm, -2, 4, dense)
        assert len(lazy) == len(words) and tuple(lazy) == words
    f = CylinderFunction(gm, 4, IndicatorTable(gm, (0, 1, 0, 1)))
    assert set(table_values(f)) == {1.0, 0.0} and sup_norm(f) == 1.0 and not is_constant(f)


def test_indicator_table_rejects_what_a_full_table_lacks(gm):
    with pytest.raises(WordInadmissible):
        IndicatorTable(gm, (0, 1, 1))
    table = IndicatorTable(gm, (0, 1))
    assert table[(0, 1)] == 1.0 and table[(1, 0)] == 0.0
    for key in [(1, 1), (0,), (0, 1, 0), [0, 1], (0, 2)]:
        with pytest.raises(KeyError):
            table[key]
    assert (1, 1) not in table and (0, 0) in table


def test_indicator_table_is_not_listed(full3):
    # 3^16 = 43M words of width 16: nothing here may list them
    target = (0, 1, 2) * 5 + (0,)
    f = CylinderFunction(full3, 16, IndicatorTable(full3, target))
    assert len(f.values) == 3**16
    assert sup_norm(f) == 1.0 and not is_constant(f)
    with pytest.raises(Overflow):
        next(iter(f.values))


def test_indicator_past_what_len_can_report(full2):
    # 2^64 words of width 64: more than len() can return
    f = CylinderFunction(full2, 64, IndicatorTable(full2, (0,) * 63 + (1,)))
    assert from_function(f) == from_function(f)
    assert sup_norm(f) == 1.0 and not is_constant(f)
    for listing in (len, tuple, dict):
        with pytest.raises(Overflow):
            listing(f.values)


def test_single_word_indicator_is_constant():
    g = validate_sft(1, [[1]])
    f = CylinderFunction(g, 3, IndicatorTable(g, (0, 0, 0)))
    assert is_constant(f) and tuple(table_values(f)) == (1.0,)


def test_listing_past_the_cap_raises_at_once(full2):
    assert full2.count_words(40) > MAX_LISTED_WORDS
    with pytest.raises(Overflow, match=rf"{2**40} admissible words of length 40"):
        full2.admissible_words(40)
    with pytest.raises(Overflow, match=rf"{2**21} admissible words of length 21"):
        _gather(full2, 21, 3, 2)  # a gather onto a width counts no more words than a listing


# ---------------------------------------------------------------------------
# cylinder arithmetic against per-word dict comprehensions, bit for bit


def _ref_widened(f, offset, width):
    values = f.values
    if offset == 0 and f.window == width:
        return values
    end = offset + f.window
    return {u: values[u[offset:end]] for u in f.graph.admissible_words(width)}


def _ref_aligned(f, h, shift=0):
    fs = f.start + shift
    lo = min(fs, h.start)
    width = max(fs + f.window, h.start + h.window) - lo
    return lo, width, _ref_widened(f, fs - lo, width), _ref_widened(h, h.start - lo, width)


def _union_width(f, h, shift=0):
    fs = f.start + shift
    return max(fs + f.window, h.start + h.window) - min(fs, h.start)


def _ref_add(f, h):
    start, window, a, b = _ref_aligned(f, h)
    return f._like(start, window, MappingProxyType({u: v + b[u] for u, v in a.items()}))


def _ref_product(f, h, shift=0):
    start, window, a, b = _ref_aligned(f, h, shift)
    return f._like(start, window, MappingProxyType({u: v * b[u] for u, v in a.items()}))


def _ref_scale(f, c):
    c = complex(c)
    return f._like(f.start, f.window, MappingProxyType({u: c * v for u, v in f.values.items()}))


def _ref_extend(f, window):
    if window == f.window:
        return f
    return f._like(f.start, window, MappingProxyType(_ref_widened(f, 0, window)))


def _ref_multiply(F, G):
    table = {}
    for m in F.support:
        for n in G.support:
            term = _ref_product(F.coeffs[m], G.coeffs[n], n)
            k = m + n
            table[k] = _ref_add(table[k], term) if k in table else term
    return F._like(table)


def _bits(values) -> bytes:
    return b"".join(struct.pack("<dd", v.real, v.imag) for v in values)


def _same_table(got, want) -> bool:
    """Same start and window, the table listed in ``admissible_words``
    order, and the reference's value at every word byte for byte."""
    words = got.graph.admissible_words(got.window)
    return (
        (got.start, got.window) == (want.start, want.window)
        and tuple(got.values) == words
        and _bits(got.values.values()) == _bits(want.values[u] for u in words)
    )


_ARITHMETIC_CAP = 3**8  # most words on a window the oracle builds: full-3 at width 8, the benchmark's widest


def _operand(rng, g, two_sided, window, start):
    """A cylinder of either flavour: an indicator table, or a full table
    handed to its constructor in shuffled key order."""
    words = list(g.admissible_words(window))
    if rng.random() < 0.25:
        table = IndicatorTable(g, rng.choice(words))
        if two_sided:
            return TwoSidedCylinder(g, start, window, table)
        return CylinderFunction(g, window, table, start)
    rng.shuffle(words)
    table = {}
    for u in words:
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        table[u] = rng.choice((complex(a, b), complex(a, b), a, 0, -0.0, complex(-0.0, b)))
    if two_sided:
        return make_two_sided(g, start, window, table)
    return compose_shift(make_cylinder(g, window, table), start)


def _span(P) -> tuple:
    """(lowest start, highest reach, degree) of a polynomial's coefficients."""
    fs = P.coeffs.values()
    return min(f.start for f in fs), max(f.start + f.window for f in fs), max(P.support)


_SHAPE = st.dictionaries(st.integers(0, 3), st.integers(1, 5), min_size=1, max_size=3)


@given(st.integers(0, 10**9), st.booleans(), st.booleans(), st.tuples(_SHAPE, _SHAPE, _SHAPE))
@example(0, False, True, ({0: 2, 1: 3, 3: 1}, {1: 2, 2: 3}, {0: 1, 2: 2, 3: 3}))
@example(1, True, True, ({0: 2, 1: 3, 3: 1}, {1: 2, 2: 3}, {0: 1, 2: 2, 3: 3}))
@settings(max_examples=120, deadline=None)
def test_cylinder_arithmetic_matches_per_word_dicts_bit_for_bit(seed, two_sided, full3, shapes):
    """Sums, products at shifts 0-3, scalings, widenings and the chain
    (F G) H of both flavours, on random graphs of at most 4 symbols or on
    full-3 (the benchmark's widest shape is pinned), equal the per-word
    dict comprehensions bit for bit and list their tables in word order."""
    rng = random.Random(seed)
    g = validate_sft(3, [[1] * 3] * 3) if full3 else rand_graph(rng, 4)
    # one-sided factors on full-3 read from coordinate 0, as the benchmark's do
    starts = (-3, 3) if two_sided else (0, 0) if full3 else (0, 3)
    tables = [{n: _operand(rng, g, two_sided, w, rng.randint(*starts)) for n, w in shape.items()} for shape in shapes]
    fits = lambda width: g.count_words(width) <= _ARITHMETIC_CAP

    fs, hs = list(tables[0].values()), list(tables[1].values())
    for f, h in zip(fs, hs[::-1] + hs):
        shift = rng.randint(0, 3)
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert _same_table(cylinder_scale(f, c), _ref_scale(f, c))
        wide = f.window + rng.randint(0, 2)
        if fits(wide):
            assert _same_table(extend_window(f, wide), _ref_extend(f, wide))
        if fits(_union_width(f, h)):
            assert _same_table(cylinder_add(f, h), _ref_add(f, h))
            assert _same_table(cylinder_mul(f, h), _ref_product(f, h))
        if fits(_union_width(f, h, shift)):
            assert _same_table(_product(f, h, shift), _ref_product(f, h, shift))

    F, G, H = (crossed_poly(g, t) if two_sided else semicrossed_poly(g, t) for t in tables)
    if not (F.coeffs and G.coeffs and H.coeffs):
        return  # an all-zero factor: no chain to compare
    (lo_f, hi_f, _), (lo_g, hi_g, deg_g), (lo_h, hi_h, deg_h) = (_span(P) for P in (F, G, H))
    if fits(max(hi_f + deg_g + deg_h, hi_g + deg_h, hi_h) - min(lo_f, lo_g, lo_h)):
        got = multiply(multiply(F, G), H)
        want = _ref_multiply(_ref_multiply(F, G), H)
        assert got.support == want.support
        assert all(_same_table(got.coeffs[k], want.coeffs[k]) for k in got.support)


# ---------------------------------------------------------------------------
# word tables: the mapping contract and position-gathered arithmetic


def test_word_table_keeps_the_mapping_contract(gm):
    words = gm.admissible_words(3)
    values = {u: complex(i, -i) for i, u in enumerate(words)}
    table = make_cylinder(gm, 3, dict(reversed(values.items()))).values
    proxy = MappingProxyType(values)
    assert isinstance(table, WordTable)
    for key in [(1, 1, 0), (0, 1), (0, 0, 0, 0), (0, 0, 2)]:
        with pytest.raises(KeyError):
            table[key]
        assert key not in table and table.get(key) is None
    for key in [[0, 0, 0], {0}]:
        for t in (table, proxy):
            with pytest.raises(TypeError):
                t[key]
            with pytest.raises(TypeError):
                key in t
    assert len(table) == len(words) and all(u in table for u in words)
    assert tuple(table) == words and tuple(table.keys()) == words
    assert dict(table) == values and list(table.items()) == list(values.items())


def test_cylinders_with_equal_tables_of_any_kind_are_equal(gm):
    words = gm.admissible_words(3)
    target = words[2]
    dense = {u: 1.0 if u == target else 0.0 for u in words}
    lazy = IndicatorTable(gm, target)
    one_sided = [
        make_cylinder(gm, 3, dense),
        CylinderFunction(gm, 3, MappingProxyType({u: complex(v) for u, v in dense.items()})),
        CylinderFunction(gm, 3, lazy),
        cylinder_scale(CylinderFunction(gm, 3, lazy), 1),
    ]
    two_sided = [
        make_two_sided(gm, -2, 3, dense),
        TwoSidedCylinder(gm, -2, 3, MappingProxyType({u: complex(v) for u, v in dense.items()})),
        TwoSidedCylinder(gm, -2, 3, lazy),
    ]
    kinds = [type(f.values) for f in one_sided]
    assert kinds == [WordTable, MappingProxyType, IndicatorTable, WordTable]
    for group in (one_sided, two_sided):
        assert all(f == h and h == f for f in group for h in group)
    other = make_cylinder(gm, 3, {**dense, target: 2.0})
    assert all(f != other and other != f for f in one_sided)
    assert make_cylinder(gm, 3, dense) != compose_shift(make_cylinder(gm, 3, dense), 1)


def test_wide_indicator_cylinders_compare_by_their_words(full2):
    """Two indicators of one window compare by their words, in O(window):
    at width 32 on full-2 a word-by-word comparison would list 2^32 words,
    past the listing cap, in either flavour."""
    words = [(0, 1) * 16, (0, 1) * 16, (1, 0) * 16]
    one_sided = [CylinderFunction(full2, 32, IndicatorTable(full2, u)) for u in words]
    two_sided = [TwoSidedCylinder(full2, -5, 32, IndicatorTable(full2, u)) for u in words]
    for a, b, c in (one_sided, two_sided):
        assert a.values is not b.values
        assert a == b and b == a
        assert a != c and c != a


def test_one_word_tables_match_per_word_dicts_bit_for_bit():
    """On the one-symbol fixed point every width has one admissible word,
    so every gather reads a single position: sums, products at shifts 0-3,
    scalings, widenings and a product of polynomials still equal the
    per-word dict comprehensions bit for bit."""
    g = validate_sft(1, [[1]])
    rng = random.Random(29)
    value = lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    for two_sided in (False, True):
        fs = []
        for w in (1, 2, 3):
            for start in (0, 2):
                if two_sided:
                    fs.append(make_two_sided(g, start - 1, w, {(0,) * w: value()}))
                    fs.append(TwoSidedCylinder(g, start - 1, w, IndicatorTable(g, (0,) * w)))
                else:
                    fs.append(compose_shift(make_cylinder(g, w, {(0,) * w: value()}), start))
                    fs.append(CylinderFunction(g, w, IndicatorTable(g, (0,) * w), start))
        for f in fs:
            c = value()
            assert _same_table(cylinder_scale(f, c), _ref_scale(f, c))
            for wide in range(f.window, f.window + 3):
                assert _same_table(extend_window(f, wide), _ref_extend(f, wide))
            for h in fs:
                assert _same_table(cylinder_add(f, h), _ref_add(f, h))
                for shift in range(4):
                    assert _same_table(_product(f, h, shift), _ref_product(f, h, shift))
        poly = crossed_poly if two_sided else semicrossed_poly
        F, G = poly(g, dict(enumerate(fs[0::2]))), poly(g, dict(enumerate(fs[1::2])))
        got, want = multiply(F, G), _ref_multiply(F, G)
        assert got.support == want.support
        assert all(_same_table(got.coeffs[k], want.coeffs[k]) for k in got.support)


_WIDEST_SHAPES = ({0: 2, 1: 3, 3: 1}, {1: 2, 2: 3}, {0: 1, 2: 2, 3: 3})


def test_products_gather_by_cached_positions(full3, monkeypatch):
    """On full-3 at the benchmark's widest shapes, ``(F G) H`` reads no
    value by word, and repeating it finds every position list cached."""
    rng = random.Random(23)
    F, G, H = (
        semicrossed_poly(full3, {n: rand_cylinder(rng, full3, w) for n, w in shape.items()})
        for shape in _WIDEST_SHAPES
    )
    want = multiply(multiply(F, G), H)

    def by_word(table, u):
        raise AssertionError(f"arithmetic read {u!r} by word")

    monkeypatch.setattr(WordTable, "__getitem__", by_word)
    caches = (_gather, _positions)
    before = [cache.cache_info() for cache in caches]
    got = multiply(multiply(F, G), H)
    after = [cache.cache_info() for cache in caches]
    assert got == want
    assert after[0].hits > before[0].hits
    assert [info.misses for info in after] == [info.misses for info in before]


# Parts of complex values from 1e-300 to 1e300 in magnitude, and the values
# where rounding rules differ: signed zeros, infinities, nan and subnormals.
_PART = st.one_of(
    st.builds(lambda e, sign: sign * 10.0**e, st.floats(-300, 300), st.sampled_from((1.0, -1.0))),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.225e-308, -1.5e-310)),
)
_VALUE = st.builds(complex, _PART, _PART)


@given(st.lists(st.tuples(_VALUE, _VALUE), min_size=1, max_size=64), _VALUE)
@settings(max_examples=300, deadline=None)
def test_the_array_kernel_rounds_as_python_complex_arithmetic(pairs, c):
    """Sums, products and scalings (by c and by -1) on arrays equal
    ``operator.add`` and ``operator.mul`` on Python complex numbers bit for
    bit, at extreme magnitudes and special values alike."""
    a, b = (list(side) for side in zip(*pairs))
    A, B = np.array(a), np.array(b)
    assert _bits(_exact(operator.add, A, B).tolist()) == _bits(map(operator.add, a, b))
    assume_separate = (
        "this CPython's complex product is not re = ar br - ai bi, im = ar bi + ai br, "
        "each rounded once (a fused multiply-add?), which the array kernel assumes"
    )
    assert _bits(_exact(operator.mul, A, B).tolist()) == _bits(map(operator.mul, a, b)), assume_separate
    for s in (c, complex(-1)):
        assert _bits(_exact(operator.mul, s, B).tolist()) == _bits([s * v for v in b]), assume_separate


def test_an_array_table_keeps_the_mapping_contract(gm):
    """A table built from its array answers as one built from its tuple,
    and cylinders over the two compare equal both ways."""
    words = gm.admissible_words(3)
    values = {u: complex(i, -i) for i, u in enumerate(words)}
    table = ArrayTable(gm, 3, np.array(list(values.values())))
    for key in [(1, 1, 0), (0, 1), (0, 0, 0, 0), (0, 0, 2)]:
        with pytest.raises(KeyError):
            table[key]
        assert key not in table and table.get(key) is None
    for key in [[0, 0, 0], {0}]:
        with pytest.raises(TypeError):
            table[key]
        with pytest.raises(TypeError):
            key in table
    assert len(table) == len(words) and all(u in table for u in words)
    assert tuple(table) == words and tuple(table.keys()) == words
    assert dict(table) == values and list(table.items()) == list(values.items())
    assert table.in_order == tuple(values.values()) and not table.array.flags.writeable
    with pytest.raises(AttributeError):
        table.values_tuple  # in_order is the one attribute built on first use
    tuples = make_cylinder(gm, 3, values)
    arrays = CylinderFunction(gm, 3, table)
    assert tuples == arrays and arrays == tuples
    assert arrays != make_cylinder(gm, 3, {**values, words[0]: 1.0})


_SHIPPED_GRAPHS = [load_config(str(p)).graph for p in sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json"))]


@pytest.mark.parametrize("index", range(len(_SHIPPED_GRAPHS) + 50))
def test_rows_are_counted_in_word_order(index):
    """On every shipped graph and 50 random ones, up to length 10 and the
    benchmark's widest count of words: the letters the counting rule finds
    at each place are ``admissible_words`` row for row, their ranks run
    0 .. N-1, and every gather and cycle read lands where a dict lookup of
    the word does."""
    g = _SHIPPED_GRAPHS[index] if index < len(_SHIPPED_GRAPHS) else rand_graph(random.Random(index), 4)
    for length in range(1, 11):
        if g.count_words(length) > _ARITHMETIC_CAP:
            break
        words = g.admissible_words(length)
        letters = np.column_stack([_rows(g, length, j, 1) for j in range(length)])
        assert letters.tolist() == [list(u) for u in words]
        assert _rank(g, letters).tolist() == list(range(len(words)))
        for offset in range(length):
            for window in range(1, length - offset + 1):
                want = [_positions(g, window)[u[offset : offset + window]] for u in words]
                got = _gather(g, length, offset, window)
                if length < g._wide:
                    got = got(tuple(range(g.count_words(window))))
                assert list(got) == want
    for cycle in dynamics.enumerate_cycles(g, 4):
        w = cycle.word
        for window in (1, 2, 3):
            for shift in range(len(w)):
                unrolled = w * (window + 1)
                want = [_positions(g, window)[unrolled[shift + j : shift + j + window]] for j in range(len(w))]
                assert _cycle_positions(g, (w,), shift, window).tolist() == [want]


def test_a_cold_wide_product_lists_no_word_of_its_width(full3, monkeypatch):
    """With every position cache cleared, the widest full-3 chain (F G) H
    builds neither the width-8 word -> position dict nor the width-8 tuple
    listing: its positions are counted, not looked up."""
    rng = random.Random(31)
    F, G, H = (
        semicrossed_poly(full3, {n: rand_cylinder(rng, full3, w) for n, w in shape.items()})
        for shape in _WIDEST_SHAPES
    )
    for cache in (_gather, _rows, _positions, dynamics._admissible_words):
        cache.cache_clear()

    def guarded(original):
        def listing(g, length):
            if length == 8:
                raise AssertionError(f"{original.__name__} of width 8 built")
            return original(g, length)

        return listing

    for name in ("_positions", "_admissible_words"):
        monkeypatch.setattr(dynamics, name, guarded(getattr(dynamics, name)))
    product = multiply(multiply(F, G), H)
    assert max(f.window for f in product.coeffs.values()) == 8
    assert all(type(f.values) is ArrayTable for f in product.coeffs.values() if f.window >= full3._wide)


def test_a_digit_string_is_a_word():
    """A word may be given as a digit string, one symbol per character."""
    assert as_word("0120") == (0, 1, 2, 0)
    assert as_word([1, 0]) == (1, 0)


def test_the_empty_word_is_its_own_primitive_root():
    """No divisor of the length 0 exists, so the empty word comes back as it is."""
    assert _primitive_root(()) == ()
    assert _primitive_root((0, 1, 0, 1)) == (0, 1)
