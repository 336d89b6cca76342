"""Normal forms of lasso and bi-lasso points against the one-symbol peel
loops they replaced, and at scale.

The ``ref_*`` functions are the earlier normalizations kept as references:
each absorbed symbol is one step that rebuilds both words, and a globally
periodic point is aligned by filling two periods and searching them for the
least rotation.  They share no code with ``dynamics._continued`` or
``dynamics._rotated``.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicrossed import dynamics
from semicrossed.dynamics import (
    _connector,
    _periodic_slice,
    cycle_horizon,
    enumerate_cycles,
    girth,
    make_lasso,
    validate_sft,
)
from semicrossed.extension import (
    _normalize_bilasso,
    apply_phi_tilde,
    lift_point,
    make_bilasso,
    ray_point,
)
from semicrossed.representations import tour_point

from conftest import rand_graph


def ref_primitive_root(w):
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w == w[:d] * (n // d):
            return w[:d]
    return w


def ref_rot_left(w, k=1):
    k %= len(w)
    return w[k:] + w[:k]


def ref_rot_right(w, k=1):
    return ref_rot_left(w, len(w) - (k % len(w)))


def ref_lasso(pre, per):
    per = ref_primitive_root(per)
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = per[-1:] + per[:-1]
    return pre, per


def ref_normalize(left, center, start, right):
    left = ref_primitive_root(left)
    right = ref_primitive_root(right)
    while center and center[-1] == right[-1]:
        right = ref_rot_right(right)
        center = center[:-1]
    while center and center[0] == left[0]:
        left = ref_rot_left(left)
        center = center[1:]
        start += 1
    if not center:
        if left == right:
            p = len(right)
            fill = tuple(right[(i - start) % p] for i in range(2 * p))
            least = min(ref_rot_left(right, k) for k in range(p))
            for s in range(p):
                if fill[s : s + p] == least:
                    return least, (), s, least
            raise AssertionError("primitive word must realign")
        guard = len(left) * len(right)
        while left[-1] == right[-1]:
            left = ref_rot_right(left)
            right = ref_rot_right(right)
            start -= 1
            guard -= 1
            if guard < 0:
                raise AssertionError("endless junction implies global periodicity")
    return left, center, start, right


def ref_ray(x, i0):
    end = x.center_end
    if i0 >= end:
        return ref_lasso((), ref_rot_left(x.right, (i0 - end) % len(x.right)))
    return ref_lasso(x.window(i0, end), x.right)


def ref_lift(x):
    g = x.graph
    chain = [x.symbol_at(0)]
    seen = {chain[0]: 0}
    while True:
        nxt = min(i for i in range(g.alphabet_size) if g.edges[i][chain[-1]])
        if nxt in seen:
            i = seen[nxt]
            if i == 0:
                chain.append(nxt)
                i = 1
            j = len(chain)
            break
        seen[nxt] = len(chain)
        chain.append(nxt)
    left = tuple(reversed(chain[i:j]))
    center = tuple(reversed(chain[1:i])) + x.pre
    return ref_normalize(left, center, 2 - i, x.per)


FULL3 = validate_sft(3, [[1] * 3] * 3)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the AssertionError's message."""
    try:
        return fn(*args)
    except AssertionError as exc:
        return ("AssertionError", str(exc))


def lasso_form(x):
    return x.pre, x.per


def bilasso_form(x):
    return x.left, x.center, x.start, x.right


def rand_loop(rng, cycles):
    """A cycle word, rotated at random and sometimes repeated: a period that
    may be a power of a shorter word."""
    w = rng.choice(cycles).word
    return ref_rot_left(w, rng.randrange(len(w))) * rng.choice((1, 1, 2, 3))


def rand_join(rng, g, a, b):
    """A word w with a -> w -> b admissible: a short random walk from ``a``
    and then the shortest connector to ``b``; None when there is none."""
    walk = []
    for _ in range(rng.randint(0, 3)):
        walk.append(rng.choice(g.followers(walk[-1] if walk else a)))
    conn = _connector(g, walk[-1] if walk else a, b)
    return None if conn is None else (*walk, *conn)


def rand_bilasso_words(rng, g, cycles):
    """Left period, center and right period of an admissible bi-lasso point:
    the center continues the left period for a while, then crosses over to
    the right period's tail (sometimes directly, so it absorbs fully)."""
    for _ in range(50):
        left, right = rand_loop(rng, cycles), rand_loop(rng, cycles)
        head = _periodic_slice(left, 0, rng.randint(0, 2 * len(left)))
        tail = _periodic_slice(right, -rng.randint(0, 2 * len(right)), 0)
        a, b = (left + head)[-1], (tail + right)[0]
        mid = () if rng.random() < 0.3 and g.is_edge(a, b) else rand_join(rng, g, a, b)
        if mid is not None:
            return left, head + mid + tail, right
    return left, left, left


def rand_lasso_words(rng, g, cycles):
    """Preperiod and period of an admissible lasso point whose preperiod
    ends in a stretch that continues the period."""
    per = rand_loop(rng, cycles)
    tail = _periodic_slice(per, -rng.randint(0, 3 * len(per)), 0)
    start = rng.randrange(g.alphabet_size)
    mid = rand_join(rng, g, start, (tail + per)[0])
    return ((start, *mid) if mid is not None and rng.random() < 0.7 else ()) + tail, per


def check_point_forms(g, rng):
    cycles = enumerate_cycles(g, min(cycle_horizon(g, 4), 6))
    for _ in range(6):
        pre, per = rand_lasso_words(rng, g, cycles)
        x = make_lasso(g, pre, per)
        assert lasso_form(x) == ref_lasso(pre, per)
        assert bilasso_form(lift_point(x)) == ref_lift(x)
    for _ in range(6):
        left, center, right = rand_bilasso_words(rng, g, cycles)
        start = rng.randint(-5, 5)
        x = make_bilasso(g, left, center, start, right)
        assert bilasso_form(x) == ref_normalize(left, center, start, right)
        for i0 in range(x.start - 3, x.center_end + len(x.right) + 2):
            assert lasso_form(ray_point(x, i0)) == ref_ray(x, i0)
        for n in range(-3, 4):
            assert bilasso_form(apply_phi_tilde(x, n)) == ref_normalize(x.left, x.center, x.start - n, x.right)
    for start in range(-5, 6):  # globally periodic, given in and out of phase
        w = rand_loop(rng, cycles)
        n = rng.randint(0, 2 * len(w))
        args = (w, _periodic_slice(w, 0, n), start, ref_rot_left(w, n))
        assert bilasso_form(make_bilasso(g, *args)) == ref_normalize(*args)
        args = (w, (), start, ref_rot_left(w * rng.choice((1, 2)), rng.choice((0, len(w)))))
        assert bilasso_form(make_bilasso(g, *args)) == ref_normalize(*args)


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_point_forms_match_references_on_random_graphs(seed):
    rng = random.Random(seed)
    check_point_forms(rand_graph(rng, 4, density=rng.choice((0.3, 0.5, 0.7))), rng)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_normalization_matches_references_on_any_words(seed):
    """Words over three symbols with no graph to respect, so periods that
    agree for several symbols and centers of any shape are all reached."""
    rng = random.Random(seed)

    def word(lo, hi):
        return tuple(rng.randrange(3) for _ in range(rng.randint(lo, hi)))

    for _ in range(20):
        base = word(1, 3)
        left, right = base * rng.randint(1, 3), base * rng.randint(1, 3)
        if rng.random() < 0.6:  # periods sharing a tail
            left, right = word(0, 3) + left, word(0, 3) + right
        center = rng.choice((word(0, 6), _periodic_slice(left, 0, 4) + _periodic_slice(right, -5, 0)))
        start = rng.randint(-5, 5)
        assert outcome(_normalize_bilasso, left, center, start, right) == outcome(
            ref_normalize, left, center, start, right
        )
        pre = word(0, 4) + _periodic_slice(right, -rng.randint(0, 9), 0)
        assert lasso_form(make_lasso(FULL3, pre, right)) == ref_lasso(pre, right)


def ordered_cycle(m):
    """One cycle 0 -> 1 -> ... -> m-1 -> 0, built anew on each call."""
    return validate_sft(m, [[int(j == (i + 1) % m) for j in range(m)] for i in range(m)])


# Each takes under 0.1 s on 2 cores; peeling one symbol per step took 5.7-7.7 s.
NORMAL_FORM_BUDGET_S = 1.0


@pytest.mark.parametrize("case", ["make_lasso", "make_bilasso", "tour_point"])
def test_normal_forms_at_256_symbols_finish_within_budget(case):
    m = 256
    g = ordered_cycle(m)
    per = tuple(range(m))
    run = {
        "make_lasso": lambda: make_lasso(g, tuple(j % m for j in range(m * m)), per),
        "make_bilasso": lambda: make_bilasso(g, per, per * m, 0, per),
        "tour_point": lambda: tour_point(g),
    }[case]
    t0 = time.perf_counter()
    x = run()
    elapsed = time.perf_counter() - t0
    if case == "make_lasso":
        assert lasso_form(x) == ((), per)
    else:
        assert not x.center and x.left == x.right == per
    assert elapsed < NORMAL_FORM_BUDGET_S


def test_returns_are_walked_once_per_graph(monkeypatch):
    """The girth and the cycle horizon read each symbol's shortest return
    from one cache: asked again, they make no connector call."""
    g = ordered_cycle(97)
    calls = []
    connector = dynamics._connector
    monkeypatch.setattr(dynamics, "_connector", lambda *a: calls.append(a) or connector(*a))
    assert cycle_horizon(g, 4) == girth(g) == 97
    assert len(calls) == 97
    assert cycle_horizon(g, 4) == girth(g) == 97
    assert len(calls) == 97
