"""Conjugacy invariance as an independent oracle for every index convention.

Conjugate systems give isometrically isomorphic semicrossed products, so
every norm must survive a recoding of the same system (``recoding``): a
permutation of the alphabet, or the 2-block presentation X^[2], where every
word, window and start is read through a second set of symbols.  The
pictures at corresponding points are the same matrices, cycles correspond
one to one with equal periods and pictures, and so:

- ``constant_B`` agrees bit for bit under X^[2] (the least rotation of a
  cycle and its enumeration order carry over), and up to rounding under a
  permutation, which may start a cycle's picture at another rotation;
- exhaustive ``constant_A`` and ``norm_pi_x``/``norm_Pi_x`` agree up to
  rounding;
- a beam search of the recoded polynomial stays at most the exhaustive
  value.
"""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicrossed.algebra import crossed_poly, semicrossed_poly
from semicrossed.config import load_config
from semicrossed.dynamics import CylinderFunction, IndicatorTable, LassoPoint, itinerary
from semicrossed.extension import TwoSidedCylinder, apply_phi_tilde, lift_point
from semicrossed.representations import (
    _poly_span,
    build_Pi_x,
    build_pi_x,
    constant_A,
    constant_B,
    norm_Pi_x,
    norm_pi_x,
    seam_points,
)

from conftest import rand_cylinder, rand_graph, rand_lasso
from recoding import permutation, two_block

_CONFIGS = sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json"))
_SHIPPED = [load_config(p) for p in _CONFIGS]
_WORDS = 4000  # exhaustive searches only up to this many words on either side


def _rand_coeff(rng: random.Random, g, two_sided: bool):
    """A coefficient of window 1-3 at a random start: a full table, or an
    indicator a quarter of the time."""
    w = rng.randint(1, 3)
    if rng.random() < 0.25:
        values = IndicatorTable(g, rng.choice(g.admissible_words(w)))
    else:
        values = rand_cylinder(rng, g, w).values
    if two_sided:
        return TwoSidedCylinder(g, rng.randint(-2, 2), w, values)
    return CylinderFunction(g, w, values, rng.randint(0, 2))


def _rand_poly(rng: random.Random, g, two_sided: bool):
    powers = rng.sample(range(-2, 3) if two_sided else range(3), rng.randint(1, 3))
    coeffs = {n: _rand_coeff(rng, g, two_sided) for n in powers}
    return (crossed_poly if two_sided else semicrossed_poly)(g, coeffs)


def _rand_point(rng: random.Random, g, two_sided: bool):
    x = rand_lasso(rng, g)
    if not two_sided:
        return x
    x = rng.choice([lift_point(x), *seam_points(g, cap=3)])
    return apply_phi_tilde(x, rng.randint(-3, 3))


def _recoding(rng: random.Random, g, kind: str):
    if kind == "two-block":
        return two_block(g)
    sigma = list(range(g.alphabet_size))
    rng.shuffle(sigma)
    return permutation(g, sigma)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-13)


def _check_invariance(seed: int, g, kind: str, two_sided: bool) -> None:
    rng = random.Random(seed)
    R = _recoding(rng, g, kind)
    F = _rand_poly(rng, g, two_sided)
    G = R.poly(F)
    x = _rand_point(rng, g, two_sided)
    y = R.point(x)

    # the recoded point reads the recoded word at every coordinate
    if isinstance(x, LassoPoint):
        assert itinerary(y, 40) == R.word(itinerary(x, 40 + R.shrink))
    else:
        assert y.window(-20, 20) == R.word(x.window(-20, 20 + R.shrink))

    # cycles: the same pictures, so the same best value
    B, C = constant_B(F, 3), constant_B(G, 3)
    assert (B.periods, B.cycles) == (C.periods, C.cycles)
    if kind == "two-block":
        assert C.value == B.value and C.cycle == R.loop(B.cycle)
    else:
        assert _close(C.value, B.value)

    # points: the same matrices, so the same norms
    spread = max(max(F.coeffs), 0) - min(min(F.coeffs), 0)
    build, norm = (build_Pi_x, norm_Pi_x) if two_sided else (build_pi_x, norm_pi_x)
    for K in (spread + 1, rng.randint(spread + 1, 24), rng.choice([40, 240])):
        P, Q = build(F, x, K), build(G, y, K)
        assert P.shape == Q.shape and P.tobytes() == Q.tobytes()
        assert _close(norm(G, y, K), norm(F, x, K))

    # words: the same blocks, so the same exhaustive best; a beam stays below it
    if two_sided or g.is_permutation():
        return
    K = rng.randint(1, 4)
    while K > 1 and max(g.count_words(K + _poly_span(F)[1]), R.h.count_words(K + _poly_span(G)[1])) > _WORDS:
        K -= 1
    if max(g.count_words(K + _poly_span(F)[1]), R.h.count_words(K + _poly_span(G)[1])) > _WORDS:
        return
    A, D = constant_A(F, K, mode="exhaustive"), constant_A(G, K, mode="exhaustive")
    assert _close(D.value, A.value)
    assert constant_A(G, K, mode="beam:2").value <= A.value * (1 + 1e-12) + 1e-13


@pytest.mark.parametrize("cfg", _SHIPPED, ids=[p.stem for p in _CONFIGS])
@given(st.integers(0, 10**9), st.sampled_from(["permutation", "two-block"]), st.booleans())
@settings(max_examples=20, deadline=None)
def test_norms_survive_a_recoding_of_every_shipped_graph(cfg, seed, kind, two_sided):
    _check_invariance(seed, cfg.graph, kind, two_sided)


@given(st.integers(0, 10**9), st.sampled_from(["permutation", "two-block"]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_norms_survive_a_recoding_of_random_graphs(seed, kind, two_sided):
    g = rand_graph(random.Random(seed), 4)
    _check_invariance(seed + 1, g, kind, two_sided)


def test_the_two_block_recoding_is_the_block_code(full2):
    """X^[2] of the full 2-shift: four blocks, u -> v when u ends where v
    starts, and a window-2 coefficient becomes a window-1 one with the same
    values at the same coordinates."""
    R = two_block(full2)
    assert R.h.alphabet_size == 4
    assert [[int(R.h.is_edge(a, b)) for b in range(4)] for a in range(4)] == [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
    ]
    f = rand_cylinder(random.Random(0), full2, 2)
    F = semicrossed_poly(full2, {1: f})
    G = R.poly(F)
    assert G.coeffs[1].window == 1
    assert [G.coeffs[1].values[(b,)] for b in range(4)] == [f.values[u] for u in full2.admissible_words(2)]
    x = rand_lasso(random.Random(1), full2)
    assert np.array_equal(build_pi_x(F, x, 9), build_pi_x(G, R.point(x), 9))
