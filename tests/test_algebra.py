"""Polynomial algebras over the shift: the one-sided (analytic) flavour and
its two-sided unitary closure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicrossed import streams
from semicrossed.algebra import (
    alpha_endomorphism,
    alpha_tilde,
    constant_cylinder,
    crossed_poly,
    crossed_u_power,
    embed_poly,
    from_function,
    l1_norm,
    linear_ops,
    multiply,
    poly_distance,
    regularize_right_multiply,
    semicrossed_poly,
    u_power,
)
from semicrossed.dynamics import (
    ArrayTable,
    CylinderFunction,
    IndicatorTable,
    compose_shift,
    cylinder_add,
    cylinder_scale,
    eval_cylinder,
    make_cylinder,
    make_lasso,
    make_stream,
    validate_sft,
)
from semicrossed.extension import embed_function, lift_point, shift_window, to_one_sided

from conftest import rand_cylinder, rand_poly


SEEDS = st.integers(0, 10**9)


def _rand_crossed(rng, g):
    """Random two-sided polynomial: embedded one-sided times a shift power."""
    F = embed_poly(rand_poly(rng, g))
    return multiply(F, crossed_u_power(g, rng.randint(-3, 1)))


# ---------------------------------------------------------------------------
# constructors


def test_constructor_rejects_bad_input(gm, full2):
    f = constant_cylinder(gm, 1.0)
    with pytest.raises(ValueError):
        semicrossed_poly(gm, {-1: f})
    with pytest.raises(ValueError):
        semicrossed_poly(gm, {0: constant_cylinder(full2, 1.0)})
    with pytest.raises(TypeError):
        crossed_poly(gm, {0: f})  # needs two-sided coefficients
    with pytest.raises(TypeError):
        multiply(u_power(gm, 1), crossed_u_power(gm, 1))


@pytest.mark.parametrize(
    "combine",
    [lambda F, G: F + G, multiply, lambda F, G: cylinder_add(F.coeffs[0], G.coeffs[0])],
    ids=["sum", "multiply", "cylinder_add"],
)
def test_arithmetic_across_two_graphs_raises(gm, full2, combine):
    """A sum or product of polynomials, or a sum of cylinders, of two graphs
    names no function on either shift space: ValueError."""
    F, G = (from_function(constant_cylinder(g, 1.0)) for g in (gm, full2))
    with pytest.raises(ValueError, match="different graphs"):
        combine(F, G)


def test_u_power_and_from_function(gm):
    one = u_power(gm, 0)
    assert one.support == (0,) and l1_norm(one) == 1.0
    assert multiply(one, one) == one
    f = constant_cylinder(gm, 3.0)
    assert from_function(f).support == (0,)
    assert l1_norm(from_function(f)) == 3.0
    assert l1_norm(u_power(gm, 4, scale=-2.0)) == 2.0
    assert crossed_u_power(gm, -3).support == (-3,)


def test_zero_polynomial(gm):
    zero = semicrossed_poly(gm, {})
    assert l1_norm(zero) == 0.0
    assert multiply(zero, u_power(gm, 2)) == zero
    assert poly_distance(zero, linear_ops(u_power(gm, 1), u_power(gm, 1), "sub")) == 0.0


def test_a_wide_coefficient_that_cancels_is_dropped(full3):
    """F - F drops every coefficient, also one the arithmetic holds as an
    array (window 5 on full-3: 243 words), and a wide one that is zero on
    all but one word stays."""
    rng = random.Random(4)
    F = semicrossed_poly(full3, {0: rand_cylinder(rng, full3, 5), 1: rand_cylinder(rng, full3, 1)})
    assert type(cylinder_scale(F.coeffs[0], -1).values) is ArrayTable
    assert dict((F - F).coeffs) == {}
    one = cylinder_scale(make_cylinder(full3, 5, {u: float(u == (2,) * 5) for u in full3.admissible_words(5)}), 2)
    assert semicrossed_poly(full3, {0: one}).support == (0,)


# ---------------------------------------------------------------------------
# the covariance relation, exactly


def test_covariance_relation_is_exact(gm, full2, full3):
    """fU == U(f after one shift), as identical coefficient tables — the
    product routine must realize the relation without float drift."""
    rng = random.Random(41)
    for g in (gm, full2, full3):
        U = u_power(g, 1)
        for window in (1, 2, 3):
            f = rand_cylinder(rng, g, window)
            lhs = multiply(from_function(f), U)
            rhs = multiply(U, from_function(compose_shift(f, 1)))
            assert lhs == rhs


@given(SEEDS)
@settings(max_examples=30, deadline=None)
def test_covariance_higher_powers(seed):
    g = validate_sft(2, [[1, 1], [1, 0]])
    rng = random.Random(seed)
    f = rand_cylinder(rng, g, rng.randint(1, 2))
    n = rng.randint(1, 3)
    lhs = multiply(from_function(f), u_power(g, n))
    rhs = multiply(u_power(g, n), from_function(compose_shift(f, n)))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# ring laws (floats: to rounding)


@given(SEEDS)
@settings(max_examples=50, deadline=None)
def test_associativity_and_distributivity(seed):
    g = validate_sft(2, [[1, 1], [1, 0]])
    rng = random.Random(seed)
    F, G, H = (rand_poly(rng, g) for _ in range(3))
    assert poly_distance(multiply(multiply(F, G), H), multiply(F, multiply(G, H))) < 1e-12
    assert (
        poly_distance(
            multiply(F, linear_ops(G, H, "add")),
            linear_ops(multiply(F, G), multiply(F, H), "add"),
        )
        < 1e-12
    )


@given(SEEDS)
@settings(max_examples=30, deadline=None)
def test_scalar_ops(seed):
    g = validate_sft(2, [[1, 1], [1, 1]])
    rng = random.Random(seed)
    F = rand_poly(rng, g)
    c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    scaled = linear_ops(F, None, "scale", scalar=c)
    assert abs(l1_norm(scaled) - abs(c) * l1_norm(F)) < 1e-9 * (1 + l1_norm(F))
    assert poly_distance(linear_ops(scaled, F, "sub"), linear_ops(F, None, "scale", scalar=c - 1)) < 1e-12


@given(SEEDS)
@settings(max_examples=20, deadline=None)
def test_operators_negate_and_multiply(seed):
    """-F is F * -1 and F * G is multiply(F, G), in both flavours."""
    g = validate_sft(2, [[1, 1], [1, 0]])
    rng = random.Random(seed)
    F, G = rand_poly(rng, g), rand_poly(rng, g)
    for A, B in ((F, G), (embed_poly(F), embed_poly(G))):
        assert poly_distance(-A, A * -1) == 0.0
        assert poly_distance(A * B, multiply(A, B)) == 0.0


def test_a_product_with_a_non_number_is_a_type_error():
    """``F * x`` for an x that is neither a polynomial of F's flavour nor a
    number returns NotImplemented from ``__mul__``, so Python raises
    TypeError; a number on either side still scales."""
    g = validate_sft(2, [[1, 1], [1, 0]])
    F = rand_poly(random.Random(3), g)
    for A, other in ((F, "x"), (F, embed_poly(F)), (embed_poly(F), F), (F, None)):
        assert A.__mul__(other) is NotImplemented
        with pytest.raises(TypeError):
            A * other
    assert poly_distance(2 * F, F * 2) == 0.0


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_l1_norm_triangle_and_submultiplicative(seed):
    g = validate_sft(2, [[1, 1], [1, 0]])
    rng = random.Random(seed)
    F, G = rand_poly(rng, g), rand_poly(rng, g)
    assert l1_norm(linear_ops(F, G, "add")) <= l1_norm(F) + l1_norm(G) + 1e-9
    assert l1_norm(multiply(F, G)) <= l1_norm(F) * l1_norm(G) + 1e-9


# ---------------------------------------------------------------------------
# the shift endomorphism


def test_alpha_is_an_exact_homomorphism(gm):
    rng = random.Random(5)
    for _ in range(25):
        F, G = rand_poly(rng, gm), rand_poly(rng, gm)
        assert alpha_endomorphism(multiply(F, G)) == multiply(
            alpha_endomorphism(F), alpha_endomorphism(G)
        )
        assert alpha_endomorphism(linear_ops(F, G, "add")) == linear_ops(
            alpha_endomorphism(F), alpha_endomorphism(G), "add"
        )


def test_alpha_fixes_the_shift_generator(gm):
    # composing the constant coefficient widens its table but not its values
    U = u_power(gm, 1)
    assert poly_distance(alpha_endomorphism(U), U) == 0.0
    with pytest.raises(ValueError):
        alpha_endomorphism(U, -1)


def test_alpha_tilde_is_invertible(gm):
    rng = random.Random(6)
    for _ in range(10):
        G = _rand_crossed(rng, gm)
        assert alpha_tilde(alpha_tilde(G, 1), -1) == G
        assert alpha_tilde(alpha_tilde(G, -2), 2) == G
    # and it agrees with the one-sided endomorphism on embedded elements
    F = rand_poly(rng, gm)
    assert (
        poly_distance(alpha_tilde(embed_poly(F), 1), embed_poly(alpha_endomorphism(F)))
        == 0.0
    )


# ---------------------------------------------------------------------------
# embedding into the two-sided algebra


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_embed_poly_is_multiplicative(seed):
    g = validate_sft(2, [[1, 1], [1, 0]])
    rng = random.Random(seed)
    F, G = rand_poly(rng, g), rand_poly(rng, g)
    assert poly_distance(embed_poly(multiply(F, G)), multiply(embed_poly(F), embed_poly(G))) < 1e-12
    assert l1_norm(embed_poly(F)) == pytest.approx(l1_norm(F), abs=1e-12)


def test_embedded_shift_is_invertible(gm):
    V = crossed_u_power(gm, 1)
    W = crossed_u_power(gm, -1)
    # products carry widened coefficient tables, so compare semantically
    assert poly_distance(multiply(V, W), crossed_u_power(gm, 0)) == 0.0
    assert poly_distance(multiply(W, V), crossed_u_power(gm, 0)) == 0.0
    assert embed_poly(u_power(gm, 3)) == crossed_u_power(gm, 3)


# ---------------------------------------------------------------------------
# pushing two-sided elements back into the one-sided copy


def test_regularize_already_one_sided(gm):
    F = rand_poly(random.Random(7), gm)
    m, back = regularize_right_multiply(embed_poly(F))
    assert m == 0
    assert poly_distance(back, F) == 0.0


def test_regularize_clears_negative_powers(gm):
    rng = random.Random(8)
    for _ in range(15):
        G = _rand_crossed(rng, gm)
        m, F = regularize_right_multiply(G)
        assert m >= 0
        assert all(n >= 0 for n in F.support)
        assert all(f.start >= 1 for f in embed_poly(F).coeffs.values())
        shifted = multiply(G, crossed_u_power(gm, m))
        assert poly_distance(embed_poly(F), shifted) < 1e-12


def test_regularize_window_only_obstruction(gm):
    # a nonnegative power whose window reaches left of the anchor still
    # needs a positive shift
    f = embed_function(constant_cylinder(gm, 1.0))
    G = crossed_poly(gm, {0: shift_window(f, -2)})
    m, _ = regularize_right_multiply(G)
    assert m == 2  # window starts at -1, must reach 1


@pytest.mark.parametrize(
    "name, call",
    [
        ("embed_poly", lambda g: embed_poly(embed_poly(u_power(g, 0) + u_power(g, 1)))),
        ("regularize_right_multiply", lambda g: regularize_right_multiply(u_power(g, 0) + u_power(g, 1))),
        ("embed_function", lambda g: embed_function(embed_function(constant_cylinder(g, 1.0)))),
        ("to_one_sided", lambda g: to_one_sided(compose_shift(constant_cylinder(g, 1.0), 1))),
        ("lift_point", lambda g: lift_point(make_stream(g, streams.fibonacci_word(), check_to=64))),
    ],
)
def test_embedding_boundary_takes_only_its_own_flavour(gm, name, call):
    """Each map between the flavours raises TypeError, naming itself, on an
    argument of the wrong flavour.  On golden-mean the first four returned
    a shifted element (``embed_poly(embed_poly(1 + U))`` read its windows
    from index 2, ``regularize_right_multiply(1 + U)`` gave (1, U + U²)),
    and ``lift_point`` of a stream raised AttributeError."""
    with pytest.raises(TypeError, match=f"^{name} takes"):
        call(gm)


def test_width_40_coefficients_shift_and_embed_without_listing(full2):
    # 2^40 table words: composing, embedding and regularizing share the
    # indicator's table instead of listing a wider one
    target = (0, 1) * 20
    f = CylinderFunction(full2, 40, IndicatorTable(full2, target))
    F = from_function(f)
    f1 = compose_shift(f, 1)
    assert (f1.start, f1.window) == (1, 40) and f1.values is f.values
    x = make_lasso(full2, (1,) + target, (0,))
    assert eval_cylinder(f1, x) == 1.0 and eval_cylinder(f, x) == 0.0
    (g3,) = alpha_endomorphism(F, 3).coeffs.values()
    assert (g3.start, g3.window) == (3, 40) and g3.values is f.values
    E = embed_poly(F)
    (e,) = E.coeffs.values()
    assert (e.start, e.window) == (1, 40) and e.values is f.values
    m, back = regularize_right_multiply(E)
    assert m == 0 and back == F


def test_poly_distance_separates(gm):
    F = u_power(gm, 1)
    G = u_power(gm, 1, scale=1.0 + 1e-6)
    assert poly_distance(F, G) == pytest.approx(1e-6, rel=1e-6)
    assert poly_distance(F, F) == 0.0
