"""Orbit representations as (bi-)infinite triangular matrices, their
truncations, and the norm machinery built on them."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicrossed.algebra import (
    CrossedPoly,
    alpha_endomorphism,
    alpha_tilde,
    crossed_poly,
    crossed_u_power,
    embed_poly,
    from_function,
    l1_norm,
    linear_ops,
    multiply,
    semicrossed_poly,
    u_power,
)
from semicrossed.dynamics import (
    CylinderFunction,
    IndicatorTable,
    LassoPoint,
    enumerate_cycles,
    make_cylinder,
    make_lasso,
    make_stream,
    validate_sft,
)
from semicrossed.errors import GeneratorExhausted, NotUnitModulus, Overflow, SeparationFailure
from semicrossed.extension import (
    BiLassoPoint,
    TwoSidedCylinder,
    apply_phi_tilde,
    bilasso_from_cycle,
    lift_point,
    make_bilasso,
    ray_point,
)
from semicrossed.representations import (
    BAND_CROSSOVER,
    LambdaNorm,
    NestReport,
    TruncationPolicy,
    build_Pi_x,
    build_Pi_y_lambda,
    build_pi_x,
    constant_A,
    constant_B,
    crossed_norm,
    norm_Pi_x,
    norm_pi_x,
    operator_norm,
    restricted_Pi_block,
    restricted_pi_block,
    seam_points,
    semicrossed_norm,
    sup_lambda_norm,
    sup_lambda_norms,
    tour_point,
    verify_nest_truncation,
    verify_norm_lemmas,
)
from semicrossed import representations, streams

from conftest import rand_graph, rand_lasso, rand_poly


def _one_plus_u(g):
    return linear_ops(u_power(g, 0), u_power(g, 1), "add")


# ---------------------------------------------------------------------------
# the one-sided matrix, by hand


def test_pi_x_matches_hand_computation(gm):
    """A degree-one element with stored coefficient f puts f(orbit point j)
    in row j+1, column j, and nothing else."""
    f = make_cylinder(gm, 1, {(0,): 1.0, (1,): 0.5})
    F = semicrossed_poly(gm, {1: f})
    x = make_lasso(gm, (), (0, 1))  # itinerary 0,1,0,1,...
    M = build_pi_x(F, x, 4)
    want = np.zeros((4, 4), dtype=complex)
    want[1, 0] = 1.0  # f(01...) = 1.0
    want[2, 1] = 0.5  # f(10...) = 0.5
    want[3, 2] = 1.0
    assert np.array_equal(M, want)
    # the product f*U normalizes covariantly, so its matrix reads f one
    # step later along the orbit
    shifted = build_pi_x(multiply(from_function(f), u_power(gm, 1)), x, 4)
    assert np.array_equal(np.diag(shifted, -1), np.array([0.5, 1.0, 0.5], dtype=complex))


def test_pi_x_is_lower_triangular(gm):
    rng = random.Random(17)
    x = make_lasso(gm, (0, 0, 1), (0, 1))
    for _ in range(5):
        F = rand_poly(rng, gm)
        M = build_pi_x(F, x, 8)
        assert np.array_equal(np.triu(M, 1), np.zeros_like(M))


def test_diagonal_band_carries_one_coefficient(gm):
    # the n-th band of the matrix is the n-th coefficient read along the orbit
    f = make_cylinder(gm, 1, {(0,): 2.0, (1,): -3.0})
    F = from_function(f)  # degree 0: diagonal only
    x = make_lasso(gm, (), (0, 1))
    M = build_pi_x(F, x, 6)
    assert np.array_equal(np.diag(M), np.array([2, -3, 2, -3, 2, -3], dtype=complex))


def test_shift_generator_has_norm_one_exactly(gm, full2):
    for g in (gm, full2):
        U = u_power(g, 1)
        x = make_lasso(g, (0,), (0, 1))
        for K in range(2, 65):
            assert norm_pi_x(U, x, K) == 1.0


def test_truncation_is_multiplicative_within_window(gm):
    """Truncating the product equals multiplying truncations wherever the
    smaller matrix has complete data (lower-left block)."""
    rng = random.Random(23)
    x = make_lasso(gm, (0,), (0, 0, 1))
    K = 12
    for _ in range(8):
        F, G = rand_poly(rng, gm), rand_poly(rng, gm)
        degF = max(F.support, default=0)
        P = build_pi_x(multiply(F, G), x, K)
        Q = build_pi_x(F, x, K) @ build_pi_x(G, x, K)
        # rows past the degree of F see fully-summed products
        err = np.abs(P - Q)[degF:, :]
        assert float(err.max(initial=0.0)) < 1e-12


# ---------------------------------------------------------------------------
# the two-sided matrix and the corner identity


def test_two_sided_quadrant_equals_one_sided(gm):
    rng = random.Random(29)
    x = make_lasso(gm, (1, 0), (0, 0, 1))
    xt = lift_point(x)
    for _ in range(5):
        F = rand_poly(rng, gm)
        K = 6
        big = build_Pi_x(embed_poly(F), xt, K)  # indices -K..K
        small = build_pi_x(F, x, K + 1)
        assert np.array_equal(big[K:, K:], small)


def test_restricted_blocks_agree_exactly(gm, full2):
    """The columns of the two-sided truncation that are complete match the
    one-sided matrix of the leftmost ray, entry for entry."""
    rng = random.Random(31)
    for g in (gm, full2):
        xt = make_bilasso(g, (0,), (0, 1, 0), 1, (0, 1) if g is full2 else (0,))
        for _ in range(4):
            F = rand_poly(rng, g)
            K = 8
            crossed = restricted_Pi_block(embed_poly(F), xt, K)
            ray = restricted_pi_block(F, ray_point(xt, 1 - K), 2 * K + 1)
            assert np.array_equal(crossed, ray)


def _complete_columns(M: np.ndarray, support, lo: int) -> np.ndarray:
    """Columns of a truncation onto coordinates lo..lo+len(M)-1 whose every
    entry i + n, n in the support, lies in that range, cut from M."""
    hi = lo + len(M) - 1
    keep = [all(lo <= i + n <= hi for n in support) for i in range(lo, hi + 1)]
    return M[:, np.array(keep, dtype=bool)]


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_restricted_blocks_are_the_complete_columns_bit_for_bit(seed):
    """``restricted_*_block`` are the complete columns of ``build_*``, in
    shape and bytes, and below ``BAND_CROSSOVER`` ``norm_*`` is the
    ``operator_norm`` of the block without the zero rows under the last row
    an entry reaches (present when every two-sided power is negative)."""
    rng = random.Random(seed)
    full2 = validate_sft(2, [[1, 1], [1, 1]])
    gm = validate_sft(2, [[1, 1], [1, 0]])
    g = rng.choice([full2, gm, rand_graph(rng, 3)])
    x = rand_lasso(rng, g)
    if g is full2 and rng.random() < 0.4:
        x = make_stream(full2, streams.ThueMorse(), check_to=128)
    if g is gm and rng.random() < 0.4:
        x = make_stream(gm, streams.fibonacci_word(), check_to=128)
    F = rand_poly(rng, g, max_degree=3, max_window=3)
    if rng.random() < 0.3:
        F = alpha_endomorphism(F, rng.randint(1, 3))
    if rng.random() < 0.1:
        F = semicrossed_poly(g, {})
    K = rng.randint(max(F.coeffs, default=0) + 1, 40)
    block = restricted_pi_block(F, x, K)
    assert _same_bytes(block, _complete_columns(build_pi_x(F, x, K), F.support, 0))
    assert norm_pi_x(F, x, K) == operator_norm(block)

    # E V^-k, with every power negative for k past the degree
    k = max(F.support, default=0) + rng.randint(1, 4) if rng.random() < 0.5 else rng.randint(0, 3)
    E = multiply(embed_poly(F), crossed_u_power(g, -k))
    if rng.random() < 0.3:
        E = alpha_tilde(E, rng.randint(-3, 3))
    xt = rng.choice(seam_points(g, cap=2) + (lift_point(rand_lasso(rng, g)),))
    top, bottom = min(min(E.support, default=0), 0), max(max(E.support, default=0), 0)
    # from about 130 rows up the SVD sees padding in its last bit
    K = rng.randint((bottom - top + 1) // 2, 100)
    block = restricted_Pi_block(E, xt, K)
    if not E.coeffs:
        assert _same_bytes(block, np.zeros((2 * K + 1, 0), dtype=complex))
        return
    assert _same_bytes(block, _complete_columns(build_Pi_x(E, xt, K), E.support, -K))
    # the last complete column is K - bottom; its lowest entry sits at
    # power max(support) below it
    unpadded = block[: 2 * K + 1 - bottom + max(E.support)]
    assert norm_Pi_x(E, xt, K) == operator_norm(unpadded)


# ---------------------------------------------------------------------------
# operator norms


def test_operator_norm_closed_forms(gm):
    # identity plus shift: the square K x K triangular truncation has norm
    # 2 cos(pi/(2K+1)); the restricted block (complete columns only) has
    # norm 2 cos(pi/(2K)).  Both are classical.
    F = _one_plus_u(gm)
    x = make_lasso(gm, (), (0,))
    for K in (2, 3, 5, 8, 13):
        square = operator_norm(build_pi_x(F, x, K))
        assert square == pytest.approx(2 * math.cos(math.pi / (2 * K + 1)), abs=1e-9)
        assert norm_pi_x(F, x, K) == pytest.approx(2 * math.cos(math.pi / (2 * K)), abs=1e-9)


def test_operator_norm_small_cases():
    assert operator_norm(np.array([[1.0, 0.0], [1.0, 1.0]])) == pytest.approx(
        (1 + math.sqrt(5)) / 2, abs=1e-10
    )
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(np.array([[3.0]])) == 3.0


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_operator_norm_matches_svd(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    M = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    assert operator_norm(M) == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-8)


# ---------------------------------------------------------------------------
# norms of wide truncations, computed from their bands


def _sigma_max(M) -> float:
    return float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0


@given(st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_band_norms_match_dense_svd_across_the_crossover(seed):
    """Both sides of the crossover agree with a dense SVD of the restricted
    block to 1e-10, and never exceed it by more than rounding."""
    rng = random.Random(seed)
    g = rand_graph(rng, 4)
    F = rand_poly(rng, g, max_degree=3, max_window=2)
    x = rand_lasso(rng, g)
    K = rng.randint(BAND_CROSSOVER // 2, 2 * BAND_CROSSOVER)
    cases = [
        (norm_pi_x(F, x, K), _sigma_max(restricted_pi_block(F, x, K))),
        (
            norm_Pi_x(embed_poly(F), lift_point(x), K // 2),
            _sigma_max(restricted_Pi_block(embed_poly(F), lift_point(x), K // 2)),
        ),
    ]
    for got, want in cases:
        assert abs(got - want) <= 1e-10 * want, (K, got, want)
        assert got <= want * (1 + 1e-12)


@pytest.mark.parametrize("K", [512, 513, 1024])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_band_norm_of_one_plus_or_minus_shift(full2, K, sign):
    # the restricted block of 1 +- U is K x (K - 1) bidiagonal with norm
    # 2 cos(pi / 2K); at odd K the top singular vector of 1 - U is
    # orthogonal to the all-ones vector
    F = u_power(full2, 0) + sign * u_power(full2, 1)
    for x in (make_lasso(full2, (), (0,)), make_lasso(full2, (1, 1, 0), (0, 1))):
        assert abs(norm_pi_x(F, x, K) - 2 * math.cos(math.pi / (2 * K))) <= 1e-10


def test_band_norm_resolves_a_nearly_degenerate_top_pair(full2):
    # two copies of one bump, 17 coordinates apart: the top two singular
    # values differ by 1.8e-10 relative, and Lanczos must not stop on a
    # Ritz value between them
    f = make_cylinder(full2, 1, {(0,): 1.0, (1,): 2.0})
    F = from_function(f) + 0.5 * u_power(full2, 1)
    x = make_lasso(full2, (0,) * 5 + (1,) + (0,) * 16 + (1,), (0,))
    for K in (256, 512):
        want = _sigma_max(restricted_pi_block(F, x, K))
        assert abs(norm_pi_x(F, x, K) - want) <= 1e-12 * want


def test_band_norm_edges(gm):
    K = 2 * BAND_CROSSOVER
    x = make_lasso(gm, (0, 1), (0, 0, 1))
    xt = lift_point(x)
    U = u_power(gm, 1)
    assert norm_pi_x(U, x, K) == 1.0
    assert norm_Pi_x(embed_poly(U), xt, K) == 1.0
    zero = semicrossed_poly(gm, {})
    assert norm_pi_x(zero, x, K) == 0.0
    assert norm_Pi_x(embed_poly(zero), xt, K) == 0.0
    F = u_power(gm, 3)
    with pytest.raises(ValueError, match="exceed the polynomial degree"):
        norm_pi_x(F, x, 3)
    with pytest.raises(ValueError, match="power spread"):
        norm_Pi_x(embed_poly(F), xt, 1)


def test_band_norm_reads_a_width_30_indicator_at_the_orbit_only(gm):
    # 2,178,309 admissible words of width 30, past the listing cap: the
    # indicator is read at the windows the orbit visits and nowhere else
    target = (0, 1) * 15
    f = CylinderFunction(gm, 30, IndicatorTable(gm, target))
    K = BAND_CROSSOVER + 64
    off = make_lasso(gm, (), (0,))  # never reads the target
    assert norm_pi_x(from_function(f), off, K) == 0.0
    F = from_function(f) + u_power(gm, 1)
    for x in (off, make_lasso(gm, (0, 0), (0, 1))):
        want = operator_norm(restricted_pi_block(F, x, K))
        assert abs(norm_pi_x(F, x, K) - want) <= 1e-10 * want


def test_word_search_reads_only_the_windows_present():
    # width 64 over three symbols: 3^64 is past any table and any int64 code,
    # but the funnel graph has only 66 admissible words of that length
    funnel = validate_sft(3, [[1, 1, 0], [0, 0, 1], [0, 1, 0]])
    target = (0,) * 10 + (1, 2) * 27
    f = CylinderFunction(funnel, 64, IndicatorTable(funnel, target))
    F = from_function(f) + u_power(funnel, 1)
    K = 8
    want = 0.0
    for word in funnel.admissible_words(K + 63):
        M = np.zeros((K + 1, K))
        for c in range(K):
            M[c, c] = float(word[c : c + 64] == target)
            M[c + 1, c] = 1.0
        want = max(want, _sigma_max(M))
    exhaustive = constant_A(F, K, mode="exhaustive")
    assert exhaustive.value == pytest.approx(want, rel=1e-12)
    assert constant_A(F, K, mode="beam:8").value <= exhaustive.value + 1e-12


# ---------------------------------------------------------------------------
# cycle representations


def test_cycle_matrix_frozen_two_cycle(cyc2):
    V = embed_poly(u_power(cyc2, 1))
    M = build_Pi_y_lambda(V, (0, 1), 1j)
    assert np.array_equal(M, np.array([[0, 1j], [1j, 0]]))
    with pytest.raises(NotUnitModulus):
        build_Pi_y_lambda(V, (0, 1), 0.5)


def test_cycle_matrix_fixed_point(gm):
    F = _one_plus_u(gm)
    M = build_Pi_y_lambda(F, (0,), -1.0)
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(0.0)


def test_sup_lambda_norm_hits_the_right_phase(gm):
    plus = sup_lambda_norm(_one_plus_u(gm), (0,), grid=64)
    assert plus.value == pytest.approx(2.0, abs=1e-12)
    assert plus.lam == pytest.approx(1.0)
    minus = sup_lambda_norm(linear_ops(u_power(gm, 0), u_power(gm, 1), "sub"), (0,), grid=64)
    assert minus.value == pytest.approx(2.0, abs=1e-12)
    assert minus.lam == pytest.approx(-1.0)


def test_sup_lambda_norm_gauge_invariance(full2):
    """Multiplying the reference phase by a unit scalar permutes the circle,
    so the supremum cannot move (up to grid refinement noise)."""
    rng = random.Random(37)
    F = embed_poly(rand_poly(rng, full2))
    a = sup_lambda_norm(F, (0, 1), grid=256)
    b = sup_lambda_norm(F, (1, 0), grid=256)  # rotated cycle presentation
    assert a.value == pytest.approx(b.value, abs=1e-6)


def test_refine_steps_zero_is_pure_grid(gm):
    F = _one_plus_u(gm)
    coarse = sup_lambda_norm(F, (0,), grid=4, refine_steps=0)
    fine = sup_lambda_norm(F, (0,), grid=4, refine_steps=40)
    assert coarse.value <= fine.value + 1e-12
    assert fine.value == pytest.approx(2.0, abs=1e-9)


def _lone_sup_lambda_norm(F, word, grid, refine_steps):
    """The search of one cycle on its own, one angle and one SVD at a time:
    the reference that the lockstep search must reproduce bit for bit."""
    p = len(word)
    if isinstance(F, CrossedPoly):
        point = bilasso_from_cycle(F.graph, word)
        values = [
            (n, [f.values[point.window(f.start + i, f.start + i + f.window)] for i in range(p)])
            for n, f in sorted(F.coeffs.items())
        ]
    else:
        values = [
            (n, [f.values[tuple(word[(i + t) % p] for t in range(f.window))] for i in range(p)])
            for n, f in sorted(F.coeffs.items())
        ]

    def norms_at(theta_arr):
        lam = np.exp(1j * theta_arr)
        M = np.zeros((len(theta_arr), p, p), dtype=complex)
        for n, per_col in values:
            ln = lam**n
            for i in range(p):
                M[:, (i + n) % p, i] += ln * per_col[i]
        return np.linalg.svd(M, compute_uv=False)[:, 0]

    thetas = 2.0 * np.pi * np.arange(grid) / (grid * p)
    norms = norms_at(thetas)
    j = int(np.argmax(norms))
    best_theta, best = float(thetas[j]), float(norms[j])
    if refine_steps > 0 and grid >= 2:
        step = 2.0 * np.pi / (grid * p)
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = best_theta - step, best_theta + step
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc = float(norms_at(np.array([c]))[0])
        fd = float(norms_at(np.array([d]))[0])
        for _ in range(refine_steps):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = float(norms_at(np.array([c]))[0])
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = float(norms_at(np.array([d]))[0])
        for theta, val in ((c, fc), (d, fd)):
            if val > best:
                best, best_theta = float(val), float(theta)
    return LambdaNorm(best, complex(np.exp(1j * best_theta)), word, grid)


def _constant_poly(rng, g):
    """Coefficients constant on the whole space: all cycles of one period
    have the same picture."""
    coeffs = {}
    for n in range(rng.randint(1, 4)):
        c = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        coeffs[n] = make_cylinder(g, 1, dict.fromkeys(g.admissible_words(1), c))
    return semicrossed_poly(g, coeffs)


@given(
    st.integers(0, 10**9),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1, 2, 5, 128]),
    st.sampled_from([0, 1, 60]),
)
@settings(max_examples=40, deadline=None)
def test_lockstep_search_equals_lone_searches_exactly(seed, two_sided, constant, grid, refine_steps):
    rng = random.Random(seed)
    g = rand_graph(rng, 3)
    F = _constant_poly(rng, g) if constant else rand_poly(rng, g)
    if two_sided:
        F = embed_poly(F)
    pool = [c.word for c in enumerate_cycles(g, 4)]
    words = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
    got = sup_lambda_norms(F, words, grid=grid, refine_steps=refine_steps)
    assert got == tuple(_lone_sup_lambda_norm(F, w, grid, refine_steps) for w in words)


@given(st.integers(0, 10**9), st.sampled_from([1, 5, 128]), st.sampled_from([0, 1, 60]))
@settings(max_examples=30, deadline=None)
def test_inclusion_keeps_every_cycle_search_bit_for_bit(seed, grid, refine_steps):
    """F and embed_poly(F) read the same values along every cycle, so one
    cycle search may serve both (as envelope_report does)."""
    rng = random.Random(seed)
    g = rand_graph(rng, 3)
    F = rand_poly(rng, g)
    if rng.random() < 0.5:
        F = alpha_endomorphism(F, rng.randint(1, 2))
    E = embed_poly(F)
    words = [c.word for c in enumerate_cycles(g, 4)]
    assert sup_lambda_norms(F, words, grid, refine_steps) == sup_lambda_norms(E, words, grid, refine_steps)
    assert constant_B(F, 3, grid, refine_steps) == constant_B(E, 3, grid, refine_steps)


def test_identical_pictures_share_one_search(full3, monkeypatch):
    """U reads no values, so all cycles of one period have one picture:
    the 32 cycles of full-3 up to period 4 take 4 grid searches."""
    grid_matrices = []
    sigma_max_at = representations._sigma_max_at

    def counted(A, powers, theta):
        grid_matrices.append(len(A) * theta.shape[1])
        return sigma_max_at(A, powers, theta)

    monkeypatch.setattr(representations, "_sigma_max_at", counted)
    F = u_power(full3, 1)
    res = constant_B(F, max_period=4, refine_steps=0)
    assert res.cycles == 32
    assert sum(grid_matrices) == 4 * 128


def _stored_from_zero(F):
    """F with each coefficient re-stored as a table of the coordinates 0 ..
    start + window - 1: the same functions, read from coordinate 0."""
    g = F.graph
    coeffs = {}
    for k, f in F.coeffs.items():
        reach = f.start + f.window
        table = {u: f.values[u[f.start :]] for u in g.admissible_words(reach)}
        coeffs[k] = make_cylinder(g, reach, table)
    return semicrossed_poly(g, coeffs)


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_readers_see_the_function_not_its_storage(seed):
    rng = random.Random(seed)
    g = rand_graph(rng, 3)
    F = alpha_endomorphism(rand_poly(rng, g), rng.randint(1, 3))
    R = _stored_from_zero(F)
    assert all(f.start > 0 for f in F.coeffs.values())
    assert all(f.start == 0 for f in R.coeffs.values())
    x = rand_lasso(rng, g)
    K = rng.randint(4, 6)
    assert np.array_equal(build_pi_x(F, x, K), build_pi_x(R, x, K))
    assert norm_pi_x(F, x, K) == norm_pi_x(R, x, K)
    assert constant_A(F, K, mode="exhaustive") == constant_A(R, K, mode="exhaustive")
    assert constant_B(F, 3) == constant_B(R, 3)
    Ft, Rt = embed_poly(F), embed_poly(R)
    for xt in (lift_point(x), *seam_points(g, cap=2)):
        assert np.array_equal(build_Pi_x(Ft, xt, K), build_Pi_x(Rt, xt, K))
        assert norm_Pi_x(Ft, xt, K) == norm_Pi_x(Rt, xt, K)


def test_sup_lambda_norms_order_repeats_and_errors(full2):
    F = rand_poly(random.Random(71), full2)
    assert sup_lambda_norms(F, []) == ()
    words = [(0, 1, 1), (0,), (0, 1), (0,), (1,)]
    got = sup_lambda_norms(F, words, grid=16)
    assert [ln.cycle for ln in got] == words
    assert got[1] == got[3]
    assert got == tuple(sup_lambda_norm(F, w, grid=16) for w in words)
    with pytest.raises(ValueError):
        sup_lambda_norms(F, words, grid=0)
    with pytest.raises(TypeError):
        sup_lambda_norms("1 + U", words)
    with pytest.raises(TypeError):
        build_Pi_y_lambda("1 + U", (0,), 1.0)


def test_constant_B_tie_goes_to_the_first_cycle(full2):
    """2·id has norm exactly 2 on every cycle at every phase."""
    F = u_power(full2, 0, scale=2.0)
    res = constant_B(F, max_period=3)
    assert res.value == 2.0
    assert res.cycles == len(enumerate_cycles(full2, 3)) == 5
    assert res.cycle == (0,)


# ---------------------------------------------------------------------------
# the two truncation-free bounds


def test_constant_A_exhaustive_matches_wide_beam(gm):
    rng = random.Random(43)
    for _ in range(6):
        F = rand_poly(rng, gm)
        ex = constant_A(F, 8, mode="exhaustive")
        beam = constant_A(F, 8, mode="beam:64")
        assert beam.value <= ex.value + 1e-12
        assert ex.value == pytest.approx(beam.value, abs=1e-9)
        assert ex.mode == "exhaustive" and beam.mode == "beam:64"


def test_constant_A_overflow_and_permutation(gm, cyc2):
    F = rand_poly(random.Random(47), gm)
    with pytest.raises(Overflow):
        constant_A(F, 10, mode="exhaustive", cap=20)
    # on a permutation graph every orbit is periodic: nothing to search
    assert constant_A(u_power(cyc2, 1), 6) is None
    assert constant_A(F, 6) is not None


def test_constant_A_grows_with_K(gm):
    F = rand_poly(random.Random(53), gm)
    values = [constant_A(F, K, mode="beam:8").value for K in (2, 4, 8, 16)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def test_constant_B_uses_girth_on_sparse_graphs():
    g = validate_sft(1, [[1]])
    F = _one_plus_u(g)
    res = constant_B(F, max_period=1)
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.cycle == (0,)
    # three-cycle graph has no cycles shorter than its girth of 3, so the
    # search widens its period bound to reach one
    g3 = validate_sft(3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    res3 = constant_B(embed_poly(u_power(g3, 1)), max_period=1)
    assert res3.periods == 3 and res3.cycles == 1
    assert res3.cycle == (0, 1, 2)
    assert res3.value == pytest.approx(1.0, abs=1e-9)


def test_constant_B_accepts_both_flavours(gm):
    F = _one_plus_u(gm)
    one_sided = constant_B(F, max_period=2)
    two_sided = constant_B(embed_poly(F), max_period=2)
    assert one_sided.value == pytest.approx(two_sided.value, abs=1e-9)


# ---------------------------------------------------------------------------
# norm estimates


def test_semicrossed_norm_one_plus_u(full2):
    est = semicrossed_norm(_one_plus_u(full2))
    assert est.converged
    assert est.value == pytest.approx(2.0, abs=1e-6)
    assert est.history == tuple(sorted(est.history))
    assert est.diagnostics["cycle_value"] == pytest.approx(2.0, abs=1e-9)


def test_semicrossed_norm_monomial(gm):
    est = semicrossed_norm(u_power(gm, 2, scale=3.0))
    assert est.value == pytest.approx(3.0, abs=1e-9)
    assert est.converged


@given(st.integers(0, 10**9))
@settings(max_examples=15, deadline=None)
def test_semicrossed_norm_bounded_by_l1(seed):
    g = validate_sft(2, [[1, 1], [1, 0]])
    F = rand_poly(random.Random(seed), g, max_degree=2, max_window=2)
    est = semicrossed_norm(F, TruncationPolicy(k_start=8, k_max=32, mode="beam:8"))
    assert est.value <= l1_norm(F) + 1e-9
    lower = max(est.diagnostics["cycle_value"], est.diagnostics["word_value"])
    assert est.value >= lower - 1e-9


def test_norm_history_is_monotone_and_diagnosed(gm):
    F = rand_poly(random.Random(59), gm)
    est = semicrossed_norm(F, TruncationPolicy(k_start=4, k_max=64))
    assert est.history == tuple(sorted(est.history))
    d = est.diagnostics
    assert set(d) >= {"cycle_value", "word_value", "mode", "K_history", "samples"}
    assert len(d["K_history"]) == len(est.history)


def test_crossed_norm_one_plus_shift(full2):
    est = crossed_norm(embed_poly(_one_plus_u(full2)))
    assert est.converged
    assert est.value == pytest.approx(2.0, abs=1e-6)


def test_norm_policy_cap_without_convergence(gm):
    F = rand_poly(random.Random(61), gm)
    est = semicrossed_norm(F, TruncationPolicy(k_start=8, k_max=8))
    assert not est.converged
    assert len(est.history) == 1


def test_seam_and_tour_points(gm, full2):
    for g in (gm, full2):
        pts = seam_points(g)
        assert pts
        assert all(p.graph is g for p in pts)
        t = tour_point(g)
        assert t is not None and t.graph is g
    # the tour visits every symbol somewhere
    t2 = tour_point(full2)
    seen = {t2.symbol_at(i) for i in range(-8, 9)}
    assert seen == {0, 1}


# ---------------------------------------------------------------------------
# the certification report


def test_norm_lemma_report_on_simple_elements(gm):
    for F in (_one_plus_u(gm), u_power(gm, 1)):
        rep = verify_norm_lemmas(F, K=64, max_period=2, lambda_grid=64)
        assert rep.cycle_rows and rep.ray_rows
        for row in rep.cycle_rows:
            assert row.ok
            assert row.sup_value <= row.point_value + rep.tol
            assert row.witness_value <= row.point_value + 1e-9
        for row in rep.ray_rows:
            assert row.ok
            assert abs(row.crossed_value - row.ray_value) < 1e-9


def test_norm_lemma_report_random_element(full2):
    F = rand_poly(random.Random(67), full2, max_degree=2, max_window=2)
    rep = verify_norm_lemmas(F, K=64, max_period=2, lambda_grid=64)
    assert all(row.ok for row in rep.cycle_rows)
    assert all(abs(row.crossed_value - row.ray_value) < 1e-9 for row in rep.ray_rows)


# ---------------------------------------------------------------------------
# nest separation under truncation


def _thue_morse_bit(n: int) -> int:
    return bin(n).count("1") % 2


def test_nest_separation_thue_morse(full2):
    x = make_stream(full2, streams.ThueMorse(), check_to=1024)
    rep = verify_nest_truncation(x, K=16)
    assert rep.kind == "base"
    assert rep.indicators_exact and rep.tails_invariant

    # independent oracle: smallest w such that all length-w windows starting
    # in the truncation range are distinct
    seq = [_thue_morse_bit(n) for n in range(64)]
    w = 1
    while True:
        windows = [tuple(seq[i : i + w]) for i in range(16)]
        if len(set(windows)) == len(windows):
            break
        w += 1
    assert rep.window == w == 9


def test_nest_separation_bilasso(full2):
    x = make_bilasso(full2, (0,), (1,), 0, (0,))  # ...000 1 000...
    rep = verify_nest_truncation(x, K=8)
    assert rep.kind == "extension"
    # the 2K+1 translates are told apart by where the lone 1 sits in a
    # window of 16; length 15 would leave two all-zero windows, so this
    # is minimal
    assert (rep.start, rep.window) == (-8, 16)
    assert rep.indicators_exact and rep.tails_invariant


def test_indicator_the_orbit_never_reads_gives_the_zero_picture(full2, full3):
    K = 8
    x = make_lasso(full2, (1,), (0,))  # 1000...: never reads 11
    f = CylinderFunction(full2, 2, IndicatorTable(full2, (1, 1)))
    assert np.array_equal(build_pi_x(from_function(f), x, K), np.zeros((K, K)))
    # a width-16 window on full-3: 3^16 admissible words, too many to tabulate
    xt = make_bilasso(full3, (0,), (1,), 0, (0,))
    ft = TwoSidedCylinder(full3, -7, 16, IndicatorTable(full3, (2,) * 16))
    M = build_Pi_x(crossed_poly(full3, {0: ft}), xt, K)
    assert np.array_equal(M, np.zeros((2 * K + 1, 2 * K + 1)))


def test_nest_separation_on_a_three_symbol_seam(full3):
    # a width-16 window over three symbols has 3^16 admissible words
    x = make_bilasso(full3, (0,), (1,), 0, (0,))
    rep = verify_nest_truncation(x, K=8)
    assert (rep.start, rep.window) == (-8, 16)
    assert rep.indicators_exact and rep.tails_invariant


def test_nest_separation_at_a_window_of_2_to_the_63_words(full2):
    # 0^63 1 000...: position 0 reads all zeros until the window reaches
    # the 1, so the separating width is 63
    x = make_lasso(full2, (0,) * 63 + (1,), (0,))
    rep = verify_nest_truncation(x, K=16)
    assert rep.window == 63
    assert rep.indicators_exact and rep.tails_invariant


def test_nest_separation_fails_on_periodic_points(gm, full2):
    with pytest.raises(SeparationFailure):
        verify_nest_truncation(make_lasso(gm, (), (0, 1)), K=8)
    with pytest.raises(SeparationFailure):
        verify_nest_truncation(bilasso_from_cycle(full2, (0, 1)), K=8)


# ---------------------------------------------------------------------------
# the nest search against a symbol-by-symbol reference


def _ref_itinerary(x, n):
    if isinstance(x, LassoPoint):
        return tuple(x.symbol_at(k) for k in range(n))
    if x.offset + n > x.checked_to:
        raise GeneratorExhausted(f"itinerary of length {n} exceeds certified horizon {x.horizon}")
    return tuple(x.rule.symbol(x.offset + k) for k in range(n))


def _ref_window(x, lo, hi):
    return tuple(x.symbol_at(i) for i in range(lo, hi))


def _ref_pi(F, x, K):
    M = np.zeros((K, K), dtype=complex)
    for n, f in F.coeffs.items():
        for c in range(K - n):
            M[c + n, c] = f.values[_ref_itinerary(x, c + f.start + f.window)[c + f.start :]]
    return M


def _ref_Pi(F, x, K):
    M = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    for n, f in F.coeffs.items():
        for i in range(max(-K, -K - n), min(K, K - n) + 1):
            M[i + n + K, i + K] = f.values[_ref_window(x, f.start + i, f.start + i + f.window)]
    return M


def _ref_nest(x, K, w_cap):
    """The nest check read one symbol at a time: every (width, start) pair
    in order, each window rebuilt from ``symbol_at`` or ``rule.symbol``."""
    g = x.graph
    extension = isinstance(x, BiLassoPoint)
    if extension:
        if not x.center and x.left == x.right:
            raise SeparationFailure("periodic")
        size, found = 2 * K + 1, None
        for w in range(1, w_cap + 1):
            for s0 in range(-(K + w), K + 1):
                words = [_ref_window(x, s0 + i, s0 + i + w) for i in range(-K, K + 1)]
                if len(set(words)) == size:
                    found = (w, s0, words)
                    break
            if found:
                break
    else:
        if isinstance(x, LassoPoint) and x.preperiod + x.period <= K - 1:
            raise SeparationFailure("repeats")
        size, found = K, None
        for w in range(1, w_cap + 1):
            sym = _ref_itinerary(x, K - 1 + w)
            words = [sym[i : i + w] for i in range(K)]
            if len(set(words)) == K:
                found = (w, 0, words)
                break
    if found is None:
        raise SeparationFailure("none")
    w, s0, words = found
    exact = True
    for i, target in enumerate(words):
        if extension:
            f = TwoSidedCylinder(g, s0, w, IndicatorTable(g, target))
            M = _ref_Pi(crossed_poly(g, {0: f}), x, K)
        else:
            M = _ref_pi(from_function(CylinderFunction(g, w, IndicatorTable(g, target))), x, K)
        E = np.zeros((size, size))
        E[i, i] = 1.0
        exact = exact and np.array_equal(M, E)
    sample = _one_plus_u(g)
    mat = _ref_Pi(embed_poly(sample), x, K) if extension else _ref_pi(sample, x, K)
    tails = bool(np.all(np.triu(mat, 1) == 0))
    return NestReport("extension" if extension else "base", K, s0, w, exact, tails)


def _outcome(check, x, K, w_cap):
    try:
        return check(x, K, w_cap)
    except (SeparationFailure, GeneratorExhausted) as exc:
        return type(exc)


@given(st.integers(0, 10**9), st.integers(3, 8), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_nest_search_matches_the_symbol_by_symbol_reference(seed, K, w_cap):
    rng = random.Random(seed)
    g = rand_graph(rng, 3, density=0.7)
    y = rand_lasso(rng, g)
    points = [y, lift_point(y), *seam_points(g, cap=3)]
    x = rng.choice(points)
    if isinstance(x, BiLassoPoint):
        x = apply_phi_tilde(x, rng.randint(-4, 4))
    assert _outcome(verify_nest_truncation, x, K, w_cap) == _outcome(_ref_nest, x, K, w_cap)


@pytest.mark.parametrize("check_to", [10, 16, 17, 20, 24, 200])
def test_stream_nest_search_matches_the_reference(full2, check_to):
    x = make_stream(full2, streams.ThueMorse(), check_to=check_to)
    got = _outcome(verify_nest_truncation, x, 16, 64)
    assert got == _outcome(_ref_nest, x, 16, 64)
    if check_to < 24:
        # the search stops at the width whose windows pass the horizon
        with pytest.raises(GeneratorExhausted, match=f"length {max(check_to + 1, 16)} exceeds"):
            verify_nest_truncation(x, 16)


def test_nest_check_reads_a_seam_once_per_picture(full3, monkeypatch):
    x = make_bilasso(full3, (0,), (1,), 0, (0,))
    K = 8
    calls = {"symbol_at": 0, "window": 0}
    for name in calls:
        method = getattr(BiLassoPoint, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(BiLassoPoint, name, counted)
    rep = verify_nest_truncation(x, K)
    assert (rep.start, rep.window) == (-8, 16) and rep.indicators_exact
    # one read for the search, one per indicator picture, two for the sample
    assert calls["symbol_at"] == 0
    assert calls["window"] <= 2 * K + 8


def test_stream_checks_read_a_substitution_in_ranges(gm, monkeypatch):
    calls = []
    symbol = streams.SubstitutionFixedPoint.symbol
    monkeypatch.setattr(
        streams.SubstitutionFixedPoint, "symbol", lambda self, n: calls.append(n) or symbol(self, n)
    )
    x = make_stream(gm, streams.fibonacci_word(), check_to=4096)
    rep = verify_nest_truncation(x, 16)
    assert rep.indicators_exact and rep.tails_invariant
    assert calls == []
