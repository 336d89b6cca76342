"""Orbit representations as (bi-)infinite triangular matrices, their
truncations, and the norm machinery built on them."""

import dataclasses
import functools
import heapq
import math
import random
from collections import Counter
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    ArrayTable,
    CylinderFunction,
    IndicatorTable,
    LassoPoint,
    compose_shift,
    cycle_horizon,
    enumerate_cycles,
    eval_cylinder,
    girth,
    itinerary,
    make_cylinder,
    make_lasso,
    make_stream,
    sup_norm,
    validate_sft,
)
from semicrossed.config import load_config
from semicrossed.envelope import _sample_crossed
from semicrossed.errors import GeneratorExhausted, NotUnitModulus, Overflow, SeparationFailure, WordInadmissible
from semicrossed.extension import (
    BiLassoPoint,
    TwoSidedCylinder,
    apply_phi_tilde,
    bilasso_from_cycle,
    embed_function,
    eval_two_sided,
    lift_point,
    make_bilasso,
    ray_point,
    shift_window,
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
from semicrossed import dynamics, representations, streams

from conftest import rand_cylinder, rand_graph, rand_lasso, rand_poly


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


def _same_but_zero_signs(a: np.ndarray, b: np.ndarray) -> bool:
    """Complex arrays equal in shape, in where their float parts are zero,
    and in the bytes of every nonzero part: only a zero's sign may differ."""
    fa, fb = a.view(float), b.view(float)
    return a.shape == b.shape and np.array_equal(fa == 0, fb == 0) and _same_bytes(fa[fa != 0], fb[fb != 0])


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
    assert _same_bytes(block, _complete_columns(build_Pi_x(E, xt, K), E.support, -K))
    # the last complete column is K - bottom; its lowest entry sits at
    # power max(support) below it
    unpadded = block[: 2 * K + 1 - bottom + max(E.support, default=0)]
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


def test_operator_norm_of_an_empty_block_is_zero():
    """A block with no rows or no columns has norm 0.0, by the exact path
    of weighted permutations (no entry at all)."""
    assert operator_norm(np.zeros((0, 3))) == operator_norm(np.zeros((3, 0))) == 0.0


def test_top_ritz_steps_over_an_exactly_zero_pivot():
    """The path graph's tridiagonal of order 101 (alpha = 0, beta = 1) takes
    the bisection; at its first midpoint, 1.0, the pivots of T - 1 are -1,
    then exactly 0.  Its top eigenpair is known: theta = 2 cos(pi / 102),
    and the unit eigenvector's last entry is sqrt(2 / 102) sin(pi / 102)."""
    theta, y = representations._top_ritz([0.0] * 101, [1.0] * 100)
    assert theta == pytest.approx(2 * math.cos(math.pi / 102), rel=1e-15)
    assert y == pytest.approx(math.sqrt(2 / 102) * math.sin(math.pi / 102), rel=1e-9)


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


@given(st.integers(0, 10**9), st.sampled_from([12, 40, BAND_CROSSOVER + 3, BAND_CROSSOVER + 40]))
@settings(max_examples=20, deadline=None)
def test_point_stack_gives_each_point_its_own_norm_bit_for_bit(seed, K):
    """One ``_point_stack`` over several points, as each level of the norm
    estimates reads its samples, gives every point the bits of its own
    ``norm_pi_x``/``norm_Pi_x``, in both flavours and on both sides of
    ``BAND_CROSSOVER`` (K - degree, or 2 (K // 2) + 1 - spread, columns)."""
    rng = random.Random(seed)
    full2 = validate_sft(2, [[1, 1], [1, 1]])
    g = rng.choice([full2, rand_graph(rng, 3)])
    F = rand_poly(rng, g, max_degree=3, max_window=2)
    xs = [rand_lasso(rng, g) for _ in range(rng.randint(2, 4))]
    if g is full2:
        xs.insert(rng.randint(0, len(xs)), make_stream(g, streams.ThueMorse(), check_to=2 * K))
    got = representations._point_stack(F, xs, 0, K - 1).sigma_max().tolist()
    assert got == [norm_pi_x(F, x, K) for x in xs]
    E = multiply(embed_poly(F), crossed_u_power(g, -rng.randint(0, 3)))
    xts = [lift_point(rand_lasso(rng, g)) for _ in range(2)] + list(seam_points(g, cap=2))
    got = representations._point_stack(E, xts, -(K // 2), K // 2).sigma_max().tolist()
    assert got == [norm_Pi_x(E, xt, K // 2) for xt in xts]


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


class _LoopedStack(representations._BandStack):
    """``_BandStack`` with the per-band loops it had before its one-multiply
    kernel, and ``np.linalg.norm`` for the row norms: the reference that
    the kernel must match bit for bit."""

    def matvec(self, V, out=None):
        W = np.zeros((self.count, self.rows), dtype=complex)
        for b, n in enumerate(self.offsets):
            W[:, n : n + self.cols] += self.bands[b] * V
        return W

    def rmatvec(self, W, out=None):
        V = np.zeros((self.count, self.cols), dtype=complex)
        for b, n in enumerate(self.offsets):
            V += np.conj(self.bands[b]) * W[:, n : n + self.cols]
        return V

    def scores(self, iters=8, V0=None):
        if V0 is None:
            V = np.ones((self.count, self.cols), dtype=complex)
        else:
            V = V0.astype(complex, copy=True)
        for _ in range(iters):
            scale = np.linalg.norm(V, axis=1, keepdims=True)
            scale[scale == 0.0] = 1.0
            V /= scale
            V = self.rmatvec(self.matvec(V))
        scale = np.linalg.norm(V, axis=1, keepdims=True)
        scale[scale == 0.0] = 1.0
        V /= scale
        return np.linalg.norm(self.matvec(V), axis=1), V


def _signed_complex(rng, shape, zeros: float) -> np.ndarray:
    """Complex entries over many magnitudes, a share ``zeros`` of each part
    an exact zero of either sign."""
    parts = rng.standard_normal((2, *shape)) * 10.0 ** rng.integers(-6, 7, (2, *shape))
    parts[rng.random(parts.shape) < zeros] = 0.0
    parts *= np.where(rng.random(parts.shape) < 0.5, -1.0, 1.0)
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = parts
    return z


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(), (0,), (2,), (0, 1), (0, 3), (1, 3), (0, 1, 2, 3), (0, 2, 5), (1, 5, 100), (0, 64)]),
    st.sampled_from([1, 2, 13]),
    st.sampled_from([1, 2, 9, BAND_CROSSOVER, BAND_CROSSOVER + 7]),
    st.sampled_from(["random", "zeros", "all zero"]),
    st.sampled_from([0, 1, 8]),
)
@example(0, (0, 3), 13, BAND_CROSSOVER, "zeros", 8)
@example(1, (1, 3), 1, 1, "all zero", 8)
# one 1x1 block: numpy would sum its four complex slabs pairwise
@example(7, (0, 1, 2, 3), 1, 1, "random", 0)
# one band of one 1x1 block: a product whose fused and unfused roundings differ
@example(5485, (0,), 1, 1, "random", 0)
# a sparse support over a wide spread
@example(3, (1, 5, 100), 2, 9, "random", 8)
@settings(max_examples=80, deadline=None)
def test_band_kernel_matches_the_band_loop_bit_for_bit(seed, offsets, count, cols, fill, iters):
    """A multiply per band and one sum over the slabs give the per-band loop's
    ``matvec``, ``rmatvec``, ``scores`` and Lanczos value to the last bit:
    the same products, summed in band order, with exact zeros added.
    Supports with gaps, sparse ones over wide spreads, one candidate or
    many, one column or Lanczos-wide, and bands with many or only zero
    entries.  The sum buffer has one slab per band, however far apart the
    powers are."""
    rng = np.random.default_rng(seed)
    shape = (len(offsets), count, cols)
    bands = _signed_complex(rng, shape, {"random": 0.0, "zeros": 0.3, "all zero": 1.0}[fill])
    fast, slow = representations._BandStack(offsets, bands), _LoopedStack(offsets, bands)
    V = _signed_complex(rng, (count, cols), 0.2)
    W = _signed_complex(rng, (count, fast.rows), 0.2)
    assert _same_bytes(fast.matvec(V), slow.matvec(V))
    assert len(fast._kernel[0]) == len(offsets)  # matvec's sum buffer: one slab per band
    assert _same_bytes(fast.rmatvec(W), slow.rmatvec(W))
    for V0 in (None, V):
        (sigma, got), (want_sigma, want) = fast.scores(iters, V0), slow.scores(iters, V0)
        # scaling by 1/scale, not by complex division, may flip a zero's sign
        # in the vectors, never a score (test_scores_scale_as_the_division_kernel)
        assert _same_bytes(sigma, want_sigma) and _same_but_zero_signs(got, want)
    if count == 1 and cols >= BAND_CROSSOVER:
        assert representations._lanczos_top(fast) == representations._lanczos_top(slow)


class _DividingStack(representations._BandStack):
    """``_BandStack`` whose ``scores`` scales the vectors by numpy's complex
    division, as it did before multiplying their float parts by 1/scale."""

    def scores(self, iters=8, V0=None):
        V = np.ones((self.count, self.cols), dtype=complex) if V0 is None else V0.astype(complex, order="C")
        W = np.empty((self.count, self.rows), dtype=complex)
        for i in range(iters + 1):
            scale = np.sqrt(np.add.reduce((V.conj() * V).real, axis=1, keepdims=True))
            scale[scale == 0.0] = 1.0
            V /= scale
            if i < iters:
                self.rmatvec(self.matvec(V, out=W), out=V)
        self.matvec(V, out=W)
        return np.sqrt(np.add.reduce((W.conj() * W).real, axis=1)), V


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(0,), (0, 1), (1, 3), (0, 2, 5)]),
    st.sampled_from([1, 3, 24]),
    st.sampled_from([1, 2, 17, 128]),
    st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    st.sampled_from([0, 1, 8]),
)
@settings(max_examples=80, deadline=None)
def test_scores_scale_as_the_division_kernel(seed, offsets, count, cols, zeros, iters):
    """Stacks and start vectors holding +0 and -0 parts, some rows all zero:
    the multiply by 1/scale gives the division kernel's scores bit for bit,
    and vectors that differ from its vectors at most in a zero's sign."""
    rng = np.random.default_rng(seed)
    bands = _signed_complex(rng, (len(offsets), count, cols), zeros)
    V0 = _signed_complex(rng, (count, cols), zeros)
    V0[rng.random(count) < 0.3] = 0.0
    fast, slow = representations._BandStack(offsets, bands), _DividingStack(offsets, bands)
    for start in (None, V0, -V0):
        (sigma, V), (want_sigma, want_V) = fast.scores(iters, start), slow.scores(iters, start)
        assert _same_bytes(sigma, want_sigma)
        assert _same_but_zero_signs(V, want_V)


def test_scaling_by_the_inverse_flips_only_a_zero_sign():
    """-0 + 1j: division computes the real part as (-0 + 1 * 0) / 1 = +0,
    the multiply as -0 * 1 = -0.  The score does not see it."""
    bands = np.ones((1, 1, 1), dtype=complex)
    V0 = np.array([[complex(-0.0, 1.0)]])
    (sigma, V), (want_sigma, want_V) = (
        stack.scores(0, V0) for stack in (representations._BandStack((0,), bands), _DividingStack((0,), bands))
    )
    assert _same_bytes(sigma, want_sigma) and sigma[0] == 1.0
    assert V == want_V and math.copysign(1.0, V[0, 0].real) == -1.0 and math.copysign(1.0, want_V[0, 0].real) == 1.0


@pytest.mark.parametrize("reader", [norm_Pi_x, restricted_Pi_block])
def test_two_sided_readers_reject_negative_truncation(gm, reader):
    xt = lift_point(make_lasso(gm, (), (0,)))
    for F in (embed_poly(semicrossed_poly(gm, {})), embed_poly(u_power(gm, 1))):
        with pytest.raises(ValueError, match="truncation size must be >= 0"):
            reader(F, xt, -1)


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


def _lambda_picture(F, word, lam):
    """The periodic-orbit picture at lam, entry by entry from the
    coefficients evaluated along the orbit: the power n puts lam**n times
    f_n at the point reading the cycle from position i into entry
    ((i + n) % p, i)."""
    p = len(word)
    M = [[0j] * p for _ in range(p)]
    for i in range(p):
        turned = word[i:] + word[:i]
        if isinstance(F, CrossedPoly):
            x, evaluate = bilasso_from_cycle(F.graph, turned), eval_two_sided
        else:
            x, evaluate = make_lasso(F.graph, (), turned), eval_cylinder
        for n, f in sorted(F.coeffs.items()):
            M[(i + n) % p][i] += lam**n * evaluate(f, x)
    return np.array(M)


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=40, deadline=None)
def test_the_z_gauge_pictures_the_lambda_picture(seed, two_sided):
    """At lam = exp(i phi / p) the picture ``_pictures_at`` builds from
    ``_period_coefficients`` at phi has the singular values of the picture
    evaluated along the orbit (to 1e-12 of the largest), and
    ``build_Pi_y_lambda`` is that picture entry for entry: random graphs of
    at most 4 symbols, both flavours, supports with negative powers and
    powers at or past the period, windows at several starts."""
    rng = random.Random(seed)
    g = rand_graph(rng, 4)
    support = rng.sample(range(-3 if two_sided else 0, 7), rng.randint(1, 4))
    coeffs = {n: rand_cylinder(rng, g, rng.randint(1, 2)) for n in support}
    if two_sided:
        F = crossed_poly(g, {n: shift_window(embed_function(f), rng.randint(-2, 2)) for n, f in coeffs.items()})
    else:
        F = semicrossed_poly(g, {n: compose_shift(f, rng.randint(0, 2)) for n, f in coeffs.items()})
    for c in enumerate_cycles(g, 4):
        p = len(c.word)
        B, ws = representations._period_coefficients(F, [c.word], sorted(F.coeffs))
        for phi in (0.0, np.pi, rng.uniform(0.0, 2.0 * np.pi)):
            lam = complex(np.exp(1j * phi / p))
            want = _lambda_picture(F, c.word, lam)
            sv = np.linalg.svd(want, compute_uv=False)
            got = np.linalg.svd(representations._pictures_at(B, ws, np.array([[phi]]))[0, 0], compute_uv=False)
            assert np.abs(got - sv).max() <= 1e-12 * sv[0]
            assert np.abs(build_Pi_y_lambda(F, c.word, lam) - want).max() <= 1e-15 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("name", ["golden-mean", "full-2", "mixing-3"])
def test_phases_from_exact_angles_keep_c_plus_a_shift_power_at_its_norm(name):
    """|c + z**w| <= c + 1 on the circle, reached at z = 1.  Each phase
    exp(i w phi) is taken at its own angle, so every cycle value of
    c + U^n stays within 4 eps of c + 1, where powers of a rounded lam would
    read up to 3e-15 above it by n = 40."""
    g = next(iter(load_config(str(next(p for p in _CONFIGS if p.stem == name))).elements.values())).graph
    eps = np.finfo(float).eps
    for n in range(1, 41):
        for c in (0.5, 1.0, 3.0):
            assert constant_B(u_power(g, 0, scale=c) + u_power(g, n), 4).value <= (c + 1) * (1 + 4 * eps)


def test_a_negative_refine_steps_is_refused(full2):
    """A negative step count would run no Newton step yet still score the
    five starts; every public cycle entry refuses it, as
    ``TruncationPolicy`` does."""
    F = rand_poly(random.Random(71), full2)
    for call in (
        lambda: sup_lambda_norms(F, [(0,)], refine_steps=-1),
        lambda: sup_lambda_norm(F, (0,), refine_steps=-1),
        lambda: constant_B(F, 2, refine_steps=-1),
        lambda: verify_norm_lemmas(F, refine_steps=-1),
    ):
        with pytest.raises(ValueError, match="refine_steps"):
            call()


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


def _golden_sup_lambda_norm(F, word, grid, refine_steps):
    """A golden-section search of one cycle on its own, one angle and one
    SVD at a time, around the same grid: the accuracy oracle that the
    Newton refinement must reach."""
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


def _cycle_draw(seed, two_sided, constant):
    rng = random.Random(seed)
    g = rand_graph(rng, 3)
    F = _constant_poly(rng, g) if constant else rand_poly(rng, g)
    if two_sided:
        F = embed_poly(F)
    pool = [c.word for c in enumerate_cycles(g, 4)]
    return F, [rng.choice(pool) for _ in range(rng.randint(1, 8))]


@given(
    st.integers(0, 10**9),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1, 2, 5, 128]),
    st.sampled_from([0, 1, 60]),
)
@settings(max_examples=40, deadline=None)
def test_lockstep_search_equals_lone_searches_exactly(seed, two_sided, constant, grid, refine_steps):
    F, words = _cycle_draw(seed, two_sided, constant)
    got = sup_lambda_norms(F, words, grid=grid, refine_steps=refine_steps)
    assert got == tuple(sup_lambda_norm(F, w, grid, refine_steps) for w in words)


@given(st.integers(0, 10**9), st.booleans(), st.booleans(), st.sampled_from([5, 128]))
@settings(max_examples=40, deadline=None)
def test_newton_refinement_reaches_the_golden_section(seed, two_sided, constant, grid):
    F, words = _cycle_draw(seed, two_sided, constant)
    for got, w in zip(sup_lambda_norms(F, words, grid=grid, refine_steps=60), words):
        assert got.value >= _golden_sup_lambda_norm(F, w, grid, 60).value * (1 - 1e-12)


@pytest.mark.parametrize("seed, constant", [(110, True), (349, False), (874, True), (3858, True)])
def test_newton_starts_reach_across_an_eigenvalue_crossing(seed, constant):
    """On these coarse-grid draws the top eigenvalue has a crossing inside
    the bracket of the best grid point, and the higher peak lies across it;
    a Newton iteration from the grid point alone stops on the lower one."""
    F, words = _cycle_draw(seed, False, constant)
    for got, w in zip(sup_lambda_norms(F, words, grid=5, refine_steps=60), words):
        assert got.value >= _golden_sup_lambda_norm(F, w, 5, 60).value * (1 - 1e-12)


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
    """1 + U has constant coefficients, so all cycles of one period have
    one picture: the 32 cycles of full-3 up to period 4 take 4 circle
    searches, one picture each."""
    pictures = []
    search_circle = representations._search_circle

    def counted(A, *args):
        pictures.append(len(A))
        return search_circle(A, *args)

    monkeypatch.setattr(representations, "_search_circle", counted)
    F = _one_plus_u(full3)
    res = constant_B(F, max_period=4, refine_steps=0)
    assert res.cycles == 32
    assert pictures == [1, 1, 1, 1]


def _svd_sigma_max_at(B, ws, phi):
    """The grid's values as a reference: a batched SVD of the picture at
    every angle phi of z = lam**p."""
    phase = np.exp(1j * phi[..., None] * ws)
    M = np.zeros((len(B), phi.shape[1]) + B.shape[2:], dtype=complex)
    for k in range(len(ws)):
        M += phase[..., k, None, None] * B[:, None, k]
    return np.linalg.svd(M, compute_uv=False)[..., 0]


def _eigh_slopes(B, ws, phi):
    """``_top_eigen_slopes`` as a reference: a batched ``eigh`` of every
    MᴴM, the eigenvalues within 8 eps of a repeated top left out of the
    mixing sum."""
    n = ws[:, None, None]
    terms = np.exp(1j * phi[:, None, None, None] * n) * B
    M, M1, M2 = terms.sum(1), (1j * n * terms).sum(1), (-n * n * terms).sum(1)
    w, V = np.linalg.eigh(M.conj().swapaxes(1, 2) @ M)
    MV, M1V = M @ V, M1 @ V
    Mv, M1v, M2v = MV[:, :, -1], M1V[:, :, -1], (M2 @ V[:, :, -1:])[:, :, 0]
    g = (M1V.conj() * Mv[:, :, None] + MV.conj() * M1v[:, :, None]).sum(1)
    gap = w[:, -1:] - w[:, :-1]
    apart = gap > 8 * np.finfo(float).eps * w[:, -1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        mixing = np.where(apart, np.abs(g[:, :-1]) ** 2 / gap, 0.0).sum(1)
    d2 = 2.0 * ((M2v.conj() * Mv).sum(1).real + (np.abs(M1v) ** 2).sum(1) + mixing)
    scale = np.sqrt(w[:, -1].clip(0.0) * (np.abs(M1) ** 2).sum((1, 2)))
    return w[:, -1], g[:, -1].real, d2, scale


def _svd_sup_lambda_norm(F, word, grid, refine_steps):
    """The search of one cycle on its own, monomials included, on the
    circle in z = lam**p: SVD grid and scoring, ``eigh`` Newton slopes, the
    same starts, brackets and stopping rules, and lam = exp(i phi / p).
    The reference for the lockstep search and for the monomials'
    shortcut."""
    powers = sorted(F.coeffs)
    B, ws = representations._period_coefficients(F, [word], powers)
    phis = 2.0 * np.pi * np.arange(grid) / grid
    row = _svd_sigma_max_at(B, ws, phis[None, :])[0]
    k = int(np.argmax(row))
    best, best_phi = float(row[k]), float(phis[k])
    if refine_steps > 0 and grid >= 2:
        h = np.repeat(2.0 * np.pi / grid, 5)
        phi = best_phi + h * np.array([0.0, -1 / 3, 1 / 3, -2 / 3, 2 / 3])
        lo, hi, width = best_phi - h, best_phi + h, 2.0 * h * representations._INVPHI**refine_steps
        B = np.repeat(B, 5, axis=0)
        active = np.ones(5, dtype=bool)
        eps = np.finfo(float).eps
        for _ in range(refine_steps):
            if not active.any():
                break
            j = np.flatnonzero(active)
            top, d1, d2, scale = _eigh_slopes(B[j], ws, phi[j])
            lo[j] = np.where(d1 > 0, phi[j], lo[j])
            hi[j] = np.where(d1 < 0, phi[j], hi[j])
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = phi[j] - d1 / d2
                gain = np.where(d2 < 0, 0.5 * d1 * d1 / -d2, np.inf)
            stop = (gain <= 4 * eps * top) | (np.abs(d1) <= 8 * eps * scale) | (hi[j] - lo[j] < width[j])
            inside = (d2 < 0) & (lo[j] < newton) & (newton < hi[j])
            phi[j] = np.where(stop, phi[j], np.where(inside, newton, 0.5 * (lo[j] + hi[j])))
            active[j] = ~stop
        for t, v in zip(phi.tolist(), _svd_sigma_max_at(B, ws, phi[:, None])[:, 0].tolist()):
            if v > best:
                best, best_phi = v, t
    return LambdaNorm(best, complex(np.exp(1j * best_phi / len(word))), word, grid)


# supports whose pictures are weighted permutations at some periods only
# ({0, 2} at p = 1, 2; {1, 4} at p = 1, 3; {-2, 0} at p = 1, 2), at every
# period (monomials, none) or at period 1 only
_SUPPORTS = [(), (0,), (1,), (3,), (-1,), (0, 2), (1, 4), (-2, 0), (0, 1), (0, 1, 2), (-1, 0, 2)]


def _support_draw(seed, support, zeros):
    """A polynomial with the given powers, both flavours (negative powers
    force the two-sided one), random values of which a share ``zeros`` is
    exactly 0, and every cycle up to period 4 of a random graph."""
    rng = random.Random(seed)
    g = rand_graph(rng, 3)
    coeffs = {}
    for n in support:
        f = rand_cylinder(rng, g, rng.randint(1, 2))
        table = {u: (0.0 if rng.random() < zeros else v) for u, v in f.values.items()}
        coeffs[n] = make_cylinder(g, f.window, table)
    F = semicrossed_poly(g, {n: f for n, f in coeffs.items() if n >= 0})
    if min(support, default=0) < 0 or rng.random() < 0.5:
        F = crossed_poly(g, {n: embed_function(f) for n, f in coeffs.items()})
    return F, [c.word for c in enumerate_cycles(g, 4)]


@given(
    st.integers(0, 10**9),
    st.sampled_from(_SUPPORTS),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.sampled_from([1, 2, 5, 128]),
    st.sampled_from([0, 60]),
)
@example(5, (0, 2), 0.3, 128, 60)
@example(6, (-2, 0), 0.0, 5, 60)
@example(114323541, (0, 2), 0.0, 2, 60)  # period-2 pictures with a repeated top eigenvalue
@settings(max_examples=60, deadline=None)
def test_monomials_are_exact_and_other_pictures_keep_the_svd_search(seed, support, zeros, grid, refine_steps):
    """A monomial's value is its largest entry modulus, exactly, at lam = 1,
    and within 1e-12 relative of the SVD/``eigh`` search; every other
    picture, weighted permutations included, keeps that search bit for
    bit."""
    F, words = _support_draw(seed, support, zeros)
    powers = sorted(F.coeffs)
    for got, w in zip(sup_lambda_norms(F, words, grid, refine_steps), words):
        want = _svd_sup_lambda_norm(F, w, grid, refine_steps)
        if len(powers) > 1:
            assert got == want
        else:
            B, _ = representations._period_coefficients(F, [w], powers)
            assert got == LambdaNorm(float(np.abs(B).max(initial=0.0)), 1 + 0j, w, grid)
            assert got.value == pytest.approx(want.value, rel=1e-12, abs=0.0)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.sampled_from([s for s in _SUPPORTS if len(s) > 1]),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.one_of(st.sampled_from([1, 8, 16, 17, 128]), st.integers(1, 128)),
    st.booleans(),
)
@example(0, 1, (0, 1), 0.0, 17, False)
@example(1, 4, (0, 1, 2), 0.3, 128, True)
@settings(max_examples=200, deadline=None)
def test_pruned_grid_keeps_the_full_grid_bit_for_bit(seed, p, support, zeros, grid, flat):
    """The Lipschitz-pruned grid of ``_search_circle`` finds the best value
    and the first best angle of the full grid by one batched SVD, bit for
    bit: stacks of three period-p pictures, a share ``zeros`` of their
    entries 0, and flat pictures (only the lowest power's coefficient
    left, so sigma_max is constant on the circle)."""
    rng = np.random.default_rng(seed)
    i = np.arange(p)
    ws = np.array(sorted({(j + n) // p for n in support for j in range(p)}))
    B = np.zeros((3, len(ws), p, p), dtype=complex)
    for t, n in enumerate(support):
        values = rng.normal(size=(3, p)) + 1j * rng.normal(size=(3, p))
        if flat and t > 0:
            values[:] = 0
        B[:, np.searchsorted(ws, (i + n) // p), (i + n) % p, i] = np.where(rng.random((3, p)) < zeros, 0.0, values)
    phis = 2.0 * np.pi * np.arange(grid) / grid
    full = _svd_sigma_max_at(B, ws, phis[None, :])
    k = full.argmax(axis=1)
    best, angles = representations._search_circle(B, ws, grid, 0, representations._coarse(B, ws, grid))
    assert best.tolist() == full[np.arange(3), k].tolist()
    assert angles.tolist() == phis[k].tolist()


def _bound_stack(seed, source, two_sided, grid):
    """A stack of one period's ``_period_coefficients`` (B, ws): the cycles
    of a ``rand_poly`` draw on a shipped or random graph, in either
    flavour; a raw stack of that layout (weighted permutations) whose ws
    span 0-4; or ``peaked``, the fixed-point picture 1 + c z^m (m = 1-4,
    |c| = 1), whose sigma² = 2 + 2 cos(m phi + arg c) bends by exactly
    m² sup sigma² / 2 at its peak, put midway between two coarse angles,
    midway between two grid angles, or anywhere."""
    rng = random.Random(seed)
    C, h = representations._COARSE, 2.0 * np.pi / grid
    if source == "peaked":
        m = rng.randint(1, 4)
        at = rng.choice([C / 2 + C * rng.randrange(-(-grid // C)), rng.randrange(grid) + 0.5, grid * rng.random()])
        return np.array([[[[1.0]], [[np.exp(-1j * m * h * at)]]]]), np.array([0, m])
    if source == "raw":
        p, span = rng.randint(1, 3), rng.randint(0, 4)
        powers = {0, p * span} | set(rng.sample(range(p * span + 1), rng.randint(0, p * span + 1)))
        i = np.arange(p)
        ws = np.array(sorted({(j + n) // p for n in powers for j in i}))
        B = np.zeros((rng.randint(1, 4), len(ws), p, p), dtype=complex)
        for n in powers:
            values = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) * (rng.random() > 0.2) for _ in i] for _ in B]
            B[:, np.searchsorted(ws, (i + n) // p), (i + n) % p, i] = values
        return B, ws
    g = rand_graph(rng, 4) if source == "random" else rng.choice(_shipped_graphs())
    F = embed_poly(rand_poly(rng, g)) if two_sided else rand_poly(rng, g)
    cycles = [c.word for c in enumerate_cycles(g, cycle_horizon(g, 4))]
    p = len(rng.choice(cycles))
    return representations._period_coefficients(F, [w for w in cycles if len(w) == p], sorted(F.coeffs))


@given(
    st.integers(0, 10**9),
    st.sampled_from(["shipped", "random", "raw", "peaked"]),
    st.booleans(),
    st.sampled_from([5, 8, 16, 17, 128]),
)
# a bend of m sup sigma² / 2 in place of m² sup sigma² / 2 fails here (m = 4)
@example(0, "peaked", False, 128)
# and so do half that bend and the chord's two ends swapped
@example(14, "peaked", False, 16)
@settings(max_examples=200, deadline=None)
def test_the_circle_bounds_hold_on_a_finer_circle(seed, source, two_sided, grid):
    """The bounds that ``_search_circle`` prunes with, checked at 16 angles
    per grid step, with no search run: sigma at every angle is at most its
    arc's ``_arc_bound`` from the coarse values on either side (U the
    coarse ``_sup_bound``), and the finer maximum is at most the
    ``_sup_bound`` from the coarse values (every angle within 4h of one)
    and from the grid values (h/2), each plus the rounding margin."""
    B, ws = _bound_stack(seed, source, two_sided, grid)
    C, h, steps = representations._COARSE, 2.0 * np.pi / grid, np.arange(16 * grid) / 16
    sigma = _svd_sigma_max_at(B, ws, h * steps[None, :])
    coarse = representations._coarse(B, ws, grid)
    slope, margin, q = representations._circle_bounds(B, ws, h)
    upper = representations._sup_bound(coarse.max(1), slope, q, h, C / 2)
    c = (steps // C).astype(int)
    left, right = steps - C * c, np.minimum(C * (c + 1), grid) - steps
    arc = representations._arc_bound(
        coarse[:, c], coarse[:, (c + 1) % coarse.shape[1]], left, right, slope[:, None], q, h, upper[:, None]
    )
    assert (sigma <= arc + margin[:, None]).all()
    assert (sigma.max(1) <= upper + margin).all()
    assert (sigma.max(1) <= representations._sup_bound(sigma[:, ::16].max(1), slope, q, h, 0.5) + margin).all()


@pytest.mark.parametrize("at, rival", [(4.0, 1.995), (4.5, 1.99995)])
def test_a_peak_between_samples_keeps_its_picture_in_the_search(at, rival):
    """1 + c z, |c| = 1, peaks at 2 = sup sigma; here at ``at`` grid steps
    (grid 128), midway between two coarse angles (4.0: coarse values
    1.9904) or two grid angles (4.5: grid values 1.99985).  Beside it in
    the stack a flat picture reads ``rival``, just below the peak, so only
    the full half-gap in its coarse bound (4h) or grid bound (h/2) keeps
    the peaked picture in the search: it keeps the full search's value."""
    h = 2.0 * np.pi / 128
    B = np.array([[[[1.0]], [[np.exp(-1j * h * at)]]], [[[rival]], [[0.0]]]])
    ws = np.array([0, 1])
    coarse = representations._coarse(B, ws, 128)
    full, _ = representations._search_circle(B, ws, 128, 60, coarse)
    pruned, _ = representations._search_circle(B, ws, 128, 60, coarse, coarse.max())
    assert full[1] == rival < full[0] == pruned[0]

@pytest.mark.parametrize(
    "path", sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json")), ids=lambda p: p.stem
)
def test_monomial_cycle_values_are_exact_and_search_nothing(path, monkeypatch):
    """|lam**n f| = |f| on the circle, so a monomial's cycle value is the
    largest |f| along its cycles, exactly, at lam = 1, with no picture
    evaluated; an SVD of the weighted permutation reads up to a few ulps
    high (1.0000000000000004 for U on full-3)."""
    searched = []
    for name in ("_sigma_max_at", "_top_eigen_slopes"):
        kernel = getattr(representations, name)
        monkeypatch.setattr(representations, name, lambda *a, kernel=kernel: searched.append(a) or kernel(*a))
    cfg = load_config(str(path))
    p = cfg.policy
    for F in cfg.elements.values():
        if len(F.coeffs) != 1:
            continue
        ((n, f),) = F.coeffs.items()
        cycles = enumerate_cycles(F.graph, max(p.max_period, girth(F.graph)))
        want = max(
            abs(f.values[tuple(c.word[(i + f.start + s) % len(c.word)] for s in range(f.window))])
            for c in cycles
            for i in range(len(c.word))
        )
        for G in (F, embed_poly(F)):
            got = constant_B(G, p.max_period, p.lambda_grid, p.refine_steps)
            assert got.value == want and got.lam == 1
    assert searched == []


def test_inverse_shift_norm_is_exactly_one(full3):
    assert crossed_norm(crossed_u_power(full3, -1)).value == 1.0


@pytest.mark.parametrize(
    "path", sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json")), ids=lambda p: p.stem
)
def test_newton_refinement_takes_few_eigh_rounds(path, monkeypatch):
    """At each shipped policy every element takes at most 4 batched
    ``eigh`` rounds per period, and at most ``refine_steps`` of them."""
    periods = []  # the period of each round
    slopes = representations._top_eigen_slopes

    def counted(A, powers, theta):
        periods.append(A.shape[-1])
        return slopes(A, powers, theta)

    monkeypatch.setattr(representations, "_top_eigen_slopes", counted)
    cfg = load_config(str(path))
    p = cfg.policy
    for steps, cap in ((p.refine_steps, 4), (1, 1)):
        for F in cfg.elements.values():
            periods.clear()
            constant_B(F, p.max_period, p.lambda_grid, steps)
            assert max(Counter(periods).values(), default=0) <= cap


@pytest.mark.parametrize("m", [2, 3])
def test_repeated_top_eigenvalue_takes_few_eigh_rounds(m, monkeypatch):
    """1 + U² on the full shift has circulant pictures whose top eigenvalue
    of MᴴM is repeated at even periods; its Newton search still takes at
    most 4 batched ``eigh`` rounds per period, and finds the norm 2."""
    periods = []
    slopes = representations._top_eigen_slopes

    def counted(A, powers, theta):
        periods.append(A.shape[-1])
        return slopes(A, powers, theta)

    monkeypatch.setattr(representations, "_top_eigen_slopes", counted)
    g = validate_sft(m, [[1] * m] * m)
    assert constant_B(u_power(g, 0) + u_power(g, 2), 4).value == 2.0
    assert set(periods) == {1, 2, 3, 4}
    assert max(Counter(periods).values()) <= 4


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


@functools.lru_cache(maxsize=None)
def _shipped_graphs() -> tuple:
    configs = sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json"))
    return tuple(dict.fromkeys(next(iter(load_config(str(p)).elements.values())).graph for p in configs))


def _oracle_draw(rng, g, shape, two_sided):
    """A polynomial on g of one shape: random; a monomial f U^n; indicator
    coefficients; random coefficients that vanish on every word through one
    symbol, so F is 0 on the cycles through it; or 1 + eps U, whose periods
    all tie at eps = 1 and whose slope bounds are at or below rounding at
    eps = 2^-52 and 1e-300.
    Two-sided draws move the powers down by 0-2."""
    if shape == "random":
        coeffs = rand_poly(rng, g).coeffs
    elif shape == "monomial":
        coeffs = {rng.randint(0, 3): rand_cylinder(rng, g, rng.randint(1, 2))}
    elif shape == "indicator":
        coeffs = {}
        for n in rng.sample(range(4), rng.randint(1, 3)):
            target = rng.choice(g.admissible_words(rng.randint(1, 2)))
            coeffs[n] = CylinderFunction(g, len(target), IndicatorTable(g, target))
    elif shape == "vanishing":
        s = rng.randrange(g.alphabet_size)
        coeffs = {
            n: make_cylinder(g, f.window, {u: 0.0 if s in u else v for u, v in f.values.items()})
            for n, f in rand_poly(rng, g).coeffs.items()
        }
    else:
        eps = rng.choice([1.0, 2.0**-52, 1e-300])
        coeffs = {0: u_power(g, 0).coeffs[0], 1: u_power(g, 1, scale=eps).coeffs[1]}
    if not two_sided:
        return semicrossed_poly(g, coeffs)
    shift = rng.randint(0, 2)
    return crossed_poly(g, {n - shift: embed_function(f) for n, f in coeffs.items()})


@given(
    st.integers(0, 10**9),
    st.one_of(st.none(), st.integers(0, 10)),
    st.sampled_from(["random", "monomial", "indicator", "vanishing", "one_plus_u"]),
    st.booleans(),
    st.integers(1, 4),
    st.sampled_from([1, 2, 5, 8, 9, 128]),
    st.sampled_from([0, 1, 60]),
)
# a coarse bound of h L in place of 4h L drops the winner here
@example(5, 4, "random", True, 4, 8, 60)
# and a bound without the rounding margin drops the first of tied cycles here
@example(0, 4, "one_plus_u", False, 4, 128, 60)
@settings(max_examples=150, deadline=None)
def test_constant_B_is_the_best_cycle_search_bit_for_bit(seed, shipped, shape, two_sided, P, grid, refine_steps):
    """``constant_B`` skips the pictures its bounds rule out, and still
    returns what the best of every cycle's full search does, the first
    maximum winning, on shipped and random graphs of both flavours."""
    rng = random.Random(seed)
    g = rand_graph(rng, 4) if shipped is None else _shipped_graphs()[shipped % len(_shipped_graphs())]
    F = _oracle_draw(rng, g, shape, two_sided)
    horizon = cycle_horizon(g, P)
    cycles = enumerate_cycles(g, horizon)
    want = max(sup_lambda_norms(F, cycles, grid, refine_steps), key=lambda ln: ln.value)
    got = constant_B(F, P, grid, refine_steps)
    assert got.value.hex() == want.value.hex()
    assert (got.lam.real.hex(), got.lam.imag.hex()) == (want.lam.real.hex(), want.lam.imag.hex())
    assert (got.cycle, got.periods, got.cycles) == (want.cycle, horizon, len(cycles))


@given(
    st.integers(0, 10**9),
    st.integers(0, 10),
    st.sampled_from(["random", "monomial", "one_plus_u"]),
    st.booleans(),
    st.integers(1, 4),
    st.sampled_from([1, 8, 128]),
    st.sampled_from([0, 60]),
)
@settings(max_examples=100, deadline=None)
def test_a_target_ends_the_cycle_search_only_where_it_is_reached(seed, shipped, shape, two_sided, P, grid, refine_steps):
    """Given Σₙ‖fₙ‖∞ as its target, ``constant_B`` returns the search
    without a target bit for bit when that stays below it, and otherwise a
    value that reaches it, the σ_max of its own cycle's picture at its λ,
    after searching no more periods or cycles, on the shipped graphs in
    both flavours."""
    rng = random.Random(seed)
    F = _oracle_draw(rng, _shipped_graphs()[shipped % len(_shipped_graphs())], shape, two_sided)
    upper = l1_norm(F)
    full = constant_B(F, P, grid, refine_steps)
    got = constant_B(F, P, grid, refine_steps, target=upper)
    if full.value < upper:
        assert got.value.hex() == full.value.hex()
        assert (got.lam.real.hex(), got.lam.imag.hex()) == (full.lam.real.hex(), full.lam.imag.hex())
        assert (got.cycle, got.periods, got.cycles) == (full.cycle, full.periods, full.cycles)
    else:
        assert got.value >= upper
        assert got.periods <= full.periods and got.cycles <= full.cycles
        assert got.value == pytest.approx(operator_norm(build_Pi_y_lambda(F, got.cycle, got.lam)), rel=1e-12)


def test_a_reached_target_searches_period_1_only(full3, monkeypatch):
    """On full-3 the fixed points of 1 + U read 2.0 = Σₙ‖fₙ‖∞ on their
    coarse SVDs, and those of U their entry modulus 1.0: with that target
    the search ends at period 1, its 3 cycles, with no circle search, where
    without it every period up to 4 is searched.  Both estimates give their
    cycle search that target, so they search no circle either."""
    searches = []
    search_circle = representations._search_circle
    monkeypatch.setattr(representations, "_search_circle", lambda *a: searches.append(a) or search_circle(*a))
    for F, target in ((_one_plus_u(full3), 2.0), (u_power(full3, 1), 1.0)):
        assert l1_norm(F) == target
        got = constant_B(F, 4, target=target)
        assert (got.value, got.cycle, got.lam, got.periods, got.cycles) == (target, (0,), 1 + 0j, 1, 3)
        assert semicrossed_norm(F).value == crossed_norm(embed_poly(F)).value == target
    assert searches == []
    full = constant_B(_one_plus_u(full3), 4)
    assert (full.value, full.periods, full.cycles) == (2.0, 4, 32)


def test_constant_B_refines_only_pictures_that_can_win(full3, monkeypatch):
    """The 32 cycles of full-3 up to period 4 give ``U^-2 + f0`` (an
    ``envelope`` regularization sample) 32 distinct pictures.
    ``sup_lambda_norms`` refines all of them, as it reports each cycle's
    value; ``constant_B`` refines only those whose bounds can still win.
    Each Newton search's first round holds five starts per picture."""
    G = dict(_sample_crossed(full3))["U^-2 + f0"]
    cycles = enumerate_cycles(full3, 4)
    powers = sorted(G.coeffs)
    assert len({representations._period_coefficients(G, [c.word], powers)[0].tobytes() for c in cycles}) == 32
    rounds = []  # (period, rows) of each eigh round
    slopes = representations._top_eigen_slopes
    monkeypatch.setattr(
        representations, "_top_eigen_slopes", lambda A, *args: rounds.append((A.shape[-1], len(A))) or slopes(A, *args)
    )

    def refined(search) -> int:
        rounds.clear()
        search()
        first = {}
        for period, rows in rounds:
            first.setdefault(period, rows)
        return sum(first.values()) // len(representations._STARTS)

    assert refined(lambda: sup_lambda_norms(G, cycles)) == 32
    assert refined(lambda: constant_B(G, 4)) < 32


def test_bernstein_bounds_search_fewer_pictures_on_full3_mixed(monkeypatch):
    """With Lipschitz bounds alone, ``constant_B`` of full-3's ``mixed`` at
    its config policy took 1,360 picture SVDs (coarse, fine grid and Newton
    scoring) and 103 Newton rows (over all ``eigh`` rounds); Bernstein's
    bounds prune strictly more of both, and the value stays the best cycle
    search's bit for bit (``test_constant_B_is_the_best_cycle_search_bit_for_bit``)."""
    svds, rows = [], []
    sigma, slopes = representations._sigma_max_at, representations._top_eigen_slopes
    monkeypatch.setattr(representations, "_sigma_max_at", lambda M: svds.append(M.shape[:-2]) or sigma(M))
    monkeypatch.setattr(representations, "_top_eigen_slopes", lambda B, *a: rows.append(len(B)) or slopes(B, *a))
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "full-3.json"))
    p = cfg.policy
    constant_B(cfg.elements["mixed"], p.max_period, p.lambda_grid, p.refine_steps)
    assert sum(int(np.prod(s)) for s in svds) < 1360 and sum(rows) < 103


def test_a_period_with_no_live_picture_returns_its_coarse_values(monkeypatch):
    """On golden-mean ``mixed`` at its policy the bounds rule out every
    picture of three of its four periods after their coarse SVDs: those
    searches take no further SVD and return each picture's coarse maximum
    at its first coarse angle of that value."""
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "golden-mean.json"))
    p, F = cfg.policy, cfg.elements["mixed"]
    searches, svds = [], [0]
    search_circle, sigma = representations._search_circle, representations._sigma_max_at

    def spied(B, ws, grid, refine_steps, coarse, floor=None):
        before = svds[0]
        values, angles = search_circle(B, ws, grid, refine_steps, coarse, floor)
        searches.append((coarse, values, angles, svds[0] - before))
        return values, angles

    monkeypatch.setattr(representations, "_search_circle", spied)
    monkeypatch.setattr(representations, "_sigma_max_at", lambda M: svds.__setitem__(0, svds[0] + 1) or sigma(M))
    constant_B(F, p.max_period, p.lambda_grid, p.refine_steps)
    idle = [(coarse, values, angles) for coarse, values, angles, n in searches if n == 0]
    assert len(searches) == 4 and len(idle) == 3
    for coarse, values, angles in idle:
        assert values.tolist() == coarse.max(1).tolist()
        assert angles.tolist() == (2.0 * np.pi * representations._COARSE * coarse.argmax(1) / p.lambda_grid).tolist()


@pytest.mark.parametrize("graph", ["full2", "gm"])
def test_a_span_too_wide_for_bernstein_keeps_the_lipschitz_search(graph, request):
    """1 + iU⁴⁰/2 has period-1 pictures 1 + iz⁴⁰/2 of degree 40, for which
    the coarse angles are too far apart (m 4h >= 2 at grid 128), and whose
    peaks lie off the coarse angles: ``_circle_bounds`` gives no q, only
    Lipschitz bounds prune, and ``constant_B`` without a target is still
    the best cycle search bit for bit."""
    g = request.getfixturevalue(graph)
    F = u_power(g, 0) + u_power(g, 40, scale=0.5j)
    B, ws = representations._period_coefficients(F, [(0,)], sorted(F.coeffs))
    assert representations._circle_bounds(B, ws, 2.0 * np.pi / 128)[2] is None
    cycles = enumerate_cycles(g, cycle_horizon(g, 4))
    want = max(sup_lambda_norms(F, cycles), key=lambda ln: ln.value)
    got = constant_B(F, 4)
    assert (got.value, got.cycle, got.lam) == (want.value, want.cycle, want.lam)


def test_equal_graphs_share_their_cycles_and_samples():
    """Cycle listings and sample points are cached per graph, so equal
    graphs built separately get the same immutable tuples."""
    a, b = (validate_sft(2, [[1, 1], [1, 1]]) for _ in range(2))
    assert a is not b
    assert enumerate_cycles(a, 3) is enumerate_cycles(b, 3)
    assert representations._samples(a, 8) is representations._samples(b, 8)
    cycles, samples = enumerate_cycles(a, 3), representations._samples(a, 8)
    assert type(cycles) is tuple and type(samples) is tuple and samples
    with pytest.raises(TypeError):
        cycles[0] = cycles[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        cycles[0].word = (1,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        samples[0].center = (1,)


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


def test_constant_A_overflow_and_permutation(gm, cyc2):
    F = rand_poly(random.Random(47), gm)
    with pytest.raises(Overflow):
        constant_A(F, 10, mode="exhaustive", cap=20)
    # on a permutation graph every orbit is periodic: nothing to search
    assert constant_A(u_power(cyc2, 1), 6) is None
    assert constant_A(F, 6) is not None


@pytest.mark.parametrize("mode", ["exhaustive", "beam:4"])
def test_constant_A_of_the_zero_polynomial_scores_no_word(gm, mode):
    """The zero polynomial has no coefficient to read: no word is scored,
    and its block norm is 0.0, in both modes."""
    assert constant_A(semicrossed_poly(gm, {}), 8, mode) == representations.WordSearch(0.0, (), 0)


@pytest.mark.parametrize("mode", ["exhaustive", "beam:4"])
@pytest.mark.parametrize("K", [0, -1])
def test_constant_A_below_level_1_is_refused_as_every_picture_is(gm, K, mode):
    """K < 1 has no picture: ``constant_A`` says so with the message of
    ``_coordinates`` before its search starts, in both modes, where it
    used to fail inside the search."""
    for F in (_one_plus_u(gm), rand_poly(random.Random(47), gm)):
        with pytest.raises(ValueError, match=r"^truncation size must be >= 1$"):
            constant_A(F, K, mode=mode)


def _brute_force_window_norm(F, length):
    """(value, word): the largest σ_max over every admissible word of the
    given length, each block built entry by entry from the coefficient
    tables and scored by a dense SVD, 4,096 blocks at a time; the least
    word among ties."""
    words = F.graph.admissible_words(length)
    cols = length - representations._poly_span(F)[1] + 1
    best = (-1.0, ())
    for i in range(0, len(words), 4096):
        chunk = words[i : i + 4096]
        M = np.zeros((len(chunk), cols + max(F.coeffs), cols), dtype=complex)
        for k, u in enumerate(chunk):
            for n, f in F.coeffs.items():
                for c in range(cols):
                    M[k, c + n, c] = f.values[u[c + f.start : c + f.start + f.window]]
        sigma = np.linalg.svd(M, compute_uv=False)[:, 0]
        j = int(np.argmax(sigma))
        if sigma[j] > best[0]:
            best = (float(sigma[j]), chunk[j])
    return best


def test_exhaustive_search_is_exhaustive_in_bounded_batches(full2, monkeypatch):
    """Past 4,096 words the exhaustive search still scores every word: on
    full-2 at K = 14 (32,768 words) it finds the brute-force maximum, which
    a search scoring only its 64 best-ranked words missed (3.0982105 <
    3.1068368).  Its dense SVDs come in batches of at most ``_SVD_CELLS``
    matrix entries that together cover every word."""
    F = rand_poly(random.Random(514), full2, 3, 2)
    shapes = []
    svd = np.linalg.svd

    def recorded(M, *args, **kwargs):
        shapes.append(np.shape(M))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    got = constant_A(F, 14, mode="exhaustive")
    monkeypatch.undo()
    assert got.scored == 32768
    assert (got.value, got.word) == _brute_force_window_norm(F, 14 + representations._poly_span(F)[1] - 1)
    assert len(shapes) >= 2
    assert all(math.prod(s) <= representations._SVD_CELLS for s in shapes)
    assert sum(s[0] for s in shapes) == 32768


def test_constant_A_grows_with_K(gm):
    F = rand_poly(random.Random(53), gm)
    values = [constant_A(F, K, mode="beam:8").value for K in (2, 4, 8, 16)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def _rescoring_beam(F, seeds, target_len, width):
    """The beam search as it was before it carried its blocks forward: at
    every length it re-reads every candidate's bands over the whole word
    (``_band_stack``) and re-scores them (``_BandStack.scores``), sorting
    all candidates.  The reference that ``constant_A``'s beam mode must
    match word for word."""
    g = F.graph
    words = sorted(set(seeds))
    V = None
    while True:
        stack = representations._band_stack(F, np.array(words, dtype=np.int64))
        sigma, V = stack.scores(iters=8, V0=V)
        order = sorted(range(len(words)), key=lambda j: (-sigma[j], words[j]))[:width]
        words = [words[j] for j in order]
        V = V[order]
        if len(words[0]) == target_len:
            return words
        extended, rows = [], []
        for j, u in enumerate(words):
            for a in g.followers(u[-1]):
                extended.append(u + (a,))
                rows.append(j)
        cols = V.shape[1]
        V_new = np.ones((len(extended), cols + 1), dtype=complex)
        V_new[:, :cols] = V[rows]
        words, V = extended, V_new


def _rescoring_constant_A(F, K, width, seed_word=None):
    """(value, word) of a beam ``constant_A`` through ``_rescoring_beam``,
    its finals re-read and re-scored, with the warm run from ``seed_word``."""
    g = F.graph
    _, reach = representations._poly_span(F)
    length = K + reach - 1
    finals = _rescoring_beam(F, g.admissible_words(min(reach, length)), length, width)
    if seed_word is not None and len(seed_word) < length:
        finals += _rescoring_beam(F, [seed_word], length, width)
    best = (-1.0, ())
    for u in sorted(set(finals)):
        v = representations._band_stack(F, np.array([u], dtype=np.int64)).sigma_max()[0]
        if v > best[0]:
            best = (v, u)
    return best


_CONFIGS = sorted(Path(__file__).resolve().parent.parent.glob("configs/*.json"))
_SEARCHED_GRAPHS = [
    cfg.graph for cfg in map(load_config, _CONFIGS) if not cfg.graph.is_permutation()
]


def _beam_draw(rng, g, shape):
    """A polynomial of one of the shapes the beam must handle alike: random;
    a monomial (one power, so D = 0); an indicator coefficient, whose blocks
    are mostly all zero; or the powers {0, 3}, a support with gaps."""
    if shape == "random":
        return rand_poly(rng, g)
    if shape == "monomial":
        return semicrossed_poly(g, {rng.randint(0, 3): rand_cylinder(rng, g, rng.randint(1, 2))})
    if shape == "indicator":
        target = rng.choice(g.admissible_words(3))
        F = semicrossed_poly(g, {rng.randint(0, 2): CylinderFunction(g, 3, IndicatorTable(g, target))})
        return F + rand_poly(rng, g, max_degree=1, max_window=1) if rng.random() < 0.5 else F
    return semicrossed_poly(g, {0: rand_cylinder(rng, g, 1), 3: rand_cylinder(rng, g, 2)})


@given(
    st.integers(0, 10**9),
    st.sampled_from(_SEARCHED_GRAPHS),
    st.sampled_from(["random", "monomial", "indicator", "gaps"]),
    st.sampled_from([1, 2, 8]),
    st.integers(1, 64),
)
@example(0, _SEARCHED_GRAPHS[0], "monomial", 8, 1)
@example(1, _SEARCHED_GRAPHS[0], "gaps", 2, 1)
@settings(max_examples=60, deadline=None)
def test_beam_search_matches_the_rescoring_beam(seed, g, shape, width, K):
    """Carrying the blocks forward and resuming change the cost of the beam search, not its words: value and
    word equal the rescoring reference's, fresh (K = 1 reads words of
    length reach, with no extension) and given a previous level's search."""
    rng = random.Random(seed)
    F = _beam_draw(rng, g, shape)
    mode = f"beam:{width}"
    got = constant_A(F, K, mode=mode)
    assert (got.value, got.word) == _rescoring_constant_A(F, K, width)
    later = K + rng.randint(0, 16)
    resumed = constant_A(F, later, mode=mode, previous=got)
    assert (resumed.value, resumed.word) == _rescoring_constant_A(F, later, width, got.word)


def _partition_top(sigma, words, width):
    """The beam's selection as it was, without a full sort: those scoring
    above the width-th best score are all kept, and of those tied at it
    only the smallest words that fill the width, then sorted by the key
    (-score, word).  The reference for ``_top``."""
    n = len(words)
    if n > width:
        cut = np.partition(sigma, n - width)[n - width]
        keep = np.flatnonzero(sigma > cut).tolist()
        ties = np.flatnonzero(sigma == cut).tolist()
        keep += heapq.nsmallest(width - len(keep), ties, key=words.__getitem__)
    else:
        keep = range(n)
    return sorted(keep, key=lambda j: (-sigma[j], words[j]))


@given(st.data(), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_top_selects_as_the_partition_did(data, width):
    """``_top``'s one sort keeps the indices, and their order, of the
    partition-and-heap selection, ties at the cut included."""
    words = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=1, max_size=60, unique=True))
    levels = data.draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=4))
    sigma = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=len(words), max_size=len(words))))
    assert representations._top(sigma, words, width) == _partition_top(sigma, words, width)


@given(st.integers(0, 10**9), st.sampled_from(_SEARCHED_GRAPHS))
@settings(max_examples=15, deadline=None)
def test_resumed_norm_estimate_equals_the_fresh_one(seed, g):
    """Each level of ``semicrossed_norm`` resumes the previous level's
    beam.  Dropping the carried state, so that every level starts afresh,
    gives the same value, history and diagnostics (best word included),
    after scoring more words."""
    F = rand_poly(random.Random(seed), g)
    policy = TruncationPolicy(k_max=64)
    original = representations.constant_A

    def estimate(resume: bool):
        scored = []

        def search(*args, previous=None, **kwargs):
            if not resume and previous is not None:
                previous = dataclasses.replace(previous, beam=None)
            got = original(*args, previous=previous, **kwargs)
            scored.append(got.scored)
            return got

        representations.constant_A = search
        try:
            return semicrossed_norm(F, policy), sum(scored)
        finally:
            representations.constant_A = original

    (resumed, fewer), (fresh, more) = estimate(True), estimate(False)
    for name in ("value", "history", "converged", "diagnostics"):
        assert getattr(resumed, name) == getattr(fresh, name)
    if len(resumed.history) > 1:
        assert fewer < more


def test_beam_resumes_only_its_own_search(gm):
    """A previous search of another polynomial, width or mode, or of a
    longer length, gives the result of the same call without the carried
    state: the same value and word, and every word scored afresh."""
    rng = random.Random(59)
    F, G = rand_poly(rng, gm), rand_poly(rng, gm)
    own = constant_A(F, 8, mode="beam:8")
    resumed = constant_A(F, 16, mode="beam:8", previous=own)
    afresh = constant_A(F, 16, mode="beam:8", previous=dataclasses.replace(own, beam=None))
    assert resumed.scored < afresh.scored
    for previous in (
        constant_A(G, 8, mode="beam:8"),
        constant_A(F, 8, mode="beam:2"),
        constant_A(F, 8, mode="exhaustive"),
        constant_A(F, 32, mode="beam:8"),
    ):
        got = constant_A(F, 16, mode="beam:8", previous=previous)
        want = constant_A(F, 16, mode="beam:8", previous=dataclasses.replace(previous, beam=None))
        assert (got.value, got.word, got.scored) == (want.value, want.word, want.scored)
    assert (resumed.value, resumed.word) == _rescoring_constant_A(F, 16, 8, own.word)


def test_beam_reads_bands_once_per_run(full3, monkeypatch):
    """A beam run reads its seed words' bands through ``_read_bands`` once
    and then appends one column per extension, at any K: band work O(K)
    per level.  A resumed main run reads none; its warm run reads once."""
    calls = []
    read = representations._read_bands
    monkeypatch.setattr(
        representations, "_read_bands", lambda *args: calls.append(args[2]) or read(*args)
    )
    F = rand_poly(random.Random(61), full3)
    for K in (1, 8, 64):
        calls.clear()
        constant_A(F, K, mode="beam:8")
        assert len(calls) == 1
    previous = constant_A(F, 8, mode="beam:8")
    calls.clear()
    constant_A(F, 64, mode="beam:8", previous=previous)
    assert len(calls) == 1  # the warm run from the previous best word


def test_resumed_beam_scores_each_length_once(full3, monkeypatch):
    """Given a previous level, ``constant_A`` runs its resumed main run and
    its warm run from the previous best word in lockstep: one ``scores``
    call per length, the first holding the warm seed alone and every later
    one the rows of both runs."""
    F = rand_poly(random.Random(61), full3)
    previous = constant_A(F, 8, mode="beam:8")
    calls = []
    scores = representations._BandStack.scores
    monkeypatch.setattr(
        representations._BandStack, "scores", lambda self, **kw: calls.append((self.cols, self.count)) or scores(self, **kw)
    )
    got = constant_A(F, 64, mode="beam:8", previous=previous)
    assert [cols for cols, _ in calls] == list(range(8, 65))
    assert calls[0][1] == 1 and all(count > 8 for _, count in calls[1:])
    assert got.scored == sum(count for _, count in calls)


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
    assert est.value <= l1_norm(F)
    # the word search is skipped (None) once the cycles close the bracket
    lower = max(v for v in (est.diagnostics["cycle_value"], est.diagnostics["word_value"]) if v is not None)
    assert est.value >= lower - 1e-9


def test_norm_history_is_monotone_and_diagnosed(gm):
    F = rand_poly(random.Random(59), gm)
    est = semicrossed_norm(F, TruncationPolicy(k_start=4, k_max=64))
    assert est.history == tuple(sorted(est.history))
    d = est.diagnostics
    assert set(d) >= {"cycle_value", "word_value", "mode", "samples"}
    assert "K_history" not in d  # the history is kept once, in est.history


ONE_SIDED_DETAIL = {"cycle_value", "cycle", "lambda", "word_value", "best_word", "mode", "samples", "upper"}


@pytest.mark.parametrize("graph", ["gm", "cyc2"])
def test_detail_keys_come_from_the_sources(graph, request):
    """The cycles write cycle_value, cycle and lambda, the word search
    word_value, best_word and mode (None values on a permutation graph,
    which has no words to search, or when the cycles closed the bracket
    first), the points samples, and the loop upper; the two-sided
    estimate has no word search.  Seed 67 closes at the cycles, 68 stays
    open on both graphs."""
    g = request.getfixturevalue(graph)
    policy = TruncationPolicy(k_max=16)
    for seed in (67, 68):
        F = rand_poly(random.Random(seed), g)
        one = semicrossed_norm(F, policy).diagnostics
        two = crossed_norm(embed_poly(F), policy).diagnostics
        assert set(one) == ONE_SIDED_DETAIL
        assert set(two) == ONE_SIDED_DETAIL - {"word_value", "best_word", "mode"}
        assert one["mode"] == policy.mode and one["samples"] == 0 and two["samples"] > 0
        assert one["upper"] == l1_norm(F) and two["upper"] == l1_norm(embed_poly(F))
        closed = one["cycle_value"] >= one["upper"]
        assert closed == (seed == 67)
        assert ((one["word_value"], one["best_word"]) == (None, None)) == (g.is_permutation() or closed)


@pytest.mark.parametrize("path", _CONFIGS, ids=lambda p: p.stem)
def test_a_closed_bracket_ends_the_estimate_at_the_first_level(path, monkeypatch):
    """The cycle value of U, fU and 1 + U reaches Σₙ‖fₙ‖∞ exactly on every
    shipped config, so both estimates stop at their first level, the
    bracket closed, and the word search never runs."""
    calls = []
    search = representations.constant_A
    monkeypatch.setattr(representations, "constant_A", lambda *a, **k: calls.append(a) or search(*a, **k))
    cfg = load_config(str(path))
    for name in ("U", "fU", "onePlusU"):
        F = cfg.elements[name]
        first = max(cfg.policy.k_start, max(F.coeffs) + 1)
        for est in (semicrossed_norm(F, cfg.policy), crossed_norm(embed_poly(F), cfg.policy)):
            assert est.converged and est.history == ((first, est.value),)
            assert est.value == est.diagnostics["upper"] == l1_norm(F)
    assert calls == []


def test_an_open_bracket_runs_as_before():
    """full-2 mixed stays below Σₙ‖fₙ‖∞: every source runs at every level,
    and value and history are those of the loop without the stop."""
    cfg = load_config(str(next(p for p in _CONFIGS if p.stem == "full-2")))
    F = cfg.elements["mixed"]
    one, two = semicrossed_norm(F, cfg.policy), crossed_norm(embed_poly(F), cfg.policy)
    for est in (one, two):
        assert est.value == 2.322223346713811
        assert est.history == ((8, 2.322223346713811), (16, 2.322223346713811)) and est.converged
        assert est.diagnostics["upper"] > est.value
    assert one.diagnostics["word_value"] is not None


def test_a_cycle_value_above_the_upper_bound_is_clamped(gm):
    """The cycle search reads one ulp above Σₙ‖fₙ‖∞ here; no printed lower
    bound may exceed the upper one, so both estimates read the sum."""
    F = rand_poly(random.Random(59), gm)
    upper = l1_norm(F)
    assert upper == 4.192062135176741 and constant_B(F, 4).value == 4.192062135176742
    for est in (semicrossed_norm(F), crossed_norm(embed_poly(F))):
        assert est.value == upper and est.history == ((8, upper),) and est.converged


def _assert_at_least_the_largest_coefficient(G, est):
    """Every printed value is at least maxₙ‖fₙ‖∞, a lower bound for the norm
    in every representation, exactly: ``_estimate`` floors its totals there."""
    largest = max(sup_norm(f) for f in G.coeffs.values())
    assert min(v for _, v in est.history) >= largest


@given(st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_no_estimate_exceeds_the_l1_bound(seed):
    """Value and every level at most ``upper`` = Σₙ‖fₙ‖∞ and at least
    maxₙ‖fₙ‖∞, exactly, in both flavours, on random graphs of at most 4
    symbols.  The two-sided samples can miss a transient symbol that carries
    the largest coefficient; seed 1009877 printed 2.11 for a constant of sup
    2.60 before the totals were floored."""
    rng = random.Random(seed)
    F = rand_poly(rng, rand_graph(rng, 4))
    policy = TruncationPolicy(k_max=16, mode="beam:4")
    for G, norm in ((F, semicrossed_norm), (embed_poly(F), crossed_norm)):
        est = norm(G, policy)
        assert est.diagnostics["upper"] == l1_norm(G)
        assert max(v for _, v in est.history) == est.value <= l1_norm(G)
        _assert_at_least_the_largest_coefficient(G, est)


def test_a_sample_that_misses_the_largest_coefficient_still_prints_it():
    """Seed 1009877 draws the graph 0 -> {0, 1, 2}, 1 -> 2, 2 -> 2 and a
    constant coefficient of sup 2.6001 carried by the transient symbol 1:
    no two-sided sample visits it, and its cycle value is 2.1116, but the
    two-sided estimate prints the coefficient's norm, as the one-sided
    word search finds it."""
    rng = random.Random(1009877)
    F = rand_poly(rng, rand_graph(rng, 4))
    policy = TruncationPolicy(k_max=16, mode="beam:4")
    one, two = semicrossed_norm(F, policy), crossed_norm(embed_poly(F), policy)
    assert two.diagnostics["cycle_value"] < 2.2
    assert two.value == one.value == max(sup_norm(f) for f in F.coeffs.values()) >= 2.6001


def test_a_floor_that_reaches_the_upper_bound_closes_the_bracket():
    """Seed 1009877's F is one constant coefficient, so maxₙ‖fₙ‖∞ is
    Σₙ‖fₙ‖∞: the floor lifts the first level's total to ``upper``, and
    that closes the bracket in both flavours, though no source reached it."""
    rng = random.Random(1009877)
    F = rand_poly(rng, rand_graph(rng, 4))
    policy = TruncationPolicy(k_max=16, mode="beam:4")
    for est in (semicrossed_norm(F, policy), crossed_norm(embed_poly(F), policy)):
        assert est.diagnostics["cycle_value"] < est.diagnostics["upper"]
        assert est.history == ((8, est.diagnostics["upper"]),) and est.converged


def test_a_wider_coarse_step_keeps_every_cycle_value(monkeypatch):
    """Bernstein's bound from the coarse angles divides by sqrt(1 - q t²)
    at t = ``_COARSE`` / 2, so ``_circle_bounds`` keeps q only while q
    (``_COARSE`` / 2)² < 1.  At ``_COARSE`` = 32 on the 128-point grid
    (four coarse angles) the search still gives every ``rand_poly`` draw
    of seeds 0 and 9 on the shipped graphs, in both flavours, the values,
    angles and cycles it gives at 8, bit for bit, and takes no root of a
    negative number; a threshold fixed for 8 pruned live pictures here."""
    polys = [rand_poly(random.Random(s), g, 3, 2) for g in _shipped_graphs() for s in (0, 9)]
    polys += [embed_poly(F) for F in polys]

    def searches():
        cycles = [enumerate_cycles(F.graph, cycle_horizon(F.graph, 4)) for F in polys]
        return [(constant_B(F, 4), sup_lambda_norms(F, c)) for F, c in zip(polys, cycles)]

    want = searches()
    monkeypatch.setattr(representations, "_COARSE", 32)
    with np.errstate(invalid="raise"):
        assert searches() == want


def _falling_source(drop):
    """A hand-made ``_estimate`` source that reads 1.5 at its first level
    and ``drop`` less at every later one."""
    levels = []

    def source(K):
        levels.append(K)
        return 1.5 - drop * (len(levels) > 1), {"levels": len(levels)}

    return source, levels


def test_float_dust_below_the_last_total_is_clamped(gm):
    """A source 1e-12 below its last level (under ``_DECREASE_SLACK``) is
    rounding: the total keeps the last level's value, which then reads as a
    plateau."""
    source, levels = _falling_source(1e-12)
    est = representations._estimate(_one_plus_u(gm), TruncationPolicy(k_start=4, k_max=16), [(source, {})])
    assert est.history == ((4, 1.5), (8, 1.5)) and est.value == 1.5 and est.converged
    assert levels == [4, 8]
    assert est.diagnostics == {"levels": 2, "upper": 2.0}


def test_a_real_decrease_of_the_total_raises(gm):
    """A source that falls by 1 between levels breaks the rule that printed
    totals never shrink: the loop raises rather than print it.  The total
    falls only to maxₙ‖fₙ‖∞ = 1, the floor of every total."""
    source, _ = _falling_source(1.0)
    with pytest.raises(AssertionError, match="certified lower bound decreased from 1.5 to 1.0 at K=8"):
        representations._estimate(_one_plus_u(gm), TruncationPolicy(k_start=4, k_max=16), [(source, {})])


@pytest.mark.parametrize("path", _CONFIGS, ids=lambda p: p.stem)
def test_no_config_estimate_prints_less_than_its_largest_coefficient(path):
    """The lower half of the bracket of ``test_no_estimate_exceeds_the_l1_bound``,
    on every element of every shipped config at its policy, in both flavours."""
    cfg = load_config(str(path))
    for F in cfg.elements.values():
        for G, norm in ((F, semicrossed_norm), (embed_poly(F), crossed_norm)):
            _assert_at_least_the_largest_coefficient(G, norm(G, cfg.policy))


def test_permutation_graphs_search_every_cycle():
    """A 5-cycle plus a fixed point, f = 3 on the cycle and 1 on the fixed
    point: the word search has nothing to search on a permutation, so the
    cycle search must reach period 5 past max_period 4.  Both estimates
    read 1.0, "converged", when it stopped at 4."""
    edges = [[int(b == (a + 1) % 5) for b in range(6)] for a in range(5)] + [[0] * 5 + [1]]
    g = validate_sft(6, edges)
    F = semicrossed_poly(g, {0: make_cylinder(g, 1, {(a,): 3.0 if a < 5 else 1.0 for a in range(6)})})
    assert cycle_horizon(g, 4) == 5 and cycle_horizon(g) == 5
    assert norm_pi_x(F, make_lasso(g, (), (0, 1, 2, 3, 4)), 16) == 3.0
    for est in (semicrossed_norm(F), crossed_norm(embed_poly(F))):
        assert est.value == pytest.approx(3.0, abs=1e-12) and est.converged
        assert est.diagnostics["cycle"] == (0, 1, 2, 3, 4)


def test_no_level_above_k_max(gm):
    """1 + U^8 needs K >= 9 for a complete column; at K_max = 4 both
    estimates used to report the level 9 anyway."""
    F = linear_ops(u_power(gm, 0), u_power(gm, 8), "add")
    policy = TruncationPolicy(k_start=4, k_max=4)
    for estimate, G in ((semicrossed_norm, F), (crossed_norm, embed_poly(F))):
        with pytest.raises(Overflow, match="K_max = 4 is below 9.*spread 8"):
            estimate(G, policy)
    assert semicrossed_norm(F, TruncationPolicy(k_start=4, k_max=9)).history[0][0] == 9


def test_crossed_norm_one_plus_shift(full2):
    est = crossed_norm(embed_poly(_one_plus_u(full2)))
    assert est.converged
    assert est.value == pytest.approx(2.0, abs=1e-6)


def test_norm_policy_cap_without_convergence(gm):
    F = rand_poly(random.Random(61), gm)
    est = semicrossed_norm(F, TruncationPolicy(k_start=8, k_max=8))
    assert not est.converged
    assert len(est.history) == 1


@pytest.mark.parametrize(
    "kw, field",
    [
        (dict(k_max=0), "k_max"),
        (dict(k_start=0), "k_start"),
        (dict(k_start=32, k_max=16), "k_start"),
        (dict(k_max=True), "k_max"),
        (dict(tol=-1.0), "tol"),
        (dict(tol=math.nan), "tol"),
        (dict(refine_steps=-3), "refine_steps"),
        (dict(lambda_grid=0), "lambda_grid"),
        (dict(word_cap=2**20 + 1), "word_cap"),
        (dict(mode="beam:0"), "mode"),
    ],
)
def test_policy_rejects_a_bad_setting_by_field(kw, field):
    """The policy checks itself: at k_max=0 an estimate ran to K = 8, and a
    negative or NaN tolerance ran to K_max without converging."""
    with pytest.raises(ValueError, match=rf"^{field}: "):
        TruncationPolicy(**kw)


def test_policy_replace_is_checked_and_tol_is_a_float():
    with pytest.raises(ValueError, match="^k_max: must be positive"):
        dataclasses.replace(TruncationPolicy(), k_max=0)
    tol = TruncationPolicy(tol=1).tol
    assert tol == 1.0 and isinstance(tol, float)


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


class _PerWindow(Mapping):
    """A table read one window at a time through its ``Mapping.__getitem__``:
    the reference for the bulk reads."""

    def __init__(self, table):
        self.table = table

    def __getitem__(self, u):
        return self.table[u]

    def __len__(self):
        return len(self.table)

    def __iter__(self):
        return iter(self.table)


_SHIPPED_GRAPHS = [cfg.graph for cfg in map(load_config, _CONFIGS)]


@given(
    st.integers(0, 10**9),
    st.sampled_from(_SHIPPED_GRAPHS),
    st.sampled_from(["lasso", "stream", "bilasso"]),
    st.integers(1, 6),
    st.sampled_from(["indicator", "words", "array", "dict"]),
)
@settings(max_examples=120, deadline=None)
def test_bulk_indicator_reads_match_the_per_window_lookups(seed, g, kind, w, table_kind):
    """At random checked points of both flavours, on every shipped graph, a
    table of width 1-6 read in bulk (``_picture``, ``_window_values``) gives
    the per-window lookups' entries bit for bit: an indicator compared with
    its word, whose target is a window of the orbit most of the time, so
    both values occur; a tuple-backed ``WordTable`` and an ``ArrayTable``,
    each taken at counted positions; a plain dict, looked up per window.  A
    window width other than the table's raises KeyError, as a lookup does."""
    rng = random.Random(seed)
    x = rand_lasso(rng, g)
    if kind == "stream":
        try:
            x = make_stream(g, streams.ThueMorse(), check_to=128, offset=rng.randint(0, 40))
        except WordInadmissible:
            pass  # Thue-Morse is no point of g: keep the lasso
    if kind == "bilasso":
        x = apply_phi_tilde(rng.choice([lift_point(x), *seam_points(g, cap=3)]), rng.randint(-4, 4))
    two_sided = isinstance(x, BiLassoPoint)
    K = rng.randint(1, 12)
    read = x.window if two_sided else (lambda a, b: itinerary(x, b)[a:])
    first = rng.randint(-K - 8, K) if two_sided else rng.randint(0, 8)
    orbit = read(first, first + 2 * K + 2 * w + 8)
    if rng.random() < 0.8:
        at = rng.randrange(len(orbit) - w + 1)
        target = orbit[at : at + w]
    else:
        target = rng.choice(g.admissible_words(w))
    table = IndicatorTable(g, target)
    if table_kind != "indicator":  # drawn apart, so the draws above stay the indicator's
        words = rand_cylinder(random.Random(~seed), g, w).values
        table = {"words": words, "array": ArrayTable(g, w, words.array.copy()), "dict": dict(words)}[table_kind]
    if two_sided:
        n, start, lo, hi = rng.randint(-2, 2), rng.randint(-3, 3), -K, K
        F, ref = (crossed_poly(g, {n: TwoSidedCylinder(g, start, w, t)}) for t in (table, _PerWindow(table)))
    else:
        n, start, lo, hi = rng.randint(0, 2), rng.randint(0, 3), 0, K - 1
        F, ref = (semicrossed_poly(g, {n: CylinderFunction(g, w, t, start)}) for t in (table, _PerWindow(table)))
    assert _same_bytes(representations._picture(F, x, lo, hi), representations._picture(ref, x, lo, hi))
    rows, cols = rng.randint(1, 4), rng.randint(1, 2 * K)
    sym = np.array([read(first + r, first + r + cols + w - 1) for r in range(rows)], dtype=np.int64)
    got = representations._window_values(table, sym, w, cols)
    assert _same_bytes(got, representations._window_values(_PerWindow(table), sym, w, cols))
    assert table_kind != "indicator" or set(got.ravel().tolist()) <= {0j, 1 + 0j}
    with pytest.raises(KeyError):
        representations._window_values(table, sym, w - 1, cols)
    if not two_sided:
        with pytest.raises(KeyError):
            representations._picture(semicrossed_poly(g, {0: CylinderFunction(g, w + 1, table)}), x, lo, hi)
    # single lookups keep their errors
    for key in (target[:-1], target + target[-1:], target[:-1] + (g.alphabet_size,)):
        with pytest.raises(KeyError):
            table[key]


def _walk(rng: random.Random, g, length: int) -> tuple:
    """A random admissible word of the given length."""
    word = [rng.randrange(g.alphabet_size)]
    while len(word) < length:
        word.append(rng.choice(g.followers(word[-1])))
    return tuple(word)


@pytest.mark.parametrize("seed", range(3))
def test_wide_table_reads_take_counted_positions(gm, seed):
    """A full window-14 table on golden-mean (987 words) read at a few
    hundred windows by one take at their counted positions (``_rank``):
    every entry is the per-window lookup's, bit for bit, in a bulk read of
    random words and in the certified block at a point, against the
    entry-by-entry picture."""
    rng = random.Random(seed)
    w = 14
    table = rand_cylinder(rng, gm, w).values
    assert len(table) == 987
    rows, cols = 4, 200
    sym = np.array([_walk(rng, gm, cols + w - 1) for _ in range(rows)], dtype=np.int64)
    got = representations._window_values(table, sym, w, cols)
    want = np.array([[table[tuple(sym[r, c : c + w].tolist())] for c in range(cols)] for r in range(rows)])
    assert _same_bytes(got, want)
    F = semicrossed_poly(gm, {0: CylinderFunction(gm, w, table, rng.randint(0, 3)), 1: rand_cylinder(rng, gm, 1)})
    x = make_lasso(gm, _walk(rng, gm, 300), (0,))
    assert _same_bytes(restricted_pi_block(F, x, 256), build_pi_x(F, x, 256)[:, :255])


def _read_per_window(F):
    """F with every coefficient's table read one window at a time
    (``_PerWindow``), so ``_period_coefficients`` reads each through
    ``_window_values``: the reference for the position reads."""
    return type(F)(F.graph, {n: f._like(f.start, f.window, _PerWindow(f.values)) for n, f in F.coeffs.items()})


@given(st.integers(0, 10**9), st.one_of(st.none(), st.integers(0, 10)), st.booleans(), st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_cycle_position_reads_match_the_window_reads_bit_for_bit(seed, shipped, two_sided, P):
    """``_period_coefficients`` reads each ``WordTable`` by one take at its
    cycle windows' cached positions (``_cycle_positions``) and every other
    table through ``_window_values``.  On shipped and random graphs, in
    both flavours, with starts below and above 0, windows 1-3, and full,
    indicator and plain-dict tables mixed, every period's B up to the
    horizon is the one that reading every table through ``_window_values``
    gives, bit for bit, and so are the pictures at a lam."""
    rng = random.Random(seed)
    g = rand_graph(rng, 4) if shipped is None else _shipped_graphs()[shipped % len(_shipped_graphs())]
    coeffs = {}
    for n in rng.sample(range(-2, 4) if two_sided else range(4), rng.randint(1, 4)):
        w = rng.randint(1, 3)
        table = rng.choice(
            [rand_cylinder(rng, g, w).values, dict(rand_cylinder(rng, g, w).values), IndicatorTable(g, _walk(rng, g, w))]
        )
        start = rng.randint(-3, 3) if two_sided else rng.randint(0, 3)
        coeffs[n] = TwoSidedCylinder(g, start, w, table) if two_sided else CylinderFunction(g, w, table, start)
    F = (crossed_poly if two_sided else semicrossed_poly)(g, coeffs)
    ref, powers = _read_per_window(F), sorted(F.coeffs)
    cycles = [c.word for c in enumerate_cycles(g, cycle_horizon(g, P))]
    for p in sorted(set(map(len, cycles))):
        group = [w for w in cycles if len(w) == p]
        (B, ws), (want, want_ws) = (representations._period_coefficients(G, group, powers) for G in (F, ref))
        assert _same_bytes(B, want) and ws.tolist() == want_ws.tolist()
    lam = np.exp(2j * np.pi * rng.random())
    c = rng.choice(cycles)
    assert _same_bytes(build_Pi_y_lambda(F, c, lam), build_Pi_y_lambda(ref, c, lam))


def test_a_target_reached_at_period_1_checks_and_reads_only_its_cycles(full3, monkeypatch):
    """``constant_B(1 + U, 4, target=2.0)`` on full-3 stops at period 1,
    where 1 + z reaches 2 at z = 1: only that period's three cycles are
    checked against the graph and read, none of the 29 longer ones."""
    F = _one_plus_u(full3)
    assert len(enumerate_cycles(full3, 4)) == 32
    checked, read = [], []
    admissible, coefficients = type(full3).word_admissible, representations._period_coefficients
    monkeypatch.setattr(type(full3), "word_admissible", lambda g, w: checked.append(tuple(w)) or admissible(g, w))
    monkeypatch.setattr(
        representations, "_period_coefficients", lambda F, words, powers: read.append(list(words)) or coefficients(F, words, powers)
    )
    got = constant_B(F, 4, target=2.0)
    assert (got.value, got.cycle, got.periods, got.cycles) == (2.0, (0,), 1, 3)
    assert checked == [(0, 0), (1, 1), (2, 2)]
    assert read == [[(0,), (1,), (2,)]]


def test_a_word_table_array_is_its_values_read_only(full3):
    """``WordTable.array`` is ``in_order`` as one complex array, built once
    and shared by every read, which cannot write to it; so are the cached
    cycle positions laid over it."""
    table = rand_cylinder(random.Random(5), full3, 2).values
    a = table.array
    assert a is table.array and a.dtype == complex and a.tolist() == list(table.in_order)
    positions = dynamics._cycle_positions(full3, ((0, 1), (1, 2)), 1, 2)
    assert [[full3.admissible_words(2)[i] for i in row] for row in positions.tolist()] == [[(1, 0), (0, 1)], [(2, 1), (1, 2)]]
    for array in (a, positions):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


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


def test_nest_separation_takes_only_points(full2):
    """A cycle word, or a cycle, is no point whose truncations could be separated."""
    for x in ((0, 1), enumerate_cycles(full2, 2)[0]):
        with pytest.raises(TypeError, match="expected a point"):
            verify_nest_truncation(x, K=8)


# ---------------------------------------------------------------------------
# the nest search against a symbol-by-symbol reference


def _ref_itinerary(x, n):
    if isinstance(x, LassoPoint):
        return tuple(x.symbol_at(k) for k in range(n))
    if n > max(0, x.checked_to - x.offset):
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


def _stream_outcome(check, x, K, w_cap):
    """The nest check's report, SeparationFailure, or the message of the
    GeneratorExhausted, which names the read that passed the horizon."""
    try:
        return check(x, K, w_cap)
    except SeparationFailure:
        return SeparationFailure
    except GeneratorExhausted as exc:
        return str(exc)


@given(st.booleans(), st.integers(1, 20), st.integers(0, 24), st.integers(1, 64), st.integers(0, 72))
@settings(max_examples=60, deadline=None)
def test_nest_search_over_streams_matches_the_reference(full2, gm, fibonacci, K, w_cap, check_to, offset):
    """Thue-Morse over full-2 and the Fibonacci word over golden-mean, at
    random sizes, caps, offsets and horizons (offsets past the horizon
    too): the same report, or the search stops at the same read past the
    horizon."""
    if fibonacci:
        x = make_stream(gm, streams.fibonacci_word(), check_to=check_to, offset=offset)
    else:
        x = make_stream(full2, streams.ThueMorse(), check_to=check_to, offset=offset)
    assert _stream_outcome(verify_nest_truncation, x, K, w_cap) == _stream_outcome(_ref_nest, x, K, w_cap)


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


# ---------------------------------------------------------------------------
# checked entries: a picture only at an orbit of F's graph and flavour


def _chi_plus_u_chi(g):
    """χ₁ + U·χ₁, χ₁ the window-1 indicator of the symbol 1: on golden-mean
    its norm is √2."""
    chi = from_function(make_cylinder(g, 1, {(0,): 0.0, (1,): 1.0}))
    return chi + multiply(u_power(g, 1), chi)


def test_foreign_points_raise_from_every_picture_and_estimate(gm, full2):
    """A point of another graph is no orbit of F's picture: reading F along
    the full-2 point 1^∞ gave 1.99940 at K = 64, and 1.99996 through either
    estimate's ``points=``, above the golden-mean norm √2."""
    F = _chi_plus_u_chi(gm)
    E = embed_poly(F)
    assert semicrossed_norm(F, TruncationPolicy(mode="exhaustive", k_max=16)).value == pytest.approx(math.sqrt(2))
    x = make_lasso(full2, (), (1,))
    stream = make_stream(full2, streams.ThueMorse(), check_to=64)
    for y in (x, stream):
        for picture in (build_pi_x, restricted_pi_block, norm_pi_x):
            with pytest.raises(ValueError, match="another graph"):
                picture(F, y, 8)
    for picture in (build_Pi_x, restricted_Pi_block, norm_Pi_x):
        with pytest.raises(ValueError, match="another graph"):
            picture(E, lift_point(x), 8)
    with pytest.raises(ValueError, match="another graph"):
        semicrossed_norm(F, points=[x])
    with pytest.raises(ValueError, match="another graph"):
        crossed_norm(E, points=[lift_point(x)])
    # a graph equal to F's, built separately, is F's graph
    same = validate_sft(2, [[1, 1], [1, 0]])
    assert norm_pi_x(F, make_lasso(same, (), (0, 1)), 8) == norm_pi_x(F, make_lasso(gm, (), (0, 1)), 8)


def test_wrong_flavour_points_raise_type_error(gm):
    """One-sided pictures take base points and one-sided polynomials,
    two-sided pictures bi-infinite points and two-sided polynomials; each
    mismatch is a TypeError, from every picture, from the word search and
    through both estimates' ``points=``.  A two-sided polynomial at a
    bi-infinite point is refused by the one-sided pictures, which would
    otherwise read a two-sided picture on one-sided coordinates."""
    F = _chi_plus_u_chi(gm)
    E = embed_poly(F)
    y = make_lasso(gm, (1,), (0,))
    yt = lift_point(y)
    for picture in (build_pi_x, restricted_pi_block, norm_pi_x):
        for G, z in ((F, yt), (E, y), (E, yt), (embed_poly(u_power(gm, 0) + u_power(gm, 1)), yt)):
            with pytest.raises(TypeError):
                picture(G, z, 8)
    for G in (E, crossed_u_power(gm, -1) + crossed_u_power(gm, 1)):
        for mode in ("exhaustive", "beam:8"):
            with pytest.raises(TypeError):
                constant_A(G, 8, mode=mode)
    for picture in (build_Pi_x, restricted_Pi_block, norm_Pi_x):
        for G, z in ((E, y), (F, yt), (F, y)):
            with pytest.raises(TypeError):
                picture(G, z, 8)
    with pytest.raises(TypeError):
        semicrossed_norm(F, points=[yt])
    with pytest.raises(TypeError):
        crossed_norm(E, points=[y])


def test_a_bad_point_anywhere_in_points_raises(gm, full2):
    """Both estimates read all their sample points as one stack per level:
    a point of another graph (ValueError) or of the other flavour
    (TypeError) raises wherever it stands among good ones."""
    F = _chi_plus_u_chi(gm)
    E = embed_poly(F)
    y, foreign = make_lasso(gm, (1,), (0,)), make_lasso(full2, (), (1,))
    cases = [
        (semicrossed_norm, F, y, foreign, ValueError),
        (semicrossed_norm, F, y, lift_point(y), TypeError),
        (crossed_norm, E, lift_point(y), lift_point(foreign), ValueError),
        (crossed_norm, E, lift_point(y), y, TypeError),
    ]
    for estimate, G, good, bad, error in cases:
        for points in ([bad, good], [good, bad], [good, good, bad]):
            with pytest.raises(error):
                estimate(G, TruncationPolicy(k_max=16), points=points)


def test_each_estimate_takes_only_its_own_flavour(gm):
    """Each norm estimate raises TypeError, naming itself, on a polynomial
    of the other flavour: ``semicrossed_norm(embed_poly(1 + U))`` returned
    2.0 on golden-mean through the two-sided loop."""
    F = _one_plus_u(gm)
    for estimate, G in ((semicrossed_norm, embed_poly(F)), (crossed_norm, F)):
        with pytest.raises(TypeError, match=f"^{estimate.__name__} takes"):
            estimate(G, TruncationPolicy(k_max=16))


@pytest.mark.parametrize("word", [(), (1,), (2,), (0, 1, 1), (1, 0, 0, 1)])
def test_non_cycles_raise_word_inadmissible(gm, word):
    """A word that does not close into a loop of the graph is no periodic
    orbit: (1,) on golden-mean returned 2.0 > √2, () an IndexError and (2,)
    a KeyError."""
    for F in (_chi_plus_u_chi(gm), embed_poly(_chi_plus_u_chi(gm))):
        with pytest.raises(WordInadmissible):
            sup_lambda_norm(F, word)
        with pytest.raises(WordInadmissible):
            sup_lambda_norms(F, [(0,), (0, 1), word])
        with pytest.raises(WordInadmissible):
            build_Pi_y_lambda(F, word, 1.0)


def test_cycles_of_another_graph_raise_word_inadmissible(gm, full2):
    F = _chi_plus_u_chi(gm)
    (one,) = [c for c in enumerate_cycles(full2, 1) if c.word == (1,)]
    with pytest.raises(WordInadmissible):
        sup_lambda_norms(F, [one])
    assert sup_lambda_norms(F, enumerate_cycles(gm, 2)) == sup_lambda_norms(F, [(0,), (0, 1)])


def test_ray_rows_compare_two_constructions(gm, monkeypatch):
    """The ray side of ``verify_norm_lemmas`` is the entry-by-entry picture,
    so a fault in the band reader shows in the ray rows and in nothing
    else: doubling every banded block fails each ray row."""
    F = _chi_plus_u_chi(gm)
    assert verify_norm_lemmas(F, K=64, max_period=2).ok
    point_stack = representations._point_stack

    def doubled(*args):
        stack = point_stack(*args)
        return representations._BandStack(stack.offsets, 2 * stack.bands)

    monkeypatch.setattr(representations, "_point_stack", doubled)
    rep = verify_norm_lemmas(F, K=64, max_period=2)
    assert rep.ray_rows and not any(r.ok for r in rep.ray_rows)
    assert all(r.ok for r in rep.cycle_rows)


def test_separation_failures_say_whether_the_point_is_periodic(gm, full2):
    for x in (make_lasso(gm, (), (0, 1)), bilasso_from_cycle(full2, (0, 1))):
        with pytest.raises(SeparationFailure) as exc:
            verify_nest_truncation(x, K=8)
        assert exc.value.periodic
    # 0^63 1 0^∞ needs a window of width 63
    with pytest.raises(SeparationFailure) as exc:
        verify_nest_truncation(make_lasso(full2, (0,) * 63 + (1,), (0,)), K=16, w_cap=8)
    assert not exc.value.periodic


def _levels(F, k_start: int, k_max: int) -> list:
    """The truncations ``_estimate`` visits: K0, 2 K0, ... up to ``k_max``."""
    spread = max(max(F.coeffs), 0) - min(min(F.coeffs), 0)
    levels = [max(k_start, spread + 1)]
    while levels[-1] < k_max:
        levels.append(min(2 * levels[-1], k_max))
    return levels


@given(st.integers(0, 10**6))
@example(263)  # without the re-seed by the last best word, beam:4 falls by 4.6e-5 here
@settings(max_examples=40, deadline=None)
def test_every_source_bound_is_nondecreasing_over_the_levels(seed):
    """Each real source's certified bound never falls from one level to the
    next by the estimate's float-dust slack: the cycles, the word search in
    both modes (exhaustive while its words fit a small cap) and the points,
    on shipped graphs and random ones, in both flavours, K_max <= 64."""
    rng = random.Random(seed)
    g = rng.choice(_SEARCHED_GRAPHS) if rng.random() < 0.5 else rand_graph(rng, 4)
    F = rand_poly(rng, g, max_degree=2, max_window=2)
    k_start, k_max, two_sided = rng.randint(1, 8), rng.choice((8, 16, 64)), rng.random() < 0.5
    policy = TruncationPolicy(k_start=min(k_start, k_max), k_max=k_max, lambda_grid=16, refine_steps=2)
    levels = _levels(F, policy.k_start, k_max)
    if two_sided:
        F = embed_poly(F)
        points = list(representations._samples(g, 4))
    else:
        points = [rand_lasso(rng, g) for _ in range(2)]
    cycles, _ = representations._cycle_source(F, policy, None)
    series = {
        "cycles": [cycles(K)[0] for K in levels],
        "points": [representations._point_bound(F, points, K, type(F))[0] for K in levels],
    }
    if not two_sided and not g.is_permutation():
        _, reach = representations._poly_span(F)
        for mode in ("exhaustive", "beam:4", "beam:1"):
            last, series[mode] = None, []
            for K in levels:
                if mode == "exhaustive" and g.count_words(K + reach - 1) > 2000:
                    break
                last = constant_A(F, K, mode=mode, previous=last)
                series[mode].append(last.value)
    for name, values in series.items():
        for K, earlier, later in zip(levels[1:], values, values[1:]):
            assert later > earlier - representations._DECREASE_SLACK, f"{name} fell from {earlier} to {later} at K={K}"
