"""Matrix pictures of the shift algebras and norm computation.

Every point of the base space carries a representation of the one-sided
polynomial algebra on square-summable sequences: the shift power U^n acts as
the n-step downward coordinate shift and a cylinder function acts diagonally
through its values along the forward orbit.  Bi-infinite points carry the
analogous two-sided picture, and periodic orbits carry a finite-dimensional
family indexed by a unit-modulus spectral parameter.

Truncating to finitely many coordinates gives computable lower bounds; blocks
whose retained columns carry *all* their nonzero entries agree with the
untruncated operator on those columns, so their norms are certified lower
bounds that only grow as the truncation widens.

Such a block is a band matrix: the coefficient of U^n is its n-th
subdiagonal.  Both flavours share one path, given the point's read
(``itinerary`` from 0, or ``BiLassoPoint.window``) and coordinates (0..K-1,
or -K..K).  ``_picture`` fills the truncation entry by entry, for
``build_pi_x``/``build_Pi_x``: fast on the small pictures of ``verify``, and
the tests' reference.  ``_point_stack`` keeps the complete columns in band
form (``_BandStack``), reading each coefficient only at the windows the
orbit visits, as the word search does; ``restricted_*_block`` are its dense
form and ``norm_*`` its ``sigma_max``.  ``_BandStack.sigma_max`` takes a
dense SVD of blocks narrower than ``BAND_CROSSOVER`` columns and runs
Lanczos on MᴴM through the bands from there on, in time O(steps x width x
bands) and memory O(width).  Both return at most the true largest singular
value up to rounding, so a printed norm stays a certified lower bound.

A periodic orbit of period p carries the p-by-p pictures Pi_{y,lambda}, one
per spectral parameter lambda on the unit circle, and ``constant_B`` takes
the supremum of their norms over the circle and over the cycles.
``sup_lambda_norms`` reads each cycle's coefficient values once
(``_cycle_coefficients``), searches each distinct picture once (cycles with
identical pictures share the search) and searches the circle of all of them
in lockstep: a grid, then a golden-section refinement, each stage one
batched SVD per period.  Every picture sees exactly the angles a search of
it alone would, so sharing and batching change the cost and not a bit of
the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .algebra import (
    CrossedPoly,
    SemicrossedPoly,
    semicrossed_poly,
    crossed_poly,
    embed_poly,
    from_function,
    u_power,
)
from .dynamics import (
    Cycle,
    CylinderFunction,
    IndicatorTable,
    ItineraryStream,
    LassoPoint,
    SftGraph,
    Word,
    as_word,
    enumerate_cycles,
    girth,
    itinerary,
    make_lasso,
)
from .errors import NotUnitModulus, Overflow, SeparationFailure
from .extension import (
    BiLassoPoint,
    TwoSidedCylinder,
    classify_extended_point,
    lift_point,
    make_bilasso,
    ray_point,
)

BasePoint = Union[LassoPoint, ItineraryStream]


# ---------------------------------------------------------------------------
# operator norm


def operator_norm(M) -> float:
    """Largest singular value of a dense matrix.

    Matrices with at most one nonzero entry per row and per column (shift
    powers, coordinate projections) are handled exactly as the largest entry
    modulus; anything else goes to a full SVD.  Wide truncated pictures do not
    come here: ``norm_pi_x``, ``norm_Pi_x`` and ``constant_A`` keep them in
    band form (``_BandStack.sigma_max``).
    """
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    nonzero = M != 0
    if nonzero.sum(axis=0).max(initial=0) <= 1 and nonzero.sum(axis=1).max(initial=0) <= 1:
        return float(np.abs(M).max(initial=0.0))
    return float(np.linalg.svd(M, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# point pictures, one path for both flavours


def _poly_span(F) -> tuple:
    """(max shift power, max coefficient reach start + window) with
    empty-poly defaults: how many symbols a column of the one-sided picture
    reads."""
    degree = max(F.coeffs, default=0)
    reach = max((f.start + f.window for f in F.coeffs.values()), default=1)
    return degree, reach


def _ray_read(x: BasePoint):
    """The base point's symbols at coordinates a..b-1, from one ``itinerary``
    call: the read of ``_picture``, like ``BiLassoPoint.window`` upstairs."""
    return lambda a, b: itinerary(x, b)[a:]


def _read_span(F, lo: int, hi: int) -> tuple:
    """First and one-past-last coordinate read by columns lo..hi of F."""
    first = lo + min((f.start for f in F.coeffs.values()), default=0)
    return first, hi + _poly_span(F)[1]


def _picture(F, read, lo: int, hi: int) -> np.ndarray:
    """Truncation of F's picture at a point onto coordinates lo..hi (matrix
    position i - lo), for either flavour: the coefficient of the n-th power
    fills entry (i + n, i) with its value at the window starting at
    coordinate start + i.  The point is read once, by ``read``."""
    size = hi - lo + 1
    M = np.zeros((size, size), dtype=complex)
    first, last = _read_span(F, lo, hi)
    sym = read(first, last)
    for n, f in sorted(F.coeffs.items()):
        vals, w, s = f.values, f.window, f.start + lo - first
        for c in range(max(0, -n), min(size, size - n)):
            M[c + n, c] = vals[sym[c + s : c + s + w]]
    return M


def _point_stack(F, read, lo: int, hi: int) -> "_BandStack":
    """The complete columns of ``_picture(F, read, lo, hi)``, i in
    [lo - min(n, 0), hi - max(n, 0)] over the support, as one banded block:
    they agree with the untruncated operator, so its norm is a certified
    lower bound, nondecreasing as lo..hi widens.  Block row r is coordinate
    lo + r, down to the last row an entry reaches."""
    top = min(min(F.coeffs, default=0), 0)
    first_col, last_col = lo - top, hi - max(max(F.coeffs, default=0), 0)
    if first_col > last_col:
        if isinstance(F, CrossedPoly):
            raise ValueError("truncation too small for the polynomial's power spread")
        raise ValueError("truncation must exceed the polynomial degree")
    first, last = _read_span(F, first_col, last_col)
    sym = np.array(read(first, last), dtype=np.int64)[None, :]
    terms = [(n - top, f.values, f.start + first_col - first, f.window) for n, f in sorted(F.coeffs.items())]
    return _read_bands(sym, terms, last_col - first_col + 1)


def build_pi_x(F: SemicrossedPoly, x: BasePoint, K: int) -> np.ndarray:
    """K-by-K truncation of the one-sided picture at x, coordinates
    0..K-1: the coefficient of U^n contributes the n-th subdiagonal, read
    along the forward orbit."""
    if K < 1:
        raise ValueError("truncation size must be >= 1")
    return _picture(F, _ray_read(x), 0, K - 1)


def restricted_pi_block(F: SemicrossedPoly, x: BasePoint, K: int) -> np.ndarray:
    """The complete columns of ``build_pi_x(F, x, K)``, the first K - degree
    (``_point_stack``): a certified block, nondecreasing in K."""
    return _point_stack(F, _ray_read(x), 0, K - 1).dense()[0]


def norm_pi_x(F: SemicrossedPoly, x: BasePoint, K: int) -> float:
    """Norm of ``restricted_pi_block(F, x, K)``, computed from its bands
    (``_BandStack.sigma_max``); no K-by-K array is built."""
    return _point_stack(F, _ray_read(x), 0, K - 1).sigma_max()


def build_Pi_x(F: CrossedPoly, x: BiLassoPoint, K: int) -> np.ndarray:
    """Two-sided truncation onto coordinates -K..K (matrix position i + K).
    On embedded one-sided polynomials, column i here matches column i + 1
    of the one-sided picture at the projected point."""
    if K < 0:
        raise ValueError("truncation size must be >= 0")
    return _picture(F, x.window, -K, K)


def restricted_Pi_block(F: CrossedPoly, x: BiLassoPoint, K: int) -> np.ndarray:
    """The complete columns of ``build_Pi_x(F, x, K)`` (``_point_stack``),
    with all 2K+1 rows; none when F is zero.  Certified and nondecreasing
    in K, like the one-sided block."""
    if not F.coeffs:
        return np.zeros((2 * K + 1, 0), dtype=complex)
    block = _point_stack(F, x.window, -K, K).dense()[0]
    return np.pad(block, ((0, 2 * K + 1 - len(block)), (0, 0)))


def norm_Pi_x(F: CrossedPoly, x: BiLassoPoint, K: int) -> float:
    """Norm of ``restricted_Pi_block(F, x, K)`` from its bands.  The banded
    block stops at the last row an entry reaches: the zero rows below it,
    present when every power is negative, would move the SVD's last bit."""
    return _point_stack(F, x.window, -K, K).sigma_max() if F.coeffs else 0.0


def _cycle_word(cycle) -> Word:
    return cycle.word if isinstance(cycle, Cycle) else as_word(cycle)


def _sorted_powers(F) -> list:
    if not isinstance(F, (SemicrossedPoly, CrossedPoly)):
        raise TypeError(f"not a shift polynomial: {F!r}")
    return sorted(F.coeffs)


def _cycle_coefficients(F, word: Word, powers: Sequence[int]) -> np.ndarray:
    """F's coefficients read once along a cycle of period p, for either
    flavour: A[t, (i + n) % p, i] is the value of the coefficient of the
    power n = powers[t] at cycle position i, the entry it contributes to the
    periodic-orbit picture before the spectral weight lam**n.  Position i
    is coordinate i of the periodic point, bi-sequence index i + 1 of its
    two-sided lift."""
    p = len(word)
    origin = 1 if isinstance(F, CrossedPoly) else 0
    A = np.zeros((len(powers), p, p), dtype=complex)
    for t, n in enumerate(powers):
        f = F.coeffs[n]
        first = f.start - origin
        for i in range(p):
            u = tuple(word[(i + first + s) % p] for s in range(f.window))
            A[t, (i + n) % p, i] = f.values[u]
    return A


def build_Pi_y_lambda(F, cycle, lam: complex) -> np.ndarray:
    """Finite-dimensional picture on a periodic orbit of period p: the shift
    becomes the cyclic coordinate shift weighted by a unit-modulus spectral
    parameter, functions act diagonally along the cycle.  Accepts either
    polynomial flavour."""
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise NotUnitModulus(f"spectral parameter must have unit modulus, got |{lam}| = {abs(lam)}")
    word = _cycle_word(cycle)
    powers = _sorted_powers(F)
    A = _cycle_coefficients(F, word, powers)
    p = len(word)
    M = np.zeros((p, p), dtype=complex)
    for t, n in enumerate(powers):
        for i in range(p):
            r = (i + n) % p
            M[r, i] += lam**n * A[t, r, i]
    return M


@dataclass(frozen=True)
class LambdaNorm:
    value: float
    lam: complex
    cycle: Word
    grid: int


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _sigma_max_at(A: np.ndarray, powers: Sequence[int], theta: np.ndarray) -> np.ndarray:
    """Largest singular value of the picture of cycle j at lam = exp(i theta),
    for a stack A of ``_cycle_coefficients`` of one period.  ``theta`` has
    shape (1, k), the same k angles for every cycle, or (cycles, 1), one
    angle each; the result has shape (cycles, k)."""
    lam = np.exp(1j * theta)
    M = np.zeros((len(A), theta.shape[1]) + A.shape[2:], dtype=complex)
    for t, n in enumerate(powers):
        M += (lam**n)[..., None, None] * A[:, None, t]
    return np.linalg.svd(M, compute_uv=False)[..., 0]


def _golden_section(theta: float, step: float, steps: int):
    """Golden-section search for a maximum on [theta - step, theta + step],
    as a coroutine: it yields each angle to evaluate and is sent the value
    there.  After 2 + ``steps`` values it yields its two interior points,
    ((c, f(c)), (d, f(d)))."""
    a, b = theta - step, theta + step
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = yield c
    fd = yield d
    for _ in range(steps):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = yield d
    yield (c, fc), (d, fd)


def sup_lambda_norms(F, cycles, grid: int = 128, refine_steps: int = 60) -> tuple:
    """``sup_lambda_norm`` of every cycle, in input order, searched in
    lockstep.

    Each cycle's values along the cycle are read once
    (``_cycle_coefficients``).  Cycles with identical pictures (same period,
    same values byte for byte) share one search, whose result depends on
    the picture alone; each keeps its own cycle word.  The grid costs one
    batched SVD per period.  Every distinct picture then runs its own
    golden-section search (``_golden_section``); all of them take the same
    number of steps, and each step evaluates the angles of all pictures of
    one period in one batched SVD.  Every picture follows the sequence of
    angles a search of it alone would, so the results equal those of
    searching the cycles one at a time, bit for bit.  Pictures of different
    periods never share an SVD: padding a picture into a larger one moves
    the last bit.
    """
    powers = _sorted_powers(F)
    if grid < 1:
        raise ValueError("grid must be >= 1")
    words = [_cycle_word(c) for c in cycles]
    first: dict = {}  # (period, picture bytes) -> index into stacks
    stacks: list = []  # the distinct pictures, in order of first occurrence
    slot = []  # cycle -> index of its picture in stacks
    for word in words:
        A = _cycle_coefficients(F, word, powers)
        key = (len(word), A.tobytes())
        if key not in first:
            first[key] = len(stacks)
            stacks.append(A)
        slot.append(first[key])
    by_period: dict = {}
    for j, A in enumerate(stacks):
        by_period.setdefault(A.shape[-1], []).append(j)
    groups = [(p, members, np.stack([stacks[j] for j in members])) for p, members in by_period.items()]

    best = [0.0] * len(stacks)
    best_theta = [0.0] * len(stacks)
    for p, members, A in groups:
        thetas = 2.0 * np.pi * np.arange(grid) / (grid * p)
        norms = _sigma_max_at(A, powers, thetas[None, :])
        for j, row in zip(members, norms):
            k = int(np.argmax(row))
            best[j], best_theta[j] = float(row[k]), float(thetas[k])

    if refine_steps > 0 and grid >= 2:

        def evaluate(angles: list) -> list:
            values = [0.0] * len(stacks)
            for _, members, A in groups:
                theta = np.array([angles[j] for j in members])[:, None]
                for j, v in zip(members, _sigma_max_at(A, powers, theta)[:, 0].tolist()):
                    values[j] = v
            return values

        searches = [
            _golden_section(best_theta[j], 2.0 * np.pi / (grid * A.shape[-1]), refine_steps)
            for j, A in enumerate(stacks)
        ]
        angles = [next(s) for s in searches]
        for _ in range(refine_steps + 2):
            angles = [s.send(v) for s, v in zip(searches, evaluate(angles))]
        for j, points in enumerate(angles):
            for theta, val in points:
                if val > best[j]:
                    best[j], best_theta[j] = float(val), float(theta)

    return tuple(
        LambdaNorm(best[j], complex(np.exp(1j * best_theta[j])), word, grid) for word, j in zip(words, slot)
    )


def sup_lambda_norm(F, cycle, grid: int = 128, refine_steps: int = 60) -> LambdaNorm:
    """Supremum over the spectral circle of the periodic-orbit picture.

    Rotating the parameter by a p-th root of unity is a diagonal unitary
    change of basis, so the search lives on arc [0, 2*pi/p); the grid always
    contains the parameter 1 at its first point.  A golden-section pass of
    ``refine_steps`` contractions around the best grid point sharpens the
    result (0 disables refinement, and so does a grid of one point).  This
    is ``sup_lambda_norms`` on a single cycle.
    """
    return sup_lambda_norms(F, [cycle], grid, refine_steps)[0]


# ---------------------------------------------------------------------------
# banded blocks: their largest singular value, and the word search


# Columns from which ``_BandStack.sigma_max`` runs Lanczos on the bands
# instead of a dense SVD; see CHANGES.md for the measurement behind it.
BAND_CROSSOVER = 224
# Largest Lanczos tridiagonal whose top eigenvalue comes from ``eigvalsh``;
# larger ones use Sturm-count bisection.
_DENSE_RITZ_MAX = 100


def _top_ritz(alpha: list, beta: list) -> tuple:
    """Largest eigenvalue theta of the symmetric tridiagonal matrix T with
    diagonal ``alpha`` and off-diagonal ``beta``, and |y_j|, the modulus of
    the last component of its unit eigenvector.

    The eigenvector comes from a twisted factorisation of T - theta: the
    pivots d_k of its LDLᵀ from the top and e_k of its UDUᵀ from the bottom
    meet at the index r where |d_r + e_r - (alpha_r - theta)| is least, the
    largest component of the eigenvector.  From x_r = 1 the components are
    x_k = -beta_k x_{k+1} / d_k above r and x_k = -beta_{k-1} x_{k-1} / e_k
    below it, each recurrence run in its stable direction.
    """
    j = len(alpha)
    if j <= _DENSE_RITZ_MAX:
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        theta = float(np.linalg.eigvalsh(T)[-1])
    else:
        radius = [0.0] * j
        for k, b in enumerate(beta):
            radius[k] += abs(b)
            radius[k + 1] += abs(b)
        lo = max(alpha)
        hi = max(a + r for a, r in zip(alpha, radius))
        rows = list(zip(alpha, [0.0] + [b * b for b in beta]))
        while hi - lo > 4e-16 * max(abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            # pivots of T - mid I: as many are positive as eigenvalues exceed mid
            above, q = False, 1.0
            for a, b2 in rows:
                q = a - mid - b2 / q
                if q > 0.0:
                    above = True
                    break
                if q == 0.0:
                    q = -1e-300
            if above:
                lo = mid
            else:
                hi = mid
        theta = lo
    shifted = [a - theta for a in alpha]
    d = shifted[:]
    for k in range(1, j):
        d[k] -= beta[k - 1] ** 2 / (d[k - 1] or 1e-300)
    e = shifted[:]
    for k in range(j - 2, -1, -1):
        e[k] -= beta[k] ** 2 / (e[k + 1] or 1e-300)
    r = min(range(j), key=lambda k: abs(d[k] + e[k] - shifted[k]))
    x = [0.0] * j
    x[r] = 1.0
    for k in range(r - 1, -1, -1):
        x[k] = -beta[k] * x[k + 1] / (d[k] or 1e-300)
    for k in range(r + 1, j):
        x[k] = -beta[k - 1] * x[k - 1] / (e[k] or 1e-300)
    return theta, abs(x[-1]) / float(np.linalg.norm(x))


def _lanczos_top(block: "_BandStack") -> float:
    """Top eigenvalue of MᴴM for a single block M, by Lanczos through the
    band products, without reorthogonalisation.

    The start vector is deterministic: 1 + c/cols, normalised.  All ones
    would be orthogonal to every antisymmetric vector, and the top singular
    vector of a Toeplitz block with antipalindromic bands is one (1 - U at
    odd K).  The top Ritz pair is checked every max(8, j/4) steps; the
    iteration stops on Paige's bound beta_j |y_j| <= 1e-12 theta or on
    beta_j = 0.  In floating point the tridiagonal of order cols need not
    have converged yet on a clustered spectrum (periodic orbits give one),
    so the iteration may run past cols, up to 4 cols steps.
    """
    n = block.cols
    q = (1.0 + np.arange(n, dtype=complex) / n)[None, :]
    q /= np.linalg.norm(q)
    q_prev = np.zeros_like(q)
    alpha: list = []
    beta: list = []
    b = 0.0
    j, check = 0, 8
    while True:
        j += 1
        w = block.rmatvec(block.matvec(q)) - b * q_prev
        a = float(np.vdot(q, w).real)
        w -= a * q
        b = float(np.linalg.norm(w))
        alpha.append(a)
        if b == 0.0 or j >= check:
            theta, y = _top_ritz(alpha, beta)
            if b == 0.0 or j >= 4 * n or b * y <= 1e-12 * theta:
                return theta
            check = min(j + max(8, j // 4), 4 * n)
        beta.append(b)
        q_prev, q = q, w / b


class _BandStack:
    """A batch of column-complete banded blocks, one per candidate word,
    sharing the same subdiagonal offsets.  bands[j, b, c] is candidate j's
    entry at (c + offset_b, c)."""

    def __init__(self, offsets: Sequence[int], bands: np.ndarray):
        self.offsets = tuple(offsets)
        self.bands = bands
        self.count, _, self.cols = bands.shape
        self.rows = self.cols + (max(self.offsets) if self.offsets else 0)

    def matvec(self, V: np.ndarray) -> np.ndarray:
        W = np.zeros((self.count, self.rows), dtype=complex)
        for b, n in enumerate(self.offsets):
            W[:, n : n + self.cols] += self.bands[:, b, :] * V
        return W

    def rmatvec(self, W: np.ndarray) -> np.ndarray:
        V = np.zeros((self.count, self.cols), dtype=complex)
        for b, n in enumerate(self.offsets):
            V += np.conj(self.bands[:, b, :]) * W[:, n : n + self.cols]
        return V

    def scores(self, iters: int = 8, V0: Optional[np.ndarray] = None):
        """Power-iteration singular-value estimates for ranking (not final
        values); returns (estimates, iteration vectors) for warm restarts."""
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
        sigma = np.linalg.norm(self.matvec(V), axis=1)
        return sigma, V

    def dense(self) -> np.ndarray:
        """Every block as a dense (count, rows, cols) array."""
        M = np.zeros((self.count, self.rows, self.cols), dtype=complex)
        c = np.arange(self.cols)
        for b, n in enumerate(self.offsets):
            M[:, c + n, c] = self.bands[:, b, :]
        return M

    def sigma_max(self, j: int = 0) -> float:
        """Largest singular value of block j.

        Narrower than ``BAND_CROSSOVER`` columns: ``operator_norm`` of
        its dense form.  From there on a block with at most one nonzero entry
        per row and per column is exact, its largest entry modulus, and any
        other goes to Lanczos on MᴴM through ``matvec``/``rmatvec``
        (``_lanczos_top``): O(cols x bands) time per step and O(cols)
        memory.  The Ritz value is at most the top eigenvalue of MᴴM up to
        rounding, so whichever path runs, the value returned is a lower
        bound on σ_max and a certified block's norm stays a certified lower
        bound.
        """
        block = _BandStack(self.offsets, self.bands[j : j + 1])
        if block.cols < BAND_CROSSOVER:
            return operator_norm(block.dense()[0])
        nonzero = block.bands[0] != 0
        per_row = np.zeros(block.rows, dtype=np.int64)
        for b, n in enumerate(block.offsets):
            per_row[n : n + block.cols] += nonzero[b]
        if nonzero.sum(axis=0).max(initial=0) <= 1 and per_row.max(initial=0) <= 1:
            return float(np.abs(block.bands).max(initial=0.0))
        return float(np.sqrt(_lanczos_top(block)))


def _window_values(values: Mapping, sym: np.ndarray, m: int, w: int, cols: int) -> np.ndarray:
    """``values[u]`` at every window u = sym[r, c : c + w], c < cols, of
    symbols below m, looked up once per distinct window present.

    Windows are numbered symbol by symbol (id * m + next symbol); whenever
    the numbering would outgrow max(4 x windows, 4096) it is compacted to
    the distinct prefixes seen.  So the numbering, and the table indexed by
    it, stay linear in the windows read however wide the window is.
    """
    limit = max(4 * sym.shape[0] * cols, 4096)
    ids = sym[:, :cols].astype(np.int64)
    span = m
    for k in range(1, w):
        if span * m > limit:
            distinct, inverse = np.unique(ids, return_inverse=True)
            ids, span = inverse.reshape(ids.shape), len(distinct)
        ids = ids * m + sym[:, k : k + cols]
        span *= m
    # 1 + the flat index of some window with each id, 0 where none has it
    where = np.zeros(span, dtype=np.int64)
    where[ids.ravel()] = np.arange(1, ids.size + 1)
    present = np.flatnonzero(where)
    rows, starts = np.divmod(where[present] - 1, cols)
    table = np.zeros(span, dtype=complex)
    table[present] = [
        values[tuple(sym[r, c : c + w].tolist())] for r, c in zip(rows.tolist(), starts.tolist())
    ]
    return table[ids]


def _read_bands(sym: np.ndarray, terms: list, cols: int) -> _BandStack:
    """One block per row of ``sym`` from (offset, values, first, window)
    terms: the band at ``offset`` reads ``values`` at the window of that
    width starting at column first + c of the row, for c < cols."""
    m = int(sym.max(initial=0)) + 1
    bands = np.zeros((sym.shape[0], len(terms), cols), dtype=complex)
    for b, (_, values, first, w) in enumerate(terms):
        bands[:, b, :] = _window_values(values, sym[:, first:], m, w, cols)
    return _BandStack([t[0] for t in terms], bands)


def _band_stack(F: SemicrossedPoly, words: np.ndarray) -> _BandStack:
    """Blocks with one complete column per admissible position of the widest
    reach: a word of length L yields L - reach + 1 columns."""
    _, reach = _poly_span(F)
    cols = words.shape[1] - reach + 1
    if cols < 1:
        raise ValueError("words shorter than the widest coefficient reach")
    terms = [(n, f.values, f.start, f.window) for n, f in sorted(F.coeffs.items())]
    return _read_bands(words, terms, cols)


@dataclass(frozen=True)
class WordSearch:
    value: float
    word: Word
    K: int
    mode: str
    scored: int


def _parse_mode(mode) -> tuple:
    """("exhaustive", 0) or ("beam", width) for a search mode string.  The
    width is written in ASCII digits only, with no sign or spaces, and must
    be at least 1; anything else raises ValueError."""
    if mode == "exhaustive":
        return "exhaustive", 0
    if isinstance(mode, str) and mode.startswith("beam:"):
        digits = mode[5:]
        if digits.isascii() and digits.isdigit() and int(digits) >= 1:
            return "beam", int(digits)
        raise ValueError(f"beam width must be a positive integer, got {mode!r}")
    raise ValueError(f"expected 'exhaustive' or 'beam:<width>', got {mode!r}")


def _beam_run(F: SemicrossedPoly, seeds: Sequence[Word], target_len: int, width: int):
    """Extend the seed words symbol by symbol, keeping the `width` candidates
    with the best ranking scores, warm-starting iteration vectors."""
    g = F.graph
    words = sorted(set(seeds))
    length = len(words[0])
    if any(len(w) != length for w in words):
        raise ValueError("seed words must share one length")
    V = None
    scored = 0
    while True:
        arr = np.array(words, dtype=np.int64)
        stack = _band_stack(F, arr)
        sigma, V = stack.scores(iters=8, V0=V)
        scored += len(words)
        order = sorted(range(len(words)), key=lambda j: (-sigma[j], words[j]))[:width]
        words = [words[j] for j in order]
        V = V[order]
        if length == target_len:
            return words, scored
        extended = []
        rows = []
        for j, u in enumerate(words):
            for a in g.followers(u[-1]):
                extended.append(u + (a,))
                rows.append(j)
        if not extended:  # cannot happen on validated graphs
            return words, scored
        cols = V.shape[1]
        V_new = np.ones((len(extended), cols + 1), dtype=complex)
        V_new[:, :cols] = V[rows]
        words, V = extended, V_new
        length += 1


def constant_A(
    F: SemicrossedPoly,
    K: int,
    mode: str = "exhaustive",
    cap: int = 100_000,
    seed_word: Optional[Word] = None,
) -> Optional[WordSearch]:
    """Largest certified block norm over admissible symbol windows of length
    K + reach - 1 (``_poly_span``): the contribution of orbits that are not
    eventually periodic to the norm at truncation level K.

    Returns None when the graph is a permutation (every orbit is periodic,
    so there is nothing for the word search to witness).  Exhaustive mode
    enumerates every admissible word under ``cap``; beam mode keeps a fixed
    number of best-scoring prefixes, and re-seeding it with the best word of
    the previous level keeps the reported values nondecreasing.
    """
    g = F.graph
    if g.is_permutation():
        return None
    kind, width = _parse_mode(mode)
    if not F.coeffs:
        return WordSearch(0.0, (), K, mode, 0)
    _, reach = _poly_span(F)
    length = K + reach - 1

    if kind == "exhaustive":
        total = g.count_words(length)
        if total > cap:
            raise Overflow(
                f"{total} admissible words of length {length} exceed the cap {cap}; "
                f"use mode='beam:<width>'"
            )
        words = g.admissible_words(length)
        arr = np.array(words, dtype=np.int64)
        stack = _band_stack(F, arr)
        if len(words) <= 4096:
            svals = np.linalg.svd(stack.dense(), compute_uv=False)[:, 0]
            j = int(np.argmax(svals))
            return WordSearch(float(svals[j]), words[j], K, mode, len(words))
        sigma, _ = stack.scores(iters=32)
        top = sorted(range(len(words)), key=lambda j: (-sigma[j], words[j]))[:64]
        best_val, best_word = -1.0, ()
        for j in top:
            v = stack.sigma_max(j)
            if v > best_val:
                best_val, best_word = v, words[j]
        return WordSearch(best_val, best_word, K, mode, len(words))

    seeds = list(g.admissible_words(min(reach, length)))
    finals, scored = _beam_run(F, seeds, length, width)
    if seed_word is not None and len(seed_word) < length and g.word_admissible(as_word(seed_word)):
        warm, extra = _beam_run(F, [as_word(seed_word)], length, width)
        finals = finals + warm
        scored += extra
    best_val, best_word = -1.0, ()
    for u in sorted(set(finals)):
        v = _band_stack(F, np.array([u], dtype=np.int64)).sigma_max()
        if v > best_val:
            best_val, best_word = v, u
    return WordSearch(best_val, best_word, K, mode, scored)


@dataclass(frozen=True)
class CycleSearch:
    value: float
    cycle: Word
    lam: complex
    periods: int
    cycles: int


def constant_B(F, max_period: int, lambda_grid: int = 128, refine_steps: int = 60) -> CycleSearch:
    """Largest periodic-orbit norm over cycles up to the requested period
    (raised to the graph's shortest cycle length when that is longer, so the
    search is never empty) and over the spectral circle.

    All enumerated cycles go to one ``sup_lambda_norms`` call, whose lockstep
    search gives each cycle the value a search of it alone would.  On a tie
    the first cycle in enumeration order (by period, then word) wins.
    """
    g = F.graph
    horizon = max(max_period, girth(g))
    cycles = enumerate_cycles(g, horizon)
    best = None
    for ln in sup_lambda_norms(F, cycles, grid=lambda_grid, refine_steps=refine_steps):
        if best is None or ln.value > best.value:
            best = ln
    assert best is not None  # girth extension guarantees at least one cycle
    return CycleSearch(best.value, best.cycle, best.lam, horizon, len(cycles))


# ---------------------------------------------------------------------------
# norm estimation with doubling truncations


@dataclass(frozen=True)
class TruncationPolicy:
    """Knobs for the doubling-truncation norm loops, and the one home of
    their defaults (configs and the CLI read them from here)."""

    k_start: int = 8
    k_max: int = 256
    tol: float = 1e-6
    mode: str = "beam:8"
    lambda_grid: int = 128
    refine_steps: int = 60
    max_period: int = 4
    word_cap: int = 100_000


@dataclass(frozen=True)
class NormEstimate:
    value: float
    history: tuple  # ((K, value), ...)
    converged: bool
    diagnostics: Mapping


_DECREASE_SLACK = 1e-9


def _monotone_append(history: list, K: int, total: float) -> float:
    """Certified bounds never shrink as K grows; clamp float dust, treat a
    real decrease as an internal error."""
    if history:
        prev = history[-1][1]
        if total < prev:
            if prev - total >= _DECREASE_SLACK:
                raise AssertionError(
                    f"certified lower bound decreased from {prev} to {total} at K={K}"
                )
            total = prev
    history.append((K, total))
    return total


def _doubling(policy: TruncationPolicy, B: CycleSearch, K: int, level, samples: int, extra=dict):
    """The loop of both norm estimates: evaluate ``level(K)`` at K, 2K, ...
    up to ``policy.k_max``, stopping once two consecutive totals agree to
    within ``policy.tol``.  The diagnostics name the cycle bound B, the
    flavour's own entries (``extra()``, read after the last level), the
    clamped history and the number of sample points."""
    history: list = []
    prev: Optional[float] = None
    while True:
        total = _monotone_append(history, K, level(K))
        converged = prev is not None and abs(total - prev) <= policy.tol
        if converged or K >= policy.k_max:
            break
        prev = total
        K = min(2 * K, policy.k_max)
    diagnostics = {
        "cycle_value": B.value,
        "cycle": B.cycle,
        "lambda": B.lam,
        **extra(),
        "K_history": tuple(history),
        "samples": samples,
    }
    return NormEstimate(history[-1][1], tuple(history), converged, diagnostics)


def semicrossed_norm(
    F: SemicrossedPoly,
    policy: Optional[TruncationPolicy] = None,
    points: Sequence[BasePoint] = (),
    *,
    cycle_search: Optional[CycleSearch] = None,
) -> NormEstimate:
    """Norm of a one-sided polynomial as the supremum over its pointwise
    pictures: the cycle contribution (truncation-free), the word-search
    contribution, and any caller-supplied sample points, at doubling
    truncation levels until the total settles within tolerance.  A given
    ``cycle_search`` stands in for ``constant_B`` at the policy's cycle
    settings."""
    policy = policy or TruncationPolicy()
    B = cycle_search or constant_B(F, policy.max_period, policy.lambda_grid, policy.refine_steps)
    degree, _ = _poly_span(F)
    best: Optional[WordSearch] = None  # the last level's word search

    def level(K: int) -> float:
        nonlocal best
        seed = None if best is None else best.word
        A = constant_A(F, K, mode=policy.mode, cap=policy.word_cap, seed_word=seed)
        candidates = [B.value]
        if A is not None:
            candidates.append(A.value)
            best = A
        candidates.extend(norm_pi_x(F, x, K) for x in points)
        return max(candidates)

    def extra() -> dict:
        return {
            "word_value": None if best is None else best.value,
            "best_word": None if best is None else best.word,
            "mode": policy.mode,
        }

    return _doubling(policy, B, max(policy.k_start, degree + 1), level, len(points), extra)


def _connector(g: SftGraph, a: int, b: int) -> Optional[Word]:
    """Shortest word w with a -> w -> b admissible (possibly empty)."""
    if g.is_edge(a, b):
        return ()
    parent: dict = {}
    frontier = []
    for u in g.followers(a):
        parent[u] = None
        frontier.append(u)
    while frontier:
        for u in frontier:
            if g.is_edge(u, b):
                path = [u]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
        nxt = []
        for v in frontier:
            for u in g.followers(v):
                if u not in parent:
                    parent[u] = v
                    nxt.append(u)
        frontier = nxt
    return None


def seam_points(g: SftGraph, max_period: int = 2, cap: int = 8) -> tuple:
    """Aperiodic bi-infinite samples stitched from pairs of distinct cycles
    joined by a shortest connector."""
    cycles = enumerate_cycles(g, max(max_period, girth(g)))
    out = []
    seen = set()
    for c1 in cycles:
        for c2 in cycles:
            if c1.word == c2.word or len(out) >= cap:
                continue
            conn = _connector(g, c1.word[-1], c2.word[0])
            if conn is None:
                continue
            pt = make_bilasso(g, c1.word, conn, 1, c2.word)
            key = (pt.left, pt.center, pt.start, pt.right)
            if key not in seen:
                seen.add(key)
                out.append(pt)
    return tuple(out)


def tour_point(g: SftGraph, length: int = 2) -> Optional[BiLassoPoint]:
    """Lift of a one-sided point whose preperiod walks through every
    admissible word of the given length, joined by shortest connectors."""
    words = g.admissible_words(length)
    pre: tuple = ()
    for u in words:
        if pre:
            conn = _connector(g, pre[-1], u[0])
            if conn is None:
                return None
            pre = pre + conn
        pre = pre + u
    cyc = enumerate_cycles(g, girth(g))[0]
    conn = _connector(g, pre[-1], cyc.word[0])
    if conn is None:
        return None
    return lift_point(make_lasso(g, pre + conn, cyc.word))


def crossed_norm(
    F: CrossedPoly,
    policy: Optional[TruncationPolicy] = None,
    points: Sequence[BiLassoPoint] = (),
    *,
    cycle_search: Optional[CycleSearch] = None,
) -> NormEstimate:
    """Norm of a two-sided polynomial: cycle contribution over the spectral
    circle plus certified blocks at sampled bi-infinite points (caller's
    samples, cycle-seam points, and a lifted tour point), at doubling
    truncation levels.  ``cycle_search`` is as in ``semicrossed_norm``."""
    policy = policy or TruncationPolicy()
    g = F.graph
    B = cycle_search or constant_B(F, policy.max_period, policy.lambda_grid, policy.refine_steps)
    samples = list(points)
    samples.extend(seam_points(g))
    tour = tour_point(g)
    if tour is not None:
        samples.append(tour)
    n_min = min(F.coeffs, default=0)
    n_max = max(F.coeffs, default=0)
    spread = max(n_max, 0) - min(n_min, 0)

    def level(K: int) -> float:
        return max([B.value] + [norm_Pi_x(F, x, K) for x in samples])

    return _doubling(policy, B, max(policy.k_start, spread + 1), level, len(samples))


# ---------------------------------------------------------------------------
# verification: periodic-orbit pictures vs point pictures


@dataclass(frozen=True)
class CycleLemmaRow:
    cycle: Word
    sup_value: float
    lam: complex
    point_value: float
    witness_value: float
    ok: bool


@dataclass(frozen=True)
class RayLemmaRow:
    description: str
    crossed_value: float
    ray_value: float
    ok: bool


@dataclass(frozen=True)
class NormLemmaReport:
    cycle_rows: tuple
    ray_rows: tuple
    K: int
    tol: float

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.cycle_rows) and all(r.ok for r in self.ray_rows)


def _lambda_witness(F: SemicrossedPoly, word: Word, lam: complex, K: int) -> np.ndarray:
    """Unit vector transporting the best periodic-orbit vector into the
    point picture: coordinate c gets the c-th power of the conjugate
    spectral parameter times the cyclically matching component."""
    M = build_Pi_y_lambda(F, word, lam)
    _, _, Vh = np.linalg.svd(M)
    xi = Vh[0].conj()
    p = len(word)
    blocks = K // p
    eta = np.zeros(K, dtype=complex)
    c = np.arange(blocks * p)
    eta[: blocks * p] = lam ** (-c) * xi[c % p] / np.sqrt(blocks)
    return eta


def verify_norm_lemmas(
    F: SemicrossedPoly,
    K: int = 256,
    tol: float = 5e-2,
    max_period: int = 3,
    lambda_grid: int = 128,
    refine_steps: int = 60,
) -> NormLemmaReport:
    """Two finite-size consistency checks behind the norm computation.

    Cycles: the spectral-circle supremum on each periodic orbit is attained
    (up to boundary effects) inside the one-sided point picture of that
    orbit; an explicit transported witness vector shows the truncated point
    picture already reaches the supremum, so ``sup <= point + tol``.

    Rays: on the two-sided picture of an embedded one-sided polynomial, the
    certified block *is* the one-sided picture of the leftmost ray, so its
    norm must match the best ray value.
    """
    g = F.graph
    cycle_rows = []
    cycles = enumerate_cycles(g, max(max_period, girth(g)))
    sups = sup_lambda_norms(F, cycles, grid=lambda_grid, refine_steps=refine_steps)
    for cycle, ln in zip(cycles, sups):
        y = make_lasso(g, (), cycle.word)
        pi = build_pi_x(F, y, K)
        point_value = operator_norm(pi)
        eta = _lambda_witness(F, cycle.word, ln.lam, K)
        witness_value = float(np.linalg.norm(pi @ eta))
        cycle_rows.append(
            CycleLemmaRow(
                cycle=cycle.word,
                sup_value=ln.value,
                lam=ln.lam,
                point_value=point_value,
                witness_value=witness_value,
                ok=ln.value <= point_value + tol,
            )
        )

    Ft = embed_poly(F)
    ray_rows = []
    ray_K = max(8, K // 8)
    samples = list(seam_points(g, cap=2))
    tour = tour_point(g)
    if tour is not None:
        samples.append(tour)
    for idx, xt in enumerate(samples):
        crossed_value = norm_Pi_x(Ft, xt, ray_K)
        # The window of the two-sided matrix certified by complete columns is
        # exactly the one-sided matrix of the leftmost ray through the sample,
        # so these two norms agree to rounding, not merely to tolerance.
        ray_value = norm_pi_x(F, ray_point(xt, 1 - ray_K), 2 * ray_K + 1)
        ray_rows.append(
            RayLemmaRow(
                description=f"sample {idx}: left {xt.left} center {xt.center} right {xt.right}",
                crossed_value=crossed_value,
                ray_value=ray_value,
                ok=abs(crossed_value - ray_value) <= tol,
            )
        )
    return NormLemmaReport(tuple(cycle_rows), tuple(ray_rows), K, tol)


# ---------------------------------------------------------------------------
# verification: invariant-subspace chain of truncations


@dataclass(frozen=True)
class NestReport:
    kind: str  # "base" | "extension"
    K: int
    start: int
    window: int
    indicators_exact: bool
    tails_invariant: bool


def _base_nest(x: BasePoint, K: int, w_cap: int) -> NestReport:
    g = x.graph
    if isinstance(x, LassoPoint) and x.preperiod + x.period <= K - 1:
        raise SeparationFailure(
            f"orbit positions repeat with period {x.period} after {x.preperiod} steps; "
            f"no window separates {K} positions"
        )
    # one read as far as the widest window, or the stream's horizon
    reach = K - 1 + w_cap
    if isinstance(x, ItineraryStream):
        reach = min(reach, x.horizon)
    sym = itinerary(x, max(reach, 0))
    found = None
    for w in range(1, w_cap + 1):
        if not 0 <= K - 1 + w <= len(sym):
            sym = itinerary(x, K - 1 + w)  # past the horizon: raises as a read there does
        words = [sym[i : i + w] for i in range(K)]
        if len(set(words)) == K:
            found = (w, words)
            break
    if found is None:
        raise SeparationFailure(
            f"no separating window up to width {w_cap} for {K} positions; "
            f"the point looks eventually periodic"
        )
    w, words = found
    indicator = lambda table: from_function(CylinderFunction(g, w, table))
    checks = _nest_checks(build_pi_x, x, K, words, indicator, u_power(g, 0) + u_power(g, 1))
    return NestReport("base", K, 0, w, *checks)


def _nest_checks(build, x, K: int, words: list, indicator, sample) -> tuple:
    """(indicators_exact, tails_invariant) for a window that reads
    ``words[i]`` at truncation position i: the picture ``build(., x, K)`` of
    each word's indicator (``indicator(table)``) must be that position's
    diagonal matrix unit, and the picture of ``sample`` = 1 + U must be
    lower triangular, so that every coordinate tail is invariant."""
    g, size = x.graph, len(words)
    indicators_exact = True
    for i, target in enumerate(words):
        E = np.zeros((size, size))
        E[i, i] = 1.0
        if not np.array_equal(build(indicator(IndicatorTable(g, target)), x, K), E):
            indicators_exact = False
    tails_invariant = bool(np.all(np.triu(build(sample, x, K), 1) == 0))
    return indicators_exact, tails_invariant


def _first_distinct_run(words: list, size: int) -> Optional[int]:
    """Least a with words[a : a + size] pairwise distinct, or None: one pass
    keeping the left end of the longest duplicate-free run ending here."""
    last: dict = {}
    lo = 0
    for j, word in enumerate(words):
        p = last.get(word)
        if p is not None and p >= lo:
            lo = p + 1
        last[word] = j
        if j - lo + 1 == size:
            return lo
    return None


def _extension_nest(x: BiLassoPoint, K: int, w_cap: int) -> NestReport:
    g = x.graph
    if classify_extended_point(x).periodic:
        raise SeparationFailure(
            "the bi-infinite point is periodic; its coordinate windows repeat "
            "and can never separate the truncation positions"
        )
    size = 2 * K + 1
    # One read covers every window the search may try: start s0 runs over
    # -(K+w)..K and reads the width-w windows at s0-K..s0+K.
    sym = x.window(-2 * K - w_cap, 2 * K + w_cap)
    found = None
    for w in range(1, w_cap + 1):
        if g.count_words(w) < size:
            continue  # too few words of this width to tell the positions apart
        # window j starts at index j - 2K - w, so start s0 reads the run of
        # 2K+1 windows beginning at j = s0 + K + w
        off = w_cap - w
        windows = [sym[off + j : off + j + w] for j in range(4 * K + w + 1)]
        a = _first_distinct_run(windows, size)
        if a is not None:
            found = (w, a - K - w, windows[a : a + size])
            break
    if found is None:
        raise SeparationFailure(
            f"no separating window up to width {w_cap} for positions -{K}..{K}"
        )
    w, s0, words = found
    indicator = lambda table: crossed_poly(g, {0: TwoSidedCylinder(g, s0, w, table)})
    checks = _nest_checks(build_Pi_x, x, K, words, indicator, embed_poly(u_power(g, 0) + u_power(g, 1)))
    return NestReport("extension", K, s0, w, *checks)


def verify_nest_truncation(x, K: int, w_cap: int = 64) -> NestReport:
    """Exhibit the invariant-subspace chain of a truncated point picture.

    Finds a coordinate window that reads a different word at every
    truncation position.  The indicator function of each word then acts as
    that position's diagonal matrix unit — so the truncated algebra contains
    every diagonal, and its invariant subspaces are exactly the coordinate
    tails, one per position.  Periodic points admit no such window:
    ``SeparationFailure``.

    The search reads the point once, as far as its widest window reaches
    (a stream only up to its horizon: a window past it raises
    ``GeneratorExhausted``), and slices every candidate window from that
    read.  On the extension, a start's 2K+1 windows are one contiguous run
    of the width's windows, tested in one pass over them, and a width with
    fewer than 2K+1 admissible words is skipped.

    Each indicator is an ``IndicatorTable``: it is read only at the windows
    the orbit visits (K of them, or 2K+1 on the extension) and never listed
    over all admissible words of the window's width, so the check's cost
    does not grow with the number of those words.
    """
    if isinstance(x, BiLassoPoint):
        return _extension_nest(x, K, w_cap)
    if isinstance(x, (LassoPoint, ItineraryStream)):
        return _base_nest(x, K, w_cap)
    raise TypeError(f"expected a point of the base space or its extension, got {x!r}")
