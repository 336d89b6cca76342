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
(``_reader``) and its level-K coordinates, from one truncation rule
(``_coordinates``).  ``_picture`` fills the truncation entry by entry, one
lookup per coefficient, for ``build_pi_x``/``build_Pi_x``: fast on the small
pictures of ``verify``, and the tests' reference.  ``_point_stack`` keeps
the complete columns at a list of points in band form (``_BandStack``, one
block per point), reading each coefficient only at the windows the orbit
visits, as the word search does; ``restricted_*_block`` are its dense form
at one point and ``norm_*`` its ``sigma_max``.  ``_BandStack.sigma_max`` is
the one rule for the largest singular value of a stack of blocks: exact for
weighted permutations, a dense SVD in batches of bounded size below
``BAND_CROSSOVER`` columns, and Lanczos on MᴴM through the bands from there
on, in time and memory O(width x bands) per step.  Each returns at most the
true largest singular value up to rounding, so a printed norm stays a
certified lower bound.  The word search (``constant_A``) scores its
candidates by the same rule in either mode, so its exhaustive mode is
exhaustive at every word count.  One flavour-free doubling loop
(``_estimate``) serves both norm estimates: at each level it takes the
largest bound of its sources, the cycles, words and points, and stops as
soon as one reaches the upper bound Σₙ‖fₙ‖∞ (``l1_norm``).

A periodic orbit of period p carries the p-by-p pictures Pi_{y,lambda}, one
per lambda on the unit circle.  Conjugated by diag(lambda^-i) they are
Laurent polynomials in z = lambda^p (``_period_coefficients``, the layout of
every cycle picture), and ``constant_B`` and ``sup_lambda_norms`` give each
period's distinct pictures one ``_search_circle`` on the circle in z: coarse
SVDs, a grid by batched SVDs where a Lipschitz or Bernstein bound leaves
room to beat the best, then safeguarded Newton iterations from five starts
per picture on the top eigenvalue of MᴴM; ``constant_B`` runs the later
stages only where such a bound can still reach the best value so far.
Sharing, batching and pruning change the cost and not a bit of the result.

Each orbit kind has one checked entry, as a picture anywhere else bounds
nothing: a cycle must be a nonempty loop of F's graph (``_cycle_words``,
else WordInadmissible), a point must be of F's flavour (``_reader``, else
TypeError) and graph (else ValueError).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .algebra import (
    CrossedPoly,
    SemicrossedPoly,
    semicrossed_poly,
    crossed_poly,
    embed_poly,
    from_function,
    l1_norm,
    u_power,
)
from .dynamics import (
    MAX_LISTED_WORDS,
    Cycle,
    CylinderFunction,
    IndicatorTable,
    ItineraryStream,
    LassoPoint,
    SftGraph,
    Word,
    WordTable,
    _connector,
    _cycle_positions,
    _rank,
    as_word,
    cycle_horizon,
    enumerate_cycles,
    itinerary,
    make_lasso,
    sup_norm,
)
from .errors import NotUnitModulus, Overflow, PolicyError, SeparationFailure, WordInadmissible
from .extension import (
    BiLassoPoint,
    TwoSidedCylinder,
    classify_extended_point,
    lift_point,
    make_bilasso,
    ray_point,
)

BasePoint = Union[LassoPoint, ItineraryStream]


@dataclass(frozen=True)
class TruncationPolicy:
    """Knobs for the doubling-truncation norm loops: the one home of their
    defaults and of their rule.  Every construction (``dataclasses.replace``
    too) checks each field and raises ``PolicyError`` naming the first bad one."""

    k_start: int = 8
    k_max: int = 256
    tol: float = 1e-6
    mode: str = "beam:8"
    lambda_grid: int = 128
    refine_steps: int = 60
    max_period: int = 4
    word_cap: int = 100_000

    def __post_init__(self):
        # k_max first: the CLI lowers k_start to a bad --k-max
        least = {"k_max": 1, "k_start": 1, "lambda_grid": 1, "max_period": 1, "word_cap": 1, "refine_steps": 0}
        for name, low in least.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise PolicyError(name, f"expected an integer, got {value!r}")
            if value < low:
                raise PolicyError(name, "must be positive" if low else "must be >= 0")
        if self.k_start > self.k_max:
            raise PolicyError("k_start", f"exceeds K_max = {self.k_max}")
        if self.word_cap > MAX_LISTED_WORDS:
            raise PolicyError("word_cap", f"exceeds the listing cap {MAX_LISTED_WORDS}")
        tol = self.tol  # a finite number: not a bool, NaN, inf or 10**400
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not abs(tol) <= sys.float_info.max:
            raise PolicyError("tol", f"expected a finite number, got {tol!r}")
        if tol <= 0:
            raise PolicyError("tol", "must be positive")
        object.__setattr__(self, "tol", float(tol))
        _parse_mode(self.mode)


# ---------------------------------------------------------------------------
# operator norm


def operator_norm(M) -> float:
    """Largest singular value of a dense matrix.

    Matrices with at most one nonzero entry per row and per column (shift
    powers, coordinate projections, empty blocks) are handled exactly as the
    largest entry modulus, 0.0 if none; anything else goes to a full SVD.
    ``norm_pi_x``, ``norm_Pi_x`` and ``constant_A`` do not come here: they
    keep their blocks in band form (``_BandStack.sigma_max``).
    """
    M = np.asarray(M, dtype=complex)
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


def _reader(F, x):
    """``read(a, b)``, x's symbols at coordinates a..b-1 in one call, for a
    point of F's graph and flavour (``itinerary`` or ``BiLassoPoint.window``).
    Any other point's picture bounds nothing: a point of the other flavour
    raises TypeError, one of another graph ValueError."""
    two_sided = isinstance(F, CrossedPoly)
    if not isinstance(x, BiLassoPoint if two_sided else (LassoPoint, ItineraryStream)):
        flavour = "a bi-infinite point" if two_sided else "a point of the base space"
        raise TypeError(f"a {type(F).__name__} is pictured at {flavour}, not a {type(x).__name__}")
    if x.graph != F.graph:
        raise ValueError("the point lies on another graph than the polynomial")
    return x.window if two_sided else lambda a, b: itinerary(x, b)[a:]


def _read_span(F, lo: int, hi: int) -> tuple:
    """First and one-past-last coordinate read by columns lo..hi of F."""
    first = lo + min((f.start for f in F.coeffs.values()), default=0)
    return first, hi + _poly_span(F)[1]


def _picture(F, x, lo: int, hi: int) -> np.ndarray:
    """Truncation of F's picture at x onto coordinates lo..hi (matrix
    position i - lo), for either flavour: the coefficient of the n-th power
    fills subdiagonal n, entry (i + n, i) its value at the window starting
    at coordinate start + i.  The point is read once (``_reader``)."""
    size = hi - lo + 1
    M = np.zeros((size, size), dtype=complex)
    first, last = _read_span(F, lo, hi)
    sym = _reader(F, x)(first, last)
    for n, f in sorted(F.coeffs.items()):
        vals, w, s = f.values, f.window, f.start + lo - first
        # an indicator is 1 where the window is its word, as in _window_values
        read = _indicator_word(vals, w).__eq__ if isinstance(vals, IndicatorTable) else vals.__getitem__
        cols = range(max(0, -n), min(size, size - n))  # subdiagonal n: every (size + 1)-th entry of M
        M.reshape(-1)[max(n * size, -n) :: size + 1][: len(cols)] = [read(sym[c + s : c + s + w]) for c in cols]
    return M


def _point_stack(F, xs: Sequence, lo: int, hi: int) -> "_BandStack":
    """The complete columns of ``_picture(F, x, lo, hi)`` at each x of the
    nonempty list ``xs``, i in [lo - min(n, 0), hi - max(n, 0)] over the
    support, one banded block per point: they agree with the untruncated
    operator, so each norm is a certified lower bound, nondecreasing as
    lo..hi widens.  Block row r is coordinate lo + r, down to the last row
    an entry reaches.  Each point is read once (``_reader``)."""
    top = min(min(F.coeffs, default=0), 0)
    first_col, last_col = lo - top, hi - max(max(F.coeffs, default=0), 0)
    if first_col > last_col:
        if isinstance(F, CrossedPoly):
            raise ValueError("truncation too small for the polynomial's power spread")
        raise ValueError("truncation must exceed the polynomial degree")
    first, last = _read_span(F, first_col, last_col)
    sym = np.array([_reader(F, x)(first, last) for x in xs], dtype=np.int64)
    terms = [(n - top, f.values, f.start + first_col - first, f.window) for n, f in sorted(F.coeffs.items())]
    return _read_bands(sym, terms, last_col - first_col + 1)


def _coordinates(F, K: int, flavour: type) -> tuple:
    """(lo, hi) of F's level-K picture in the ``flavour`` its caller declares:
    0..K-1 for a ``SemicrossedPoly`` (K >= 1), -K..K for a ``CrossedPoly`` (K >= 0)."""
    two_sided = flavour is CrossedPoly
    if not isinstance(F, flavour):
        raise TypeError(f"this picture takes a {flavour.__name__}, not a {type(F).__name__}")
    if K < 1 - two_sided:
        raise ValueError(f"truncation size must be >= {1 - two_sided}")
    return (-K, K) if two_sided else (0, K - 1)


def build_pi_x(F: SemicrossedPoly, x: BasePoint, K: int) -> np.ndarray:
    """K-by-K truncation of the one-sided picture at x (``_coordinates``):
    the coefficient of U^n contributes the n-th subdiagonal, read along the
    forward orbit."""
    return _picture(F, x, *_coordinates(F, K, SemicrossedPoly))


def restricted_pi_block(F: SemicrossedPoly, x: BasePoint, K: int) -> np.ndarray:
    """The complete columns of ``build_pi_x(F, x, K)``, the first K - degree
    (``_point_stack``): a certified block, nondecreasing in K."""
    return _point_stack(F, [x], *_coordinates(F, K, SemicrossedPoly)).dense()[0]


def norm_pi_x(F: SemicrossedPoly, x: BasePoint, K: int) -> float:
    """Norm of ``restricted_pi_block(F, x, K)``, computed from its bands
    (``_BandStack.sigma_max``); no K-by-K array is built."""
    return float(_point_stack(F, [x], *_coordinates(F, K, SemicrossedPoly)).sigma_max()[0])


def build_Pi_x(F: CrossedPoly, x: BiLassoPoint, K: int) -> np.ndarray:
    """Two-sided truncation (``_coordinates``), coordinate i at matrix
    position i + K.  On embedded one-sided polynomials, column i here
    matches column i + 1 of the one-sided picture at the projected point."""
    return _picture(F, x, *_coordinates(F, K, CrossedPoly))


def restricted_Pi_block(F: CrossedPoly, x: BiLassoPoint, K: int) -> np.ndarray:
    """The complete columns of ``build_Pi_x(F, x, K)`` (``_point_stack``),
    with all 2K+1 rows; all 2K+1 columns when F is zero, which reads
    nothing.  Certified and nondecreasing in K, like the one-sided block."""
    lo, hi = _coordinates(F, K, CrossedPoly)
    block = _point_stack(F, [x], lo, hi).dense()[0]
    return np.pad(block, ((0, hi - lo + 1 - len(block)), (0, 0)))


def norm_Pi_x(F: CrossedPoly, x: BiLassoPoint, K: int) -> float:
    """Norm of ``restricted_Pi_block(F, x, K)`` from its bands.  The banded
    block stops at the last row an entry reaches: the zero rows below it,
    present when every power is negative, would move the SVD's last bit."""
    return float(_point_stack(F, [x], *_coordinates(F, K, CrossedPoly)).sigma_max()[0])


def _cycle_words(g: SftGraph, cycles) -> list:
    """The words of ``cycles`` (``Cycle``s or words), each a nonempty loop
    of g, else WordInadmissible: any other word is no periodic orbit, so
    its picture bounds nothing."""
    words = [c.word if isinstance(c, Cycle) else as_word(c) for c in cycles]
    for w in words:
        if not w or not g.word_admissible(w + w[:1]):
            raise WordInadmissible(f"{w!r} is not a cycle of the graph")
    return words


def _sorted_powers(F) -> list:
    if not isinstance(F, (SemicrossedPoly, CrossedPoly)):
        raise TypeError(f"not a shift polynomial: {F!r}")
    return sorted(F.coeffs)


@lru_cache(maxsize=1024)
def _cycle_layout(p: int, powers: tuple) -> tuple:
    """(ws, i, [(k, rows) per power]) of ``_period_coefficients``: the
    coefficient of lam**n at position i goes to B[:, k[i], rows[i], i]."""
    i, ws = np.arange(p), sorted({(j + n) // p for n in powers for j in range(p)})
    scatter = [(np.array([ws.index((j + n) // p) for j in range(p)]), (i + n) % p) for n in powers]
    ws = np.array(ws, dtype=np.int64)
    ws.flags.writeable = False  # shared by every stack of this layout
    return ws, i, scatter


def _period_coefficients(F, words: Sequence[Word], powers: Sequence[int]) -> tuple:
    """F's coefficients along cycles of one period p, either flavour, in z =
    lam**p: (B, ws), B[j, k, (i + n) % p, i] the coefficient of lam**n at
    position i of cycle j (coordinate i, bi-sequence index i + 1), ws[k] =
    (i + n) // p, so the picture conjugated by diag(lam**-i) is sum_k
    z**ws[k] B[j, k].  Entry (r, c) of B[j, k] is the power p ws[k] + r - c.
    A ``WordTable`` is read by one take at its cycle windows' cached
    positions (``_cycle_positions``), any other table by ``_window_values``."""
    p, origin = len(words[0]), int(isinstance(F, CrossedPoly))
    ws, i, scatter = _cycle_layout(p, tuple(powers))
    B = np.zeros((len(words), len(ws), p, p), dtype=complex)
    for n, (k, rows) in zip(powers, scatter):
        f = F.coeffs[n]
        if isinstance(f.values, WordTable):
            B[:, k, rows, i] = f.values.array[_cycle_positions(F.graph, tuple(words), (f.start - origin) % p, f.window)]
            continue
        sym = np.array([[w[(f.start - origin + j) % p] for j in range(p + f.window - 1)] for w in words])
        B[:, k, rows, i] = _window_values(f.values, sym, f.window, p)
    return B, ws


def build_Pi_y_lambda(F, cycle, lam: complex) -> np.ndarray:
    """Finite-dimensional picture on a periodic orbit of period p: the shift
    becomes the cyclic coordinate shift weighted by a unit-modulus spectral
    parameter, functions act diagonally along the cycle.  Accepts either
    polynomial flavour."""
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise NotUnitModulus(f"spectral parameter must have unit modulus, got |{lam}| = {abs(lam)}")
    powers = _sorted_powers(F)
    (B,), ws = _period_coefficients(F, _cycle_words(F.graph, [cycle]), powers)
    M, p = np.zeros(B.shape[1:], dtype=complex), B.shape[-1]
    for w, b in zip(ws.tolist(), B.tolist()):
        # the power p w + r - c at (r, c), w ascending; Python scalars: numpy may fuse a multiply-add
        M += [[lam ** (p * w + r - c) * v for c, v in enumerate(row)] for r, row in enumerate(b)]
    return M


@dataclass(frozen=True)
class LambdaNorm:
    value: float
    lam: complex
    cycle: Word
    grid: int


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
_EPS = np.finfo(float).eps
# Newton starts per picture, in grid steps from its best grid point
_STARTS = np.array([0.0, -1 / 3, 1 / 3, -2 / 3, 2 / 3])
_COARSE = 8  # grid angles per SVD taken before Lipschitz bounds choose the others


def _pictures_at(B: np.ndarray, ws: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The pictures at z = exp(i phi), each phase exp(i w phi) at its own
    angle, of a stack B of one period's ``_period_coefficients``: ``phi``
    of shape (1, m) gives m angles for every picture, (cycles, 1) one each."""
    phase = np.exp(1j * phi[..., None] * ws)
    M = np.zeros((len(B), phi.shape[1]) + B.shape[2:], dtype=complex)
    for k in range(len(ws)):
        M += phase[..., k, None, None] * B[:, None, k]
    return M


def _sigma_max_at(M: np.ndarray) -> np.ndarray:
    """Largest singular value of each picture of a stack, whatever else it holds."""
    return np.linalg.svd(M, compute_uv=False)[..., 0]


def _top_eigen_slopes(B: np.ndarray, ws: np.ndarray, phi: np.ndarray) -> tuple:
    """Top eigenvalue l of H = MᴴM, its derivatives l' = vᴴH'v and l'' =
    vᴴH''v + 2 sum_j |v_jᴴH'v|² / (l - l_j) in phi (Lancaster, Numer.
    Math. 6, 1964), and the rounding scale |M| |M'| of l', for the pictures
    M of a stack B of one period, one angle each: one batched ``eigh``."""
    w = ws[:, None, None]
    terms = np.exp(1j * phi[:, None, None, None] * w) * B
    M, M1, M2 = terms.sum(1), (1j * w * terms).sum(1), (-w * w * terms).sum(1)
    ev, V = np.linalg.eigh(M.conj().swapaxes(1, 2) @ M)
    MV, M1V = M @ V, M1 @ V
    Mv, M1v, M2v = MV[:, :, -1], M1V[:, :, -1], (M2 @ V[:, :, -1:])[:, :, 0]
    # g[:, j] = v_jᴴH'v with H' = M1ᴴM + MᴴM1; its last entry is l'
    g = (M1V.conj() * Mv[:, :, None] + MV.conj() * M1v[:, :, None]).sum(1)
    # eigenvalues within rounding of the top share its eigenspace (a repeated
    # top) and mix nothing in: dividing by inf leaves them out of the sum
    gap = ev[:, -1:] - ev[:, :-1]
    mixing = (np.abs(g[:, :-1]) ** 2 / np.where(gap > 8 * _EPS * ev[:, -1:], gap, np.inf)).sum(1)
    d2 = 2.0 * ((M2v.conj() * Mv).sum(1).real + (np.abs(M1v) ** 2).sum(1) + mixing)
    scale = np.sqrt(ev[:, -1].clip(0.0) * (np.abs(M1) ** 2).sum((1, 2)))
    return ev[:, -1], g[:, -1].real, d2, scale


def _coarse(B: np.ndarray, ws: np.ndarray, grid: int) -> np.ndarray:
    """Stage 1 of ``_search_circle``: sigma_max at every ``_COARSE``-th grid angle."""
    phi = 2.0 * np.pi * np.arange(0, grid, _COARSE) / grid
    return _sigma_max_at(_pictures_at(B, ws, phi[None, :]))


@lru_cache(maxsize=None)
def _entry_powers(ws: tuple, p: int) -> tuple:
    """The entries of a (k, p, p) layout grouped by power n = p ws[k] + r - c:
    their flat order, where each power starts, and its slope weight |n| / p."""
    n = (np.array(ws)[:, None, None] * p + np.arange(p)[:, None] - np.arange(p)).ravel()
    order = np.argsort(n, kind="stable")
    starts = np.flatnonzero(np.diff(n[order], prepend=n.min() - 1))
    return order, starts, np.abs(n[order][starts]) / p


def _circle_bounds(B: np.ndarray, ws: np.ndarray, h: float) -> tuple:
    """(L, margin, q) of a stack B of one period p, grid step h: per picture,
    sigma_max's slope bound L = sum_n |n| max |f_n| / p in phi (Weyl: each
    power's coefficients form a weighted permutation) and the rounding
    margin 1e-9 sum_n max |f_n|; q = m² h² / 4, m = max ws - min ws, or
    None where q (_COARSE / 2)² >= 1 (no ``_sup_bound`` from the coarse
    angles).  For unit u, v and U >= sup sigma, |uᴴMv|² is a real trig
    polynomial of degree m in [0, U²], so by Bernstein's inequality on it
    minus U²/2 it bends by at most m² U² / 2 = 2 q U² / h²."""
    order, starts, weights = _entry_powers(tuple(ws.tolist()), B.shape[-1])
    size = np.maximum.reduceat(np.abs(B).reshape(len(B), -1)[:, order], starts, axis=1)  # max |f_n|, per picture
    q = (np.ptp(ws) * h) ** 2 / 4
    return size @ weights, 1e-9 * size.sum(1), q if q * (_COARSE / 2) ** 2 < 1 else None


def _sup_bound(top, slope, q, h: float, t: float):
    """Upper bound on sup sigma from values at angles within t h of every
    angle, ``top`` the largest: top + t h L, or Bernstein's top / sqrt(1 -
    q t²) where less (sigma² at the nearest angle to the peak)."""
    lipschitz = top + t * h * slope
    return lipschitz if q is None else np.minimum(lipschitz, top / np.sqrt(1 - q * t * t))


def _arc_bound(a, b, left, right, slope, q, h: float, U):
    """Upper bound on sigma ``left`` steps past an angle of value a and
    ``right`` before one of value b, U >= sup sigma: the Lipschitz bound
    from the nearer end, or the root of sigma²'s chord plus its largest
    bend q U² left right where less."""
    lipschitz = np.minimum(a + slope * (left * h), b + slope * (right * h))
    chord = (a * a * right + b * b * left) / (left + right)
    return lipschitz if q is None else np.minimum(lipschitz, np.sqrt(chord + q * U * U * left * right))


def _search_circle(B: np.ndarray, ws: np.ndarray, grid: int, refine_steps: int, coarse: np.ndarray, floor=None):
    """(values, angles) of the circle search of every picture in a stack B
    of ``_period_coefficients`` of one period p, in three stages.  (1) The
    grid of ``grid`` angles phi on [0, 2 pi), step h, has a batched SVD at
    every ``_COARSE``-th angle (``coarse``, from ``_coarse``).  (2) Any
    other angle gets an SVD only if its ``_arc_bound`` from the coarse
    angles on either side (past the last, angle 0; sigma's Lipschitz bound
    or Bernstein's on the bend of sigma², ``_circle_bounds``) plus the
    rounding margin reaches the coarse maximum: the grid's best value and
    first best angle stay the full grid's, bit for bit.  (3) Newton
    iterations on the top eigenvalue l of MᴴM run from the best grid point
    and 1/3 and 2/3 of a grid step to either side (so an eigenvalue
    crossing leaves a start on each side), in the bracket of the
    neighbouring grid points, shrunk by the sign of l', bisecting where l''
    >= 0 or the step leaves it.  A start stops at a predicted gain l'^2 /
    2|l''| of at most 4 eps l, l' below rounding (flat pictures), a bracket
    narrower than ``refine_steps`` golden sections, or after
    ``refine_steps`` steps.  Each round is one batched ``eigh`` over the
    starts still moving; the best last angle, scored by an SVD, is kept if
    it beats the grid.  A picture's arithmetic is its own, whatever else
    the stack holds.  Given ``floor``, a value some picture reaches, only
    the largest value counts (``constant_B``): every angle is within 4h of
    a coarse angle and h/2 of a grid angle, so a picture whose
    ``_sup_bound`` from its coarse or grid values, plus the margin, is
    below the best value known skips the later stages, keeping its value;
    a stack with no such picture left returns its coarse values."""
    h, phis = 2.0 * np.pi / grid, 2.0 * np.pi * np.arange(grid) / grid
    norms = np.full((len(B), grid), -np.inf)
    norms[:, ::_COARSE] = coarse
    slope, margin, q = _circle_bounds(B, ws, h)
    upper = _sup_bound(coarse.max(1), slope, q, h, _COARSE / 2)
    live = np.arange(len(B))
    if floor is not None:
        live = np.flatnonzero(upper + margin >= max(floor, coarse.max()))
        if not len(live):
            return coarse.max(1), phis[_COARSE * coarse.argmax(1)]
    k = np.arange(grid)
    c, left, right = k // _COARSE, k % _COARSE, np.minimum(k - k % _COARSE + _COARSE, grid) - k
    kept, s = coarse[live], slope[live, None]
    bound = _arc_bound(kept[:, c], kept[:, (c + 1) % kept.shape[1]], left, right, s, q, h, upper[live, None])
    j, k = np.nonzero((bound + margin[live, None] >= kept.max(1, keepdims=True)) & (left > 0))
    norms[live[j], k] = _sigma_max_at(_pictures_at(B[live[j]], ws, phis[k][:, None])[:, 0])
    k = norms.argmax(axis=1)
    best, best_phi = norms[np.arange(len(B)), k], phis[k]
    if refine_steps == 0 or grid < 2:
        return best, best_phi
    if floor is not None:
        live = live[_sup_bound(best[live], slope[live], q, h, 0.5) + margin[live] >= max(floor, best.max())]
    S, at = len(_STARTS), best_phi[live]
    phi = np.repeat(at, S) + h * np.tile(_STARTS, len(live))
    lo, hi, width = np.repeat(at - h, S), np.repeat(at + h, S), 2.0 * h * _INVPHI**refine_steps
    R = np.repeat(B[live], S, axis=0)
    active = np.ones(len(phi), dtype=bool)
    for _ in range(refine_steps):
        j = np.flatnonzero(active)
        if not len(j):
            break
        top, d1, d2, scale = _top_eigen_slopes(R[j], ws, phi[j])
        lo[j] = np.where(d1 > 0, phi[j], lo[j])
        hi[j] = np.where(d1 < 0, phi[j], hi[j])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = phi[j] - d1 / d2
            gain = np.where(d2 < 0, 0.5 * d1 * d1 / -d2, np.inf)
        stop = (gain <= 4 * _EPS * top) | (np.abs(d1) <= 8 * _EPS * scale) | (hi[j] - lo[j] < width)
        inside = (d2 < 0) & (lo[j] < newton) & (newton < hi[j])
        phi[j] = np.where(stop, phi[j], np.where(inside, newton, 0.5 * (lo[j] + hi[j])))
        active[j] = ~stop
    final = _sigma_max_at(_pictures_at(R, ws, phi[:, None])).reshape(-1, S)
    pick = np.arange(len(final)), final.argmax(axis=1)  # the first of the best starts
    better = final[pick] > best[live]
    best[live[better]], best_phi[live[better]] = final[pick][better], phi.reshape(-1, S)[pick][better]
    return best, best_phi


def _record(found: dict, group: list, keys: list, values: np.ndarray, angles: np.ndarray) -> None:
    """Enter each word of one period's ``group`` in ``found`` as (value, lam)
    of its distinct picture (``keys``): only the report knows p, lam = exp(i phi / p)."""
    lams = [complex(np.exp(1j * phi / len(group[0]))) for phi in angles.tolist()]
    result = dict(zip(dict.fromkeys(keys), zip(values.tolist(), lams)))
    found.update((w, result[k]) for w, k in zip(group, keys))


def _lambda_norms(F, cycles, grid: int, refine_steps: int, prune: bool, target: Optional[float] = None) -> tuple:
    """``sup_lambda_norms``; with ``prune``, ``constant_B``'s search from the
    best coarse value.  Given ``target``, each period's coarse values (a
    monomial's exact ones) are read in turn, and the first period where one
    reaches it ends the search: the result holds the cycles up to it,
    each at its coarse maximum.  Otherwise it holds every cycle."""
    powers = _sorted_powers(F)
    if grid < 1 or refine_steps < 0:
        raise ValueError("grid must be >= 1" if grid < 1 else "refine_steps must be >= 0")
    words = [c.word if isinstance(c, Cycle) else as_word(c) for c in cycles]
    found: dict = {}  # word -> (value, lam)
    searches = []  # per period: distinct words, their picture bytes, distinct pictures, ws, coarse values
    for p in dict.fromkeys(map(len, words)):  # checked one period at a time: a stop checks no later one
        group = _cycle_words(F.graph, dict.fromkeys(w for w in words if len(w) == p))
        B, ws = _period_coefficients(F, group, powers)
        if len(powers) <= 1:  # |z**w b| = |b|: every z gives the largest entry modulus
            found.update((w, (float(np.abs(b).max(initial=0.0)), 1 + 0j)) for w, b in zip(group, B))
            reached = target is not None and max(found[w][0] for w in group) >= target
        else:
            keys = [b.tobytes() for b in B]
            stack = np.stack(list(dict(zip(keys, B)).values()))  # in order of first occurrence
            searches.append((group, keys, stack, ws, _coarse(stack, ws, grid)))
            reached = target is not None and searches[-1][-1].max() >= target
        if reached:
            for group, keys, _, _, coarse in searches:
                k = coarse.argmax(axis=1)
                _record(found, group, keys, coarse[np.arange(len(coarse)), k], 2.0 * np.pi * (_COARSE * k) / grid)
            return tuple(LambdaNorm(*found[w], w, grid) for w in words if w in found)
    floor = max((c.max() for *_, c in searches), default=None) if prune else None
    for group, keys, stack, ws, coarse in searches:
        values, angles = _search_circle(stack, ws, grid, refine_steps, coarse, floor)
        floor = None if floor is None else max(floor, values.max())
        _record(found, group, keys, values, angles)
    return tuple(LambdaNorm(*found[w], w, grid) for w in words)


def sup_lambda_norms(
    F, cycles, grid: int = TruncationPolicy.lambda_grid, refine_steps: int = TruncationPolicy.refine_steps
) -> tuple:
    """``sup_lambda_norm`` of every cycle, in input order.

    Each cycle must be a loop of F's graph (``_cycle_words``); the cycles
    of one period are read at once (``_period_coefficients``).  Cycles with
    identical pictures (same values byte for byte, so the same period)
    share one search, and each period's distinct pictures run every stage
    of ``_search_circle`` as one stack, as every value is reported
    (``verify_norm_lemmas``).  Sharing and batching change the cost and not
    a bit of the result (no batch mixes periods, as padding a picture moves
    the last bit).
    """
    return _lambda_norms(F, cycles, grid, refine_steps, False)


def sup_lambda_norm(
    F, cycle, grid: int = TruncationPolicy.lambda_grid, refine_steps: int = TruncationPolicy.refine_steps
) -> LambdaNorm:
    """Supremum over the spectral circle of the periodic-orbit picture.

    Conjugated by diag(lam**-i), the picture of period p is a Laurent
    polynomial in z = lam**p (``_period_coefficients``): the search runs on
    the circle in z = exp(i phi), from z = 1, and reports lam = exp(i phi /
    p), on the arc [0, 2 pi / p).  The grid maximum is exact though a
    Lipschitz bound spares most angles their SVD; Newton iterations of at
    most ``refine_steps`` steps (negative: ValueError; 0 disables them, and
    so does a grid of one point) from five starts sharpen it.  A monomial
    f U^n has |z**w| = 1: its value is its largest entry modulus, exact, at
    lam = 1, with no search.  This is ``sup_lambda_norms`` on one cycle.
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
# Matrix entries in one batched dense SVD of ``_BandStack.sigma_max`` (16 MiB).
_SVD_CELLS = 1 << 20


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
    sharing the same ascending subdiagonal offsets.  Band-major:
    bands[b, j, c] is candidate j's entry at (c + offset_b, c).

    ``matvec`` and ``rmatvec`` keep one slab per band.  ``matvec`` puts
    band b times V in rows offset_b onward of slab b of a zeroed buffer;
    ``rmatvec`` multiplies the conjugate of band b by the rows of W from
    offset_b on.  The float parts are summed slab by slab (numpy sums a
    lone 1x1 block pairwise), so the results are a per-band loop's bit for
    bit.  The buffers are made on first use and shared by one ``scores``
    call's iterations or one ``_lanczos_top`` run's steps.
    """

    def __init__(self, offsets: Sequence[int], bands: np.ndarray):
        self.offsets = tuple(offsets)
        self.bands = bands
        _, self.count, self.cols = bands.shape
        self.rows = self.cols + max(self.offsets, default=0)

    @cached_property
    def _kernel(self) -> tuple:
        """matvec's slabs and each band with its rows there; rmatvec's
        products and each conjugate band with its product and offset."""
        slabs = np.zeros((len(self.offsets), self.count, self.rows), dtype=complex)
        products = np.empty(self.bands.shape, dtype=complex)
        into = [(band, slab[:, n : n + self.cols]) for band, slab, n in zip(self.bands, slabs, self.offsets)]
        return slabs, into, products, list(zip(np.conj(self.bands), products, self.offsets))

    def matvec(self, V: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        slabs, into, _, _ = self._kernel
        for band, rows in into:
            np.multiply(band, V, rows)
        return np.add.reduce(slabs.view(float), axis=0, out=None if out is None else out.view(float)).view(complex)

    def rmatvec(self, W: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        _, _, products, back = self._kernel
        for conj, product, n in back:
            np.multiply(conj, W[:, n : n + self.cols], product)
        return np.add.reduce(products.view(float), axis=0, out=None if out is None else out.view(float)).view(complex)

    def scores(self, iters: int = 8, V0: Optional[np.ndarray] = None):
        """Power-iteration singular-value estimates for ranking (not final
        values); returns (estimates, iteration vectors) for warm restarts."""
        V = np.ones((self.count, self.cols), dtype=complex) if V0 is None else V0.astype(complex, order="C")
        W = np.empty((self.count, self.rows), dtype=complex)
        floats = V.view(float)
        for i in range(iters + 1):
            # row norms by the arithmetic of np.linalg.norm(axis=1)
            scale = np.sqrt(np.add.reduce((V.conj() * V).real, axis=1, keepdims=True))
            scale[scale == 0.0] = 1.0
            # numpy divides a complex by a real s as (re + im*0, im - re*0) * (1/s):
            # this product differs from V / scale only in the sign of zero parts
            floats *= 1.0 / scale
            if i < iters:
                self.rmatvec(self.matvec(V, out=W), out=V)
        self.matvec(V, out=W)
        return np.sqrt(np.add.reduce((W.conj() * W).real, axis=1)), V

    def dense(self, blocks: Optional[np.ndarray] = None) -> np.ndarray:
        """The blocks indexed by ``blocks`` (all by default) as a dense
        (blocks, rows, cols) array, read band by band."""
        blocks = np.arange(self.count) if blocks is None else blocks
        M = np.zeros((len(blocks), self.rows, self.cols), dtype=complex)
        c = np.arange(self.cols)
        for b, n in enumerate(self.offsets):
            M[:, c + n, c] = self.bands[b, blocks]
        return M

    def sigma_max(self) -> np.ndarray:
        """Largest singular value of every block: the one place that
        chooses how.  A weighted permutation (at most one nonzero entry per
        row and per column) gets its largest entry modulus, exact.  Any
        other block narrower than ``BAND_CROSSOVER`` columns gets a dense
        SVD, in batches of at most ``_SVD_CELLS`` entries however many
        blocks there are; wider ones get Lanczos on MᴴM through the bands
        (``_lanczos_top``), O(cols x bands) time and memory per step.  A
        Ritz value is at most σ_max² up to rounding, so every value is a
        lower bound on σ_max and a certified block's stays certified.
        """
        nonzero = self.bands != 0
        per_row = np.zeros((self.count, self.rows), dtype=np.int64)
        for b, n in enumerate(self.offsets):
            per_row[:, n : n + self.cols] += nonzero[b]
        exact = (nonzero.sum(axis=0).max(axis=1, initial=0) <= 1) & (per_row.max(axis=1, initial=0) <= 1)
        out = np.abs(self.bands).max(axis=(0, 2), initial=0.0)
        rest = np.flatnonzero(~exact)
        if self.cols < BAND_CROSSOVER:
            batch = max(1, _SVD_CELLS // (self.rows * self.cols))
            for i in range(0, len(rest), batch):
                j = rest[i : i + batch]
                out[j] = np.linalg.svd(self.dense(j), compute_uv=False)[:, 0]
        else:
            for j in rest.tolist():
                out[j] = np.sqrt(_lanczos_top(_BandStack(self.offsets, self.bands[:, j : j + 1])))
        return out


def _indicator_word(table: IndicatorTable, w: int) -> Word:
    """The word of an indicator read at windows of width w, which are compared
    with it and not checked against the graph again (``_window_values``).  A
    width other than the word's raises KeyError, as a lookup does."""
    if w != len(table.target):
        raise KeyError(f"windows of width {w} in an indicator of width {len(table.target)}")
    return table.target


def _window_values(values: Mapping, sym: np.ndarray, w: int, cols: int) -> np.ndarray:
    """``values[u]`` at every window u = sym[r, c : c + w], c < cols.  The
    windows are read off checked points or admissible words, so none is
    checked against the graph again.  An ``IndicatorTable`` is compared with
    its word (``_indicator_word``): 1 on a match, 0 elsewhere.  A
    ``WordTable`` is taken at the windows' counted positions (``_rank``);
    read at a width other than its own it raises KeyError, as a lookup
    does.  Any other mapping is looked up one window at a time."""
    windows = sym[:, np.arange(cols)[:, None] + np.arange(w)]
    if isinstance(values, IndicatorTable):
        return (windows == _indicator_word(values, w)).all(axis=2).astype(complex)
    if isinstance(values, WordTable):
        if w != values.window:
            raise KeyError(f"windows of width {w} in a table of width {values.window}")
        return values.array[_rank(values.graph, windows)]
    read = [[values[tuple(u)] for u in row] for row in windows.tolist()]
    return np.array(read, dtype=complex).reshape(windows.shape[:2])


def _read_bands(sym: np.ndarray, terms: list, cols: int) -> _BandStack:
    """One block per row of ``sym`` from (offset, values, first, window)
    terms: the band at ``offset`` reads ``values`` at the window of that
    width starting at column first + c of the row, for c < cols."""
    bands = np.zeros((len(terms), sym.shape[0], cols), dtype=complex)
    for b, (_, values, first, w) in enumerate(terms):
        bands[b] = _window_values(values, sym[:, first:], w, cols)
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


@dataclass(eq=False)
class _Beam:
    """The state of a beam search after selecting at one word length: the
    kept words (best first), their blocks' bands and their warm-start
    vectors.  The polynomial and width it was built for tell whether a
    later search may resume from it."""

    poly: SemicrossedPoly
    width: int
    words: list
    bands: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class WordSearch:
    value: float
    word: Word
    scored: int  # words this call scored
    # the main beam run's final state, for resuming at a longer length
    beam: Optional[_Beam] = field(default=None, compare=False, repr=False)


def _parse_mode(mode) -> tuple:
    """("exhaustive", 0) or ("beam", width) for a search mode string.  The
    width is written in ASCII digits only, with no sign or spaces, and must
    be at least 1; anything else raises PolicyError naming ``mode``."""
    if mode == "exhaustive":
        return "exhaustive", 0
    if isinstance(mode, str) and mode.startswith("beam:"):
        digits = mode[5:]
        if digits.isascii() and digits.isdigit() and int(digits) >= 1:
            return "beam", int(digits)
        raise PolicyError("mode", f"beam width must be a positive integer, got {mode!r}")
    raise PolicyError("mode", f"expected 'exhaustive' or 'beam:<width>', got {mode!r}")


def _top(sigma: np.ndarray, words: list, width: int) -> list:
    """Indices of the ``width`` best candidates, best first, by the key
    (-score, word)."""
    scores = sigma.tolist()
    return sorted(range(len(words)), key=lambda j: (-scores[j], words[j]))[:width]


def _beam_run(F: SemicrossedPoly, starts: Sequence, target_len: int, width: int) -> tuple:
    """Beam runs in lockstep, each extending words symbol by symbol up to
    ``target_len`` and keeping the ``width`` candidates with the best
    ranking scores (``_BandStack.scores``, warm started), from distinct
    seed words of one length, at most ``target_len`` (unchecked: those of
    ``constant_A`` are so by construction), or from an earlier run's final
    ``_Beam``.  Returns the final states, in order, and the words scored.

    The rows of all runs at one length are scored as one stack, and each
    run ranks its own (``_top``): a row's scores do not depend on the
    others, so every run keeps the words it would alone.  Only seed words
    are read through ``_read_bands``; each extension appends one column per
    candidate, one value read per band, and warm starts the iteration
    vectors, the appended entry at 1.  The state at each length does not
    depend on ``target_len``, so resuming from a run that stopped at a
    shorter length reaches the state a fresh run reaches."""
    g = F.graph
    terms = [(f.values, f.start, f.window) for _, f in sorted(F.coeffs.items())]
    states, scored = [s if isinstance(s, _Beam) else None for s in starts], 0
    while True:
        due = [len(starts[i][0]) if s is None else len(s.words[0]) + 1 for i, s in enumerate(states)]
        if min(due) > target_len:
            return states, scored
        group, rounds = [i for i, n in enumerate(due) if n == min(due)], []
        for i in group:
            if states[i] is None:
                words = starts[i]
                bands = _band_stack(F, np.array(words, dtype=np.int64)).bands
                V = np.ones((len(words), bands.shape[2]), dtype=complex)
            else:
                words, rows = [], []
                for j, u in enumerate(states[i].words):
                    for a in g.followers(u[-1]):
                        words.append(u + (a,))
                        rows.append(j)
                cols = states[i].bands.shape[2]
                bands = np.empty((len(terms), len(words), cols + 1), dtype=complex)
                bands[:, :, :cols] = states[i].bands[:, rows]
                for b, (values, first, w) in enumerate(terms):
                    bands[b, :, cols] = [values[u[cols + first : cols + first + w]] for u in words]
                V = np.ones((len(words), cols + 1), dtype=complex)
                V[:, :cols] = states[i].V[rows]
            rounds.append((words, bands, V))
        if len(rounds) > 1:
            bands = np.concatenate([r[1] for r in rounds], axis=1)
            V = np.concatenate([r[2] for r in rounds])
        sigma, V = _BandStack(sorted(F.coeffs), bands).scores(iters=8, V0=V)
        start = 0
        for i, (words, _, _) in zip(group, rounds):
            order = _top(sigma[start : start + len(words)], words, width)
            rows = [start + j for j in order]
            states[i] = _Beam(F, width, [words[j] for j in order], bands[:, rows], V[rows])
            start += len(words)
        scored += len(sigma)


def _best(stack: _BandStack, words: Sequence[Word]) -> tuple:
    """(value, word) of the largest block norm (``_BandStack.sigma_max``),
    block j being ascending ``words[j]``'s: the least word among ties."""
    values = stack.sigma_max()
    j = int(np.argmax(values))
    return float(values[j]), words[j]


def constant_A(
    F: SemicrossedPoly,
    K: int,
    mode: str = "exhaustive",
    cap: int = TruncationPolicy.word_cap,
    previous: Optional[WordSearch] = None,
) -> Optional[WordSearch]:
    """Largest certified block norm over admissible symbol windows of length
    K + reach - 1 (``_poly_span``): the contribution of orbits that are not
    eventually periodic to the norm at truncation level K.

    Returns None when the graph is a permutation (every orbit is periodic,
    so there is nothing for the word search to witness).  The modes only
    choose candidate words, which ``_best`` scores.  Exhaustive mode takes
    every admissible word, at most ``cap`` of them, at any word count;
    beam mode keeps a fixed number of best-ranking prefixes.  Given the
    ``previous`` level's search, a beam search also re-seeds a second run
    with its best word, which keeps the reported values nondecreasing, and
    resumes its main run from where the previous one stopped when that was
    a beam of the same width on the same polynomial, at most this long.
    The result is the fresh search's; ``scored`` counts only the words
    this call scored.  F of the other flavour: TypeError; K < 1: ValueError.
    """
    if not isinstance(F, SemicrossedPoly):
        raise TypeError(f"constant_A takes a SemicrossedPoly, not a {type(F).__name__}")
    if K < 1:  # as for every point picture (``_coordinates``)
        raise ValueError("truncation size must be >= 1")
    g = F.graph
    if g.is_permutation():
        return None
    kind, width = _parse_mode(mode)
    if not F.coeffs:
        return WordSearch(0.0, (), 0)
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
        value, word = _best(_band_stack(F, np.array(words, dtype=np.int64)), words)
        return WordSearch(value, word, len(words))

    held = None if previous is None else previous.beam
    if held is not None and (held.poly is not F or held.width != width or len(held.words[0]) > length):
        held = None
    starts = [g.admissible_words(min(reach, length)) if held is None else held]
    warm = None if previous is None else as_word(previous.word)
    if warm is not None and len(warm) < length and g.word_admissible(warm):
        starts.append([warm])
    runs, scored = _beam_run(F, starts, length, width)
    finals = {}
    for run in runs:
        for j, u in enumerate(run.words):
            finals.setdefault(u, run.bands[:, j])
    words = sorted(finals)
    value, word = _best(_BandStack(sorted(F.coeffs), np.stack([finals[u] for u in words], axis=1)), words)
    return WordSearch(value, word, scored, runs[0])


@dataclass(frozen=True)
class CycleSearch:
    value: float
    cycle: Word
    lam: complex
    periods: int
    cycles: int


def constant_B(
    F,
    max_period: int,
    lambda_grid: int = TruncationPolicy.lambda_grid,
    refine_steps: int = TruncationPolicy.refine_steps,
    *,
    target: Optional[float] = None,
) -> CycleSearch:
    """Largest periodic-orbit norm over cycles up to the requested period
    (``cycle_horizon``) and over the spectral circle: the best of
    ``sup_lambda_norms``, or, given ``target``, the first cycle value that
    reaches it.

    The cycles are read and shared as in ``sup_lambda_norms``, but a picture
    runs the fine grid, then Newton, only while its certified bound (the
    lesser of a Lipschitz bound and Bernstein's second-order one,
    ``_sup_bound``) can still reach the best value so far of all periods
    (``_search_circle``).  A dropped picture is strictly below the winner, so
    value, cycle and lam are the best of ``sup_lambda_norms``, bit for bit,
    the first cycle in enumeration order (by period, then word) winning a
    tie.  A monomial f U^n gets exactly the largest |f| along the cycles.
    Given a target (an upper bound such as Σₙ‖fₙ‖∞, past which no value
    helps), the search ends at the first period where a coarse value, or a
    monomial's entry, reaches it, and the first cycle in enumeration order
    that reaches it wins; a search that never reaches it is the one without
    a target, bit for bit.  ``periods`` and ``cycles`` count what was
    searched: the horizon and its cycles, or those up to the stop.
    """
    horizon = cycle_horizon(F.graph, max_period)
    cycles = enumerate_cycles(F.graph, horizon)
    norms = _lambda_norms(F, cycles, lambda_grid, refine_steps, True, target)
    best = max(norms, key=lambda ln: ln.value)
    if target is not None and best.value >= target:
        best = next(ln for ln in norms if ln.value >= target)
    periods = horizon if len(norms) == len(cycles) else len(norms[-1].cycle)
    return CycleSearch(best.value, best.cycle, best.lam, periods, len(norms))


# ---------------------------------------------------------------------------
# norm estimation with doubling truncations


@dataclass(frozen=True)
class NormEstimate:
    value: float
    history: tuple  # ((K, value), ...)
    converged: bool
    diagnostics: Mapping


_DECREASE_SLACK = 1e-9


def _estimate(F, policy: TruncationPolicy, sources: Sequence) -> NormEstimate:
    """The doubling loop of both norm estimates.  Each source is a pair: a
    map from a level K to a certified lower bound ``(value, entries)``, and
    its entries when it did not run.  At K = K0, 2 K0, ... up to
    ``policy.k_max``, K0 the least truncation with a complete column, the
    sources run in order until one reaches ``upper`` = Σₙ‖fₙ‖∞ (every
    picture's bound, as U is an isometry), and the total is their largest
    value, at most ``upper`` and at least maxₙ‖fₙ‖∞ (the gauge action's
    n-th Fourier projection is contractive in the envelope and maps F to
    Uⁿfₙ).  The loop ends when the bracket closes (the total, floor or
    source, reaches ``upper``) or two consecutive totals agree to within
    ``policy.tol`` (a plateau).  Totals never shrink: float dust is clamped,
    a real decrease raises.  The diagnostics merge the last level's entries
    and ``upper``.  A K0 above K_max raises Overflow."""
    spread = max(max(F.coeffs, default=0), 0) - min(min(F.coeffs, default=0), 0)
    if spread + 1 > policy.k_max:
        raise Overflow(
            f"K_max = {policy.k_max} is below {spread + 1}, the least truncation for the power spread {spread}"
        )
    sups = [sup_norm(f) for f in F.coeffs.values()]  # one pass: l1_norm(F) is float(sum(sups))
    K, upper, floor = max(policy.k_start, spread + 1), float(sum(sups)), max(sups, default=0.0)
    history: list = []
    while True:
        bounds = []
        for source, _ in sources:
            bounds.append(source(K))
            if bounds[-1][0] >= upper:
                break
        total, prev = min(max([floor] + [value for value, _ in bounds]), upper), history[-1][1] if history else None
        if prev is not None and total < prev:
            if prev - total >= _DECREASE_SLACK:
                raise AssertionError(f"certified lower bound decreased from {prev} to {total} at K={K}")
            total = prev
        history.append((K, total))
        converged = total >= upper or (prev is not None and abs(total - prev) <= policy.tol)
        if converged or K >= policy.k_max:
            break
        K = min(2 * K, policy.k_max)
    entries = [e for _, e in bounds] + [idle for _, idle in sources[len(bounds) :]]
    diagnostics = {key: v for e in entries for key, v in e.items()}
    return NormEstimate(total, tuple(history), converged, {**diagnostics, "upper": upper})


def _cycle_source(F, policy: TruncationPolicy, cycle_search: Optional[CycleSearch]) -> tuple:
    """The cycle source, ``constant_B`` stopped at Σₙ‖fₙ‖∞ unless given
    ``cycle_search``: found once, the same bound at every level."""
    B = cycle_search or constant_B(F, policy.max_period, policy.lambda_grid, policy.refine_steps, target=l1_norm(F))
    bound = B.value, {"cycle_value": B.value, "cycle": B.cycle, "lambda": B.lam}
    return (lambda K: bound), bound[1]


def _point_bound(F, points: Sequence, K: int, flavour: type) -> tuple:
    """The point source's bound: the level-K certified blocks at ``points``, one ``_point_stack``."""
    values = _point_stack(F, points, *_coordinates(F, K, flavour)).sigma_max().tolist() if points else []
    return max(values, default=0.0), {"samples": len(points)}


def semicrossed_norm(
    F: SemicrossedPoly,
    policy: Optional[TruncationPolicy] = None,
    points: Sequence[BasePoint] = (),
    *,
    cycle_search: Optional[CycleSearch] = None,
) -> NormEstimate:
    """Norm of a one-sided polynomial (``_estimate``) from three sources, in
    this order: the cycles, found once (a given ``cycle_search`` stands in
    for ``constant_B``), the word search (``constant_A``), resumed level to
    level, and the caller's points at each level's coordinates
    (``_coordinates``).  F of the other flavour: TypeError."""
    if not isinstance(F, SemicrossedPoly):
        raise TypeError(f"semicrossed_norm takes a SemicrossedPoly, not a {type(F).__name__}")
    policy = policy or TruncationPolicy()
    last: Optional[WordSearch] = None
    idle = {"word_value": None, "best_word": None, "mode": policy.mode}

    def words(K: int) -> tuple:  # 0, with the idle entries, on a permutation graph
        nonlocal last
        last = constant_A(F, K, mode=policy.mode, cap=policy.word_cap, previous=last)
        if last is None:
            return 0.0, idle
        return last.value, {**idle, "word_value": last.value, "best_word": last.word}

    samples = (lambda K: _point_bound(F, points, K, SemicrossedPoly)), {"samples": len(points)}
    return _estimate(F, policy, [_cycle_source(F, policy, cycle_search), (words, idle), samples])


def seam_points(g: SftGraph, cap: int = 8) -> tuple:
    """Aperiodic bi-infinite samples stitched from pairs of distinct cycles
    of period up to 2 (or the cycle horizon) joined by a shortest connector."""
    cycles = enumerate_cycles(g, cycle_horizon(g, 2))
    out = []
    seen = set()
    for c1 in cycles:
        for c2 in cycles:
            if len(out) >= cap:
                return tuple(out)
            if c1.word == c2.word:
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


def tour_point(g: SftGraph) -> Optional[BiLassoPoint]:
    """Lift of a one-sided point whose preperiod walks through every
    admissible word of length 2, joined by shortest connectors."""
    pre: list = []
    for u in g.admissible_words(2):
        if pre:
            conn = _connector(g, pre[-1], u[0])
            if conn is None:
                return None
            pre += conn
        pre += u
    cyc = enumerate_cycles(g, cycle_horizon(g))[0]
    conn = _connector(g, pre[-1], cyc.word[0])
    if conn is None:
        return None
    return lift_point(make_lasso(g, (*pre, *conn), cyc.word))


@lru_cache(maxsize=1024)
def _samples(g: SftGraph, cap: int) -> tuple:
    """The crossed side's own sample points: at most ``cap`` cycle seams
    (``seam_points``), then the lifted tour point when there is one."""
    tour = tour_point(g)
    return (*seam_points(g, cap=cap), *([] if tour is None else [tour]))


def crossed_norm(
    F: CrossedPoly,
    policy: Optional[TruncationPolicy] = None,
    points: Sequence[BiLassoPoint] = (),
    *,
    cycle_search: Optional[CycleSearch] = None,
) -> NormEstimate:
    """Norm of a two-sided polynomial (``_estimate``) from two sources: the
    cycles, as in ``semicrossed_norm``, and the caller's bi-infinite points
    with the crossed side's own seams and tour (``_samples(g, 8)``) on
    each level's coordinates.  F of the other flavour: TypeError."""
    if not isinstance(F, CrossedPoly):
        raise TypeError(f"crossed_norm takes a CrossedPoly, not a {type(F).__name__}")
    policy = policy or TruncationPolicy()
    points = [*points, *_samples(F.graph, 8)]
    samples = (lambda K: _point_bound(F, points, K, CrossedPoly)), {"samples": len(points)}
    return _estimate(F, policy, [_cycle_source(F, policy, cycle_search), samples])


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
    max_period: int = 3,
    lambda_grid: int = TruncationPolicy.lambda_grid,
    refine_steps: int = TruncationPolicy.refine_steps,
) -> NormLemmaReport:
    """Two finite-size consistency checks behind the norm computation.

    Cycles: the spectral-circle supremum on each periodic orbit is attained
    (up to boundary effects) inside the one-sided point picture of that
    orbit; an explicit transported witness vector shows the truncated point
    picture already reaches the supremum, so ``sup <= point + 0.05``.

    Rays: on the two-sided picture of an embedded one-sided polynomial, the
    certified block *is* the one-sided picture of the leftmost ray, so its
    norm must match the best ray value.  The rays take a truncation wide
    enough for a complete column; a K without one raises Overflow.
    """
    g, tol = F.graph, 5e-2
    degree = _poly_span(F)[0]
    if K < degree + 1:
        raise Overflow(
            f"lemma truncation K = {K} is below {degree + 1}, the least for the power spread {degree}"
        )
    cycle_rows = []
    cycles = enumerate_cycles(g, cycle_horizon(g, max_period))
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
    ray_K = max(8, K // 8, (degree + 1) // 2)
    for idx, xt in enumerate(_samples(g, 2)):
        crossed_value = norm_Pi_x(Ft, xt, ray_K)
        # The window of the two-sided matrix certified by complete columns is
        # exactly the one-sided matrix of the leftmost ray through the sample,
        # so these two norms agree to rounding, not merely to tolerance.  The
        # ray side takes the complete columns of the entry-by-entry picture.
        ray = build_pi_x(F, ray_point(xt, 1 - ray_K), 2 * ray_K + 1)
        ray_value = operator_norm(ray[:, : len(ray) - degree])
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


def _nest_checks(build, x, K: int, words: list, indicator, sample) -> tuple:
    """(indicators_exact, tails_invariant) for a window that reads
    ``words[i]`` at truncation position i: the picture ``build(., x, K)`` of
    each word's indicator (``indicator(table)``) must be that position's
    diagonal matrix unit, and the picture of ``sample`` = 1 + U must be
    lower triangular, so that every coordinate tail is invariant."""
    eye = np.eye(len(words))
    indicators_exact = all(
        np.array_equal(build(indicator(IndicatorTable(x.graph, u)), x, K), np.diag(eye[i])) for i, u in enumerate(words)
    )
    tails_invariant = bool(np.all(np.triu(build(sample, x, K), 1) == 0))
    return indicators_exact, tails_invariant


def _first_distinct_run(words: list, size: int) -> Optional[int]:
    """Least a with words[a : a + size] pairwise distinct, or None: one pass
    keeping the left end of the longest duplicate-free run ending here."""
    last: dict = {}
    lo = 0
    for j, word in enumerate(words):
        lo = max(lo, last.get(word, -1) + 1)
        last[word] = j
        if j - lo + 1 == size:
            return lo
    return None


def verify_nest_truncation(x, K: int, w_cap: int = 64) -> NestReport:
    """Exhibit the invariant-subspace chain of a truncated point picture.

    Finds a coordinate window that reads a different word at every
    truncation position.  The indicator function of each word then acts as
    that position's diagonal matrix unit — so the truncated algebra contains
    every diagonal, and its invariant subspaces are exactly the coordinate
    tails, one per position.  Periodic points admit no such window:
    ``SeparationFailure``.

    One search serves both flavours.  The point's flavour fixes the
    positions lo..hi (``_coordinates``), the window starts (0, or
    lo - w .. hi at width w), the reader (``_reader``), the periodic guard and
    the pictures.  The point is read once, as far as the widest windows
    reach (a stream only up to its horizon: a window past it raises
    ``GeneratorExhausted``).  At each width, the windows of all starts are
    one run of that read, and one pass over it (``_first_distinct_run``)
    finds the least start whose windows differ pairwise.  A width with
    fewer admissible words than positions is skipped.

    Each indicator is an ``IndicatorTable``, read only at the windows the
    orbit visits, each compared with its word (``_picture``), and never
    listed over all admissible words of its width, so the check's cost does
    not grow with the number of those words.
    """
    if not isinstance(x, (BiLassoPoint, LassoPoint, ItineraryStream)):
        raise TypeError(f"expected a point of the base space or its extension, got {x!r}")
    g = x.graph
    if isinstance(x, BiLassoPoint):
        if classify_extended_point(x).periodic:
            raise SeparationFailure(
                "the bi-infinite point is periodic; its coordinate windows repeat "
                "and can never separate the truncation positions",
                periodic=True,
            )
        kind, build, sample = "extension", build_Pi_x, embed_poly(u_power(g, 0) + u_power(g, 1))
        lo, hi = _coordinates(sample, K, CrossedPoly)
        starts = lambda w: (lo - w, hi)
        indicator = lambda s0, w, table: crossed_poly(g, {0: TwoSidedCylinder(g, s0, w, table)})
        where = f"positions {lo}..{hi}"
    else:
        kind, build, sample = "base", build_pi_x, u_power(g, 0) + u_power(g, 1)
        lo, hi = _coordinates(sample, K, SemicrossedPoly)
        if isinstance(x, LassoPoint) and x.preperiod + x.period < hi - lo + 1:
            raise SeparationFailure(
                f"orbit positions repeat with period {x.period} after {x.preperiod} steps; "
                f"no window separates {K} positions",
                periodic=True,
            )
        starts = lambda w: (0, 0)
        indicator = lambda s0, w, table: from_function(CylinderFunction(g, w, table, s0))
        where = f"{K} positions; the point looks eventually periodic"
    size, read = hi - lo + 1, _reader(sample, x)
    s_first, s_last = starts(w_cap)  # start s reads the windows at coordinates s + lo .. s + hi
    first, end = s_first + lo, s_last + hi + w_cap
    if isinstance(x, ItineraryStream):
        end = min(end, x.horizon)
    sym = read(first, max(first, end))
    enough = False  # word counts never fall as w grows: no symbol is a dead end
    for w in range(1, w_cap + 1):
        s_first, s_last = starts(w)
        if s_last + hi + w > first + len(sym):
            sym = read(first, s_last + hi + w)  # past a stream's horizon: raises as a read there does
        enough = enough or g.count_words(w) >= size
        if not enough:
            continue  # too few words of this width to tell the positions apart
        windows = [sym[c - first : c - first + w] for c in range(s_first + lo, s_last + hi + 1)]
        a = _first_distinct_run(windows, size)
        if a is not None:
            break
    else:
        raise SeparationFailure(f"no separating window up to width {w_cap} for {where}")
    s0 = s_first + a
    checks = _nest_checks(build, x, K, windows[a : a + size], lambda table: indicator(s0, w, table), sample)
    return NestReport(kind, K, s0, w, *checks)
