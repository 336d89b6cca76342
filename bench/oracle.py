"""Correctness oracle, independent of the library's numerics.

It builds dense pictures of polynomials straight from coefficient tables
and takes full numpy SVDs, and it never calls the library's norm routines
(in particular not ``constant_A``).  It runs outside the timed phase.

A *term* is ``(power, start, window, {word: value})``: in the picture the
term puts ``values[symbols start+i .. start+i+window-1]`` at entry
``(i + power, i)``.
"""

from __future__ import annotations

import math

import numpy as np

import gen

# Exhaustive windows: the longest length up to MAX_WINDOW_LEN whose
# admissible words number at most WORD_CAP.
WORD_CAP = 2048
MAX_WINDOW_LEN = 16
REL_TOL = 1e-9
# test_06: one- and two-sided estimates of an embedded element agree this well
AGREEMENT_TOL = 2e-2


def spec_terms(spec: dict) -> list:
    return [(n, start, w, values) for n, (start, w, values) in sorted(spec.items())]


def poly_terms(F) -> list:
    """Terms of a library polynomial, read through its public fields."""
    return [
        (n, getattr(f, "start", 0), f.window, dict(f.values))
        for n, f in sorted(F.coeffs.items())
    ]


def embedded_terms(terms: list) -> list:
    """Two-sided terms of an embedded one-sided polynomial: windows read
    coordinates 1 .. window."""
    return [(n, start + 1, w, v) for n, start, w, v in terms]


def l1(terms: list) -> float:
    return float(sum(max(abs(v) for v in vals.values()) for _, _, _, vals in terms))


def picture(terms: list, read, cols, rows) -> np.ndarray:
    """Dense picture on the given column and row index ranges; ``read(lo,
    hi)`` returns the point's symbols at indices lo .. hi-1."""
    cols, rows = list(cols), list(rows)
    at = {r: k for k, r in enumerate(rows)}
    M = np.zeros((len(rows), len(cols)), dtype=complex)
    for j, i in enumerate(cols):
        for n, start, w, vals in terms:
            k = at.get(i + n)
            if k is not None:
                M[k, j] += vals[read(start + i, start + i + w)]
    return M


def tuple_reader(sym: tuple, origin: int = 0):
    """Reader over a finite symbol segment whose first entry sits at index
    ``origin``."""
    return lambda lo, hi: sym[lo - origin : hi - origin]


def sigma_max(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def close(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    ref = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) <= REL_TOL * ref


# ---------------------------------------------------------------------------
# exhaustive window norms


def window_length(terms: list, edges: tuple) -> int:
    wmax = max(w for _, _, w, _ in terms)
    length = wmax
    while length < MAX_WINDOW_LEN and gen.count_words(edges, length + 1) <= WORD_CAP:
        length += 1
    return length


def window_norms(terms: list, edges: tuple, length: int) -> tuple:
    """Largest block norm over every admissible word of the given length.

    A word u of length L fixes the first L - wmax + 1 columns of the
    one-sided picture at every point whose itinerary starts with u, and
    those columns carry all their entries.  So each block is a compression
    of a point picture and its norm is a certified lower bound for the
    element's norm.  Returns (value, best word, words checked).
    """
    m = len(edges)
    wmax = max(w for _, _, w, _ in terms)
    degree = max(n for n, _, _, _ in terms)
    words = np.array(gen.admissible_words(edges, length), dtype=np.int64)
    cols = length - wmax + 1
    mats = np.zeros((len(words), cols + degree, cols), dtype=complex)
    idx = np.arange(cols)
    for n, _, w, vals in terms:
        lut = np.zeros(m**w, dtype=complex)
        for word, v in vals.items():
            lut[sum(s * m ** (w - 1 - t) for t, s in enumerate(word))] = v
        codes = np.zeros((len(words), cols), dtype=np.int64)
        for t in range(w):
            codes = codes * m + words[:, t : t + cols]
        mats[:, idx + n, idx] += lut[codes]
    svals = np.linalg.svd(mats, compute_uv=False)[:, 0]
    j = int(np.argmax(svals))
    return float(svals[j]), tuple(int(s) for s in words[j]), len(words)


def certified_lower_bound(terms: list, edges: tuple) -> float:
    return window_norms(terms, edges, window_length(terms, edges))[0]


def block_norm(terms: list, word: tuple) -> float:
    """Norm of the column-complete block a single word fixes."""
    wmax = max(w for _, _, w, _ in terms)
    degree = max(n for n, _, _, _ in terms)
    cols = len(word) - wmax + 1
    return sigma_max(picture(terms, tuple_reader(word), range(cols), range(cols + degree)))


def one_plus_u_anchor(K: int) -> float:
    """test_03: the column-complete K-truncation of 1 + U has norm
    2 cos(pi / (2K))."""
    return 2.0 * math.cos(math.pi / (2 * K))


def closed_form(spec: dict):
    """Known norm of U (1) and of 1 + U (2), recognised from the tables."""
    constant_one = {
        n for n, (_, w, vals) in spec.items() if w == 1 and all(v == 1 for v in vals.values())
    }
    if len(constant_one) != len(spec):
        return None
    if set(spec) == {1}:
        return 1.0
    if set(spec) == {0, 1}:
        return 2.0
    return None


def admissible(edges: tuple, word: tuple) -> bool:
    m = len(edges)
    return all(0 <= s < m for s in word) and all(edges[a][b] for a, b in zip(word, word[1:]))
