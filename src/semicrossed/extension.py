"""Two-sided natural extension of a one-sided subshift.

A point of the extension is a full backward orbit: a bi-infinite admissible
sequence.  We realize the computable ones as "bi-lasso" points -- a left
period repeating toward -infinity, an explicit center block, and a right
period repeating toward +infinity.  Coordinate ``n`` of the abstract
backward-orbit tuple corresponds to the one-sided ray starting at bi-sequence
index ``2 - n``, so the projection onto the base space reads the ray from
index 1 and one application of the extended map shifts all indices down by
one.

A two-sided cylinder function is a ``dynamics`` cylinder read from a
bi-sequence index: embedding a base function or bringing one back down moves
its ``start`` by one and shares its table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Optional

import numpy as np

from .dynamics import (
    CylinderFunction,
    LassoPoint,
    SftGraph,
    Word,
    _checked_table,
    _continued,
    _Cylinder,
    _least_rotation,
    _periodic_slice,
    _primitive_root,
    _rotated,
    _walk,
    as_word,
    make_lasso,
)
from .errors import WordInadmissible


# ---------------------------------------------------------------------------
# bi-lasso points


@dataclass(frozen=True)
class BiLassoPoint:
    """Bi-infinite admissible sequence ``... left left | center | right right ...``
    with the center block occupying indices ``start .. start+len(center)-1``.

    Stored in a canonical form: both periods are primitive, the center is
    minimal (symbols that merely continue a period are absorbed into it), and
    globally periodic points are aligned to the least rotation of the period
    with ``0 <= start < period``.
    """

    graph: SftGraph
    left: Word
    center: Word
    start: int
    right: Word

    def symbol_at(self, i: int) -> int:
        s, c = self.start, self.center
        if i < s:
            return self.left[(i - s) % len(self.left)]
        if i < s + len(c):
            return c[i - s]
        return self.right[(i - s - len(c)) % len(self.right)]

    def window(self, lo: int, hi: int) -> Word:
        """Symbols at indices lo .. hi-1 (empty when lo >= hi), read in one
        call: slices of the repeated left period, the center and the
        repeated right period, with no per-index ``symbol_at``."""
        if lo >= hi:
            return ()
        s, c = self.start, self.center
        e = s + len(c)
        return (
            _periodic_slice(self.left, lo - s, min(hi, s) - s)
            + c[max(lo - s, 0) : max(min(hi, e) - s, 0)]
            + _periodic_slice(self.right, max(lo, e) - e, hi - e)
        )

    @property
    def center_end(self) -> int:
        return self.start + len(self.center)


def _normalize_bilasso(left: Word, center: Word, start: int, right: Word):
    """Canonical form: each absorption and the seam's push is one count and one rotation.

    The push never runs the whole of ``left * len(right)``: that would make
    it equal to ``right * len(left)``, a word with periods len(left) and
    len(right), so (Fine and Wilf) with their gcd as a period; both periods
    are primitive, so each is that gcd long and left == right, the globally
    periodic case the branch before it takes."""
    left = _primitive_root(left)
    right = _primitive_root(right)
    # absorb center symbols into the right period (from the right end) ...
    k = _continued(center, right)
    center, right = center[: len(center) - k], _rotated(right, -k)
    # ... and into the left period (from the left end, on the reversed words)
    k = _continued(center[::-1], left[::-1])
    center, left, start = center[k:], _rotated(left, k), start + k
    if not center:
        if left == right:
            # globally periodic: canonical alignment at the least rotation
            r = _least_rotation(right)
            least = _rotated(right, r)
            return least, (), (start + r) % len(right), least
        # aperiodic seam: push the junction as far left as it goes (both
        # periods rotate with it, since their phases are anchored to start)
        k = _continued(left * len(right), right)
        if k == len(left) * len(right):
            raise AssertionError("endless junction implies global periodicity")
        left, right, start = _rotated(left, -k), _rotated(right, -k), start - k
    return left, center, start, right


def make_bilasso(g: SftGraph, left, center, start: int, right) -> BiLassoPoint:
    """Validated, canonical bi-lasso point."""
    left, center, right = as_word(left), as_word(center), as_word(right)
    if not left or not right:
        raise ValueError("both periods must be nonempty")
    for w, name in ((left, "left period"), (right, "right period")):
        if not g.word_admissible(w + w):
            raise WordInadmissible(f"{name} {w!r} is not an admissible loop")
    seam = left + center + right  # covers every junction
    if not g.word_admissible(seam):
        raise WordInadmissible(f"junction in {seam!r} is not admissible")
    left, center, start, right = _normalize_bilasso(left, center, start, right)
    return BiLassoPoint(g, left, center, start, right)


def bilasso_from_cycle(g: SftGraph, word) -> BiLassoPoint:
    """The bi-periodic point tracing a cycle, aligned so index 1 reads the
    first cycle symbol."""
    w = as_word(word)
    return make_bilasso(g, w, (), 1, w)


def same_bisequence(x: BiLassoPoint, y: BiLassoPoint) -> bool:
    """Semantic equality by comparing symbols on a window wide enough to
    pin down both eventually periodic tails."""
    if x.graph != y.graph:
        return False
    lp = len(x.left) * len(y.left) // gcd(len(x.left), len(y.left))
    rp = len(x.right) * len(y.right) // gcd(len(x.right), len(y.right))
    lo = min(x.start, y.start) - 2 * lp
    hi = max(x.center_end, y.center_end) + 2 * rp
    return x.window(lo, hi) == y.window(lo, hi)


# ---------------------------------------------------------------------------
# projection, dynamics, lifting


def ray_point(x: BiLassoPoint, i0: int) -> LassoPoint:
    """One-sided ray read from bi-sequence index ``i0`` onward, in lasso
    normal form."""
    end = x.center_end
    if i0 >= end:
        return make_lasso(x.graph, (), _rotated(x.right, i0 - end))
    pre = x.window(i0, end)
    return make_lasso(x.graph, pre, x.right)


def project_p(x: BiLassoPoint) -> LassoPoint:
    """Canonical projection onto the base space: the ray from index 1."""
    return ray_point(x, 1)


def apply_phi_tilde(x: BiLassoPoint, n: int = 1) -> BiLassoPoint:
    """n-th power of the extended shift homeomorphism (n may be negative):
    coordinate i of the result is coordinate i+n of the input."""
    return make_bilasso(x.graph, x.left, x.center, x.start - n, x.right)


def lift_point(x: LassoPoint) -> BiLassoPoint:
    """Canonical lift of a base point into the extension.

    The base sequence occupies indices 1, 2, ...; indices 0, -1, -2, ... are
    filled one at a time with the least admissible predecessor of the current
    leftmost symbol.  The predecessor rule iterates a deterministic map on
    symbols, so it enters a cycle within alphabet-size steps; that cycle
    becomes the left period.  Any other kind of point: TypeError.
    """
    if not isinstance(x, LassoPoint):
        raise TypeError(f"lift_point takes a LassoPoint, not a {type(x).__name__}")
    g = x.graph
    chain = [x.symbol_at(0)]  # chain[k] sits at bi-index 1-k
    seen = {chain[0]: 0}
    while True:
        nxt = min(g.predecessors(chain[-1]))
        if nxt in seen:
            i = seen[nxt]
            if i == 0:
                # the repeat closes on the base symbol itself (bi-index 1,
                # outside the fill region); realign one step into the fill
                chain.append(nxt)
                i = 1
            j = len(chain)
            break
        seen[nxt] = len(chain)
        chain.append(nxt)
    # chain[i] repeats with period j-i from bi-index 1-i leftward
    left = tuple(reversed(chain[i:j]))
    center = tuple(reversed(chain[1:i])) + x.pre  # bi-indices 2-i .. len(pre)
    return make_bilasso(g, left, center, 2 - i, x.per)


def backward_orbit_view(x: BiLassoPoint, depth: int) -> tuple:
    """Backward-orbit coordinates 1..depth: coordinate n is the ray from
    bi-sequence index 2-n."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return tuple(ray_point(x, 2 - n) for n in range(1, depth + 1))


@dataclass(frozen=True)
class ExtendedClassification:
    periodic: bool
    period: Optional[int]
    finite_coordinate_repeats: bool


def classify_extended_point(x: BiLassoPoint) -> ExtendedClassification:
    """Global periodicity of the bi-sequence.  In canonical form the point is
    periodic exactly when the center is empty and the two periods coincide.
    Each backward-orbit coordinate value recurs only finitely often precisely
    in the aperiodic case, which the report records."""
    periodic = not x.center and x.left == x.right
    return ExtendedClassification(
        periodic=periodic,
        period=len(x.right) if periodic else None,
        finite_coordinate_repeats=not periodic,
    )


# ---------------------------------------------------------------------------
# two-sided cylinder functions


@dataclass(frozen=True, eq=False, slots=True)
class TwoSidedCylinder(_Cylinder):
    """Complex function of the coordinates ``start .. start+window-1`` of a
    two-sided point; the table covers all admissible words of that length.
    It shares every operation with ``CylinderFunction`` (``dynamics``) and
    differs from it only in type and origin."""

    graph: SftGraph
    start: int
    window: int
    values: Mapping

    def _like(self, start, window, values):
        return TwoSidedCylinder(self.graph, start, window, values)


def make_two_sided(g: SftGraph, start: int, window: int, values: Mapping) -> TwoSidedCylinder:
    return TwoSidedCylinder(g, start, window, _checked_table(g, window, values))


def embed_function(f: CylinderFunction) -> TwoSidedCylinder:
    """Pull a base cylinder function back through the projection: the same
    table read one index later, since the base's coordinate 0 is index 1 of
    the extension (TypeError on a TwoSidedCylinder)."""
    if not isinstance(f, CylinderFunction):
        raise TypeError(f"embed_function takes a CylinderFunction, not a {type(f).__name__}")
    return TwoSidedCylinder(f.graph, f.start + 1, f.window, f.values)


def shift_window(f, n: int):
    """Composition with the n-th power of the extended shift: the reading
    window translates by n (n may be negative)."""
    return f._shifted(n)


def eval_two_sided(f: TwoSidedCylinder, x: BiLassoPoint) -> complex:
    if x.graph != f.graph:
        raise ValueError("the point lies on another graph than the polynomial")
    word = x.window(f.start, f.start + f.window)
    try:
        return f.values[word]
    except KeyError:  # defensive: bi-lasso points are admissible by construction
        raise WordInadmissible(f"window word {word!r} is not admissible") from None


def to_one_sided(f: TwoSidedCylinder) -> CylinderFunction:
    """Reinterpret a two-sided cylinder whose window sits at indices >= 1 as
    a base cylinder function: the same table read one coordinate earlier
    (TypeError on a CylinderFunction)."""
    if not isinstance(f, TwoSidedCylinder):
        raise TypeError(f"to_one_sided takes a TwoSidedCylinder, not a {type(f).__name__}")
    if f.start < 1:
        raise ValueError("window must start at index >= 1 to descend to the base")
    return CylinderFunction(f.graph, f.window, f.values, f.start - 1)


# ---------------------------------------------------------------------------
# dynamical properties, base vs extension


PROPERTIES = ("transitive", "periodic_dense", "minimal", "recurrent_dense")


def _base_property(g: SftGraph, prop: str) -> bool:
    """One-sided word-closure checks.

    transitive: every cylinder can be continued into every other, i.e. every
    symbol reaches every other by admissible words.
    periodic_dense / recurrent_dense: every admissible word is the prefix of
    a periodic point, i.e. the word's last symbol reaches its first; along a
    word that holds exactly when it holds for each of its edges, so the
    check is that b reaches a for every edge a -> b.
    minimal: the word count never branches (one follower per symbol) and the
    single resulting loop visits every symbol.
    """
    m = g.alphabet_size
    reach = {a: {a, *_walk(g, a)} for a in range(m)}
    if prop == "transitive":
        return all(b in reach[a] for a in range(m) for b in range(m))
    if prop in ("periodic_dense", "recurrent_dense"):
        # recurrent points are exactly the closures of periodic words here,
        # so both predicates reduce to the same word-closure condition
        return all(a in reach[b] for a in range(m) for b in g.followers(a))
    if prop == "minimal":
        if g.count_words(2) != m:
            return False
        return all(b in reach[a] for a in range(m) for b in range(m))
    raise ValueError(f"unknown property {prop!r}")


def _same_component(g: SftGraph) -> np.ndarray:
    """same[a, b]: a and b lie in one strongly connected component, i.e.
    each reaches the other, from the reflexive transitive closure of the
    transition matrix (Warshall)."""
    edges = np.array(g.edges, dtype=bool)
    closure = edges | np.eye(len(edges), dtype=bool)
    for k in range(len(edges)):
        closure |= closure[:, k : k + 1] & closure[k]
    return closure & closure.T


def _extension_property(g: SftGraph, prop: str) -> bool:
    """Two-sided checks via the component structure: a two-sided word closes
    into a bi-periodic point exactly when it stays inside one strongly
    connected component."""
    same = _same_component(g)
    if prop == "transitive":
        return bool(same.all())
    if prop in ("periodic_dense", "recurrent_dense"):
        return bool(same[np.array(g.edges, dtype=bool)].all())
    if prop == "minimal":
        return g.is_permutation() and bool(same.all())
    raise ValueError(f"unknown property {prop!r}")


def property_check(g: SftGraph, prop: str, side: str) -> bool:
    """Dynamical property of the base system or its extension.

    The two sides deliberately use independent code paths (one-sided word
    closure with BFS reachability vs two-sided closure with components
    from a transitive closure); for shifts of finite type the answers must
    agree.

    ``transitive`` is taken in the standard sense: some forward orbit meets
    every nonempty open set, which for these graphs is strong connectivity.
    """
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    if side == "base":
        return _base_property(g, prop)
    if side == "extension":
        return _extension_property(g, prop)
    raise ValueError(f"side must be 'base' or 'extension', got {side!r}")


@dataclass(frozen=True)
class PropertyReport:
    property: str
    base: bool
    extension: bool

    @property
    def agreement(self) -> bool:
        return self.base == self.extension


def transfer_check(g: SftGraph) -> tuple:
    """Verify that each dynamical property holds for the base system exactly
    when it holds for the extension."""
    return tuple(
        PropertyReport(p, property_check(g, p, "base"), property_check(g, p, "extension"))
        for p in PROPERTIES
    )
