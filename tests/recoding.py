"""Recodings of a shift of finite type into a conjugate one, for the
conjugacy-invariance tests.

A ``Recoding`` carries a graph g onto a conjugate graph h and maps every
object the library pictures along: words, cylinder functions of both
flavours (full tables and indicators), polynomials of both flavours, lasso
points and bi-lasso points.  Two recodings are built here:

- ``permutation(g, sigma)`` relabels symbol a as sigma[a];
- ``two_block(g)`` is the 2-block presentation X^[2]: its symbols are the
  admissible words of length 2, numbered in ``admissible_words(2)`` order,
  with an edge u -> v when u[1] == v[0].  A point x reads the blocks
  (x_i, x_{i+1}).  A coefficient of window w >= 2 becomes one of window
  w - 1 with the same start, and a window-1 coefficient reads the block's
  first symbol.

Either way a coefficient reads the same value at the same coordinate of
corresponding points, so the pictures are the same matrices (Davidson &
Katsoulis, J. reine angew. Math. 621, 2008: conjugate systems give
isometrically isomorphic semicrossed products; Lind & Marcus, *An
Introduction to Symbolic Dynamics and Coding*, 1995, for X^[2]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from semicrossed.algebra import CrossedPoly, SemicrossedPoly, crossed_poly, semicrossed_poly
from semicrossed.dynamics import CylinderFunction, IndicatorTable, LassoPoint, make_cylinder, make_lasso, validate_sft
from semicrossed.extension import BiLassoPoint, TwoSidedCylinder, make_bilasso


@dataclass(frozen=True)
class Recoding:
    """g -> h.  ``word`` maps a word of g of length L to the word of h read
    at the same coordinates (``shrink`` symbols shorter: 0 for a
    permutation, 1 for the 2-block code; ``loop`` maps a cycle word of g,
    read cyclically, to its cycle word of h); ``back`` maps a word of h to
    the word of g it reads."""

    g: object
    h: object
    word: Callable
    loop: Callable
    back: Callable
    shrink: int

    def window(self, w: int) -> int:
        return max(w - self.shrink, 1)

    def table(self, values, w: int) -> dict:
        """The values of a window-w coefficient of g as a table of h: each
        word of h reads the value of the word of g it stands for."""
        return {u: values[self.back(u)[:w]] for u in self.h.admissible_words(self.window(w))}

    def cylinder(self, f):
        """The coefficient of h reading, at each coordinate, what f reads
        there: an indicator stays an indicator where its word maps to one
        word of h."""
        w, hw = f.window, self.window(f.window)
        if isinstance(f.values, IndicatorTable) and len(self.word(f.values.target)) == hw:
            values = IndicatorTable(self.h, self.word(f.values.target))
        else:
            values = make_cylinder(self.h, hw, self.table(f.values, w)).values
        if isinstance(f, TwoSidedCylinder):
            return TwoSidedCylinder(self.h, f.start, hw, values)
        return CylinderFunction(self.h, hw, values, f.start)

    def poly(self, F):
        coeffs = {n: self.cylinder(f) for n, f in F.coeffs.items()}
        if isinstance(F, CrossedPoly):
            return crossed_poly(self.h, coeffs)
        assert isinstance(F, SemicrossedPoly)
        return semicrossed_poly(self.h, coeffs)

    def point(self, x):
        """The point of h reading, at each coordinate, the block of x there."""
        if isinstance(x, LassoPoint):
            seq = x.pre + x.per[:1]
            return make_lasso(self.h, self.word(seq)[: len(x.pre)], self.loop(x.per))
        assert isinstance(x, BiLassoPoint)
        if not self.shrink:
            return make_bilasso(self.h, self.word(x.left), self.word(x.center), x.start, self.word(x.right))
        # the block at coordinate start - 1 reads the last left symbol and
        # the next one, so the center grows by one block to the left
        left = self.loop(x.left[-1:] + x.left[:-1])
        center = self.word(x.left[-1:] + x.center + x.right[:1])
        return make_bilasso(self.h, left, center, x.start - 1, self.loop(x.right))


def permutation(g, sigma) -> Recoding:
    sigma = tuple(sigma)
    inverse = tuple(sigma.index(a) for a in range(len(sigma)))
    m = g.alphabet_size
    edges = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            edges[sigma[a]][sigma[b]] = int(g.is_edge(a, b))
    h = validate_sft(m, edges)
    word = lambda u: tuple(sigma[a] for a in u)
    back = lambda v: tuple(inverse[b] for b in v)
    return Recoding(g, h, word, word, back, 0)


def two_block(g) -> Recoding:
    blocks = g.admissible_words(2)
    index = {u: i for i, u in enumerate(blocks)}
    n = len(blocks)
    h = validate_sft(n, [[int(u[1] == v[0]) for v in blocks] for u in blocks])
    word = lambda u: tuple(index[u[i : i + 2]] for i in range(len(u) - 1))
    loop = lambda u: word(u + u[:1])
    back = lambda v: tuple(blocks[b][0] for b in v) + (blocks[v[-1]][1],) if v else ()
    return Recoding(g, h, word, loop, back, 1)
