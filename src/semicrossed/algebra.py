"""Polynomial elements of the shift operator algebras.

``SemicrossedPoly`` models finite sums  sum_n  U^n f_n  with n >= 0, where U
is the (non-unitary) isometry implementing the one-sided shift and each f_n
is a cylinder function on the base space.  ``CrossedPoly`` is the two-sided
analogue: powers range over all integers, the shift operator is unitary, and
coefficients are cylinder functions of the extended system.  Both flavours
share one arithmetic on their coefficients (``dynamics``); composing with a
shift power and embedding into the two-sided algebra only move each
coefficient's ``start``.

Multiplication is determined by the commutation rule  f U = U (f o shift):
pushing all shift powers to the left gives

    (F G)_k  =  sum over m + n = k of  (f_m o shift^n) * g_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Union

from .dynamics import (
    CylinderFunction,
    ArrayTable,
    SftGraph,
    _product,
    compose_shift,
    constant_cylinder,
    cylinder_add,
    cylinder_scale,
    sup_norm,
    table_values,
)
from .extension import (
    TwoSidedCylinder,
    embed_function,
    shift_window,
    to_one_sided,
)

Scalar = Union[int, float, complex]


class _PolyOps:
    """Mixin: what both polynomial flavours share.  Coefficients go through
    the shared cylinder arithmetic; ``_like`` rebuilds a validated
    polynomial of the same flavour."""

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.coeffs))

    def _combined(self, other, sign: int):
        if self.graph != other.graph:
            raise ValueError("polynomials live on different graphs")
        table = dict(self.coeffs)
        for n, h in other.coeffs.items():
            h = h if sign > 0 else cylinder_scale(h, -1)
            table[n] = cylinder_add(table[n], h) if n in table else h
        return self._like(table)

    def _scaled(self, c):
        return self._like({n: cylinder_scale(f, c) for n, f in self.coeffs.items()})

    def __add__(self, other):
        return self._combined(other, 1) if isinstance(other, type(self)) else NotImplemented

    def __sub__(self, other):
        return self._combined(other, -1) if isinstance(other, type(self)) else NotImplemented

    def __neg__(self):
        return self._scaled(-1)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return multiply(self, other)
        if isinstance(other, (int, float, complex)):
            return self._scaled(other)
        return NotImplemented

    __rmul__ = __mul__  # only ever reached with a scalar on the left


@dataclass(frozen=True)
class SemicrossedPoly(_PolyOps):
    """Finite sum of U^n f_n (n >= 0) over a one-sided shift space."""

    graph: SftGraph
    coeffs: Mapping  # power -> CylinderFunction

    def _like(self, coeffs):
        return semicrossed_poly(self.graph, coeffs)


@dataclass(frozen=True)
class CrossedPoly(_PolyOps):
    """Finite sum of V^n f_n (n in Z) over the two-sided extension, V the
    unitary implementing the extended shift."""

    graph: SftGraph
    coeffs: Mapping  # power -> TwoSidedCylinder

    def _like(self, coeffs):
        return crossed_poly(self.graph, coeffs)


def _checked_coeffs(g: SftGraph, coeffs: Mapping, kind, name: str, nonnegative: bool):
    """Validated coefficient table; identically-zero coefficients are dropped."""
    table = {}
    for n, f in coeffs.items():
        n = int(n)
        if nonnegative and n < 0:
            raise ValueError("one-sided shift powers must be >= 0")
        if not isinstance(f, kind):
            raise TypeError(f"coefficients must be {name} cylinder functions")
        if f.graph != g:
            raise ValueError("coefficient lives on a different graph")
        t = f.values  # a value is nonzero when it is true
        if t.array.any() if type(t) is ArrayTable else any(table_values(f)):
            table[n] = f
    return MappingProxyType(table)


def semicrossed_poly(g: SftGraph, coeffs: Mapping) -> SemicrossedPoly:
    """Validated polynomial; identically-zero coefficients are dropped."""
    return SemicrossedPoly(g, _checked_coeffs(g, coeffs, CylinderFunction, "one-sided", True))


def crossed_poly(g: SftGraph, coeffs: Mapping) -> CrossedPoly:
    return CrossedPoly(g, _checked_coeffs(g, coeffs, TwoSidedCylinder, "two-sided", False))


def from_function(f: CylinderFunction) -> SemicrossedPoly:
    return semicrossed_poly(f.graph, {0: f})


def u_power(g: SftGraph, n: int, scale: Scalar = 1) -> SemicrossedPoly:
    """scale * U^n as a polynomial."""
    return semicrossed_poly(g, {n: constant_cylinder(g, scale)})


def crossed_u_power(g: SftGraph, n: int, scale: Scalar = 1) -> CrossedPoly:
    """scale * V^n (n may be negative: V is unitary upstairs)."""
    return crossed_poly(g, {n: embed_function(constant_cylinder(g, scale))})


# ---------------------------------------------------------------------------
# arithmetic


def linear_ops(F, H=None, op: str = "add", scalar: Optional[Scalar] = None):
    """``F + H``, ``F - H`` or ``scalar * F``, chosen by an op string; kept
    for callers written against that spelling."""
    if op == "add":
        return F + H
    if op == "sub":
        return F - H
    if op == "scale":
        return F * scalar
    raise ValueError(f"unknown op {op!r}")


def multiply(F, G):
    """Product with all shift powers pushed to the left: the term of
    U^m f_m times U^n g_n is U^(m+n) (f_m o shift^n) g_n."""
    if type(G) is not type(F) or not isinstance(F, _PolyOps):
        raise TypeError("polynomial flavours do not match")
    if F.graph != G.graph:
        raise ValueError("polynomials live on different graphs")
    table = {}
    for m in F.support:
        f = F.coeffs[m]
        for n in G.support:
            term = _product(f, G.coeffs[n], n)
            k = m + n
            table[k] = cylinder_add(table[k], term) if k in table else term
    return F._like(table)


def l1_norm(F) -> float:
    """Sum of coefficient sup-norms: an upper bound for the operator norm in
    every contractive representation of the shift."""
    return float(sum(sup_norm(f) for f in F.coeffs.values()))


def poly_distance(F, H) -> float:
    """l1 distance; the workhorse for near-equality of polynomials whose
    coefficients were assembled along different arithmetic routes."""
    return l1_norm(F - H)


# ---------------------------------------------------------------------------
# the shift endomorphism and the two-sided embedding


def alpha_endomorphism(F: SemicrossedPoly, n: int = 1) -> SemicrossedPoly:
    """Coefficient-wise composition with the n-th shift power: the algebra
    endomorphism implementing covariance (exact, including in floats)."""
    if n < 0:
        raise ValueError("the one-sided endomorphism only composes forward")
    return semicrossed_poly(F.graph, {k: compose_shift(f, n) for k, f in F.coeffs.items()})


def alpha_tilde(F: CrossedPoly, n: int = 1) -> CrossedPoly:
    """Two-sided analogue; an automorphism, so n may be negative."""
    return crossed_poly(F.graph, {k: shift_window(f, n) for k, f in F.coeffs.items()})


def embed_poly(F: SemicrossedPoly) -> CrossedPoly:
    """The canonical embedding into the two-sided algebra: coefficients pull
    back through the projection onto the base space (TypeError on a CrossedPoly)."""
    if not isinstance(F, SemicrossedPoly):
        raise TypeError(f"embed_poly takes a SemicrossedPoly, not a {type(F).__name__}")
    return crossed_poly(F.graph, {n: embed_function(f) for n, f in F.coeffs.items()})


def regularize_right_multiply(G: CrossedPoly) -> tuple:
    """Smallest m >= 0 with G V^m inside the embedded one-sided algebra.

    Right-multiplying by the unitary shift power raises every exponent by m
    and translates every reading window m steps right; m is chosen so all
    exponents become >= 0 and all windows start at index >= 1.  Returns
    ``(m, F)`` with F one-sided and embed_poly(F) == G V^m (TypeError on a
    SemicrossedPoly).
    """
    if not isinstance(G, CrossedPoly):
        raise TypeError(f"regularize_right_multiply takes a CrossedPoly, not a {type(G).__name__}")
    min_power = min(G.support, default=0)
    min_start = min((f.start for f in G.coeffs.values()), default=1)
    m = max(0, -min_power, 1 - min_start)
    table = {n + m: to_one_sided(shift_window(f, m)) for n, f in G.coeffs.items()}
    return m, semicrossed_poly(G.graph, table)
