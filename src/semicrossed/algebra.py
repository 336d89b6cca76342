"""Polynomial elements of the shift operator algebras.

``SemicrossedPoly`` models finite sums  sum_n  U^n f_n  with n >= 0, where U
is the (non-unitary) isometry implementing the one-sided shift and each f_n
is a cylinder function on the base space.  ``CrossedPoly`` is the two-sided
analogue: powers range over all integers, the shift operator is unitary, and
coefficients are cylinder functions of the extended system.

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
    SftGraph,
    compose_shift,
    constant_cylinder,
    cylinder_arith,
    sup_norm,
    table_values,
)
from .extension import (
    TwoSidedCylinder,
    embed_function,
    shift_window,
    to_one_sided,
    two_sided_add,
    two_sided_mul,
    two_sided_scale,
    two_sided_sup_norm,
)

Scalar = Union[int, float, complex]


def _fn_is_zero(f) -> bool:
    return all(v == 0 for v in table_values(f))


class _PolyOps:
    """Mixin: arithmetic dunders shared by both polynomial flavours."""

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return linear_ops(self, other, op="add")

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return linear_ops(self, other, op="sub")

    def __neg__(self):
        return linear_ops(self, op="scale", scalar=-1)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return multiply(self, other)
        if isinstance(other, (int, float, complex)):
            return linear_ops(self, op="scale", scalar=other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return linear_ops(self, op="scale", scalar=other)
        return NotImplemented


@dataclass(frozen=True)
class SemicrossedPoly(_PolyOps):
    """Finite sum of U^n f_n (n >= 0) over a one-sided shift space."""

    graph: SftGraph
    coeffs: Mapping  # power -> CylinderFunction

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.coeffs))

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def coefficient(self, n: int) -> Optional[CylinderFunction]:
        return self.coeffs.get(n)


@dataclass(frozen=True)
class CrossedPoly(_PolyOps):
    """Finite sum of V^n f_n (n in Z) over the two-sided extension, V the
    unitary implementing the extended shift."""

    graph: SftGraph
    coeffs: Mapping  # power -> TwoSidedCylinder

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.coeffs))

    def coefficient(self, n: int) -> Optional[TwoSidedCylinder]:
        return self.coeffs.get(n)


def semicrossed_poly(g: SftGraph, coeffs: Mapping) -> SemicrossedPoly:
    """Validated polynomial; identically-zero coefficients are dropped."""
    table = {}
    for n, f in coeffs.items():
        n = int(n)
        if n < 0:
            raise ValueError("one-sided shift powers must be >= 0")
        if not isinstance(f, CylinderFunction):
            raise TypeError("coefficients must be one-sided cylinder functions")
        if f.graph != g:
            raise ValueError("coefficient lives on a different graph")
        if not _fn_is_zero(f):
            table[n] = f
    return SemicrossedPoly(g, MappingProxyType(table))


def crossed_poly(g: SftGraph, coeffs: Mapping) -> CrossedPoly:
    table = {}
    for n, f in coeffs.items():
        n = int(n)
        if not isinstance(f, TwoSidedCylinder):
            raise TypeError("coefficients must be two-sided cylinder functions")
        if f.graph != g:
            raise ValueError("coefficient lives on a different graph")
        if not _fn_is_zero(f):
            table[n] = f
    return CrossedPoly(g, MappingProxyType(table))


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


def _kit(poly):
    """Coefficient-level operations for the polynomial's flavour."""
    if isinstance(poly, SemicrossedPoly):
        return dict(
            make=semicrossed_poly,
            add=lambda f, h: cylinder_arith(f, h, op="add"),
            mul=lambda f, h: cylinder_arith(f, h, op="mul"),
            scale=lambda f, c: cylinder_arith(f, op="scale", scalar=c),
            compose=compose_shift,
            norm=sup_norm,
        )
    if isinstance(poly, CrossedPoly):
        return dict(
            make=crossed_poly,
            add=two_sided_add,
            mul=two_sided_mul,
            scale=two_sided_scale,
            compose=shift_window,
            norm=two_sided_sup_norm,
        )
    raise TypeError(f"not a shift polynomial: {poly!r}")


def linear_ops(F, H=None, op: str = "add", scalar: Optional[Scalar] = None):
    """Pointwise linear arithmetic on polynomials: add, sub, or scale."""
    kit = _kit(F)
    if op == "scale":
        if H is not None or scalar is None:
            raise ValueError("scale takes a scalar and no second polynomial")
        return kit["make"](F.graph, {n: kit["scale"](f, scalar) for n, f in F.coeffs.items()})
    if op not in ("add", "sub"):
        raise ValueError(f"unknown op {op!r}")
    if type(H) is not type(F):
        raise TypeError("polynomial flavours do not match")
    if F.graph != H.graph:
        raise ValueError("polynomials live on different graphs")
    table = dict(F.coeffs)
    for n, h in H.coeffs.items():
        h = h if op == "add" else kit["scale"](h, -1)
        table[n] = kit["add"](table[n], h) if n in table else h
    return kit["make"](F.graph, table)


def multiply(F, G):
    """Product with all shift powers pushed to the left."""
    kit = _kit(F)
    if type(G) is not type(F):
        raise TypeError("polynomial flavours do not match")
    if F.graph != G.graph:
        raise ValueError("polynomials live on different graphs")
    table = {}
    for m in F.support:
        f = F.coeffs[m]
        for n in G.support:
            term = kit["mul"](kit["compose"](f, n), G.coeffs[n])
            k = m + n
            table[k] = kit["add"](table[k], term) if k in table else term
    return kit["make"](F.graph, table)


def l1_norm(F) -> float:
    """Sum of coefficient sup-norms: an upper bound for the operator norm in
    every contractive representation of the shift."""
    kit = _kit(F)
    return float(sum(kit["norm"](f) for f in F.coeffs.values()))


def poly_distance(F, H) -> float:
    """l1 distance; the workhorse for near-equality of polynomials whose
    coefficients were assembled along different arithmetic routes."""
    return l1_norm(linear_ops(F, H, op="sub"))


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
    back through the projection onto the base space."""
    return crossed_poly(F.graph, {n: embed_function(f) for n, f in F.coeffs.items()})


def regularize_right_multiply(G: CrossedPoly) -> tuple:
    """Smallest m >= 0 with G V^m inside the embedded one-sided algebra.

    Right-multiplying by the unitary shift power raises every exponent by m
    and translates every reading window m steps right; m is chosen so all
    exponents become >= 0 and all windows start at index >= 1.  Returns
    ``(m, F)`` with F one-sided and embed_poly(F) == G V^m.
    """
    if not G.coeffs:
        return 0, semicrossed_poly(G.graph, {})
    min_power = min(G.support)
    min_start = min(f.start for f in G.coeffs.values())
    m = max(0, -min_power, 1 - min_start)
    table = {n + m: to_one_sided(shift_window(f, m)) for n, f in G.coeffs.items()}
    return m, semicrossed_poly(G.graph, table)
