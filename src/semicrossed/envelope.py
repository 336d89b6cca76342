"""Top-level structural verdicts for a shift system.

The enveloping C*-algebra of the one-sided polynomial algebra is the
two-sided crossed product, so its simplicity is decided by minimality of
the invertible extension, and the dynamical hypothesis behind
semisimplicity is density of recurrent points in the base.  This module
packages those verdicts, a numerical check that the one-sided algebra
sits isometrically inside the two-sided one, and a round-trip exercise of
the right-shift regularization that moves a two-sided polynomial back
into the one-sided subalgebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import (
    CrossedPoly,
    SemicrossedPoly,
    crossed_poly,
    crossed_u_power,
    embed_poly,
    l1_norm,
    multiply,
    poly_distance,
    regularize_right_multiply,
)
from .dynamics import SftGraph
from .extension import make_two_sided, property_check
from .representations import NormEstimate, TruncationPolicy, constant_B, crossed_norm, semicrossed_norm

REGULARIZATION_TOL = 2e-2


@dataclass(frozen=True)
class EmbeddingRow:
    """One element of the isometry sweep: the same polynomial measured in
    the one-sided algebra and, after inclusion, in the two-sided one."""

    label: str
    semicrossed_value: float
    crossed_value: float

    @property
    def gap(self) -> float:
        return self.semicrossed_value - self.crossed_value


@dataclass(frozen=True)
class RegularizationRow:
    """Round trip for one two-sided polynomial: shift it right until it
    lands in the one-sided subalgebra and confirm the norm is unchanged
    (right multiplication by a unitary)."""

    label: str
    shift: int
    landed: bool
    norm_before: float
    norm_after: float

    @property
    def gap(self) -> float:
        return self.norm_after - self.norm_before

    @property
    def ok(self) -> bool:
        return self.landed and abs(self.gap) <= REGULARIZATION_TOL


@dataclass(frozen=True)
class EnvelopeReport:
    system: str
    minimal_extension: bool
    envelope_simple: bool
    recurrent_dense: bool
    semisimple_predicate: bool
    implication_ok: bool
    embedding_sweep: tuple  # (EmbeddingRow, ...)
    regularization_rows: tuple  # (RegularizationRow, ...)

    @property
    def ok(self) -> bool:
        return (
            self.implication_ok
            and self.envelope_simple == self.minimal_extension
            and all(r.ok for r in self.regularization_rows)
        )


def describe_poly(F) -> str:
    """Compact structural label: powers present and how many coordinates
    the coefficients read (largest reach start + window)."""
    width = max((f.start + f.window for f in F.coeffs.values()), default=0)
    powers = ",".join(str(n) for n in F.support)
    return f"powers[{powers}] window<={width}"


def _sample_crossed(g: SftGraph) -> tuple:
    """Three deterministic two-sided polynomials that genuinely live
    outside the one-sided subalgebra (negative powers, windows reaching
    left of the anchor)."""
    def fn(start: int, window: int, weights: Sequence[complex]):
        words = g.admissible_words(window)
        table = {w: weights[i % len(weights)] for i, w in enumerate(words)}
        return make_two_sided(g, start, window, table)

    samples = [
        ("U^-1", crossed_u_power(g, -1)),
        (
            "U^-2 + f0",
            crossed_poly(g, {-2: fn(1, 1, (1.0,)), 0: fn(0, 2, (0.5, -0.25j, 0.75))}),
        ),
        (
            "f U^-1 + g U",
            crossed_poly(g, {-1: fn(-1, 2, (1.0, 0.5j)), 1: fn(1, 1, (-0.5, 0.25))}),
        ),
    ]
    return tuple(samples)


def _lands_one_sided(G: CrossedPoly, m: int, F: SemicrossedPoly) -> bool:
    """Whether F is exactly G V^m: the round trip the regularization claims,
    checked coefficient by coefficient."""
    return poly_distance(embed_poly(F), multiply(G, crossed_u_power(G.graph, m))) == 0


def envelope_report(
    g: SftGraph,
    elements: Sequence[SemicrossedPoly],
    policy: Optional[TruncationPolicy] = None,
    labels: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> EnvelopeReport:
    """Assemble the structural verdicts and numerical cross-checks for one
    shift system.

    ``elements`` drives the isometry sweep: each polynomial is measured
    once in the one-sided algebra and once (after inclusion) in the
    two-sided algebra, at the same truncation policy.
    """
    if not elements:
        raise ValueError("need at least one element for the embedding sweep")
    if labels is not None and len(labels) != len(elements):
        raise ValueError("labels must match elements one to one")
    policy = policy or TruncationPolicy()

    minimal_extension = property_check(g, "minimal", "extension")
    recurrent_dense = property_check(g, "recurrent_dense", "base")
    envelope_simple = minimal_extension
    semisimple = recurrent_dense
    implication_ok = (not envelope_simple) or semisimple

    sweep = []
    for i, F in enumerate(elements):
        label = labels[i] if labels is not None else f"element {i}: {describe_poly(F)}"
        # F and its inclusion read the same values along every cycle and
        # share Σₙ‖fₙ‖∞, so one cycle search, stopped there, serves both.
        B = constant_B(F, policy.max_period, policy.lambda_grid, policy.refine_steps, target=l1_norm(F))
        one: NormEstimate = semicrossed_norm(F, policy, cycle_search=B)
        two: NormEstimate = crossed_norm(embed_poly(F), policy, cycle_search=B)
        sweep.append(EmbeddingRow(label, one.value, two.value))

    reg_rows = []
    for label, G in _sample_crossed(g):
        m, Freg = regularize_right_multiply(G)
        before = crossed_norm(G, policy).value
        after = crossed_norm(embed_poly(Freg), policy).value
        reg_rows.append(RegularizationRow(label, m, _lands_one_sided(G, m, Freg), before, after))

    edges = sum(1 for row in g.edges for e in row if e)
    system = name or f"{g.alphabet_size} symbols, {edges} edges"
    return EnvelopeReport(
        system=system,
        minimal_extension=minimal_extension,
        envelope_simple=envelope_simple,
        recurrent_dense=recurrent_dense,
        semisimple_predicate=semisimple,
        implication_ok=implication_ok,
        embedding_sweep=tuple(sweep),
        regularization_rows=tuple(reg_rows),
    )
