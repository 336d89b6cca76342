"""Smallest-invertible-cover diagnostics: simplicity of the big algebra
versus semisimplicity of the one-sided one, checked numerically."""

from pathlib import Path

import pytest

from semicrossed import envelope, representations
from semicrossed.algebra import linear_ops, u_power
from semicrossed.catalog import get_system
from semicrossed.config import load_config
from semicrossed.envelope import (
    REGULARIZATION_TOL,
    envelope_report,
)
from semicrossed.representations import TruncationPolicy


FAST = TruncationPolicy(k_start=8, k_max=64, lambda_grid=64, refine_steps=30, max_period=2)


def _elements(g):
    return [u_power(g, 1), linear_ops(u_power(g, 0), u_power(g, 1), "add")]


@pytest.fixture(scope="module")
def two_cycle_report():
    g = get_system("two-cycle")
    return envelope_report(g, _elements(g), policy=FAST, name="two-cycle")


@pytest.fixture(scope="module")
def full2_report():
    g = get_system("full-2")
    return envelope_report(g, _elements(g), policy=FAST, name="full-2")


def test_minimal_system_is_simple_and_semisimple(two_cycle_report):
    rep = two_cycle_report
    assert rep.minimal_extension
    assert rep.envelope_simple
    assert rep.recurrent_dense
    assert rep.semisimple_predicate
    assert rep.implication_ok
    assert rep.ok


def test_full_shift_refutes_the_converse(full2_report):
    # dense recurrence without minimality: semisimple but not simple
    rep = full2_report
    assert not rep.envelope_simple
    assert rep.semisimple_predicate
    assert rep.implication_ok


def test_embedding_sweep_gaps_are_small(full2_report):
    assert full2_report.embedding_sweep
    for row in full2_report.embedding_sweep:
        assert row.crossed_value <= row.semicrossed_value + REGULARIZATION_TOL
        assert abs(row.gap) <= REGULARIZATION_TOL


def test_regularization_rows_land_and_preserve_norm(full2_report):
    rows = full2_report.regularization_rows
    assert len(rows) == 3
    for row in rows:
        assert row.landed
        assert row.shift >= 0
        assert row.gap <= REGULARIZATION_TOL
        assert row.ok


def test_regularization_row_checks_the_round_trip(monkeypatch):
    """A row lands only when embed_poly(F) is exactly G V^m: a shift off by
    one fails the row and the report."""
    regularize = envelope.regularize_right_multiply

    def off_by_one(G):
        m, F = regularize(G)
        return m + 1, F

    monkeypatch.setattr(envelope, "regularize_right_multiply", off_by_one)
    g = get_system("two-cycle")
    rep = envelope_report(g, _elements(g)[:1], policy=FAST)
    assert len(rep.regularization_rows) == 3
    assert not any(row.landed or row.ok for row in rep.regularization_rows)
    assert not rep.ok


def test_golden_mean_report_is_coherent():
    g = get_system("golden-mean")
    rep = envelope_report(g, _elements(g), policy=FAST)
    assert rep.implication_ok
    assert rep.ok
    assert not rep.minimal_extension  # fixed point and 01-cycle coexist
    assert "2 symbols" in rep.system


def test_labels_and_validation(two_cycle_report):
    g = get_system("two-cycle")
    with pytest.raises(ValueError):
        envelope_report(g, [], policy=FAST)
    with pytest.raises(ValueError):
        envelope_report(g, _elements(g), policy=FAST, labels=["only-one"])
    labeled = envelope_report(
        g, _elements(g), policy=FAST, labels=["shift", "one-plus-shift"], name="named"
    )
    assert [r.label for r in labeled.embedding_sweep] == ["shift", "one-plus-shift"]
    assert labeled.system == "named"


def test_one_cycle_search_per_sweep_element(monkeypatch):
    """An element and its inclusion share one constant_B; the three
    regularization rows keep their own, one per estimate."""
    calls = []
    constant_B = representations.constant_B

    def counted(*args, **kwargs):
        calls.append(type(args[0]).__name__)
        return constant_B(*args, **kwargs)

    monkeypatch.setattr(representations, "constant_B", counted)
    monkeypatch.setattr(envelope, "constant_B", counted, raising=False)
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "golden-mean.json")
    assert len(cfg.elements) == 4
    envelope_report(cfg.graph, list(cfg.elements.values()), policy=FAST)
    assert calls == ["SemicrossedPoly"] * 4 + ["CrossedPoly"] * 6
