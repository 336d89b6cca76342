"""Config loading: schema validation, element assembly, point kinds."""

import copy
import json
from pathlib import Path

import pytest

from semicrossed.config import ConfigError, load_config
from semicrossed.dynamics import eval_cylinder, itinerary, make_lasso


BASE = {
    "name": "toy",
    "alphabet_size": 2,
    "edges": [[1, 1], [1, 0]],
    "functions": {"f": {"window": 1, "values": {"0": 1.0, "1": [0.0, 0.5]}}},
    "elements": {"fU": [{"power": 1, "function": "f"}]},
    "points": {"p": {"kind": "lasso", "pre": [1], "per": [0]}},
    "policy": {"K_initial": 4, "K_max": 16},
}


def variant(**overrides):
    cfg = copy.deepcopy(BASE)
    cfg.update(overrides)
    return cfg


def test_loads_from_dict_and_path(tmp_path):
    cfg = load_config(variant())
    assert cfg.name == "toy"
    assert cfg.graph.alphabet_size == 2
    p = tmp_path / "toy.json"
    p.write_text(json.dumps(variant()))
    assert load_config(p).name == "toy"
    assert load_config(str(p)).name == "toy"


def test_shipped_configs_all_load():
    for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json")):
        cfg = load_config(path)
        assert cfg.elements and cfg.points, path.name


def test_functions_parse_scalars_and_pairs():
    cfg = load_config(variant())
    f = cfg.functions["f"]
    x0 = make_lasso(cfg.graph, (), (0,))
    x1 = make_lasso(cfg.graph, (1,), (0,))
    assert eval_cylinder(f, x0) == 1.0
    assert eval_cylinder(f, x1) == 0.5j


def test_element_without_function_is_plain_shift_power():
    cfg = load_config(variant(elements={"U2": [{"power": 2}]}))
    F = cfg.elements["U2"]
    assert F.support == (2,)


def test_duplicate_powers_accumulate():
    cfg = load_config(variant(elements={"twice": [{"power": 0}, {"power": 0}]}))
    F = cfg.elements["twice"]
    val = next(iter(F.coeffs[0].values.values()))
    assert val == 2.0


def test_point_kinds():
    cfg = load_config(
        variant(
            points={
                "a": {"kind": "lasso", "pre": [], "per": [0, 1]},
                "b": {"kind": "bilasso", "left": [0], "center": [], "at": 0, "right": [0, 1]},
                "c": {"kind": "stream", "rule": "fibonacci", "check_to": 256},
            }
        )
    )
    assert itinerary(cfg.points["a"], 4) == (0, 1, 0, 1)
    assert cfg.points["b"].symbol_at(0) == 0
    assert itinerary(cfg.points["c"], 4) == (0, 1, 0, 0)


def test_stream_prefix_key_reads_before_the_rule():
    cfg = load_config(
        variant(points={"p": {"kind": "stream", "rule": "fibonacci", "prefix": [1, 0, 0], "check_to": 64}})
    )
    assert itinerary(cfg.points["p"], 8) == (1, 0, 0, 0, 1, 0, 0, 1)


def test_stream_rules_inline_substitution():
    cfg = load_config(
        variant(
            alphabet_size=2,
            edges=[[1, 1], [1, 1]],
            points={
                "tm": {
                    "kind": "stream",
                    "rule": {"substitution": {"0": [0, 1], "1": [1, 0]}, "seed": 0},
                    "check_to": 128,
                }
            },
        )
    )
    assert itinerary(cfg.points["tm"], 8) == (0, 1, 1, 0, 1, 0, 0, 1)


def test_stream_rules_inline_mechanical():
    """The golden-mean slope (3 - sqrt 5)/2 with index origin 1 is the
    Fibonacci word, named or given by its mechanical parameters."""
    golden = {"p": 3, "q": -1, "d": 5, "r": 2, "n0": 1}
    cfg = load_config(
        variant(
            points={
                "mech": {"kind": "stream", "rule": {"mechanical": golden}, "check_to": 600},
                "fib": {"kind": "stream", "rule": "fibonacci", "check_to": 600},
            }
        )
    )
    assert itinerary(cfg.points["mech"], 600) == itinerary(cfg.points["fib"], 600)


@pytest.mark.parametrize(
    "mechanical, where",
    [
        ({"p": 1, "q": 0, "d": 0, "r": 1}, "points.p.rule.mechanical"),  # slope 1
        ({"p": -3, "q": 1, "d": 5, "r": 2}, "points.p.rule.mechanical"),  # slope < 0
        (5, "points.p.rule.mechanical"),
        ({"p": 1.5, "q": -1, "d": 5, "r": 2}, "points.p.rule.mechanical.p"),
    ],
)
def test_mechanical_rule_rejects_with_located_error(mechanical, where):
    with pytest.raises(ConfigError) as exc:
        load_config(variant(points={"p": {"kind": "stream", "rule": {"mechanical": mechanical}}}))
    assert str(exc.value).startswith(where + ": ")


# ---------------------------------------------------------------------------
# rejection paths, with the offending path named


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (dict(alphabet_size=0), "alphabet_size"),
        (dict(edges=[[1], [1, 0]]), "edges"),
        (dict(functions={"f": {"window": 0, "values": {}}}), "window"),
        (dict(functions={"f": {"window": 1, "values": {"0": 1.0}}}), "values"),
        (dict(elements={"bad": [{"power": -1}]}), "power"),
        (dict(elements={"bad": [{"power": 0, "function": "ghost"}]}), "ghost"),
        (dict(points={"p": {"kind": "warp"}}), "kind"),
        (dict(policy={"K_initial": 32, "K_max": 16}), "K_initial"),
        (dict(policy={"bogus_knob": 1}), "bogus_knob"),
        (dict(policy={"mode": "breadth-first"}), "mode"),
        (dict(policy={"word_cap": (1 << 20) + 1}), "word_cap"),
        (dict(policy={"mode": "beam: 8"}), "policy.mode"),
        (dict(policy={"mode": "beam:+8"}), "policy.mode"),
        (dict(points={"p": {"kind": "stream", "rule": "fibonacci", "offset": -3}}), "points.p.offset"),
        (dict(functions={"f": {"window": 1, "values": {"0": float("nan"), "1": 0.5}}}), "functions.f.values.'0'"),
        (dict(functions={"f": {"window": 1, "values": {"0": 1.0, "1": [0.0, float("inf")]}}}), "values.'1'[1]"),
        (dict(functions={"f": {"window": 1, "values": {"0": 10**400, "1": 0.5}}}), "functions.f.values.'0'"),
        (dict(policy={"tolerance": float("inf")}), "policy.tolerance"),
        (dict(policy={"tolerance": float("nan")}), "policy.tolerance"),
        (dict(functions=[]), "functions: expected an object"),
        (dict(elements="fU"), "elements: expected an object"),
        (dict(points=None), "points: expected an object"),
        (dict(points={"p": {"kind": "stream", "rule": {"substitution": {"0": [0, 1]}}}}), "points.p.rule: symbol 1"),
    ],
)
def test_rejects_with_located_error(mutate, needle):
    with pytest.raises(ConfigError) as exc:
        load_config(variant(**mutate))
    assert needle in str(exc.value)


def test_inadmissible_point_rejected():
    with pytest.raises(ConfigError) as exc:
        load_config(variant(points={"p": {"kind": "lasso", "pre": [1, 1], "per": [0]}}))
    assert "points.p" in str(exc.value)


def test_incomplete_function_table_rejected():
    # golden-mean has three admissible 2-words; providing two must fail
    with pytest.raises(ConfigError):
        load_config(
            variant(functions={"g": {"window": 2, "values": {"00": 1.0, "01": 2.0}}})
        )
