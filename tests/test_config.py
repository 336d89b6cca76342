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


def twelve_cycle(**overrides):
    """One cycle through 12 symbols, with window-1 and window-2 tables."""
    m = 12
    cfg = {
        "name": "twelve",
        "alphabet_size": m,
        "edges": [[int(j == (i + 1) % m) for j in range(m)] for i in range(m)],
        "functions": {
            "one": {"window": 1, "values": {f"{i},": i for i in range(m)}},
            "two": {"window": 2, "values": {f"{i},{(i + 1) % m}": [0.0, i] for i in range(m)}},
        },
        "elements": {"oneU": [{"power": 1, "function": "one"}]},
    }
    cfg.update(overrides)
    return cfg


def test_word_keys_on_more_than_ten_symbols_round_trip():
    """A key ending in one comma is a one-symbol word, so a window-1 table
    can name symbols 10 and 11; the echo writes keys that load back."""
    cfg = load_config(twelve_cycle())
    one, two = cfg.functions["one"], cfg.functions["two"]
    assert dict(one.values) == {(i,): i for i in range(12)}
    assert two.values[(11, 0)] == 11j
    echoed = cfg.normalized["functions"]
    assert echoed["one"]["values"]["11,"] == 11.0 and echoed["two"]["values"]["10,11"] == [0.0, 10.0]
    again = load_config(json.loads(json.dumps(cfg.normalized)))
    assert again.functions == cfg.functions
    assert again.normalized == cfg.normalized


def test_word_keys_keep_digit_strings_and_comma_lists():
    cfg = load_config(variant(functions={"f": {"window": 1, "values": {"0,": 1.0, "1": 2.0}},
                                         "g": {"window": 2, "values": {"00": 1.0, "0,1": 2.0, "10": 3.0}}}))
    assert dict(cfg.functions["f"].values) == {(0,): 1.0, (1,): 2.0}
    assert dict(cfg.functions["g"].values) == {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0}
    assert cfg.normalized["functions"]["f"]["values"] == {"0": 1.0, "1": 2.0}


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


def _values(**table):
    return {"f": {"window": 1, "values": {"0": 1.0, "1": 0.5, **table}}}


# One case per input check, each error prefixed by the path it names.
@pytest.mark.parametrize(
    "mutate, where",
    [
        (dict(functions=_values(**{"0": ["a", 0.0]})), "functions.f.values.'0'[0]"),  # non-numeric
        (dict(functions=_values(**{"0": "one"})), "functions.f.values.'0'"),  # neither number nor pair
        (dict(points={"p": {"kind": "lasso", "per": 0}}), "points.p.per"),  # not a list
        (dict(points={"p": {"kind": "lasso", "per": [0, 5]}}), "points.p.per[1]"),  # outside the alphabet
        (dict(functions=_values(**{"": 1.0})), "functions.f.values.''"),  # empty key
        (dict(functions=_values(x=1.0)), "functions.f.values.'x'"),  # unparseable key
        (dict(functions=_values(**{"2": 1.0})), "functions.f.values.'2'"),  # key outside the alphabet
        (dict(edges=[[1, 1]]), "edges"),  # wrong row count
        (dict(edges=[[1, 2], [1, 0]]), "edges[0][1]"),  # entry other than 0 or 1
        (dict(edges=[[1, 1], [0, 0]]), "edges"),  # DeadState
        (dict(edges=[[1, 0], [1, 0]]), "edges"),  # NotSurjective
        (dict(functions={"f": 3}), "functions.f"),  # function not an object
        (dict(functions={"f": {"window": 1, "values": [1.0, 0.5]}}), "functions.f.values"),  # values not a map
        (dict(functions=_values(**{"00": 1.0})), "functions.f.values.'00'"),  # key of the wrong length
        (dict(functions={"f": {"window": 2, "values": {"11": 1.0}}}), "functions.f.values.'11'"),  # not admissible
        (dict(elements={"bad": []}), "elements.bad"),  # element not a nonempty list
        (dict(elements={"bad": [3]}), "elements.bad[0]"),  # term not an object
        (dict(points={"p": {"kind": "stream", "rule": "zeta"}}), "points.p.rule"),  # unknown rule name
        (dict(points={"p": {"kind": "stream", "rule": {"substitution": [0]}}}), "points.p.rule.substitution"),
        (dict(points={"p": {"kind": "stream", "rule": {"substitution": {"a": [0]}}}}), "points.p.rule.substitution"),
        (dict(points={"p": {"kind": "stream", "rule": {"weird": 1}}}), "points.p.rule"),  # rule of unknown shape
        (dict(points={"p": 3}), "points.p"),  # point not an object
        (dict(policy=[1]), "policy"),  # policy not an object
        (dict(name=""), "name"),  # empty name
    ],
)
def test_input_checks_name_their_path(mutate, where):
    with pytest.raises(ConfigError) as exc:
        load_config(variant(**mutate))
    assert str(exc.value).startswith(where + ": ")


def test_unreadable_documents_are_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": ')
    with pytest.raises(ConfigError, match=f"^{bad}: invalid JSON"):
        load_config(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="^top level: expected a JSON object"):
        load_config(bad)


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
