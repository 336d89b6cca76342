"""JSON system configurations.

A config file names one shift system together with reusable cylinder
functions, polynomial elements, sample points, and the truncation policy
for the norm pipelines.  ``load_config`` validates everything up front and
returns a :class:`SystemConfig` whose fields are already-built library
objects; error messages name the offending config path (``functions.f``,
``edges[2][0]``, ...).  A stream point asking to certify more than
``MAX_CHECKED_SYMBOLS`` (2^20) symbols raises ``Overflow``, a cap and not a
config error.

Schema sketch::

    {
      "name": "golden-mean",
      "alphabet_size": 2,
      "edges": [[1, 1], [1, 0]],
      "functions": {
        "f": {"window": 1, "values": {"0": [1.0, 0.0], "1": 0.5}}
      },
      "elements": {
        "onePlusfU": [{"power": 0}, {"power": 1, "function": "f"}]
      },
      "points": {
        "fix":    {"kind": "lasso", "pre": [], "per": [0]},
        "tm":     {"kind": "stream", "rule": "thue-morse", "check_to": 4096},
        "seam":   {"kind": "bilasso", "left": [0], "center": [1], "at": 1,
                   "right": [0]}
      },
      "policy": {"K_initial": 8, "K_max": 256, "tolerance": 1e-6,
                 "lambda_grid": 128, "refine_steps": 60, "max_period": 4,
                 "word_cap": 100000, "mode": "beam:8"}
    }

Values accept either a plain number or a ``[re, im]`` pair.  Word keys are
digit strings ("201") or comma-separated symbol lists ("10,3,7").  A key
that ends in one comma is a one-symbol word ("11,"), the way to name a
single symbol on an alphabet of more than ten, where "11" reads as (1, 1).
The normalized echo writes digit strings on alphabets up to ten symbols and
comma lists beyond, one-symbol words with their trailing comma.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Mapping, Union

from .dynamics import (
    CylinderFunction,
    SftGraph,
    cylinder_add,
    make_cylinder,
    make_lasso,
    make_stream,
    validate_sft,
)
from .errors import ConfigError, Overflow, PolicyError, SemicrossedError
from .extension import make_bilasso
from .representations import TruncationPolicy
from .algebra import SemicrossedPoly, semicrossed_poly
from . import streams

# Config key -> TruncationPolicy field.  The defaults and the rule live in the policy.
POLICY_KEYS = {
    "K_initial": "k_start",
    "K_max": "k_max",
    "tolerance": "tol",
    "lambda_grid": "lambda_grid",
    "refine_steps": "refine_steps",
    "max_period": "max_period",
    "word_cap": "word_cap",
    "mode": "mode",
}


def policy_data(policy: TruncationPolicy) -> dict:
    """The policy as plain data under its config keys."""
    return {key: getattr(policy, field) for key, field in POLICY_KEYS.items()}


@dataclass(frozen=True)
class SystemConfig:
    name: str
    graph: SftGraph
    functions: Mapping  # name -> CylinderFunction
    elements: Mapping  # name -> SemicrossedPoly
    points: Mapping  # name -> point object
    policy: TruncationPolicy
    normalized: Mapping  # canonical plain-data echo of the config


def _fail(path: str, msg: str) -> None:
    raise ConfigError(f"{path}: {msg}")


def _require(data: Mapping, key: str, path: str):
    if key not in data:
        _fail(path, f"missing required key {key!r}")
    return data[key]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, Infinity, 1e400 or 10**400
        _fail(path, f"expected a finite number, got {value!r}")
    return float(value)


def _as_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_number(value, path))
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_number(value[0], path + "[0]"), _as_number(value[1], path + "[1]"))
    _fail(path, f"expected a number or [re, im] pair, got {value!r}")


def _as_symbol_list(value, m: int, path: str) -> tuple:
    if not isinstance(value, list):
        _fail(path, f"expected a list of symbols, got {value!r}")
    out = []
    for i, s in enumerate(value):
        s = _as_int(s, f"{path}[{i}]")
        if not 0 <= s < m:
            _fail(f"{path}[{i}]", f"symbol {s} outside alphabet [0, {m})")
        out.append(s)
    return tuple(out)


def _parse_word_key(key: str, m: int, path: str) -> tuple:
    if not isinstance(key, str) or not key:
        _fail(path, f"word keys must be nonempty strings, got {key!r}")
    if key.endswith(",") and key.count(",") == 1:  # "11,": one symbol on any alphabet
        parts = [key[:-1]]
    else:
        parts = key.split(",") if "," in key else list(key)
    try:
        word = tuple(int(p) for p in parts)
    except ValueError:
        _fail(path, f"cannot parse word key {key!r}")
    for s in word:
        if not 0 <= s < m:
            _fail(path, f"word key {key!r} has symbol {s} outside alphabet [0, {m})")
    return word


def _word_key(w: tuple, m: int) -> str:
    """A word as ``_parse_word_key`` reads it back on an alphabet of m symbols."""
    if m <= 10:
        return "".join(map(str, w))
    return ",".join(map(str, w)) + "," * (len(w) == 1)


def _complex_to_data(z: complex):
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _build_graph(data: Mapping) -> SftGraph:
    m = _as_int(_require(data, "alphabet_size", "alphabet_size"), "alphabet_size")
    if m < 1:
        _fail("alphabet_size", f"must be positive, got {m}")
    edges = _require(data, "edges", "edges")
    if not isinstance(edges, list) or len(edges) != m:
        _fail("edges", f"expected {m} rows")
    for i, row in enumerate(edges):
        if not isinstance(row, list) or len(row) != m:
            _fail(f"edges[{i}]", f"expected {m} entries")
        for j, e in enumerate(row):
            if e not in (0, 1, True, False):
                _fail(f"edges[{i}][{j}]", f"expected 0 or 1, got {e!r}")
    try:
        return validate_sft(m, edges)
    except SemicrossedError as exc:
        _fail("edges", str(exc))


def _build_function(g: SftGraph, data, path: str) -> CylinderFunction:
    if not isinstance(data, Mapping):
        _fail(path, "expected an object with 'window' and 'values'")
    window = _as_int(_require(data, "window", path), f"{path}.window")
    if window < 1:
        _fail(f"{path}.window", f"must be >= 1, got {window}")
    raw_values = _require(data, "values", path)
    if not isinstance(raw_values, Mapping):
        _fail(f"{path}.values", "expected a word -> value map")
    table = {}
    for key, val in raw_values.items():
        word = _parse_word_key(key, g.alphabet_size, f"{path}.values.{key!r}")
        if len(word) != window:
            _fail(f"{path}.values.{key!r}", f"word length {len(word)} != window {window}")
        if not g.word_admissible(word):
            _fail(f"{path}.values.{key!r}", "word is not admissible")
        table[word] = _as_complex(val, f"{path}.values.{key!r}")
    missing = [w for w in g.admissible_words(window) if w not in table]
    if missing:
        _fail(f"{path}.values", f"missing {len(missing)} admissible words, first: {missing[0]}")
    return make_cylinder(g, window, table)


def _build_element(g: SftGraph, functions: Mapping, data, path: str) -> SemicrossedPoly:
    if not isinstance(data, list) or not data:
        _fail(path, "expected a nonempty list of {power, function} terms")
    coeffs = {}
    for i, term in enumerate(data):
        tpath = f"{path}[{i}]"
        if not isinstance(term, Mapping):
            _fail(tpath, "expected an object")
        n = _as_int(_require(term, "power", tpath), f"{tpath}.power")
        if n < 0:
            _fail(f"{tpath}.power", "one-sided elements need power >= 0")
        fname = term.get("function")
        if fname is None:
            f = make_cylinder(g, 1, {w: 1.0 for w in g.admissible_words(1)})
        elif fname in functions:
            f = functions[fname]
        else:
            _fail(f"{tpath}.function", f"unknown function {fname!r}")
        coeffs[n] = f if n not in coeffs else cylinder_add(coeffs[n], f)
    return semicrossed_poly(g, coeffs)


_STREAM_RULES = {
    "thue-morse": streams.ThueMorse,
    "fibonacci": streams.fibonacci_word,
    "golden-mechanical": streams.golden_mechanical,
}


def _build_stream_rule(g: SftGraph, data, path: str):
    rule = _require(data, "rule", path)
    if isinstance(rule, str):
        if rule not in _STREAM_RULES:
            known = ", ".join(sorted(_STREAM_RULES))
            _fail(f"{path}.rule", f"unknown rule {rule!r}; known: {known}")
        return _STREAM_RULES[rule]()
    if isinstance(rule, Mapping) and "substitution" in rule:
        images = rule["substitution"]
        if not isinstance(images, Mapping):
            _fail(f"{path}.rule.substitution", "expected symbol -> image map")
        parsed = {}
        for key, img in images.items():
            try:
                s = int(key)
            except (TypeError, ValueError):
                _fail(f"{path}.rule.substitution", f"bad symbol key {key!r}")
            parsed[s] = _as_symbol_list(img, g.alphabet_size, f"{path}.rule.substitution.{key!r}")
        seed = _as_int(rule.get("seed", 0), f"{path}.rule.seed")
        try:
            return streams.substitution(parsed, seed)
        except ValueError as exc:
            _fail(f"{path}.rule", str(exc))
    if isinstance(rule, Mapping) and "mechanical" in rule:
        params = rule["mechanical"]
        if not isinstance(params, Mapping):
            _fail(f"{path}.rule.mechanical", "expected a parameter object")
        kwargs = {}
        for key in ("p", "q", "d", "r", "rho_num", "rho_den", "n0"):
            if key in params:
                kwargs[key] = _as_int(params[key], f"{path}.rule.mechanical.{key}")
        try:
            return streams.MechanicalWord(**kwargs)
        except (TypeError, ValueError) as exc:
            _fail(f"{path}.rule.mechanical", str(exc))
    _fail(f"{path}.rule", "expected a rule name, {'substitution': ...}, or {'mechanical': ...}")


def _build_point(g: SftGraph, data, path: str):
    if not isinstance(data, Mapping):
        _fail(path, "expected an object with a 'kind'")
    kind = _require(data, "kind", path)
    try:
        if kind == "lasso":
            pre = _as_symbol_list(data.get("pre", []), g.alphabet_size, f"{path}.pre")
            per = _as_symbol_list(_require(data, "per", path), g.alphabet_size, f"{path}.per")
            return make_lasso(g, pre, per)
        if kind == "stream":
            rule = _build_stream_rule(g, data, path)
            if "prefix" in data:
                rule = streams.prefixed(
                    _as_symbol_list(data["prefix"], g.alphabet_size, f"{path}.prefix"), rule
                )
            check_to = _as_int(data.get("check_to", 4096), f"{path}.check_to")
            offset = _as_int(data.get("offset", 0), f"{path}.offset")
            if offset < 0:
                _fail(f"{path}.offset", "must be >= 0")
            return make_stream(g, rule, check_to, offset)
        if kind == "bilasso":
            left = _as_symbol_list(_require(data, "left", path), g.alphabet_size, f"{path}.left")
            center = _as_symbol_list(data.get("center", []), g.alphabet_size, f"{path}.center")
            at = _as_int(_require(data, "at", path), f"{path}.at")
            right = _as_symbol_list(_require(data, "right", path), g.alphabet_size, f"{path}.right")
            return make_bilasso(g, left, center, at, right)
    except (ConfigError, Overflow):  # a cap is the CLI's exit 4, not a config error
        raise
    except (SemicrossedError, ValueError) as exc:
        _fail(path, str(exc))
    _fail(f"{path}.kind", f"unknown point kind {kind!r} (lasso | stream | bilasso)")


def _build_policy(data, path: str = "policy") -> TruncationPolicy:
    data = {} if data is None else data
    if not isinstance(data, Mapping):
        _fail(path, "expected an object")
    unknown = set(data) - set(POLICY_KEYS)
    if unknown:
        _fail(path, f"unknown keys: {sorted(unknown)}")
    try:
        return TruncationPolicy(**{POLICY_KEYS[key]: value for key, value in data.items()})
    except PolicyError as exc:
        key = next(key for key, field in POLICY_KEYS.items() if field == exc.field)
        _fail(f"{path}.{key}", exc.reason)


def _normalize(data: Mapping, g: SftGraph, functions: Mapping, name: str, policy: TruncationPolicy) -> Mapping:
    """Canonical plain-data form of the config: defaults filled in, values
    as numbers or [re, im], keys sorted by json.dumps at emit time."""
    fn_data = {}
    for fname, f in functions.items():
        fn_data[fname] = {
            "window": f.window,
            "values": {_word_key(w, g.alphabet_size): _complex_to_data(v) for w, v in sorted(f.values.items())},
        }
    return {
        "name": name,
        "alphabet_size": g.alphabet_size,
        "edges": [[1 if e else 0 for e in row] for row in g.edges],
        "functions": fn_data,
        "elements": data.get("elements", {}),
        "points": data.get("points", {}),
        "policy": policy_data(policy),
    }


def _section(data: Mapping, key: str, build) -> dict:
    """The entries of the optional object ``data[key]``, in name order, each
    built by ``build(entry, path)``."""
    raw = data.get(key, {})
    if not isinstance(raw, Mapping):
        _fail(key, "expected an object")
    return {name: build(raw[name], f"{key}.{name}") for name in sorted(raw)}


def load_config(source: Union[str, Path, Mapping]) -> SystemConfig:
    """Parse and validate a config from a JSON file path or a plain dict."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        default_name = path.stem
    else:
        data = source
        default_name = "unnamed"
    if not isinstance(data, Mapping):
        raise ConfigError("top level: expected a JSON object")

    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        _fail("name", f"expected a nonempty string, got {name!r}")

    g = _build_graph(data)

    functions = _section(data, "functions", partial(_build_function, g))
    elements = _section(data, "elements", partial(_build_element, g, functions))
    points = _section(data, "points", partial(_build_point, g))

    policy = _build_policy(data.get("policy"))
    normalized = _normalize(data, g, functions, name, policy)
    return SystemConfig(
        name=name,
        graph=g,
        functions=functions,
        elements=elements,
        points=points,
        policy=policy,
        normalized=normalized,
    )
