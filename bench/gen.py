"""Seeded input generator for the benchmark.

Everything here is plain data built from the shipped config files and a
``random.Random`` seeded by the workload name and ``--seed``; nothing calls
the library.  The workloads turn these specs into library objects during
set-up, and the oracle reads the same specs to compute its own answers, so
a change inside the library cannot change the inputs it is measured on.

A *function spec* is ``(start, window, {word: complex})`` and a *poly spec*
is ``{power: function spec}``.  One-sided functions have start 0: column c
of a picture reads symbols c .. c+window-1 of the point.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

VALUE_RANGE = 2.0


def rng_for(workload: str, seed: int) -> random.Random:
    # str seeds hash with sha512 inside random, so they do not depend on
    # PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def read_configs(config_dir: Path) -> dict:
    """Shipped configs as parsed JSON, keyed by config name."""
    out = {}
    for path in sorted(config_dir.glob("*.json")):
        data = json.loads(path.read_text())
        data["_path"] = str(path)
        out[data.get("name", path.stem)] = data
    return out


def edges_of(cfg: dict) -> tuple:
    return tuple(tuple(bool(e) for e in row) for row in cfg["edges"])


def admissible_words(edges: tuple, length: int) -> list:
    """All admissible words of the given length, lexicographically sorted."""
    m = len(edges)
    if length == 0:
        return [()]
    words = [(s,) for s in range(m)]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in range(m) if edges[w[-1]][b]]
    return words


def count_words(edges: tuple, length: int) -> int:
    m = len(edges)
    vec = [1] * m
    for _ in range(length - 1):
        vec = [sum(vec[j] for j in range(m) if edges[i][j]) for i in range(m)]
    return sum(vec)


def is_large(edges: tuple) -> bool:
    """More than 256 admissible words of length 16: among the shipped
    configs, exactly the graphs of positive entropy, on which word tables,
    cycle searches and envelope sweeps grow exponentially."""
    return count_words(edges, 16) > 256


def is_permutation(edges: tuple) -> bool:
    return all(sum(row) == 1 for row in edges)


def random_function(rng: random.Random, edges: tuple, window: int) -> tuple:
    values = {
        w: complex(rng.uniform(-VALUE_RANGE, VALUE_RANGE), rng.uniform(-VALUE_RANGE, VALUE_RANGE))
        for w in admissible_words(edges, window)
    }
    return (0, window, values)


def poly_with_windows(rng: random.Random, edges: tuple, windows: dict) -> dict:
    """Random values on a given shape: power -> window."""
    return {n: random_function(rng, edges, w) for n, w in sorted(windows.items())}


def random_walk(rng: random.Random, edges: tuple, length: int) -> tuple:
    """Random admissible word (every validated graph lets a walk continue)."""
    m = len(edges)
    sym = [rng.randrange(m)]
    while len(sym) < length:
        sym.append(rng.choice([b for b in range(m) if edges[sym[-1]][b]]))
    return tuple(sym)


def _parse_value(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _parse_word(key: str) -> tuple:
    return tuple(int(p) for p in (key.split(",") if "," in key else key))


def config_element_specs(cfg: dict) -> dict:
    """The config's named elements as poly specs, read from the JSON."""
    edges = edges_of(cfg)
    functions = {
        name: (0, f["window"], {_parse_word(k): _parse_value(v) for k, v in f["values"].items()})
        for name, f in cfg.get("functions", {}).items()
    }
    one = (0, 1, {w: 1 + 0j for w in admissible_words(edges, 1)})
    out = {}
    for name, terms in cfg.get("elements", {}).items():
        coeffs = {}
        for term in terms:
            spec = functions[term["function"]] if "function" in term else one
            n = term["power"]
            if n in coeffs:
                old = coeffs[n]
                if old[1] != spec[1]:
                    raise ValueError(f"{cfg['name']}.{name}: repeated power with mixed windows")
                spec = (0, spec[1], {w: old[2][w] + v for w, v in spec[2].items()})
            coeffs[n] = spec
        out[name] = coeffs
    return out


def spec_data(obj):
    """Plain, JSON-ready form of nested specs (complex as [re, im], words as
    digit lists), used for the input digest and the input-size summary."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return [[spec_data(k), spec_data(v)] for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(obj, (list, tuple)):
        return [spec_data(v) for v in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(spec_data(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def poly_windows(spec: dict) -> list:
    return sorted({f[1] for f in spec.values()})


def choose(rng: random.Random, items, k: int) -> list:
    items = list(items)
    return [items[i] for i in sorted(rng.sample(range(len(items)), k))]
