"""The one walk over the transition graph (``dynamics._walk``) against the
word listings, follower walks and searches it replaced, and at scale.

The ``ref_*`` functions are the earlier traversals kept as references: they
read ``g.edges`` directly, so they share no code with the walk or with the
stored follower rows.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicrossed import dynamics
from semicrossed.cli import EXIT_OK, main
from semicrossed.dynamics import (
    _connector,
    cycle_horizon,
    enumerate_cycles,
    girth,
    validate_sft,
)
from semicrossed.errors import Overflow
from semicrossed.extension import PROPERTIES, property_check

from conftest import rand_graph


def ref_followers(g, a):
    return tuple(j for j in range(g.alphabet_size) if g.edges[a][j])


def ref_words(g, length):
    """Admissible words of one length, listed lexicographically."""
    words = [(s,) for s in range(g.alphabet_size)]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in ref_followers(g, w[-1])]
    return tuple(words)


def ref_cycles(g, max_period, cap):
    """Primitive cycles from the word listing, least rotations only."""
    out = []
    for p in range(1, max_period + 1):
        for w in ref_words(g, p):
            if not g.edges[w[-1]][w[0]]:
                continue
            if dynamics._primitive_root(w) != w:
                continue
            if min(w[i:] + w[:i] for i in range(p)) != w:
                continue
            out.append(w)
            if len(out) > cap:
                raise Overflow(f"more than {cap} cycles up to period {max_period}; raise the cap")
    return sorted(out, key=lambda w: (len(w), w))


def ref_girth(g):
    for p in range(1, g.alphabet_size + 1):
        for w in ref_words(g, p):
            if g.edges[w[-1]][w[0]]:
                return p
    raise AssertionError("validated graph must contain a cycle")


def ref_horizon(g, max_period):
    """The girth, or on a permutation the longest orbit, each symbol's
    orbit measured by following its one follower."""
    if not all(len(ref_followers(g, a)) == 1 for a in range(g.alphabet_size)):
        return max(max_period, ref_girth(g))
    longest = 0
    for a in range(g.alphabet_size):
        b, period = ref_followers(g, a)[0], 1
        while b != a:
            b, period = ref_followers(g, b)[0], period + 1
        longest = max(longest, period)
    return max(max_period, longest)


def ref_connector(g, a, b):
    """Level-by-level search that stops at the first level reaching b."""
    if g.edges[a][b]:
        return ()
    parent = {u: None for u in ref_followers(g, a)}
    frontier = list(parent)
    while frontier:
        for u in frontier:
            if g.edges[u][b]:
                path = [u]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
        nxt = []
        for v in frontier:
            for u in ref_followers(g, v):
                if u not in parent:
                    parent[u] = v
                    nxt.append(u)
        frontier = nxt
    return None


def ref_reachable(g, a):
    """Depth-first forward closure of one symbol, the symbol included."""
    seen, stack = {a}, [a]
    while stack:
        for w in ref_followers(g, stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def ref_base_property(g, prop):
    m = g.alphabet_size
    reach = {a: ref_reachable(g, a) for a in range(m)}
    every = all(b in reach[a] for a in range(m) for b in range(m))
    if prop == "transitive":
        return every
    if prop in ("periodic_dense", "recurrent_dense"):
        return all(a in reach[b] for a in range(m) for b in ref_followers(g, a))
    return len(ref_words(g, 2)) == m and every  # minimal


def outcome(fn, *args):
    """The value of ``fn(*args)``, or its Overflow's message."""
    try:
        return fn(*args)
    except Overflow as exc:
        return ("Overflow", str(exc))


def rand_permutation(rng, max_symbols):
    """A permutation graph with a random cycle structure."""
    m = rng.randint(1, max_symbols)
    image = list(range(m))
    rng.shuffle(image)
    return validate_sft(m, [[int(j == image[i]) for j in range(m)] for i in range(m)])


def check_against_references(g, rng):
    m = g.alphabet_size
    for length in range(4):
        assert g.admissible_words(length) == (ref_words(g, length) if length else ((),))
        assert g.count_words(length) == len(ref_words(g, length) if length else ((),))
    assert girth(g) == ref_girth(g)
    for p in (0, 1, 2, rng.randint(3, m + 3)):
        assert cycle_horizon(g, p) == ref_horizon(g, p)
    horizon = ref_horizon(g, 0)
    for p in {1, 2, horizon, rng.randint(1, max(1, min(horizon, 6)))}:
        for cap in (1, 3, dynamics.DEFAULT_CYCLE_CAP):
            got = outcome(lambda: [c.word for c in enumerate_cycles(g, p, cap)])
            assert got == outcome(ref_cycles, g, p, cap)
    for a in range(m):
        for b in range(m):
            assert _connector(g, a, b) == ref_connector(g, a, b)
    for prop in PROPERTIES:
        assert property_check(g, prop, "base") == ref_base_property(g, prop)


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_walk_matches_references_on_random_graphs(seed):
    rng = random.Random(seed)
    check_against_references(rand_graph(rng, 6, density=rng.choice((0.25, 0.4, 0.6))), rng)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_walk_matches_references_on_permutations(seed):
    rng = random.Random(seed)
    check_against_references(rand_permutation(rng, 12), rng)


def one_cycle_edges(m, seed):
    """A single cycle through all m symbols, visited in a shuffled order."""
    order = list(range(m))
    random.Random(seed).shuffle(order)
    edges = [[0] * m for _ in range(m)]
    for k in range(m):
        edges[order[k]][order[(k + 1) % m]] = 1
    return edges, order


def test_one_cycle_walk_lists_no_words(monkeypatch):
    """Girth, horizon and cycles of a 256-symbol one-cycle graph come from
    the walk alone, with no call to the word listing."""
    m = 256
    edges, order = one_cycle_edges(m, 2561)
    g = validate_sft(m, edges)
    calls = []
    listing = dynamics._admissible_words
    monkeypatch.setattr(dynamics, "_admissible_words", lambda *a: calls.append(a) or listing(*a))
    assert girth(g) == m
    assert cycle_horizon(g) == cycle_horizon(g, 4) == m
    start = order.index(0)
    (cycle,) = enumerate_cycles(g, cycle_horizon(g))
    assert cycle.word == tuple(order[start:] + order[:start])
    assert enumerate_cycles(g, 4) == ()
    assert calls == []


# Each command takes under 0.5 s on 2 cores; when cycles came from word lists, extend took 64-86 s.
SCALE_BUDGET_S = 10.0


@pytest.mark.parametrize("command", ["extend", "analyze"])
def test_one_cycle_commands_finish_within_budget(tmp_path, command):
    m = 256
    edges, _ = one_cycle_edges(m, 2562 if command == "extend" else 2563)
    cfg = {
        "name": f"cycle-{m}",
        "alphabet_size": m,
        "edges": edges,
        "elements": {"onePlusU": [{"power": 0}, {"power": 1}]},
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main([command, "--config", str(path), "--no-timestamp", "--out", str(tmp_path / "out.json")])
    elapsed = time.perf_counter() - t0
    assert rc == EXIT_OK, err.getvalue()
    assert elapsed < SCALE_BUDGET_S
