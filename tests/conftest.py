import random

import pytest

from semicrossed.dynamics import make_cylinder, make_lasso, validate_sft
from semicrossed.algebra import semicrossed_poly
from semicrossed.errors import SemicrossedError
from semicrossed.extension import lift_point


@pytest.fixture(scope="session")
def full2():
    return validate_sft(2, [[1, 1], [1, 1]])


@pytest.fixture(scope="session")
def gm():
    """Golden-mean shift: 1 may not follow 1."""
    return validate_sft(2, [[1, 1], [1, 0]])


@pytest.fixture(scope="session")
def cyc2():
    return validate_sft(2, [[0, 1], [1, 0]])


@pytest.fixture(scope="session")
def full3():
    return validate_sft(3, [[1, 1, 1], [1, 1, 1], [1, 1, 1]])


def rand_cylinder(rng: random.Random, g, window: int, real: bool = False):
    values = {}
    for w in g.admissible_words(window):
        if real:
            values[w] = rng.uniform(-2.0, 2.0)
        else:
            values[w] = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    return make_cylinder(g, window, values)


def rand_poly(rng: random.Random, g, max_degree: int = 3, max_window: int = 2):
    coeffs = {}
    for n in range(rng.randint(1, max_degree + 1)):
        if n > 0 and rng.random() < 0.2:
            continue  # leave gaps in the support sometimes
        coeffs[n] = rand_cylinder(rng, g, rng.randint(1, max_window))
    if not coeffs:
        coeffs[0] = rand_cylinder(rng, g, 1)
    return semicrossed_poly(g, coeffs)


def rand_graph(rng: random.Random, max_symbols: int, density: float = 0.6):
    """Random valid transition graph on at most ``max_symbols`` symbols."""
    while True:
        m = rng.randint(1, max_symbols)
        edges = [[int(rng.random() < density) for _ in range(m)] for _ in range(m)]
        try:
            return validate_sft(m, edges)
        except SemicrossedError:
            continue


def rand_lasso(rng: random.Random, g):
    """Random eventually periodic point: walk until the walk revisits a
    symbol, then loop the part since the first visit."""
    path = [rng.randrange(g.alphabet_size)]
    while True:
        nxt = rng.choice(g.followers(path[-1]))
        if nxt in path:
            i = path.index(nxt)
            return make_lasso(g, tuple(path[:i]), tuple(path[i:]))
        path.append(nxt)


# Powers from dense to sparse supports, and past the shipped K_max of 256.
CONFIG_POWERS = (0, 1, 2, 3, 5, 10, 33, 100, 255, 300, 10**4)


def rand_config(rng: random.Random) -> dict:
    """Random valid config data: a graph on at most 4 symbols, 1-3 functions
    of window 1-3, 1-3 elements of 1-3 powers from ``CONFIG_POWERS`` with
    and without a function, and a random lasso point with its lift."""
    g = rand_graph(rng, 4)
    functions = {
        f"f{i}": {
            "window": (w := rng.randint(1, 3)),
            "values": {
                "".join(map(str, word)): [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
                for word in g.admissible_words(w)
            },
        }
        for i in range(rng.randint(1, 3))
    }
    elements = {
        f"e{i}": [
            {"power": n, **({"function": rng.choice(sorted(functions))} if rng.random() < 0.5 else {})}
            for n in rng.sample(CONFIG_POWERS, rng.randint(1, 3))
        ]
        for i in range(rng.randint(1, 3))
    }
    x = rand_lasso(rng, g)
    xt = lift_point(x)
    return {
        "name": "generated",
        "alphabet_size": g.alphabet_size,
        "edges": [[int(e) for e in row] for row in g.edges],
        "functions": functions,
        "elements": elements,
        "points": {
            "x": {"kind": "lasso", "pre": list(x.pre), "per": list(x.per)},
            "lift": {"kind": "bilasso", "left": list(xt.left), "center": list(xt.center),
                     "at": xt.start, "right": list(xt.right)},
        },
    }
