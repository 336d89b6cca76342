"""Symbol rules for itinerary streams.

Each rule is a small frozen object with a pure ``symbol(n) -> int`` method
and a reader of a range of symbols (``symbols(lo, hi)``): Thue-Morse and
substitution fixed points in one numpy pass, a mechanical word with one
exact floor per index, a prefixed rule through its tail's reader.
The catalog covers fixed points of substitutions (Thue-Morse, Fibonacci, or
any user-supplied prolongable substitution), mechanical words with an exact
quadratic-irrational slope, and explicit prefixes spliced onto another rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .dynamics import Word, _rule_symbols, as_word


@dataclass(frozen=True)
class ThueMorse:
    """symbol(n) = parity of the binary digit sum of n."""

    def symbol(self, n: int) -> int:
        return bin(n).count("1") & 1

    def symbols(self, lo: int, hi: int) -> Word:
        """Symbols ``lo .. hi-1`` in one numpy pass: each index's bits are
        folded onto its lowest by XOR shifts.  A range outside
        0 .. 2^62 is read one ``symbol(n)`` at a time."""
        if lo >= hi:
            return ()
        if lo < 0 or hi > 1 << 62:
            return tuple(self.symbol(n) for n in range(lo, hi))
        n = np.arange(lo, hi, dtype=np.int64)
        for shift in (32, 16, 8, 4, 2, 1):
            n ^= n >> shift
        return tuple((n & 1).tolist())


@dataclass(frozen=True)
class SubstitutionFixedPoint:
    """Fixed point of a substitution ``s -> rules[s]`` starting from ``seed``.

    The substitution must be prolongable: the image of the seed begins with
    the seed itself, so iterating the substitution on the seed produces a
    nested family of prefixes of a unique infinite word.  The longest
    prefix expanded so far is kept on the instance (outside equality and
    hashing) and grows one whole substitution level at a time.
    """

    rules: tuple  # tuple of (symbol, image word) pairs, sorted by symbol
    seed: int = 0
    _expanded: np.ndarray = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        images = dict(self.rules)
        if self.seed not in images or not images[self.seed] or images[self.seed][0] != self.seed:
            raise ValueError("substitution is not prolongable from the seed")
        if any(not img for _, img in self.rules):
            raise ValueError("substitution images must be nonempty")
        missing = sorted({s for _, img in self.rules for s in img} - images.keys())
        if missing:
            raise ValueError(f"symbol {missing[0]} of an image has no image of its own")

    def _prefix(self, length: int) -> np.ndarray:
        """The expanded prefix, at least ``length`` symbols long when the
        substitution grows.  A level is expanded in one numpy pass: each
        symbol's image is gathered from the images laid end to end."""
        word = np.array([self.seed]) if self._expanded is None else self._expanded
        if len(word) < length:
            images = sorted(dict(self.rules).items())
            keys = np.array([s for s, _ in images])
            sizes = np.array([len(img) for _, img in images])
            starts = np.cumsum(sizes) - sizes
            flat = np.array([s for _, img in images for s in img])
            while len(word) < length:
                at = np.searchsorted(keys, word)  # every symbol has an image (__post_init__)
                n = sizes[at]
                ends = np.cumsum(n)
                level = flat[np.arange(ends[-1]) + np.repeat(starts[at] - (ends - n), n)]
                if len(level) <= len(word):
                    raise ValueError("substitution fails to grow")
                word = level
        object.__setattr__(self, "_expanded", word)
        return word

    def symbol(self, n: int) -> int:
        return self.symbols(n, n + 1)[0]

    def symbols(self, lo: int, hi: int) -> Word:
        """Symbols ``lo .. hi-1``: one slice of the expanded prefix.  The
        word starts at index 0; a negative index raises ValueError."""
        if lo < 0:
            raise ValueError(f"the fixed point has no symbol at index {lo}")
        if lo >= hi:
            return ()
        return tuple(self._prefix(hi)[lo:hi].tolist())


def substitution(rules_map, seed: int = 0) -> SubstitutionFixedPoint:
    rules = tuple(sorted((int(s), as_word(img)) for s, img in dict(rules_map).items()))
    return SubstitutionFixedPoint(rules, seed)


def thue_morse_substitution() -> SubstitutionFixedPoint:
    return substitution({0: (0, 1), 1: (1, 0)}, seed=0)


def fibonacci_word() -> SubstitutionFixedPoint:
    return substitution({0: (0, 1), 1: (0,)}, seed=0)


def _floor_affine_sqrt(a: int, b: int, d: int, c: int) -> int:
    """floor((a + b*sqrt(d)) / c) in exact integer arithmetic (c > 0, d >= 0)."""
    if c <= 0:
        raise ValueError("denominator must be positive")
    if b == 0:
        return a // c
    s2 = b * b * d
    t = isqrt(s2)
    if t * t == s2:  # sqrt is exact, the expression is rational
        x = t if b > 0 else -t
        return (a + x) // c
    if b > 0:
        return (a + t) // c
    # b*sqrt(d) = -(t + frac) with 0 < frac < 1
    return (a - t - 1) // c


@dataclass(frozen=True)
class MechanicalWord:
    """Lower mechanical word with slope ``alpha = (p + q*sqrt(d)) / r``,
    rational intercept ``rho = rho_num / rho_den`` and index origin ``n0``:

        symbol(n) = floor((n+n0+1)*alpha + rho) - floor((n+n0)*alpha + rho)

    computed exactly with integer square roots.  For an irrational slope in
    (0, 1) this is a Sturmian sequence.
    """

    p: int
    q: int
    d: int
    r: int
    rho_num: int = 0
    rho_den: int = 1
    n0: int = 0

    def __post_init__(self):
        if self.r <= 0 or self.rho_den <= 0 or self.d < 0:
            raise ValueError("invalid slope parameters")
        alpha = (self.p + self.q * self.d ** 0.5) / self.r
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"slope {alpha} outside (0, 1)")

    def _floor_at(self, n: int) -> int:
        # floor(n*alpha + rho) over the common denominator r*rho_den
        a = n * self.p * self.rho_den + self.rho_num * self.r
        b = n * self.q * self.rho_den
        return _floor_affine_sqrt(a, b, self.d, self.r * self.rho_den)

    def symbol(self, n: int) -> int:
        k = n + self.n0
        return self._floor_at(k + 1) - self._floor_at(k)

    def symbols(self, lo: int, hi: int) -> Word:
        """Symbols ``lo .. hi-1`` as the differences of consecutive floors,
        each of the hi - lo + 1 floors evaluated once."""
        floors = [self._floor_at(k) for k in range(lo + self.n0, max(lo, hi) + self.n0 + 1)]
        return tuple(b - a for a, b in zip(floors, floors[1:]))


def golden_mechanical() -> MechanicalWord:
    """Slope (3 - sqrt(5))/2 = 1/phi^2 with index origin 1: reproduces the
    Fibonacci substitution word symbol for symbol."""
    return MechanicalWord(p=3, q=-1, d=5, r=2, n0=1)


@dataclass(frozen=True)
class PrefixedRule:
    """Explicit finite prefix followed by another rule (re-indexed from 0)."""

    prefix: Word
    tail: object

    def symbol(self, n: int) -> int:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.tail.symbol(n - len(self.prefix))

    def symbols(self, lo: int, hi: int) -> Word:
        """Symbols ``lo .. hi-1``: a slice of the prefix, then the tail's
        range through its own reader (``_rule_symbols``).  The word starts
        at index 0; a negative index raises ValueError."""
        if lo < 0:
            raise ValueError(f"the prefixed rule has no symbol at index {lo}")
        p, hi = len(self.prefix), max(lo, hi)
        return self.prefix[lo:hi] + _rule_symbols(self.tail, max(lo, p) - p, max(hi, p) - p)


def prefixed(prefix, tail) -> PrefixedRule:
    return PrefixedRule(as_word(prefix), tail)
