"""One-sided subshifts of finite type: transition graphs, points, cycles,
and cylinder functions.

Symbols are integers ``0..m-1`` and words are tuples of symbols.  Points of
the shift space come in two flavours: eventually periodic "lasso" points
(finite preperiod + repeating period) and rule-driven itinerary streams with
a certified admissibility horizon.  Everything is immutable after
construction; operations are pure functions.

Cylinder functions have one implementation for the base space and its
two-sided extension: a table on the admissible words of length ``window``,
read from coordinate ``start`` on.  Composing with a shift power moves
``start`` and keeps the table, so it costs O(1) however wide the window.
A full table holds its values in ``admissible_words(window)`` order, as a
tuple (``WordTable``) or, from ``WIDE_WORDS`` words on, a complex array
(``ArrayTable``).  A sum or a product gathers both operands onto the union
window by counted position lists cached per graph and window shape, which
hold no values, and combines them as Python complex arithmetic does.
"""

from __future__ import annotations

import itertools
import operator
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Union

import numpy as np

from .errors import (
    DeadState,
    GeneratorExhausted,
    NotSurjective,
    Overflow,
    WordInadmissible,
)

Word = tuple
Symbol = int

DEFAULT_CYCLE_CAP = 100_000
# Most admissible words one ``admissible_words`` listing may produce, so no
# m^w enumeration is unbounded.
MAX_LISTED_WORDS = 1 << 20
# Most symbols ``make_stream`` certifies, so a stream point's check is
# bounded in time and memory (one array of that many symbols).
MAX_CHECKED_SYMBOLS = 1 << 20
# Fewest words a table the arithmetic builds holds as an array, not a tuple:
# the crossover of the two kernels measured on 2- and 3-symbol graphs.
WIDE_WORDS = 128


def as_word(w) -> Word:
    """Coerce a word given as a tuple/list of ints or a digit string."""
    if isinstance(w, str):
        return tuple(int(ch) for ch in w)
    return tuple(int(s) for s in w)


# ---------------------------------------------------------------------------
# transition graphs


@dataclass(frozen=True)
class SftGraph:
    """A shift of finite type presented by its transition matrix.

    ``edges[i][j]`` is True when symbol ``j`` may follow symbol ``i``.  The
    one-sided space and its two-sided extension share the matrix.
    """

    alphabet_size: int
    edges: tuple
    _hash: int = field(init=False, repr=False, compare=False)
    _followers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # hashed once: every cached listing, position list and gather keys on it
        object.__setattr__(self, "_hash", hash((self.alphabet_size, self.edges)))
        # each row's followers, ascending, read by every walk and word listing
        object.__setattr__(self, "_followers", tuple(tuple(j for j, e in enumerate(row) if e) for row in self.edges))
        # the least window of WIDE_WORDS words; not a field, so no part of the graph's identity
        object.__setattr__(self, "_wide", _wide_window(self))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        # structural; most comparisons are of one graph object with itself
        if self is other:
            return True
        if type(other) is not SftGraph:
            return NotImplemented
        return (self.alphabet_size, self.edges) == (other.alphabet_size, other.edges)

    def is_edge(self, a: Symbol, b: Symbol) -> bool:
        return bool(self.edges[a][b])

    def followers(self, a: Symbol) -> Word:
        return self._followers[a]

    def predecessors(self, b: Symbol) -> Word:
        return tuple(i for i in range(self.alphabet_size) if self.edges[i][b])

    def word_admissible(self, word: Iterable[Symbol]) -> bool:
        m, edges = self.alphabet_size, self.edges
        prev = None
        for s in word:
            if not 0 <= s < m or (prev is not None and not edges[prev][s]):
                return False
            prev = s
        return True

    def admissible_words(self, length: int) -> tuple:
        """All admissible words of the given length, lexicographically sorted."""
        return _admissible_words(self, length)

    def count_words(self, length: int) -> int:
        """Exact number of admissible words (arbitrary precision), counted
        once per graph and length (``_word_count``)."""
        return _word_count(self, length)

    def is_permutation(self) -> bool:
        """True when every symbol has exactly one follower (the space is a
        finite union of periodic orbits)."""
        return all(len(row) == 1 for row in self._followers)


def validate_sft(alphabet_size: int, edges) -> SftGraph:
    """Build a validated one-sided transition graph.

    Raises DeadState when some row is empty (a symbol with no future) and
    NotSurjective when some column is empty (the shift would not be onto).
    """
    m = int(alphabet_size)
    if m < 1:
        raise ValueError("alphabet_size must be >= 1")
    rows = tuple(tuple(bool(x) for x in row) for row in edges)
    if len(rows) != m or any(len(r) != m for r in rows):
        raise ValueError(f"edges must be a {m}x{m} matrix")
    for i, row in enumerate(rows):
        if not any(row):
            raise DeadState(f"symbol {i} has no admissible follower")
    for j in range(m):
        if not any(rows[i][j] for i in range(m)):
            raise NotSurjective(f"symbol {j} has no admissible predecessor")
    return SftGraph(m, rows)


# Bounded, and far above the few dozen (graph, length) pairs one session uses.
@lru_cache(maxsize=1024)
def _word_count(g: SftGraph, length: int) -> int:
    return 1 if length <= 0 else sum(_starting.__wrapped__(g, length))  # keeps the count alone


def _counts(g: SftGraph):
    """How many admissible words of length 1, 2, ... start with each letter."""
    counts = (1,) * g.alphabet_size
    while True:
        yield counts
        counts = tuple([sum([counts[j] for j in row]) for row in g._followers])


@lru_cache(maxsize=1024)
def _starting(g: SftGraph, length: int) -> tuple:
    return next(itertools.islice(_counts(g), length - 1, None))


@lru_cache(maxsize=1024)
def _wide_window(g: SftGraph) -> int:
    """The least window of ``WIDE_WORDS`` admissible words or more: a valid
    graph's count grows with the length unless it is a permutation."""
    if g.is_permutation() and g.alphabet_size < WIDE_WORDS:
        return sys.maxsize  # alphabet_size words at every length
    return next(n for n, counts in enumerate(_counts(g), 1) if sum(counts) >= WIDE_WORDS)


def _check_listing(g: SftGraph, length: int) -> None:
    count = g.count_words(length)
    if count > MAX_LISTED_WORDS:
        raise Overflow(
            f"{count} admissible words of length {length} exceed the listing cap "
            f"{MAX_LISTED_WORDS}"
        )


@lru_cache(maxsize=1024)
def _admissible_words(g: SftGraph, length: int) -> tuple:
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return ((),)
    _check_listing(g, length)
    words = [(s,) for s in range(g.alphabet_size)]
    for _ in range(length - 1):
        # ascending followers keep the listing in lexicographic order
        words = [w + (b,) for w in words for b in g._followers[w[-1]]]
    return tuple(words)


@lru_cache(maxsize=1024)
def _positions(g: SftGraph, length: int) -> dict:
    """Word -> its position in ``admissible_words(length)``: one dict shared
    by every ``WordTable`` of that graph and length."""
    return {u: i for i, u in enumerate(_admissible_words(g, length))}


@lru_cache(maxsize=1024)
def _rows(g: SftGraph, width: int, offset: int, window: int) -> np.ndarray:
    """Row in ``admissible_words(window)`` of letters ``offset ..
    offset+window-1`` of each admissible word of length ``width``, counted
    from ``admissible_words`` order: one block of words per first letter."""
    end = offset + window
    if width > end:  # each word of length end, once per word of length width it begins
        begun = np.array(_starting(g, width - end + 1)).take(_rows(g, end, end - 1, 1))
        return np.repeat(_rows(g, end, offset, window), begun)
    if offset > 1:  # through each word's last width - 1 letters
        return _rows(g, width - 1, offset - 1, window).take(_rows(g, width, 1, width - 1))
    if offset == 0:
        return np.arange(_word_count(g, window))
    # the last width - 1 letters: for each edge (a, b) in word order, the words a b ... run over b's block
    heads = np.array(sum(g._followers, ()))
    sizes = np.array(_starting(g, window)).take(heads)
    starts = np.cumsum((0,) + _starting(g, window)[:-1]).take(heads) - np.cumsum(sizes) + sizes
    return np.repeat(starts, sizes) + np.arange(sizes.sum())


def _rank(g: SftGraph, words: np.ndarray) -> np.ndarray:
    """Row in ``admissible_words(n)`` of each word along the last axis of
    ``words``: its first letter's block start plus, at each later letter,
    the words of the length left that start with a smaller follower."""
    n, edges = words.shape[-1], np.array(g.edges, dtype=np.int64)
    row = np.add.accumulate((0,) + _starting(g, n)[:-1]).take(words[..., 0])
    for i in range(1, n):
        counts = edges * _starting(g, n - i)
        row = row + (counts.cumsum(1) - counts)[words[..., i - 1], words[..., i]]
    return row


@lru_cache(maxsize=1024)
def _gather(g: SftGraph, width: int, offset: int, window: int):
    """Reader of a ``WordTable``'s values on windows of length ``window`` at
    letters ``offset ..`` of the admissible words of length ``width``: from
    ``g._wide`` on their read-only positions (``_rows``), for ``take``; below
    it a reader that returns those values of a tuple as one tuple."""
    _check_listing(g, width)
    rows = _rows(g, width, offset, window)
    if width >= g._wide:
        rows.flags.writeable = False
        return rows
    if len(rows) == 1:  # itemgetter of one position returns no tuple
        p = int(rows[0])
        return lambda values: (values[p],)
    return operator.itemgetter(*rows.tolist())


@lru_cache(maxsize=1024)
def _cycle_positions(g: SftGraph, words: tuple, shift: int, window: int) -> np.ndarray:
    """Position in ``admissible_words(window)`` of the window at letters
    shift + j .. shift + j + window - 1 of each loop of g, read round and
    round, j < p, as one read-only (cycles, p) array, so one take of a
    ``WordTable.array`` reads them all.  Ranked as in ``_gather``."""
    p = len(words[0])
    out = _rank(g, np.array(words)[:, (shift + np.arange(p)[:, None] + np.arange(window)) % p])
    out.flags.writeable = False
    return out


def _require_admissible(g: SftGraph, word: Word, what: str) -> None:
    if not g.word_admissible(word):
        raise WordInadmissible(f"{what} {word!r} is not admissible")


# ---------------------------------------------------------------------------
# points


def _primitive_root(w: Word) -> Word:
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w == w[:d] * (n // d):
            return w[:d]
    return w


def _rotated(w: Word, k: int) -> Word:
    """``w`` rotated k places left (right for negative k)."""
    k %= len(w)
    return w[k:] + w[:k]


def _continued(word: Word, per: Word) -> int:
    """How many trailing symbols of ``word`` continue ``per`` read leftward,
    the largest n with ``word[-n:]`` a suffix of ``... per per``, in one pass."""
    pairs = zip(reversed(word), itertools.cycle(reversed(per)))
    return next((n for n, (a, b) in enumerate(pairs) if a != b), len(word))


def _periodic_slice(per: Word, lo: int, hi: int) -> Word:
    """Symbols ``lo .. hi-1`` of ``per`` repeated in both directions, with
    ``per[0]`` at index 0: one slice of a repetition, no per-index reads."""
    if lo >= hi:
        return ()
    p = len(per)
    a = lo % p
    return (per * ((a + hi - lo + p - 1) // p))[a : a + hi - lo]


@dataclass(frozen=True)
class LassoPoint:
    """Eventually periodic point ``pre . per per per ...`` in normal form:
    the period is primitive and the preperiod is as short as possible."""

    graph: SftGraph
    pre: Word
    per: Word

    def symbol_at(self, k: int) -> Symbol:
        if k < len(self.pre):
            return self.pre[k]
        return self.per[(k - len(self.pre)) % len(self.per)]

    @property
    def preperiod(self) -> int:
        return len(self.pre)

    @property
    def period(self) -> int:
        return len(self.per)


def make_lasso(g: SftGraph, pre, per) -> LassoPoint:
    """Validated, normalized lasso point.

    Normalization reduces the period to its primitive root, then strips the
    preperiod symbols that merely continue it: one count (``_continued``) and
    one rotation of the period by that count, so the sequence stays the same.
    """
    pre, per = as_word(pre), as_word(per)
    if not per:
        raise ValueError("period must be nonempty")
    _require_admissible(g, pre + per + per, "lasso word")
    per = _primitive_root(per)
    k = _continued(pre, per)
    return LassoPoint(g, pre[: len(pre) - k], _rotated(per, -k))


@dataclass(frozen=True)
class ItineraryStream:
    """Rule-driven point: symbol ``n`` of the underlying sequence is
    ``rule.symbol(n)``; this point starts at ``offset``.  Admissibility of
    adjacent pairs has been verified for indices below ``checked_to``; any
    request past that horizon raises GeneratorExhausted rather than emitting
    uncertified symbols."""

    graph: SftGraph
    rule: object
    offset: int = 0
    checked_to: int = 0

    @property
    def horizon(self) -> int:
        """Number of certified symbols remaining from the current offset."""
        return max(0, self.checked_to - self.offset)


def _rule_symbols(rule, lo: int, hi: int) -> Word:
    """Symbols ``lo .. hi-1`` of a stream rule in one call: a rule with a
    ``symbols(lo, hi)`` method reads the range itself (Thue-Morse in one
    numpy pass, a substitution as a slice of its expanded prefix); any
    other rule is read one ``symbol(n)`` at a time."""
    read = getattr(rule, "symbols", None)
    if read is not None:
        return tuple(read(lo, hi))
    return tuple(rule.symbol(n) for n in range(lo, hi))


def make_stream(g: SftGraph, rule, check_to: int, offset: int = 0) -> ItineraryStream:
    """Wrap a symbol rule as a stream point, certifying admissibility of the
    emitted sequence up to index ``check_to``: the range is read in one
    call and checked in numpy, its alphabet and its adjacent pairs, naming
    the first fault a symbol-by-symbol pass would meet.  More than
    ``MAX_CHECKED_SYMBOLS`` symbols raise Overflow before anything is read."""
    if check_to < 1:
        raise ValueError("check_to must be >= 1")
    if offset < 0:
        raise ValueError("offset must be >= 0")
    if check_to - offset > MAX_CHECKED_SYMBOLS:
        raise Overflow(
            f"certifying {check_to - offset} stream symbols exceeds the cap {MAX_CHECKED_SYMBOLS}"
        )
    sym = np.asarray(_rule_symbols(rule, offset, check_to))
    outside = np.flatnonzero((sym < 0) | (sym >= g.alphabet_size))
    end = int(outside[0]) if len(outside) else len(sym)  # pairs before the first symbol outside
    head = sym[:end].astype(np.intp)
    forbidden = np.flatnonzero(~np.array(g.edges, dtype=bool)[head[:-1], head[1:]])
    if len(forbidden):
        i = int(forbidden[0])
        raise WordInadmissible(f"stream emits forbidden pair ({head[i]},{head[i + 1]}) at index {offset + i}")
    if end < len(sym):
        raise WordInadmissible(f"stream emits symbol {sym[end]} outside alphabet at index {offset + end}")
    return ItineraryStream(g, rule, offset, check_to)


Point = Union[LassoPoint, ItineraryStream]


def shift_point(x: Point) -> Point:
    """Drop the first symbol: one application of the shift map."""
    if isinstance(x, LassoPoint):
        if x.pre:
            return LassoPoint(x.graph, x.pre[1:], x.per)
        return LassoPoint(x.graph, (), x.per[1:] + x.per[:1])
    return ItineraryStream(x.graph, x.rule, x.offset + 1, x.checked_to)


def itinerary(x: Point, length: int) -> Word:
    """First ``length`` symbols of the point, read in one call: a lasso
    point slices its preperiod and repeated period, a stream asks its rule
    for the whole range (``_rule_symbols``)."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if isinstance(x, LassoPoint):
        return x.pre[:length] + _periodic_slice(x.per, 0, length - len(x.pre))
    if length > x.horizon:
        raise GeneratorExhausted(
            f"itinerary of length {length} exceeds certified horizon {x.horizon}"
        )
    return _rule_symbols(x.rule, x.offset, x.offset + length)


@dataclass(frozen=True)
class PointClassification:
    kind: str  # "periodic" | "eventually_periodic" | "aperiodic_up_to"
    period: Optional[int] = None
    preperiod: Optional[int] = None
    bound: Optional[int] = None


def classify_point(x: Point, bound: int = 16) -> PointClassification:
    """Exact classification for lasso points.  For streams, certify the
    absence of any global period up to ``bound`` by scanning a prefix for
    per-period witnesses; the certified bound is reported (it may fall short
    of the request when the horizon is small or the stream looks periodic).
    """
    if isinstance(x, LassoPoint):
        if not x.pre:
            return PointClassification("periodic", period=len(x.per))
        return PointClassification(
            "eventually_periodic", period=len(x.per), preperiod=len(x.pre)
        )
    if bound < 1:
        raise ValueError("bound must be >= 1")
    scan = min(x.horizon, max(64, 4 * bound))
    if scan < 2:
        raise GeneratorExhausted("horizon too small to classify")
    w = itinerary(x, scan)
    certified = 0
    for p in range(1, bound + 1):
        if any(w[i] != w[i + p] for i in range(scan - p)):
            certified = p
        else:
            break
    return PointClassification("aperiodic_up_to", bound=certified)


# ---------------------------------------------------------------------------
# cycles


@dataclass(frozen=True)
class Cycle:
    """Primitive cycle of the transition graph, stored as the
    lexicographically least rotation of its symbol word."""

    graph: SftGraph
    word: Word

    @property
    def period(self) -> int:
        return len(self.word)


def _least_rotation(w: Word) -> int:
    """Places to rotate ``w`` left to reach its (first) least rotation."""
    return min(range(len(w)), key=lambda i: w[i:] + w[:i])


def enumerate_cycles(g: SftGraph, max_period: int, cap: int = DEFAULT_CYCLE_CAP) -> tuple:
    """All primitive cycles of period <= max_period, one per rotation class,
    sorted by (period, word).  Raises Overflow past ``cap`` cycles."""
    return _cycles(g, max_period, cap)  # a plain function over the cache, as tracers wrap functions


@lru_cache(maxsize=1024)
def _cycles(g: SftGraph, max_period: int, cap: int) -> tuple:
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if g.is_permutation():  # each orbit followed from its least symbol, which starts its least rotation
        orbits = ((a, *_connector(g, a, a)) for a in range(g.alphabet_size))
        words = (w for w in orbits if w[0] == min(w) and len(w) <= max_period)
    else:  # one representative per rotation class of each primitive closed word
        listed = (w for p in range(1, max_period + 1) for w in g.admissible_words(p))
        words = (w for w in listed if g.is_edge(w[-1], w[0]) and _primitive_root(w) == w and _least_rotation(w) == 0)
    out = []
    for w in words:
        out.append(Cycle(g, w))
        if len(out) > cap:
            raise Overflow(f"more than {cap} cycles up to period {max_period}; raise the cap")
    return tuple(sorted(out, key=lambda c: (c.period, c.word)))


@lru_cache(maxsize=4096)
def _walk(g: SftGraph, a: Symbol) -> dict:
    """Breadth-first search from ``a`` over ascending followers: each symbol
    a nonempty word leads to from ``a``, in the order found, mapped to the
    symbol before it on the first shortest such word (None when that is
    ``a`` itself)."""
    parent = dict.fromkeys(g.followers(a))
    queue = list(parent)
    for v in queue:  # grows as symbols are found, so they are expanded in that order
        for u in g.followers(v):
            if u not in parent:
                parent[u] = v
                queue.append(u)
    return parent


def _connector(g: SftGraph, a: Symbol, b: Symbol) -> Optional[Word]:
    """Shortest word w with a -> w -> b admissible (possibly empty), the
    first one the walk from ``a`` meets; None when b never follows a."""
    if g.is_edge(a, b):
        return ()
    parent = _walk(g, a)
    u = next((u for u in parent if g.edges[u][b]), None)
    path = []
    while u is not None:
        path.append(u)
        u = parent[u]
    return tuple(reversed(path)) if path else None


@lru_cache(maxsize=1024)
def _returns(g: SftGraph) -> tuple:
    """Length of the shortest cycle through each symbol that lies on one."""
    conns = (_connector(g, a, a) for a in range(g.alphabet_size))
    return tuple(1 + len(w) for w in conns if w is not None)


def girth(g: SftGraph) -> int:
    """Length of the shortest cycle (exists for every validated graph)."""
    return min(_returns(g))


def cycle_horizon(g: SftGraph, max_period: int = 0) -> int:
    """``max_period`` raised to the girth, so a cycle search up to it is never
    empty.  On a permutation it is raised to the longest orbit, so the
    search sees every orbit."""
    return max(max_period, (max if g.is_permutation() else min)(_returns(g)))


# ---------------------------------------------------------------------------
# cylinder functions


class _Cylinder:
    """Code shared by both cylinder flavours.

    A cylinder function reads the coordinates ``start .. start+window-1`` of
    a point and is stored as a total table on the admissible words of length
    ``window``; the reach ``start + window`` is how far into the point it
    reads.  ``CylinderFunction`` reads one-sided itineraries from coordinate
    0, ``TwoSidedCylinder`` reads the bi-sequence of the extension, whose
    index 1 is coordinate 0 of the projected point.  Alignment, arithmetic,
    the sup-norm, equality and translation are written once, here and in
    the functions below, for both flavours; arithmetic never mixes them.
    Each flavour's ``_like(start, window, values)`` builds a cylinder of its
    own flavour on the same graph.  Translating a function changes its
    ``start`` and shares its table.

    A table is a ``WordTable`` (built by ``_checked_table`` and the
    arithmetic), an ``IndicatorTable``, or any mapping a caller hands in.  A
    ``WordTable`` holds its values in ``admissible_words(window)`` order; the
    positions a sum or product reads come from caches of graph structure
    (``_rows``, ``_gather``).  Below the window ``g._wide`` arithmetic maps
    ``operator.add`` or ``operator.mul`` over two tuples of Python complex
    scalars; from there on ``_exact`` combines two complex arrays with one
    rounding per float operation, as CPython does, never by numpy's complex
    multiply, which may fuse a multiply-add: on an AVX-512 host with numpy
    2.4 about 46 % of its products of random complex numbers differ from
    Python's in the last bit.  Other tables are read word by word.
    """

    __slots__ = ()

    def _shifted(self, n: int):
        return self._like(self.start + n, self.window, self.values)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if (self.graph, self.start, self.window) != (other.graph, other.start, other.window):
            return False
        a, b = self.values, other.values
        if a is b:
            return True
        if isinstance(a, WordTable) and isinstance(b, WordTable):
            return a.in_order == b.in_order
        if isinstance(a, IndicatorTable) and isinstance(b, IndicatorTable):
            return a.target == b.target
        return dict(a) == dict(b)


@dataclass(frozen=True, eq=False, slots=True)
class CylinderFunction(_Cylinder):
    """Complex-valued function of the itinerary coordinates ``start ..
    start+window-1`` (``start`` 0: the first ``window`` symbols)."""

    graph: SftGraph
    window: int
    values: Mapping  # Word -> complex
    start: int = 0

    def _like(self, start, window, values):
        return CylinderFunction(self.graph, window, values, start)


class WordTable(Mapping):
    """Read-only total table on the admissible words of length ``window``:
    ``in_order[i]`` is the value at ``admissible_words(window)[i]``.

    A lookup goes through the word -> position dict that every table of the
    same graph and length shares (``_positions``, read at the first lookup),
    so a word that is not an admissible word of that length raises KeyError
    and an unhashable key TypeError, as a ``MappingProxyType`` over a dict
    does.  Iteration lists the words in order.
    """

    __slots__ = ("graph", "window", "in_order", "_index", "_array")

    def __init__(self, g: SftGraph, window: int, in_order: tuple):
        self.graph, self.window, self.in_order, self._index = g, window, in_order, None

    @property
    def array(self) -> np.ndarray:
        """``in_order`` as one read-only complex array, built on first use."""
        if not hasattr(self, "_array"):
            self._array = np.array(self.in_order, dtype=complex)
            self._array.flags.writeable = False
        return self._array

    def __getitem__(self, u):
        index = self._index
        if index is None:  # the first lookup
            index = self._index = _positions(self.graph, self.window)
        return self.in_order[index[u]]

    def __len__(self) -> int:
        return _word_count(self.graph, self.window)

    def __iter__(self):
        return iter(_admissible_words(self.graph, self.window))


class ArrayTable(WordTable):
    """A ``WordTable`` that the arithmetic builds from ``g._wide`` on: it
    holds its values as one read-only complex array and builds ``in_order``
    on first use."""

    __slots__ = ()

    def __init__(self, g: SftGraph, window: int, array: np.ndarray):
        array.flags.writeable = False
        self.graph, self.window, self._array, self._index = g, window, array, None

    def __getattr__(self, name):  # a missing attribute: in_order is built here, once
        if name != "in_order":
            raise AttributeError(name)
        self.in_order = tuple(self._array.tolist())
        return self.in_order


class IndicatorTable(Mapping):
    """Read-only table of the indicator of one admissible word: 1 on
    ``target``, 0 on every other admissible word of the same length.

    Lookups check the key against the transition graph instead of a stored
    table, so building one costs O(len(target)) however many admissible words
    that length has.  A key that is not an admissible word of that length
    raises KeyError, as a full table would.  Iteration goes through
    ``admissible_words``, under its cap, so equality and the arithmetic
    helpers still see a total function.  Matrix pictures read it in bulk
    by comparing their windows, read off checked points, with ``target``.
    """

    __slots__ = ("graph", "target")

    def __init__(self, g: SftGraph, target):
        target = as_word(target)
        if not target:
            raise ValueError("indicator target must be a nonempty word")
        _require_admissible(g, target, "indicator target")
        self.graph = g
        self.target = target

    def __getitem__(self, u):
        if u == self.target:
            return 1.0 + 0j
        if not (
            isinstance(u, tuple)
            and len(u) == len(self.target)
            and self.graph.word_admissible(u)
        ):
            raise KeyError(u)
        return 0j

    def __len__(self) -> int:
        count = self.graph.count_words(len(self.target))
        if count > sys.maxsize:  # len() itself could not report it
            raise Overflow(
                f"{count} admissible words of length {len(self.target)} are more "
                f"than len() can report"
            )
        return count

    def __iter__(self):
        return iter(self.graph.admissible_words(len(self.target)))


def table_values(f):
    """The values of a cylinder function of either flavour, each distinct
    value at least once.  An indicator table gives its one or two values
    from its word count, without listing words."""
    t = f.values
    if isinstance(t, WordTable):
        return t.in_order
    if isinstance(t, IndicatorTable):
        more = t.graph.count_words(len(t.target)) > 1
        return (1.0 + 0j, 0j) if more else (1.0 + 0j,)
    return t.values()


def _checked_table(g: SftGraph, window: int, values: Mapping) -> WordTable:
    """Validated table: it must cover exactly the admissible words of the
    window length, whatever the order of ``values``."""
    if window < 1:
        raise ValueError("window must be >= 1")
    table = {as_word(w): complex(v) for w, v in values.items()}
    words = g.admissible_words(window)
    extra = table.keys() - words
    if extra:
        raise WordInadmissible(f"values assigned to inadmissible words: {sorted(extra)[:3]}")
    missing = set(words) - table.keys()
    if missing:
        raise ValueError(f"missing values for admissible words: {sorted(missing)[:3]}")
    return WordTable(g, window, tuple([table[u] for u in words]))


def make_cylinder(g: SftGraph, window: int, values: Mapping) -> CylinderFunction:
    """Validated cylinder function of the first ``window`` coordinates."""
    return CylinderFunction(g, window, _checked_table(g, window, values))


def constant_cylinder(g: SftGraph, value, window: int = 1) -> CylinderFunction:
    return make_cylinder(g, window, {w: value for w in g.admissible_words(window)})


def is_constant(f) -> bool:
    return len(set(table_values(f))) <= 1


def eval_cylinder(f: CylinderFunction, x: Point) -> complex:
    """Value of the cylinder function at a point of its shift space."""
    if x.graph != f.graph:
        raise ValueError("the point lies on another graph than the polynomial")
    w = itinerary(x, f.start + f.window)[f.start :]
    try:
        return f.values[w]
    except KeyError:  # unreachable for validated inputs; defensive
        raise WordInadmissible(f"itinerary window {w!r} is not admissible") from None


def compose_shift(f, n: int):
    """The composition with the n-th iterate of the shift: the same table
    read n coordinates further on, in O(1)."""
    if n < 0:
        raise ValueError("shift power must be >= 0")
    return f if n == 0 else f._shifted(n)


def _widened(f, offset: int, width: int) -> tuple:
    """f's values at the admissible words of length ``width`` whose letters
    ``offset ..`` are f's window, as one tuple in word order.  A
    ``WordTable`` is its own answer at the whole width and is gathered by
    cached positions (``_gather``) at any other; any other table is read
    one word at a time."""
    values = f.values
    if isinstance(values, WordTable):
        if offset == 0 and f.window == width:
            return values.in_order
        return _gather(f.graph, width, offset, f.window)(values.in_order)
    end = offset + f.window
    return tuple([values[u[offset:end]] for u in f.graph.admissible_words(width)])


def _taken(f, offset: int, width: int) -> np.ndarray:
    """``_widened`` as one complex array, for widths from ``f.graph._wide``
    on: a ``WordTable``'s array is taken at the positions ``_gather`` caches."""
    values = f.values
    if not isinstance(values, WordTable):
        return np.array(_widened(f, offset, width), dtype=complex)
    if offset == 0 and f.window == width:
        return values.array
    return values.array.take(_gather(f.graph, width, offset, f.window))


def _exact(op, a, b: np.ndarray) -> np.ndarray:
    """``op(a, b)``, ``operator.add`` or ``operator.mul``, of complex arrays
    (or a complex ``a``) as CPython computes it: a product's re = ar br - ai bi
    and im = ar bi + ai br, each rounded once, never numpy's complex multiply."""
    with np.errstate(all="ignore"):  # inf and nan pass silently, as in Python
        if op is operator.add:
            return np.add(a, b)
        out = np.empty(b.shape, dtype=complex)
        np.subtract(a.real * b.real, a.imag * b.imag, out=out.real)
        np.add(a.real * b.imag, a.imag * b.real, out=out.imag)
    return out


def extend_window(f, window: int):
    """Reinterpret ``f`` as a function of a longer window from the same
    start (values depend on the first ``f.window`` letters only)."""
    if window < f.window:
        raise ValueError("cannot shrink a window")
    if window == f.window:
        return f
    if window < f.graph._wide:
        return f._like(f.start, window, WordTable(f.graph, window, _widened(f, 0, window)))
    return f._like(f.start, window, ArrayTable(f.graph, window, _taken(f, 0, window)))


def _combined(op, f, h, shift: int = 0):
    """``op`` of f o shift^shift and h on the union of their reading ranges:
    both widened to its admissible words and mapped in one pass, from
    ``g._wide`` on as arrays (``_exact``)."""
    if type(f) is not type(h):
        raise TypeError("cylinder flavours do not match")
    g = f.graph
    if g != h.graph:
        raise ValueError("cylinder functions live on different graphs")
    fs = f.start + shift
    lo = min(fs, h.start)
    width = max(fs + f.window, h.start + h.window) - lo
    if width < g._wide:
        values = tuple(map(op, _widened(f, fs - lo, width), _widened(h, h.start - lo, width)))
        return f._like(lo, width, WordTable(g, width, values))
    values = _exact(op, _taken(f, fs - lo, width), _taken(h, h.start - lo, width))
    return f._like(lo, width, ArrayTable(g, width, values))


def cylinder_add(f, h):
    """Pointwise sum of two cylinders of the same flavour."""
    return _combined(operator.add, f, h)


def _product(f, h, shift: int = 0):
    """Pointwise product (f o shift^shift) * h, without building the
    translated f."""
    return _combined(operator.mul, f, h, shift)


def cylinder_mul(f, h):
    """Pointwise product of two cylinders of the same flavour."""
    return _product(f, h)


def cylinder_scale(f, c):
    """``c`` times f (a comprehension multiplies faster than a ``map`` of a
    bound method)."""
    c = complex(c)
    if f.window < f.graph._wide:
        values = tuple([c * v for v in _widened(f, 0, f.window)])
        return f._like(f.start, f.window, WordTable(f.graph, f.window, values))
    values = _exact(operator.mul, c, _taken(f, 0, f.window))
    return f._like(f.start, f.window, ArrayTable(f.graph, f.window, values))


def sup_norm(f) -> float:
    """Supremum norm; exact since every admissible word names a nonempty
    cylinder set."""
    return max(abs(v) for v in table_values(f))
