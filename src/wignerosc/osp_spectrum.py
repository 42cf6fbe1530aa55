"""Energy spectrum in the lowest-weight osp(1|2n) representations V(p).

V(p), with lowest weight (p/2, ..., p/2), is a unitary irreducible
module exactly when p is one of 1, ..., n-1 or any real p > n-1. Its
basis consists of triangular Gelfand-Zetlin patterns: the top row is a
partition into at most ceil(p) parts (padded with zeros to n entries)
and consecutive rows interleave, m[i][j+1] >= m[i][j] >= m[i+1][j+1].

Each pattern is an eigenvector; with s_j the sum of the length-j row,

    E = sum_j sqrt(mu_j) * (p/2 + s_j - s_{j-1}),    s_0 = 0,

in units of hbar (``levels.level_energies`` at a = p/2), so a level depends
only on the weight w = (s_1, s_2 - s_1, ..., s_n - s_{n-1}). Each weight up to
a top-row weight is a class (``levels.levels`` evaluates it); its exact
multiplicity, the number of patterns of weight w, is a sum of Kostka numbers
counted by the branching rule (1 when ceil(p) = 1: V(1) is the boson Fock
space, w the occupations), and no pattern is built. The merge joins each
height at c = 0, and level crossings at special couplings.

The paper's closed forms per height (hook-content multiplicities, C(n+k-1,
n-1) distinct levels at generic coupling) are test oracles, not library code.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter

import numpy as np

from .errors import UnirrepError
from .levels import LevelClasses, SpectrumLine, levels, spectrum_lines, weight_lattice
from .spectral import ModeFrequencies, checked_namedtuple, int_tuple

__all__ = [
    "GZPattern",
    "osp_classes",
    "osp_spectrum",
    "is_unirrep",
]

_TUPLE = frozenset((tuple,))


def is_unirrep(n: int, p: float) -> bool:
    """Whether V(p) of osp(1|2n) is unitary irreducible: p in {1..n-1} or p > n-1
    (ValueError for a bool p or a p that is not finite)."""
    if isinstance(p, (bool, np.bool_)):
        raise ValueError(f"the V(p) label must be a number, not a bool; got p = {p}")
    if not math.isfinite(p):
        raise ValueError(f"the V(p) label must be finite; got p = {p}")
    if n < 1:
        raise ValueError("need at least one oscillator")
    if p > n - 1:
        return True
    return float(p).is_integer() and 1 <= p <= n - 1


@functools.lru_cache(maxsize=32)
def _interleaving(n: int):
    """A test of n tuples of lengths n, n-1, ..., 1 (rows, top first): are the entries
    ints, do consecutive rows interleave, and is the top row's last entry non-negative?

    Its source is generated from the int n alone, as ``namedtuple`` generates
    ``__new__``: the rows unpack into named locals, one chained ``is`` tests their
    types, and one chained comparison u0 >= l0 >= u1 >= ... >= uL each pair of rows.
    A build takes about 0.5 ms at n = 7, 7 ms at n = 30 and 80 ms at n = 100.
    """
    names = [[f"m{r}_{i}" for i in range(n - r)] for r in range(n)]
    unpack = ", ".join(f"({', '.join(row)},)" for row in names)
    types = " is ".join(f"type({x})" for x in itertools.chain(*names))
    chains = [" >= ".join([*itertools.chain(*zip(upper, lower)), upper[-1]])
              for upper, lower in zip(names, names[1:])] or [names[0][0]]
    chains[0] += " >= 0"  # the first chain ends at the top row's last entry
    namespace = {}
    exec(f"def interleaving(rows):\n    {unpack}, = rows\n"
         f"    return int is {types} and {' and '.join(chains)}\n", namespace)
    return namespace["interleaving"]


class GZPattern(checked_namedtuple("GZPattern", "rows n p")):
    """Triangular Gelfand-Zetlin pattern, stored top row first.

    ``rows[0]`` holds the n-entry top row, ``rows[i]`` has n - i
    entries; the length-j row is ``rows[n - j]``. Interleaving between
    consecutive rows and the top-row shape (weakly decreasing, at most
    ceil(p) nonzero entries) are enforced at construction.

    A tuple of int tuples is accepted in one compiled step (``_interleaving``),
    as interleaving orders the top row and makes its last entry the least; its row
    count and lengths are checked before that step is built for n. Any other input,
    and any pattern that step refuses, goes through the rules in order, which
    normalise the entries or raise the first rule broken.
    """

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...], n: int, p: float):
        if type(n) is not int:
            (n,) = int_tuple((n,), f"a pattern needs an integer n; got n = {n}")
        if n < 1:
            raise ValueError(f"a pattern needs n >= 1; got n = {n}")
        if (type(rows) is tuple and len(rows) == n and _TUPLE.issuperset(map(type, rows))
                and tuple(map(len, rows)) == tuple(range(n, 0, -1)) and _interleaving(n)(rows)
                and math.isfinite(p) and n - rows[0].count(0) <= math.ceil(p)):
            return super().__new__(cls, rows, n, p)
        # the rules in order; the first one broken raises
        rows = tuple(int_tuple(row, "entries must be integers") for row in rows)
        if len(rows) != n or tuple(map(len, rows)) != tuple(range(n, 0, -1)):
            raise ValueError("pattern must have rows of lengths n, n-1, ..., 1")
        if min(itertools.chain(*rows), default=0) < 0:
            raise ValueError("entries must be non-negative")
        top = rows[0]
        if not all(map(operator.ge, top, top[1:])):
            raise ValueError("top row must be weakly decreasing")
        if not math.isfinite(p):
            raise ValueError(f"the V(p) label must be finite; got p = {p}")
        if n - top.count(0) > math.ceil(p):
            raise ValueError(f"top row has more than ceil(p) = {math.ceil(p)} nonzero entries")
        if not _interleaving(n)(rows):
            raise ValueError("interleaving condition violated")
        return super().__new__(cls, rows, n, p)

    def row(self, j: int) -> tuple[int, ...]:
        """The length-j row, j = 1..n."""
        return self.rows[self.n - j]

    @property
    def height(self) -> int:
        return sum(self.rows[0])


def _strips(row: tuple[int, ...], size: int, parts: int) -> list[tuple[int, ...]]:
    """Rows kappa_1 >= row_1 >= kappa_2 >= ... >= row_l >= kappa_{l+1} >= 0, zeros dropped,
    with ``size`` more in their sum: ``row`` plus each horizontal strip of ``size`` cells.
    A strip adds at most one part, kappa_{l+1}, which stays 0 once ``row`` has ``parts``."""
    below = row[1:] + (0,) * (len(row) < parts)
    tails = itertools.product(*(range(b, min(a, b + size) + 1) for a, b in zip(row, below)))
    return [tuple(x for x in (sum(row) + size - sum(t), *t) if x)
            for t in tails if sum(t) - sum(below) <= size]


def _pattern_counts(weights: np.ndarray, parts: int) -> np.ndarray:
    """Patterns of each weight (row) whose top row has at most ``parts`` nonzero entries.

    Kostka numbers are symmetric in the weight, so each weight sorted
    descending is counted once, by the branching rule: ``tops[j]`` counts the
    patterns of each top row over its first j entries, and entry j + 1 adds its strips.
    A strip never shortens a row, so a row of more than ``parts`` entries can never
    become an admissible top row, and ``_strips`` builds none.
    """
    weights = np.sort(weights, axis=1)[:, ::-1]
    order = np.lexsort(weights.T[::-1])  # rows ascending, the first entry the primary key
    weights = weights[order]
    distinct = np.ones(len(weights), dtype=bool)  # the first row of each run of equal rows
    distinct[1:] = (weights[1:] != weights[:-1]).any(axis=1)
    inverse = np.empty(len(weights), dtype=np.intp)
    inverse[order] = np.cumsum(distinct) - 1
    weights = weights[distinct]
    count = np.empty(len(weights), dtype=np.int64)
    # rows ascend, so tops[:start + 1] of the row before hold up to the first differing entry
    shared = np.argmax(np.diff(weights, axis=0, prepend=-1) != 0, axis=1)
    tops = [Counter({(): 1})]
    for i, (row, start) in enumerate(zip(weights, shared)):
        del tops[start + 1:]
        for size in filter(None, row[start:].tolist()):
            tops.append(Counter())
            for below, c in tops[-2].items():
                for top in _strips(below, size, parts):
                    tops[-1][top] += c
        count[i] = sum(tops[-1].values())
    return count[inverse]


def osp_classes(n: int, p: float, k_max: int) -> LevelClasses:
    """Row-sum signature classes up to top-row weight k_max, keyed (height, s_1, ..., s_n).

    Every weight w = diff(s) with sum(w) <= k_max is a class at a = p/2 (the
    top row (sum(w)) is admissible), of multiplicity sum_lambda K_{lambda, w}
    over top rows of at most ceil(p) parts (1 if ceil(p) = 1). A non-finite p
    raises ValueError, and a lattice over BYTE_BUDGET raises before it is built.
    """
    n, k_max = int_tuple((n, k_max), f"need integers n and k_max, not n = {n}, k_max = {k_max}")
    if not is_unirrep(n, p):
        raise UnirrepError(
            f"V(p) of osp(1|{2 * n}) needs p in {{1..{n - 1}}} or p > {n - 1}; got p = {p}")
    lattice = weight_lattice(n, k_max,
                             f"the V({p}) classes of osp(1|{2 * n}) up to height {k_max}")
    weights = lattice[:, 1:]
    keys = np.column_stack((lattice[:, 0], np.cumsum(weights, axis=1)))
    parts = math.ceil(p)
    count = np.ones(len(keys), np.int64) if parts == 1 else _pattern_counts(weights, parts)
    return LevelClasses(keys=keys, weights=weights, multiplicity=count, a=p / 2)


def osp_spectrum(n: int, p: float, freqs: ModeFrequencies, k_max: int) -> list[SpectrumLine]:
    """Spectrum lines up to top-row weight k_max, sorted ascending.

    Multiplicities are the exact pattern counts of ``osp_classes`` (so
    they are correct even when two energies are numerically close); lines
    within MERGE_TOL smallest mode quanta merge, so c = 0 gives one line per
    height at every omega. A line is labelled by its head class key,
    (height, signature) in plain ints; that class's first pattern is the hook
    pattern whose length-j row is (s_j, 0, ..., 0).
    """
    classes = osp_classes(n, p, k_max)
    merged = levels(classes, freqs)
    return spectrum_lines(merged, [(key[0], tuple(key[1:]))
                                   for key in classes.keys[merged.head].tolist()])
