"""Energy spectrum in the lowest-weight osp(1|2n) representations V(p).

V(p), with lowest weight (p/2, ..., p/2), is a unitary irreducible
module exactly when p is one of 1, ..., n-1 or any real p > n-1. Its
basis consists of triangular Gelfand-Zetlin patterns: the top row is a
partition into at most ceil(p) parts (padded with zeros to n entries)
and consecutive rows interleave, m[i][j+1] >= m[i][j] >= m[i+1][j+1].

Each pattern is an eigenvector; with s_j the sum of the length-j row,

    E = sum_j sqrt(mu_j) * (p/2 + s_j - s_{j-1}),    s_0 = 0,

in units of hbar, so a level depends only on the weight w = (s_1, s_2 - s_1,
..., s_n - s_{n-1}). Each weight up to a top-row weight is a class; its exact
multiplicity, the number of patterns of weight w, is a sum of Kostka numbers
counted by the branching rule, and no pattern is built. The merge joins each
height at c = 0, and level crossings at special couplings.

The paper's closed forms per height (hook-content multiplicities, C(n+k-1,
n-1) distinct levels at generic coupling) are test oracles, not library code.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import UnirrepError
from .levels import (LevelClasses, MergedLevels, SpectrumLine, merge_classes, spectrum_lines,
                     weight_lattice)
from .spectral import ModeFrequencies

__all__ = [
    "GZPattern",
    "hook_patterns",
    "osp_classes",
    "osp_levels",
    "osp_spectrum",
    "is_unirrep",
]


def is_unirrep(n: int, p: float) -> bool:
    """Whether V(p) of osp(1|2n) is unitary irreducible: p in {1..n-1} or p > n-1."""
    if n < 1:
        raise ValueError("need at least one oscillator")
    if p > n - 1:
        return True
    return float(p).is_integer() and 1 <= p <= n - 1


@dataclass(frozen=True, order=True)
class GZPattern:
    """Triangular Gelfand-Zetlin pattern, stored top row first.

    ``rows[0]`` holds the n-entry top row, ``rows[i]`` has n - i
    entries; the length-j row is ``rows[n - j]``. Interleaving between
    consecutive rows and the top-row shape (weakly decreasing, at most
    ceil(p) nonzero entries) are enforced at construction.
    """

    rows: tuple[tuple[int, ...], ...]
    n: int
    p: float

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.n or [len(r) for r in rows] != list(range(self.n, 0, -1)):
            raise ValueError("pattern must have rows of lengths n, n-1, ..., 1")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("entries must be non-negative")
        top = rows[0]
        if any(a < b for a, b in zip(top, top[1:])):
            raise ValueError("top row must be weakly decreasing")
        if sum(1 for x in top if x > 0) > math.ceil(self.p):
            raise ValueError(f"top row has more than ceil(p) = {math.ceil(self.p)} nonzero entries")
        for upper, lower in zip(rows, rows[1:]):
            for i, x in enumerate(lower):
                if not upper[i] >= x >= upper[i + 1]:
                    raise ValueError("interleaving condition violated")

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
    weights, inverse = np.unique(np.sort(weights, axis=1)[:, ::-1], axis=0, return_inverse=True)
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
    return count[inverse.ravel()]


def hook_patterns(signatures: np.ndarray) -> list[list[list[int]]]:
    """The lexicographically greatest pattern of each row-sum class, rows top (length n) first.

    Row i of ``signatures`` holds s_1..s_n; its pattern's length-j row is (s_j, 0, ..., 0).
    """
    return [[[s[j - 1]] + [0] * (j - 1) for j in range(len(s), 0, -1)]
            for s in signatures.tolist()]


def osp_classes(n: int, p: float, k_max: int) -> LevelClasses:
    """Row-sum signature classes up to top-row weight k_max, keyed (height, s_1, ..., s_n).

    Every weight w = diff(s) with sum(w) <= k_max is a class (the top row
    (sum(w)) is admissible), of multiplicity sum_lambda K_{lambda, w} over
    top rows of at most ceil(p) parts. A non-finite p raises ValueError, and a
    lattice over BYTE_BUDGET raises before it is built.
    """
    if not math.isfinite(p):
        raise ValueError(f"the V(p) label must be finite; got p = {p}")
    if not is_unirrep(n, p):
        raise UnirrepError(
            f"V(p) of osp(1|{2 * n}) needs p in {{1..{n - 1}}} or p > {n - 1}; got p = {p}")
    lattice = weight_lattice(n, k_max,
                             f"the V({p}) classes of osp(1|{2 * n}) up to height {k_max}")
    keys = np.column_stack((lattice[:, 0], np.cumsum(lattice[:, 1:], axis=1)))
    return LevelClasses(keys=keys, multiplicity=_pattern_counts(lattice[:, 1:], math.ceil(p)),
                        p=p)


def osp_levels(classes: LevelClasses, freqs: ModeFrequencies) -> MergedLevels:
    """Lines of ``osp_classes(n, p, k_max)`` at every coupling of ``freqs``, merged at MERGE_TOL."""
    if freqs.n != classes.keys.shape[1] - 1:
        raise ValueError("mode count disagrees with n")
    sqrt_mu = np.atleast_2d(freqs.sqrt_mu)
    shift = classes.p / 2.0 + np.diff(classes.keys[:, 1:], axis=1, prepend=0)
    # summed term by term in j, so energies match a per-pattern sum bit for bit
    energy = np.zeros((len(sqrt_mu), len(shift)))
    for j in range(freqs.n):
        energy += sqrt_mu[:, j, None] * shift[:, j]
    return merge_classes(energy, classes.multiplicity, freqs)


def osp_spectrum(n: int, p: float, freqs: ModeFrequencies, k_max: int) -> list[SpectrumLine]:
    """Spectrum lines up to top-row weight k_max, sorted ascending.

    Multiplicities are the exact pattern counts of ``osp_classes`` (so
    they are correct even when two energies are numerically close); lines
    within MERGE_TOL smallest mode quanta merge, so c = 0 gives one line per
    height at every omega. A line is labelled by its head class key,
    (height, signature) in plain ints; ``hook_patterns`` gives that class's
    first pattern.
    """
    classes = osp_classes(n, p, k_max)
    merged = osp_levels(classes, freqs)
    return spectrum_lines(merged, [(key[0], tuple(key[1:]))
                                   for key in classes.keys[merged.head].tolist()])
