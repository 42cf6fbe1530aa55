"""Energy spectrum in the lowest-weight osp(1|2n) representations V(p).

V(p), with lowest weight (p/2, ..., p/2), is a unitary irreducible
module exactly when p is one of 1, ..., n-1 or any real p > n-1. Its
basis consists of triangular Gelfand-Zetlin patterns: the top row is a
partition into at most ceil(p) parts (padded with zeros to n entries)
and consecutive rows interleave, m[i][j+1] >= m[i][j] >= m[i+1][j+1].

Each pattern is an eigenvector; with s_j the sum of the length-j row,

    E = sum_j sqrt(mu_j) * (p/2 + s_j - s_{j-1}),    s_0 = 0,

in units of hbar. Patterns sharing the row-sum vector (s_1, ..., s_n)
share the eigenvalue for every coupling. All patterns up to a top-row
weight are grown as one integer array, and their (height, s_1, ..., s_n)
keys are grouped with ``np.unique``, which gives exact multiplicities;
merging by floating tolerance is applied only on top, to catch level
crossings at special couplings.

All combinatorial quantities (hook products, multiplicities) use exact
rational arithmetic; floating point enters only in the final energy.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UnirrepError
from .levels import (LevelClasses, MergedLevels, SpectrumLine, branch, merge_classes,
                     spectrum_lines)
from .spectral import ModeFrequencies

__all__ = [
    "Partition",
    "GZPattern",
    "partitions_of",
    "conjugate",
    "generalized_binomial",
    "multiplicity_at_height",
    "enumerate_gz",
    "osp_eigenvalue",
    "row_sum_signature",
    "osp_classes",
    "osp_levels",
    "osp_spectrum",
    "distinct_count_at_height",
    "is_unirrep",
    "osp_lines_to_csv",
    "osp_lines_to_json",
]


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(x) for x in self.parts)
        if any(x <= 0 for x in parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)


def partitions_of(k: int, max_parts: int, max_slots: int | None = None) -> list[Partition]:
    """Partitions of k into at most min(max_parts, max_slots) parts, reverse-lexicographic."""
    if k < 0:
        raise ValueError("k must be non-negative")
    limit = max_parts if max_slots is None else min(max_parts, max_slots)

    def gen(rest: int, cap: int, slots: int):
        if rest == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first, slots - 1):
                yield (first,) + tail

    return [Partition(p) for p in gen(k, k, limit)]


def conjugate(nu: Partition) -> Partition:
    """Transpose of the Young diagram; an involution."""
    parts = nu.parts
    if not parts:
        return Partition(())
    return Partition(tuple(sum(1 for x in parts if x > j) for j in range(parts[0])))


def generalized_binomial(x: int, nu: Partition) -> Fraction:
    """Hook-content product prod_{(i,j) in nu} (x - (j - i)) / h(i, j).

    h(i, j) = nu_i + nu'_j - i - j + 1 is the hook length (1-based cell
    coordinates). Exact rational arithmetic; the result is integral for
    integral x, and vanishes automatically when the diagram does not fit
    into x rows.
    """
    nup = conjugate(nu).parts
    out = Fraction(1)
    for i, row in enumerate(nu.parts, start=1):
        for j in range(1, row + 1):
            hook = row + nup[j - 1] - i - j + 1
            out *= Fraction(x - (j - i), hook)
    return out


def is_unirrep(n: int, p: float) -> bool:
    """Whether V(p) of osp(1|2n) is unitary irreducible: p in {1..n-1} or p > n-1."""
    if n < 1:
        raise ValueError("need at least one oscillator")
    if p > n - 1:
        return True
    return float(p).is_integer() and 1 <= p <= n - 1


def multiplicity_at_height(n: int, p: float, k: int) -> int:
    """Number of patterns whose top row has weight k: the zero-coupling degeneracy.

    Sums the gl(n) dimensions of all admissible top rows,
    sum over partitions nu of k with at most ceil(p) parts of
    generalized_binomial(n, conjugate(nu)).
    """
    if k < 0:
        raise ValueError("height must be non-negative")
    total = Fraction(0)
    for nu in partitions_of(k, math.ceil(p)):
        total += generalized_binomial(n, conjugate(nu))
    assert total.denominator == 1
    return int(total)


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


def row_sum_signature(pattern: GZPattern) -> tuple[int, ...]:
    """Row sums (s_1, ..., s_n); equal signatures give equal energies for every coupling."""
    return tuple(sum(pattern.row(j)) for j in range(1, pattern.n + 1))


def _row_starts(n: int) -> list[int]:
    """Column of each pattern row's first entry in a flattened pattern, top row first."""
    return [i * n - i * (i - 1) // 2 for i in range(n)]


def _gz_rows(n: int, p: float, k_max: int) -> np.ndarray:
    """Every pattern with top-row weight at most k_max, one flattened pattern per row.

    Columns hold the pattern rows top first (see ``_row_starts``). Top
    rows run over heights 0..k_max, partitions in reverse-lexicographic
    order; then each lower-row entry, left to right, takes the values
    between its two upper neighbours in descending order. Children keep
    their parent's place, so rows come in the depth-first order of
    filling the pattern row by row.
    """
    if not is_unirrep(n, p):
        raise UnirrepError(
            f"V(p) of osp(1|{2 * n}) needs p in {{1..{n - 1}}} or p > {n - 1}; got p = {p}")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    rows = np.array([nu.parts + (0,) * (n - nu.length) for k in range(k_max + 1)
                     for nu in partitions_of(k, math.ceil(p), max_slots=n)], dtype=np.int64)
    for above, length in zip(_row_starts(n), range(n - 1, 0, -1)):
        for i in range(above, above + length):
            parent, rank = branch(rows[:, i] - rows[:, i + 1] + 1)
            rows = np.column_stack((rows[parent], rows[parent, i] - rank))
    return rows


def _patterns(rows: np.ndarray, n: int, p: float) -> list[GZPattern]:
    """Validated GZPatterns of flattened pattern rows."""
    slices = [slice(a, a + n - i) for i, a in enumerate(_row_starts(n))]
    return [GZPattern(rows=[flat[s] for s in slices], n=n, p=p) for flat in rows.tolist()]


def enumerate_gz(n: int, p: float, k_max: int) -> list[GZPattern]:
    """All patterns with top-row weight at most k_max, in the order of ``_gz_rows``.

    The count at each height equals multiplicity_at_height(n, p, k).
    """
    return _patterns(_gz_rows(n, p, k_max), n, p)


def osp_eigenvalue(pattern: GZPattern, freqs: ModeFrequencies, p: float) -> float:
    """Energy (units of hbar): sum_j sqrt(mu_j) (p/2 + s_j - s_{j-1})."""
    if pattern.n != freqs.n:
        raise ValueError("pattern size and mode count disagree")
    total = 0.0
    prev = 0
    for j, s in enumerate(row_sum_signature(pattern)):
        total += freqs.sqrt_mu[j] * (p / 2.0 + (s - prev))
        prev = s
    return total


def osp_classes(n: int, p: float, k_max: int) -> LevelClasses:
    """Row-sum signature classes up to top-row weight k_max, keyed (height, s_1, ..., s_n).

    Patterns are grown once as one integer array and grouped on their
    keys; a class's label carries the first pattern of the class in
    enumeration order, which is the only one made a GZPattern.
    """
    rows = _gz_rows(n, p, k_max)
    sums = np.add.reduceat(rows, _row_starts(n), axis=1)[:, ::-1]  # s_1, ..., s_n
    keys, first, count = np.unique(np.column_stack((sums[:, -1], sums)), axis=0,
                                   return_index=True, return_counts=True)
    heads = rows[first]  # only the class representatives outlive this call

    def labels(index: np.ndarray) -> list[tuple[int, tuple[int, ...], GZPattern]]:
        return [(key[0], tuple(key[1:]), pattern) for key, pattern in
                zip(keys[index].tolist(), _patterns(heads[index], n, p))]

    return LevelClasses(keys=keys, multiplicity=count.astype(np.int64), labels=labels)


def osp_levels(n: int, p: float, freqs: Iterable[ModeFrequencies], k_max: int,
               merge_tol: float = 1e-9) -> tuple[LevelClasses, list[MergedLevels]]:
    """Spectrum lines up to top-row weight k_max at every coupling of ``freqs``, on one basis."""
    classes = osp_classes(n, p, k_max)
    sqrt_mu = []
    for f in freqs:
        if f.n != n:
            raise ValueError("mode count disagrees with n")
        sqrt_mu.append(f.sqrt_mu)
    sqrt_mu = np.array(sqrt_mu)
    shift = p / 2.0 + np.diff(classes.keys[:, 1:], axis=1, prepend=0)
    # summed term by term in j, as osp_eigenvalue does, so energies match it bit for bit
    energy = np.zeros((len(sqrt_mu), len(shift)))
    for j in range(n):
        energy += sqrt_mu[:, j, None] * shift[:, j]
    return classes, merge_classes(energy, classes.multiplicity, merge_tol)


def osp_spectrum(n: int, p: float, freqs: ModeFrequencies, k_max: int,
                 merge_tol: float = 1e-9) -> list[SpectrumLine]:
    """Spectrum lines up to top-row weight k_max, sorted ascending.

    Multiplicities come from exact row-sum-signature grouping (so they
    are correct even when two energies are numerically close);
    ``merge_tol`` additionally merges lines whose energies cross at
    special couplings. Line labels are (height, signature, pattern) with
    the first pattern of the class in enumeration order.
    """
    classes, (merged,) = osp_levels(n, p, [freqs], k_max, merge_tol)
    return spectrum_lines(classes, merged)


def distinct_count_at_height(n: int, k: int) -> int:
    """Distinct energies at height k for generic coupling: C(n+k-1, n-1)."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return math.comb(n + k - 1, n - 1)


def osp_lines_to_csv(lines: list[SpectrumLine], n: int) -> str:
    """CSV export: energy, multiplicity, height, then the class row-sum signature."""
    header = "energy,multiplicity,height," + ",".join(f"s_{j}" for j in range(1, n + 1))
    rows = [header]
    for line in lines:
        height, sig, _ = line.label
        rows.append(f"{float(line.energy)!r},{line.multiplicity},{height},"
                    + ",".join(str(s) for s in sig))
    return "\n".join(rows) + "\n"


def osp_lines_to_json(lines: list[SpectrumLine]) -> str:
    payload = []
    for line in lines:
        height, sig, rep = line.label
        payload.append({"energy": float(line.energy), "multiplicity": line.multiplicity,
                        "height": height, "signature": list(sig),
                        "pattern": [list(row) for row in rep.rows]})
    return json.dumps(payload, indent=2) + "\n"
