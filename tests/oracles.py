"""Per-vector spectrum oracles for the level-class kernel, and the paper's closed forms.

The library builds integer class arrays once and evaluates and merges
every class at once; osp(1|2n) classes are counted from their weights,
and no pattern is built. These functions take the long way: every
gl(1|n) basis vector or osp(1|2n) Gelfand-Zetlin pattern as an object,
one energy each, merged by ``merge_lines``. Tests compare the two paths.

The paper's closed forms live here too, in exact ``Fraction`` arithmetic:
the hook-content multiplicity of each osp(1|2n) height
(``multiplicity_at_height``), the C(n+k-1, n-1) distinct levels at generic
coupling (``distinct_count_at_height``), and the square-root-sum lemma
behind the Krawtchouk coupling bound (``sqrt_sum_bound_holds``).

``scalar_critical_coupling`` is the one-row bracketed bisection that
``critical_couplings`` runs for many rows at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, NamedTuple

import numpy as np

from wignerosc import (GZPattern, ModeFrequencies, NoCriticalCouplingError, SpectrumLine,
                       UnirrepError, UnitarityError, is_unirrep)
from wignerosc.spectral import omega_squared

_FORM_AGREEMENT_TOL = 1e-10


class GlBasisVector(NamedTuple):
    """Label (theta, r) of one V(p) basis vector v(theta; r); theta + sum(r) = p.

    A tuple, so it equals and orders like the library's (theta, r) line labels.
    """

    theta: int
    r: tuple[int, ...]

    @property
    def p(self) -> int:
        return self.theta + sum(self.r)


def _compositions(total: int, parts: int):
    """Weak compositions of ``total`` into ``parts`` slots, lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_gl_basis(n: int, p: int) -> list[GlBasisVector]:
    """All basis vectors of V(p), sorted lexicographically in (theta, r)."""
    if n < 1:
        raise ValueError("need at least one oscillator")
    if p < 0:
        raise ValueError("p must be a non-negative integer")
    out = [GlBasisVector(theta=0, r=r) for r in _compositions(p, n)]
    if p >= 1:
        out.extend(GlBasisVector(theta=1, r=r) for r in _compositions(p - 1, n))
    return out


def gl_eigenvalue(v: GlBasisVector, beta: np.ndarray, freqs: ModeFrequencies,
                  p: int, allow_nonunitary: bool = False) -> float:
    """Energy (units of hbar) of one basis vector.

    Evaluates beta*p - sum_j sqrt(mu_j) r_j and cross-checks it against
    the equivalent form beta*theta + sum_j beta_j r_j, ``beta`` being
    ``gl_weights(freqs)``; disagreement beyond rounding means
    inconsistent inputs. Mixed-sign weights are
    refused unless ``allow_nonunitary`` (the eigenvalue formula itself
    is sign-agnostic, but the unitary real form is lost).
    """
    n = freqs.n
    if beta.shape[-1] != n or len(v.r) != n:
        raise ValueError("weights, frequencies and basis vector sizes disagree")
    if v.p != p:
        raise ValueError(f"basis vector belongs to V({v.p}), not V({p})")
    if not allow_nonunitary and not (beta > 0).all():
        raise UnitarityError(
            "weights change sign at this coupling; pass allow_nonunitary to proceed")
    beta_sum = float(beta.sum())
    energy = beta_sum * p - float(freqs.sqrt_mu @ v.r)
    alt = beta_sum * v.theta + float(beta @ v.r)
    scale = 1.0 + abs(energy)
    if abs(energy - alt) > _FORM_AGREEMENT_TOL * scale:
        raise AssertionError(
            f"eigenvalue forms disagree: {energy!r} vs {alt!r}")
    return energy


def _lower_rows(rows: tuple[tuple[int, ...], ...]):
    """Every completion of a pattern's upper ``rows``, depth first.

    Each entry of the next row, left to right, takes the values between
    its two upper neighbours in descending order.
    """
    upper = rows[-1]
    if len(upper) == 1:
        yield rows
        return
    for lower in itertools.product(*(range(a, b - 1, -1) for a, b in zip(upper, upper[1:]))):
        yield from _lower_rows(rows + (lower,))


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
        # the first part is the largest, so at least ceil(rest / slots)
        for first in range(min(rest, cap), -(-rest // slots) - 1, -1):
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


def distinct_count_at_height(n: int, k: int) -> int:
    """Distinct energies at height k for generic coupling: C(n+k-1, n-1)."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return math.comb(n + k - 1, n - 1)


def sqrt_sum_bound_holds(big_c: float, n: int) -> bool:
    """Truth of sum_{j=0..n} sqrt(C+j) > (n+1) sqrt(C + n/2 - 1).

    Only defined for C > (n-4)^2 / 16 (where the inequality is provably
    true); outside that region a ValueError is raised.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not big_c > (n - 4) ** 2 / 16.0:
        raise ValueError("precondition C > (n-4)^2/16 violated")
    lhs = sum(math.sqrt(big_c + j) for j in range(n + 1))
    return lhs > (n + 1) * math.sqrt(big_c + n / 2.0 - 1.0)


def _smallest_weight(c: float, lambdas: np.ndarray, omega: float) -> float:
    """beta value attached to the largest eigenvalue, as a function of c."""
    sq = np.sqrt(omega ** 2 + c * lambdas)
    return float(sq.sum() / (lambdas.shape[0] - 1) - sq.max())


def scalar_critical_coupling(lambdas, omega: float = 1.0) -> float:
    """c_n of one eigenvalue array by bracketed bisection, one weight at a time.

    The bracket doubles from omega^2 until the smallest weight turns
    negative, stopping at the positive-definiteness limit or before the
    largest mu_j overflows; then it is halved to relative width 1e-12.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n = lambdas.shape[0]
    if n < 2:
        raise ValueError("need at least two oscillators")
    if not np.all(np.isfinite(lambdas)):
        raise ValueError("coupling eigenvalues must be finite")
    omega2 = omega_squared(omega)

    smallest, top = float(lambdas.min()), float(lambdas.max())
    limit = math.inf
    if smallest < 0.0:  # mu_min = omega^2 + c * lambda_min reaches zero at c = limit
        limit = omega2 / -smallest
        while omega2 + limit * smallest < 0.0:  # rounded as in _smallest_weight
            limit = math.nextafter(limit, 0.0)

    lo, hi = 0.0, omega2
    for _ in range(200):
        hi = min(hi, limit)
        if not omega2 + hi * top < math.inf:  # hi, or the largest mu_j there, overflows
            raise NoCriticalCouplingError(
                f"smallest weight stays positive up to c = {lo:.6g}; the next "
                "bracket overflows")
        if _smallest_weight(hi, lambdas, omega) < 0.0:
            break
        if hi == limit < math.inf:
            raise NoCriticalCouplingError(
                f"smallest weight stays positive up to c = {limit:.6g}, where the "
                "interaction matrix stops being positive definite")
        lo, hi = hi, 2.0 * hi
    else:
        raise NoCriticalCouplingError(
            "smallest weight stays positive for every tested coupling strength")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _smallest_weight(mid, lambdas, omega) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return lo


def enumerate_gz(n: int, p: float, k_max: int) -> list[GZPattern]:
    """All V(p) patterns with top-row weight at most k_max.

    Heights ascend; within a height, top rows run over the partitions in
    reverse-lexicographic order, and the lower rows follow ``_lower_rows``.
    So the flattened patterns of a height descend lexicographically. The
    count at each height equals multiplicity_at_height(n, p, k).
    """
    if not is_unirrep(n, p):
        raise UnirrepError(
            f"V(p) of osp(1|{2 * n}) needs p in {{1..{n - 1}}} or p > {n - 1}; got p = {p}")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    return [GZPattern(rows=rows, n=n, p=p) for k in range(k_max + 1)
            for nu in partitions_of(k, math.ceil(p), max_slots=n)
            for rows in _lower_rows((nu.parts + (0,) * (n - nu.length),))]


def row_sum_signature(pattern: GZPattern) -> tuple[int, ...]:
    """Row sums (s_1, ..., s_n); equal signatures give equal energies for every coupling."""
    return tuple(sum(pattern.row(j)) for j in range(1, pattern.n + 1))


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


def merge_lines(raw: list[tuple[float, int, Any]], merge_tol: float) -> list[SpectrumLine]:
    """Collapse (energy, multiplicity, label) triples into sorted spectrum lines.

    The triples are sorted as whole tuples: by energy, then by
    multiplicity, then by label, so an exact energy tie goes to the
    smaller multiplicity before the label is looked at. A triple joins
    the current cluster when its energy exceeds the previous triple's
    by at most ``merge_tol``; clusters therefore chain, and one cluster
    may span more than ``merge_tol``. Each cluster becomes one line with
    the energy and label of its first triple and the summed
    multiplicity.
    """
    if not merge_tol >= 0:
        raise ValueError("merge_tol must be non-negative")
    ordered = sorted(raw)  # labels must be orderable for deterministic ties
    lines: list[SpectrumLine] = []
    cluster: list[tuple[float, int, Any]] = []

    def flush() -> None:
        if cluster:
            energy, _, label = cluster[0]
            lines.append(SpectrumLine(energy=energy,
                                      multiplicity=sum(m for _, m, _ in cluster),
                                      label=label))

    prev = None
    for triple in ordered:
        if prev is not None and triple[0] - prev > merge_tol:
            flush()
            cluster = []
        cluster.append(triple)
        prev = triple[0]
    flush()
    return lines
