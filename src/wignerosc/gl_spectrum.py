"""Energy spectrum in the finite-dimensional gl(1|n) representations V(p).

Basis vectors are labelled v(theta; r_1, ..., r_n) with theta in {0, 1},
non-negative integers r_j, and theta + r_1 + ... + r_n = p. The diagonal
generator actions make every basis vector an eigenvector with

    E = beta * p - sum_j sqrt(mu_j) * r_j
      = beta * theta + sum_j beta_j * r_j         (equivalent form),

in units of hbar. Without coupling the spectrum collapses to the two
values omega (p/(n-1) + theta); for weak coupling all dim V(p) levels
are generically distinct, and the lowest one, p * beta_n, sinks to zero
as c approaches the critical coupling.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .coupling import GlWeights, gl_weights
from .errors import UnitarityError
from .levels import (LevelClasses, MergedLevels, SpectrumLine, grow_compositions,
                     merge_classes, spectrum_lines)
from .spectral import ModeFrequencies

__all__ = [
    "GlBasisVector",
    "enumerate_gl_basis",
    "gl_dimension",
    "gl_eigenvalue",
    "gl_classes",
    "gl_levels",
    "gl_spectrum",
]

_FORM_AGREEMENT_TOL = 1e-10


@dataclass(frozen=True, order=True)
class GlBasisVector:
    """Label (theta; r) of one V(p) basis vector; theta + sum(r) = p."""

    theta: int
    r: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.theta not in (0, 1):
            raise ValueError("theta must be 0 or 1")
        if any(x < 0 for x in self.r):
            raise ValueError("occupation labels must be non-negative")

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


def gl_dimension(n: int, p: int) -> int:
    """dim V(p) = C(p+n-1, n-1) + C(p+n-2, n-1), the second term absent at p = 0."""
    if n < 1 or p < 0:
        raise ValueError("need n >= 1 and p >= 0")
    dim = math.comb(p + n - 1, n - 1)
    if p >= 1:
        dim += math.comb(p + n - 2, n - 1)
    return dim


def gl_eigenvalue(v: GlBasisVector, weights: GlWeights, freqs: ModeFrequencies,
                  p: int, allow_nonunitary: bool = False) -> float:
    """Energy (units of hbar) of one basis vector.

    Evaluates beta*p - sum_j sqrt(mu_j) r_j and cross-checks it against
    the equivalent form beta*theta + sum_j beta_j r_j; disagreement
    beyond rounding means inconsistent inputs. Mixed-sign weights are
    refused unless ``allow_nonunitary`` (the eigenvalue formula itself
    is sign-agnostic, but the unitary real form is lost).
    """
    n = freqs.n
    if weights.n != n or len(v.r) != n:
        raise ValueError("weights, frequencies and basis vector sizes disagree")
    if v.p != p:
        raise ValueError(f"basis vector belongs to V({v.p}), not V({p})")
    if not allow_nonunitary and not weights.all_positive:
        raise UnitarityError(
            "weights change sign at this coupling; pass allow_nonunitary to proceed")
    energy = weights.beta_sum * p - float(freqs.sqrt_mu @ v.r)
    alt = weights.beta_sum * v.theta + float(weights.beta @ v.r)
    scale = 1.0 + abs(energy)
    if abs(energy - alt) > _FORM_AGREEMENT_TOL * scale:
        raise AssertionError(
            f"eigenvalue forms disagree: {energy!r} vs {alt!r}")
    return energy


def gl_classes(n: int, p: int) -> LevelClasses:
    """The V(p) basis as int64 class keys (theta, r_1, ..., r_n), each of multiplicity 1.

    Rows follow enumerate_gl_basis: theta = 0 first, r lexicographic.
    """
    if n < 1:
        raise ValueError("need at least one oscillator")
    if p < 0:
        raise ValueError("p must be a non-negative integer")
    theta = np.arange(min(p, 1) + 1)
    keys = grow_compositions(theta[:, None], p - theta, n)

    def labels(index: np.ndarray) -> list[GlBasisVector]:
        theta, *r = keys[index].T.tolist()
        return [GlBasisVector(theta=t, r=v) for t, v in zip(theta, zip(*r))]

    return LevelClasses(keys=keys, multiplicity=np.ones(len(keys), dtype=np.int64),
                        labels=labels)


def gl_levels(n: int, p: int, freqs: Iterable[ModeFrequencies], merge_tol: float = 1e-9,
              allow_nonunitary: bool = False) -> tuple[LevelClasses, list[MergedLevels]]:
    """The V(p) spectrum at every coupling of ``freqs``, on one basis.

    Each coupling gets the checks of gl_spectrum: the unitarity gate,
    the two-form cross-check of every energy, and the dim V(p) total.
    """
    classes = gl_classes(n, p)
    sqrt_mu, beta, beta_sum = [], [], []
    for f in freqs:
        weights = gl_weights(f)
        if not allow_nonunitary and not weights.all_positive:
            raise UnitarityError(
                "weights change sign at this coupling; pass allow_nonunitary to proceed")
        if weights.n != n:
            raise ValueError("weights, frequencies and basis vector sizes disagree")
        sqrt_mu.append(f.sqrt_mu)
        beta.append(weights.beta)
        beta_sum.append(weights.beta_sum)
    theta, r = classes.keys[:, 0], classes.keys[:, 1:].astype(float)
    beta_sum = np.array(beta_sum)[:, None]
    # vecdot takes each r . sqrt_mu with the dot product gl_eigenvalue uses; at a
    # single coupling r @ sqrt_mu runs a matrix-vector kernel that sums in another
    # order and moves energies by an ulp
    energy = beta_sum * p - np.vecdot(r, np.array(sqrt_mu)[:, None, :])
    alt = beta_sum * theta + np.vecdot(r, np.array(beta)[:, None, :])
    bad = np.abs(energy - alt) > _FORM_AGREEMENT_TOL * (1.0 + np.abs(energy))
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise AssertionError(
            f"eigenvalue forms disagree: {float(energy[at])!r} vs {float(alt[at])!r}")
    merged = merge_classes(energy, classes.multiplicity, merge_tol)
    dim = gl_dimension(n, p)
    assert all(int(lines.multiplicity.sum()) == dim for lines in merged)
    return classes, merged


def gl_spectrum(n: int, p: int, freqs: ModeFrequencies,
                merge_tol: float = 1e-9,
                allow_nonunitary: bool = False) -> list[SpectrumLine]:
    """The complete V(p) spectrum, sorted ascending with exact multiplicities.

    Levels closer than ``merge_tol`` (absolute, units of hbar*omega) are
    reported as one line whose label is the lexicographically first
    member of the class.
    """
    classes, (merged,) = gl_levels(n, p, [freqs], merge_tol, allow_nonunitary)
    return spectrum_lines(classes, merged)
