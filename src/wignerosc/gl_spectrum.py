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
from dataclasses import dataclass

import numpy as np

from .coupling import gl_weights
from .errors import NumericError, UnitarityError
from .levels import (LevelClasses, MergedLevels, SpectrumLine, check_bytes, grow_compositions,
                     merge_classes, spectrum_lines)
from .spectral import ModeFrequencies

__all__ = [
    "GlBasisVector",
    "gl_dimension",
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


def gl_dimension(n: int, p: int) -> int:
    """dim V(p) = C(p+n-1, n-1) + C(p+n-2, n-1), the second term absent at p = 0."""
    if n < 1 or p < 0:
        raise ValueError("need n >= 1 and p >= 0")
    dim = math.comb(p + n - 1, n - 1)
    if p >= 1:
        dim += math.comb(p + n - 2, n - 1)
    return dim


def gl_classes(n: int, p: int) -> LevelClasses:
    """The V(p) basis as int64 class keys (theta, r_1, ..., r_n), each of multiplicity 1.

    Rows ascend lexicographically (theta = 0 first, then r), the order of
    their ``GlBasisVector`` labels. A build over BYTE_BUDGET raises
    ResourceLimitError before anything is allocated.
    """
    dim = gl_dimension(n, p)
    # grow_compositions' peak: three int64 copies of the keys
    check_bytes(24 * (n + 1) * dim, f"V({p}) of gl(1|{n}) has {dim} basis vectors that")
    theta = np.arange(min(p, 1) + 1)
    keys = grow_compositions(theta[:, None], p - theta, n)
    return LevelClasses(keys=keys, multiplicity=np.ones(len(keys), dtype=np.int64))


def gl_levels(classes: LevelClasses, p: int, freqs: ModeFrequencies,
              allow_nonunitary: bool = False) -> MergedLevels:
    """Lines of ``gl_classes(n, p)`` at every coupling of ``freqs``, merged at MERGE_TOL.

    Mixed-sign weights at any coupling raise UnitarityError unless
    ``allow_nonunitary``. Every energy is cross-checked against the
    equivalent form beta*theta + sum_j beta_j r_j (NumericError names the first
    coupling where digits cancelled), and every coupling's lines against the
    dim V(p) total.
    """
    beta = np.atleast_2d(gl_weights(freqs))
    if not allow_nonunitary and not (beta > 0).all():
        raise UnitarityError(
            "weights change sign at this coupling; pass allow_nonunitary to proceed")
    if freqs.n != classes.keys.shape[1] - 1:
        raise ValueError("weights, frequencies and basis vector sizes disagree")
    theta, r = classes.keys[:, 0], classes.keys[:, 1:].astype(float)
    beta_sum = beta.sum(axis=-1, keepdims=True)
    # vecdot takes each r . sqrt_mu as a dot product of two vectors; at a single
    # coupling r @ sqrt_mu runs a matrix-vector kernel that sums in another order
    # and moves energies by an ulp
    energy = beta_sum * p - np.vecdot(r, np.atleast_2d(freqs.sqrt_mu)[:, None, :])
    alt = beta_sum * theta + np.vecdot(r, beta[:, None, :])
    bad = np.abs(energy - alt) > _FORM_AGREEMENT_TOL * (1.0 + np.abs(energy))
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise NumericError(
            f"eigenvalue forms disagree at coupling index {at[0]}: {float(energy[at])!r} vs "
            f"{float(alt[at])!r}, beyond the relative bound {_FORM_AGREEMENT_TOL:.0e}")
    merged = merge_classes(energy, classes.multiplicity, freqs)
    totals = np.bincount(merged.coupling, weights=merged.multiplicity, minlength=len(energy))
    assert (totals == gl_dimension(freqs.n, p)).all()
    return merged


def gl_spectrum(n: int, p: int, freqs: ModeFrequencies,
                allow_nonunitary: bool = False) -> list[SpectrumLine]:
    """The complete V(p) spectrum, sorted ascending with exact multiplicities.

    Levels closer than MERGE_TOL (absolute, units of the smallest mode
    quantum, hbar*omega at c = 0) are reported as one line whose label is
    the lexicographically first member of the class.
    """
    classes = gl_classes(n, p)
    merged = gl_levels(classes, p, freqs, allow_nonunitary)
    theta, *r = classes.keys[merged.head].T.tolist()
    return spectrum_lines(merged, [GlBasisVector(theta=t, r=v) for t, v in zip(theta, zip(*r))])
