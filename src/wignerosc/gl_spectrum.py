"""Energy spectrum in the finite-dimensional gl(1|n) representations V(p).

Basis vectors are labelled v(theta; r_1, ..., r_n) with theta in {0, 1},
non-negative integers r_j, and theta + r_1 + ... + r_n = p. The diagonal
generator actions make every basis vector an eigenvector with

    E = sum_j sqrt(mu_j) * (p/(n-1) - r_j)       (levels.level_energies)
      = beta * theta + sum_j beta_j * r_j         (equivalent form),

in units of hbar, with beta = sum_j beta_j: each basis vector is a class of
weight w = -r at a = p/(n-1). Every energy is checked against the second form,
so digits cancelled at huge couplings raise. Without coupling the spectrum
collapses to the two values omega (p/(n-1) + theta); for weak coupling all
dim V(p) levels are generically distinct, and the lowest one, p * beta_n,
sinks to zero as c approaches the critical coupling.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import gl_weights
from .errors import NumericError, UnitarityError
from .levels import (LevelClasses, MergedLevels, SpectrumLine, check_bytes, grow_compositions,
                     level_energies, merge_classes, spectrum_lines)
from .spectral import ModeFrequencies, int_tuple

__all__ = [
    "gl_dimension",
    "gl_classes",
    "gl_levels",
    "gl_spectrum",
]

_FORM_AGREEMENT_TOL = 1e-10


def gl_dimension(n: int, p: int) -> int:
    """dim V(p) = C(p+n-1, n-1) + C(p+n-2, n-1), no second term at p = 0; n, p may be 2.0."""
    message = (f"gl(1|n) modules V(p) need n >= 1 and a non-negative integer p, "
               f"not n = {n}, p = {p}")
    n, p = int_tuple((n, p), message)
    if n < 1 or p < 0:
        raise ValueError(message)
    dim = math.comb(p + n - 1, n - 1)
    if p >= 1:
        dim += math.comb(p + n - 2, n - 1)
    return dim


def gl_classes(n: int, p: int) -> LevelClasses:
    """The V(p) basis as int64 class keys (theta, r_1, ..., r_n), each of multiplicity 1.

    Row (theta, r) is the basis vector v(theta; r), of weight -r at a = p/(n-1),
    nan for one oscillator (no gl(1|n) weights: ``gl_levels`` and ``levels`` refuse it); rows
    ascend lexicographically (theta = 0 first, then r). A build over BYTE_BUDGET
    raises ResourceLimitError before anything is allocated.
    """
    dim, n, p = gl_dimension(n, p), int(n), int(p)  # checked integral there
    # traced build peak (keys, weights, slot indices): 0.79 of this at n = 2, 0.67-0.68 at 3-2000
    check_bytes(24 * (n + 1) * dim, f"V({p}) of gl(1|{n}) has {dim} basis vectors that")
    theta = np.arange(min(p, 1) + 1)
    keys = grow_compositions(theta[:, None], p - theta, n)
    assert len(keys) == dim
    return LevelClasses(keys=keys, weights=-keys[:, 1:], multiplicity=np.ones(dim, np.int64),
                        a=p / (n - 1) if n > 1 else math.nan)


def gl_levels(classes: LevelClasses, freqs: ModeFrequencies,
              allow_nonunitary: bool = False) -> MergedLevels:
    """Lines of ``gl_classes(n, p)`` at every coupling of ``freqs``, merged at MERGE_TOL.

    Mixed-sign weights at any coupling raise UnitarityError unless
    ``allow_nonunitary``. Every energy is cross-checked against the
    equivalent form beta*theta + sum_j beta_j r_j (NumericError names the first
    coupling where digits cancelled).
    """
    beta = np.atleast_2d(gl_weights(freqs))
    if not allow_nonunitary and not (beta > 0).all():
        raise UnitarityError(
            "weights change sign at this coupling; pass allow_nonunitary to proceed")
    energy = level_energies(classes.a, classes.weights, freqs)
    alt = (beta.sum(axis=-1, keepdims=True) * classes.keys[:, 0]
           - np.vecdot(classes.weights.astype(float), beta[:, None, :]))
    bad = np.abs(energy - alt) > _FORM_AGREEMENT_TOL * (1.0 + np.abs(energy))
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise NumericError(
            f"eigenvalue forms disagree at coupling index {at[0]}: {float(energy[at])!r} vs "
            f"{float(alt[at])!r}, beyond the relative bound {_FORM_AGREEMENT_TOL:.0e}")
    return merge_classes(energy, classes.multiplicity, freqs)


def gl_spectrum(n: int, p: int, freqs: ModeFrequencies,
                allow_nonunitary: bool = False) -> list[SpectrumLine]:
    """The complete V(p) spectrum, sorted ascending with exact multiplicities.

    Levels closer than MERGE_TOL (absolute, units of the smallest mode
    quantum, hbar*omega at c = 0) are reported as one line, labelled
    (theta, r) by the lexicographically first basis vector v(theta; r) of
    the class, in plain ints.
    """
    classes = gl_classes(n, p)
    merged = gl_levels(classes, freqs, allow_nonunitary)
    return spectrum_lines(merged, [(key[0], tuple(key[1:]))
                                   for key in classes.keys[merged.head].tolist()])
