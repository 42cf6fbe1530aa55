"""Coupling-strength bounds for the gl(1|n) solution.

The Hamiltonian written in gl(1|n) generators carries the weights

    beta_j = -sqrt(mu_j) + (1/(n-1)) * sum_k sqrt(mu_k),        n >= 2,

and the unitary real form u(1|n) requires every beta_j > 0 ("weak
coupling"). Since beta_j decreases as mu_j grows, positivity reduces to
positivity of the weight attached to the largest eigenvalue, and the
critical coupling c_n is its unique root in c. For the Krawtchouk
eigenvalue law lambda_j = j - 1 a closed-form sufficient bound exists:

    c < 2 (2n-3) omega^2 / ((n-1) (n^2 - 3n + 4)),

of order 4/n^2 for large n. The tests check the lemma behind it,
sum_{j=0..n} sqrt(C+j) > (n+1) sqrt(C + n/2 - 1) for C > (n-4)^2/16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCriticalCouplingError
from .spectral import ModeFrequencies, omega_squared

__all__ = [
    "CriticalCoupling",
    "gl_weights",
    "weak_coupling_bound",
    "critical_coupling",
    "krawtchouk_coupling_row",
]

_MAX_BRACKET_DOUBLINGS = 200
_MAX_BISECTIONS = 200
_BISECTION_RTOL = 1e-12


@dataclass(frozen=True)
class CriticalCoupling:
    """One row of the critical-coupling table (all values divided by omega^2)."""

    n: int
    c_critical: float
    c_bound: float | None = None  # closed-form sufficient bound; Krawtchouk only

    @property
    def ratio(self) -> float | None:
        if self.c_bound is None:
            return None
        return self.c_bound / self.c_critical


def gl_weights(freqs: ModeFrequencies) -> np.ndarray:
    """Read-only weights beta_j = -sqrt(mu_j) + sum_k sqrt(mu_k)/(n-1), shaped like ``freqs.mu``.

    All beta_j > 0 marks weak coupling; sign(beta_j) is the signature of the
    star condition. Undefined for one oscillator (the formula divides by n - 1).
    """
    if freqs.n < 2:
        raise ValueError("gl(1|n) weights need at least two oscillators")
    sq = freqs.sqrt_mu
    beta = sq.sum(axis=-1, keepdims=True) / (freqs.n - 1) - sq
    beta.setflags(write=False)
    return beta


def weak_coupling_bound(n: int, omega: float = 1.0) -> float:
    """Closed-form coupling bound 2(2n-3) omega^2 / ((n-1)(n^2-3n+4)).

    Any c below this value keeps all beta_j positive when the coupling
    eigenvalues follow the Krawtchouk law lambda_j = j - 1.
    """
    if n < 2:
        raise ValueError("bound defined for n >= 2")
    return 2.0 * (2 * n - 3) * omega_squared(omega) / ((n - 1) * (n * n - 3 * n + 4))


def _smallest_weight(c: float, lambdas: np.ndarray, omega: float) -> float:
    """beta value attached to the largest eigenvalue, as a function of c."""
    sq = np.sqrt(omega ** 2 + c * lambdas)
    return float(sq.sum() / (lambdas.shape[0] - 1) - sq.max())


def critical_coupling(lambdas, omega: float = 1.0) -> float:
    """Largest coupling strength keeping every beta_j positive.

    Solves beta_min(c) = 0 by bracketed bisection: the upper bracket is
    expanded geometrically from c = omega^2 until the weight turns
    negative, then the bracket is halved to relative width 1e-12. The
    returned point lies on the positive side of the root. With a
    negative lambda_min the bracket stops at omega^2 / -lambda_min,
    where mu_min reaches zero, and it never grows past the point where
    the largest mu_j overflows. Raises NoCriticalCouplingError when no
    sign change exists before that (e.g. all lambda_j equal, or the
    Krawtchouk chain with n = 2 where the smallest weight is
    identically omega).
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

    # strict < 0 below: for couplings with no finite root the computed weight
    # decays to exactly 0.0 once c dwarfs omega^2, which is not a sign change
    lo, hi = 0.0, omega2
    for _ in range(_MAX_BRACKET_DOUBLINGS):
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

    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _smallest_weight(mid, lambdas, omega) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECTION_RTOL * hi:
            break
    return lo


def krawtchouk_coupling_row(n: int, omega: float = 1.0) -> CriticalCoupling:
    """Critical coupling and closed-form bound of the Krawtchouk law lambda_j = j - 1, n >= 2.

    Both values are divided by omega^2.
    """
    lambdas = np.arange(n, dtype=float)
    return CriticalCoupling(n=n,
                            c_critical=critical_coupling(lambdas, omega=omega) / omega ** 2,
                            c_bound=weak_coupling_bound(n, omega=omega) / omega ** 2)
