"""Coupling-strength bounds for the gl(1|n) solution.

The Hamiltonian written in gl(1|n) generators carries the weights

    beta_j = -sqrt(mu_j) + (1/(n-1)) * sum_k sqrt(mu_k),        n >= 2,

and the unitary real form u(1|n) requires every beta_j > 0 ("weak
coupling"). Since beta_j decreases as mu_j grows, positivity reduces to
positivity of the weight attached to the largest eigenvalue, and the
critical coupling c_n is its unique root in c. For the Krawtchouk
eigenvalue law lambda_j = j - 1 a closed-form sufficient bound exists:

    c < 2 (2n-3) omega^2 / ((n-1) (n^2 - 3n + 4)),

of order 4/n^2 for large n. ``critical_couplings`` bisects the roots of
many eigenvalue arrays at once, one numpy evaluation per step for all of
them. The tests check the lemma behind the bound,
sum_{j=0..n} sqrt(C+j) > (n+1) sqrt(C + n/2 - 1) for C > (n-4)^2/16.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NoCriticalCouplingError
from .spectral import ModeFrequencies, omega_squared

__all__ = [
    "CriticalCoupling",
    "gl_weights",
    "weak_coupling_bound",
    "critical_coupling",
    "critical_couplings",
    "krawtchouk_coupling_rows",
]

_MAX_BRACKET_DOUBLINGS = 200
_MAX_BISECTIONS = 200
_BISECTION_RTOL = 1e-12
_BATCH_ENTRIES = 1 << 20  # eigenvalues bisected in one array of 8 MB


class CriticalCoupling(NamedTuple):
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


def _bisection(lambdas: np.ndarray, omega: float):
    """The bracket and bisection of one row, as a generator.

    It yields each coupling whose smallest weight it needs, is sent that
    weight, and returns the critical coupling (see ``critical_coupling``).
    """
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
        while omega2 + limit * smallest < 0.0:  # rounded as in the weights
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
        if (yield hi) < 0.0:
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
        if (yield mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECTION_RTOL * hi:
            break
    return lo


def _smallest_weights(rows: list[np.ndarray], omega2: float):
    """A function of one coupling per row giving each row's smallest weight.

    Several rows lie end to end in one array, and each evaluation is one
    pass over it; a row's sum does not depend on its neighbours. One row
    sums with ``sq.sum()``, whose pairwise order ``np.add.reduceat`` does
    not follow.
    """
    if len(rows) == 1:
        lambdas, n = rows[0], rows[0].shape[0]

        def weights(c: list[float]) -> list[float]:
            sq = np.sqrt(omega2 + c[0] * lambdas)
            return [float(sq.sum() / (n - 1) - sq.max())]
        return weights

    lambdas = np.concatenate(rows)
    sizes = np.array([row.shape[0] for row in rows])
    starts = np.cumsum(sizes) - sizes

    def weights(c: list[float]) -> list[float]:
        sq = np.repeat(c, sizes)
        sq *= lambdas
        sq += omega2
        np.sqrt(sq, out=sq)
        return (np.add.reduceat(sq, starts) / (sizes - 1)
                - np.maximum.reduceat(sq, starts)).tolist()
    return weights


def _bisect_together(rows: list[np.ndarray], omega: float) -> list[float]:
    """``critical_couplings`` of rows bisected in one array.

    A finished row stays in the array at its last coupling, so that the
    array is built once.
    """
    runs = [_bisection(row, omega) for row in rows]
    probes, couplings, live, failure = [], [0.0] * len(rows), [], None
    for i, run in enumerate(runs):  # each row checks its input and asks for its first weight
        try:
            probes.append(next(run))
        except (ValueError, NoCriticalCouplingError) as exc:
            failure = exc  # the rows after it are not needed
            break
        live.append(i)
    weights = _smallest_weights(rows[:len(live)], omega ** 2) if live else None
    while live:
        w, still = weights(probes), []
        for i in live:
            try:
                probes[i] = runs[i].send(w[i])
            except StopIteration as stop:
                couplings[i] = stop.value
                continue
            except NoCriticalCouplingError as exc:
                failure = exc  # an earlier row's error: the rows after it are dropped
                break
            still.append(i)
        live = still
    if failure is not None:
        raise failure
    return couplings


def critical_couplings(spectra, omega: float = 1.0) -> list[float]:
    """``critical_coupling`` of each eigenvalue array of ``spectra``, in one bisection.

    Every bracket and bisection step evaluates the smallest weight of all
    rows at once, while each row keeps the bracket, limits and stop test
    of ``critical_coupling``. A single row gives the bytes of
    ``critical_coupling``; with several, a row's weight sums in another
    order, which can move its c_n in the last digits. The first failing
    row, in order, raises its error. Rows are bisected in batches of at
    most ``_BATCH_ENTRIES`` eigenvalues (or one larger row), so memory
    stays bounded however many sizes are asked for.
    """
    rows = [np.asarray(lambdas, dtype=float) for lambdas in spectra]
    couplings, start, size = [], 0, 0
    for stop, row in enumerate(rows):
        if size and size + row.size > _BATCH_ENTRIES:
            couplings += _bisect_together(rows[start:stop], omega)
            start, size = stop, 0
        size += row.size
    return couplings + _bisect_together(rows[start:], omega)


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
    identically omega). This is the one-row case of
    ``critical_couplings``, which bisects many arrays at once.
    """
    return critical_couplings([lambdas], omega)[0]


def krawtchouk_coupling_rows(sizes, omega: float = 1.0) -> list[CriticalCoupling]:
    """Critical couplings and closed-form bounds of the Krawtchouk law lambda_j = j - 1.

    One row per size n >= 2, in order, from one ``critical_couplings``
    call; both values are divided by omega^2.
    """
    couplings = critical_couplings([np.arange(n, dtype=float) for n in sizes], omega=omega)
    return [CriticalCoupling(n=n, c_critical=c_n / omega ** 2,
                             c_bound=weak_coupling_bound(n, omega=omega) / omega ** 2)
            for n, c_n in zip(sizes, couplings)]
