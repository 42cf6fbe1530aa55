"""Coupling-strength bounds for the gl(1|n) solution.

The Hamiltonian written in gl(1|n) generators carries the weights

    beta_j = -sqrt(mu_j) + (1/(n-1)) * sum_k sqrt(mu_k),        n >= 2,

and the unitary real form u(1|n) requires every beta_j > 0 ("weak
coupling"). Since beta_j decreases as mu_j grows, positivity reduces to
positivity of the weight attached to the largest eigenvalue, and the
critical coupling c_n is its unique root in c. For the Krawtchouk
eigenvalue law lambda_j = j - 1 a closed-form sufficient bound exists:

    c < 2 (2n-3) omega^2 / ((n-1) (n^2 - 3n + 4)),

of order 4/n^2 for large n. The tests check the lemma behind the bound,
sum_{j=0..n} sqrt(C+j) > (n+1) sqrt(C + n/2 - 1) for C > (n-4)^2/16.

``critical_couplings`` works in two phases, one numpy evaluation per
pass for every row probed. Every row brackets its root first, as no
row's c_n depends on the others; then the bracketed rows bisect in
lockstep, as Python floats below ``_ARRAY_ROWS`` rows, where the array
form's 22 more numpy calls per pass cost more than a loop over the rows,
and as masked numpy arrays from there on. A row's largest term is
sqrt(omega^2 + c * top): for c >= 0 the rounding of omega^2 + c * lambda
and of sqrt is monotone, so that is its largest sqrt(mu_j), bit for bit.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import NoCriticalCouplingError
from .spectral import InteractionModel, ModeFrequencies, eigenvalues, omega_squared

__all__ = [
    "CriticalCoupling",
    "gl_weights",
    "weak_coupling_bound",
    "critical_coupling",
    "critical_couplings",
    "coupling_rows",
]

_MAX_BRACKET_DOUBLINGS = 200
_MAX_BISECTIONS = 200
_BISECTION_RTOL = 1e-12
_BATCH_ENTRIES = 1 << 20  # eigenvalues bisected in one array of 8 MB
_ARRAY_ROWS = 34  # bracketed rows from which numpy arrays bisect faster (>= 2: one row sums alone)


class CriticalCoupling(NamedTuple):
    """One row of the critical-coupling table (all values divided by omega^2)."""

    n: int
    c_critical: float
    c_bound: float | None = None  # closed-form sufficient bound; Krawtchouk only

    @property
    def ratio(self) -> float | None:
        return None if self.c_bound is None else self.c_bound / self.c_critical


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


def _overflow(lo: float) -> NoCriticalCouplingError:
    return NoCriticalCouplingError(
        f"smallest weight stays positive up to c = {lo:.6g}; the next bracket overflows")


def _term_sums(rows: list[np.ndarray], omega2: float):
    """A function of one coupling per row giving each row's sum_j sqrt(mu_j) / (n - 1), in one
    pass over the rows laid end to end; a row's sum does not depend on its neighbours."""
    lambdas = np.concatenate(rows)
    sizes = np.array([row.shape[0] for row in rows])
    starts, terms = np.cumsum(sizes) - sizes, sizes - 1

    def sums(c) -> np.ndarray:
        sq = np.asarray(c).repeat(sizes)
        sq *= lambdas
        sq += omega2
        np.sqrt(sq, out=sq)
        return np.add.reduceat(sq, starts) / terms
    return sums


def _bisect_together(rows: list[np.ndarray], omega: float) -> list[float]:
    """``critical_couplings`` of one batch of rows. Rows that a pass does not probe sit at their
    ``lo``, where no bracket overflows; those probed are laid out on their own once they hold
    under half of the array."""
    end = next((i for i, row in enumerate(rows) if row.shape[0] < 2), len(rows))
    failure = ValueError("need at least two oscillators") if end < len(rows) else None
    if end:  # a row is finite when its least and greatest eigenvalues are
        sizes = [row.shape[0] for row in rows[:end]]
        flat, starts = np.concatenate(rows[:end]), list(accumulate(sizes[:-1], initial=0))
        smallest = np.minimum.reduceat(flat, starts).tolist()
        top = np.maximum.reduceat(flat, starts).tolist()
        bad = next((i for i in range(end)
                    if not (math.isfinite(smallest[i]) and math.isfinite(top[i]))), end)
        if bad < end:
            end, failure = bad, ValueError("coupling eigenvalues must be finite")
    omega2 = omega_squared(omega) if end else 0.0
    limits, hi = [], []
    for i in range(end):
        limit = math.inf
        if smallest[i] < 0.0:  # mu_min = omega^2 + c * lambda_min reaches zero at c = limit
            limit = omega2 / -smallest[i]
            while omega2 + limit * smallest[i] < 0.0:  # rounded as in the weights
                limit = math.nextafter(limit, 0.0)
        if not omega2 + min(omega2, limit) * top[i] < math.inf:  # mu_max at the first bracket
            failure = _overflow(0.0)
            break
        limits.append(limit)
        hi.append(min(omega2, limit))
    end, lo = len(hi), [0.0] * len(hi)
    full = (list(range(end)), _term_sums(rows[:end], omega2)) if end > 1 else ([], None)
    held, sums = full

    def weights(probe: list[int], at: list[float]) -> list[float]:
        """The smallest weights of rows ``probe`` at couplings ``at``. A lone checked row sums
        with ``sq.sum()``, whose pairwise order ``np.add.reduceat`` does not follow."""
        nonlocal held, sums
        if end == 1:
            s = [float(np.sqrt(omega2 + at[0] * rows[0]).sum()) / (sizes[0] - 1)]
        else:
            if len(probe) < len(held) and (
                    2 * sum(sizes[i] for i in probe) < sum(sizes[i] for i in held)):
                held, sums = probe, _term_sums([rows[i] for i in probe], omega2)
            if len(probe) == len(held):
                s = sums(at).tolist()
            else:
                at_of = dict(zip(probe, at))
                s = dict(zip(held, sums([at_of.get(i, lo[i]) for i in held]).tolist()))
                s = [s[i] for i in probe]
        return [si - math.sqrt(omega2 + x * top[i]) for i, x, si in zip(probe, at, s)]

    # strict < 0 below: for couplings with no finite root the computed weight
    # decays to exactly 0.0 once c dwarfs omega^2, which is not a sign change
    bracketing = list(range(end))
    for step in range(_MAX_BRACKET_DOUBLINGS):
        if not bracketing:
            break
        still = []
        for i, w in zip(bracketing, weights(bracketing, [hi[i] for i in bracketing])):
            if w < 0.0:
                continue
            if hi[i] == limits[i] < math.inf:
                failure = NoCriticalCouplingError(
                    f"smallest weight stays positive up to c = {limits[i]:.6g}, where the "
                    "interaction matrix stops being positive definite")
            elif step == _MAX_BRACKET_DOUBLINGS - 1:
                failure = NoCriticalCouplingError(
                    "smallest weight stays positive for every tested coupling strength")
            else:
                lo[i], hi[i] = hi[i], min(2.0 * hi[i], limits[i])
                if omega2 + hi[i] * top[i] < math.inf:
                    still.append(i)
                    continue
                failure = _overflow(lo[i])
            break  # the rows after a failing one are not needed
        bracketing = still
    if failure is not None:
        raise failure

    held, sums = full  # the bisection starts with every row
    if end < _ARRAY_ROWS:
        probe = [i for i in range(end) if lo[i] != 0.5 * (lo[i] + hi[i]) != hi[i]]
        at = [0.5 * (lo[i] + hi[i]) for i in probe]
        for _ in range(_MAX_BISECTIONS):
            if not probe:
                break
            probed, probe, mids, at = probe, [], at, []
            for i, mid, w in zip(probed, mids, weights(probed, mids)):
                if w > 0.0:
                    lo[i] = mid
                else:
                    hi[i] = mid
                mid = 0.5 * (lo[i] + hi[i])
                if lo[i] != mid != hi[i] and not hi[i] - lo[i] <= _BISECTION_RTOL * hi[i]:
                    probe.append(i)
                    at.append(mid)
        return lo
    tops, lo, hi, live = np.array(top[:end]), np.array(lo), np.array(hi), np.ones(end, bool)
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        live &= (mid != lo) & (mid != hi)
        if not live.any():
            break
        c = np.where(live, mid, lo)
        up = sums(c) - np.sqrt(omega2 + c * tops) > 0.0
        lo = np.where(live & up, mid, lo)
        hi = np.where(live & ~up, mid, hi)
        live &= ~(hi - lo <= _BISECTION_RTOL * hi)
    return lo.tolist()


def critical_couplings(spectra, omega: float = 1.0) -> list[float]:
    """``critical_coupling`` of each eigenvalue array of ``spectra``, in one bisection.

    Each row keeps the bracket, limits, stop test and step caps of
    ``critical_coupling``. Every row brackets before any bisects (see the
    module docstring); a failing row drops the rows after it, and the first
    failing row, in order, raises its error once the rows before it have
    bracketed, as bisection never raises. A single row gives the bytes of
    ``critical_coupling``; with several, a row's weight sums in another
    order, which can move its c_n in the last digits, the same in every
    table of two or more rows. Rows are bisected in batches of at most
    ``_BATCH_ENTRIES`` eigenvalues (or one larger row), so memory stays
    bounded however many sizes are asked for.
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


def coupling_rows(model: InteractionModel, sizes: list[int]) -> list[CriticalCoupling]:
    """Critical couplings (and Krawtchouk's closed-form bound) over omega^2 of ``model``'s chain
    at each of ``sizes``, in one bisection. Each size replaces the model's n, so the model is
    checked once; the first failing size raises, one below 2 once those before it are done."""
    short = next((i for i, n in enumerate(sizes) if n < 2), len(sizes))
    couplings = critical_couplings([eigenvalues(model, n) for n in sizes[:short]], model.omega)
    if short < len(sizes):
        raise ValueError("bounds need n >= 2")
    return [CriticalCoupling(n, c_n / model.omega ** 2, weak_coupling_bound(n, model.omega)
                             / model.omega ** 2 if model.kind == "krawtchouk" else None)
            for n, c_n in zip(sizes, couplings)]
