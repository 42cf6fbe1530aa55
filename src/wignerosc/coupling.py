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

``critical_couplings`` finds c_n from a form with no cancellation. With
R = sqrt(mu_max), r_k = sqrt(mu_k) and d_k = lambda_max - lambda_k >= 0,
R - r_k = c d_k / (R + r_k), so (n-1) beta_min = R (1 - phi(c)) with

    phi(c) = sum_k c d_k / (mu_max + R r_k),   phi'(c) = omega^2 / (2 R^3) sum_k d_k / r_k > 0.

phi depends on t = c / omega^2 alone; with shift = min(lambda_min, 0),
phi(t) = phi_s(t / (1 + shift t)), phi_s that of lambda - shift >= 0,
which is concave. A root of phi = 1 exists iff phi_s exceeds 1 at
infinity, sum_k (1 - sqrt((lambda_k - shift) / (lambda_max - shift))):
as c -> inf, or where mu_min reaches 0 if lambda_min < 0. Newton's method
starts at the root of the model phi_s(inf) (1 - (1 + x / m)^-m), x = a t /
phi_s(inf), which has phi_s's slope a, curvature and value at infinity (2-3
passes fewer than the Newton step from 0, t = 2 / sum_k d_k); from below it
climbs without overshooting where phi is concave (lambda_min >= 0).
phi - 1 is summed with the first term less 1 written exactly as -r_0 / R,
so it is not rounded to the spacing of floats near 1. ``gl_weights`` sums
the same phi - 1, so its gate passes exactly up to c_n. The rows step in
lockstep, laid end to end; a row leaves the arrays once it has converged,
and reads only its own entries.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NoCriticalCouplingError
from .spectral import InteractionModel, ModeFrequencies, eigenvalues, int_tuple, omega_squared

__all__ = [
    "CriticalCoupling",
    "gl_weights",
    "weak_coupling_bound",
    "critical_coupling",
    "critical_couplings",
    "coupling_rows",
]

_MAX_STEPS = 200  # doublings in _search_failure, and Newton passes
_BATCH_ENTRIES = 1 << 20  # eigenvalues solved in one array of 8 MB


class CriticalCoupling(NamedTuple):
    """One row of the critical-coupling table (all values divided by omega^2)."""

    n: int
    c_critical: float
    c_bound: float | None = None  # closed-form sufficient bound; Krawtchouk only

    @property
    def ratio(self) -> float | None:
        return None if self.c_bound is None else self.c_bound / self.c_critical


def _phi_excess(gap, r, big_r, mu, owner, starts) -> np.ndarray:
    """phi - 1 of rows laid end to end: the terms gap_k / (mu_max + R r_k), the first less 1 as
    -r_0 / R, added by ``np.add.reduceat`` (``big_r``, ``mu`` per row, as in ``_newton``)."""
    terms = big_r[owner]
    terms *= r
    terms += mu[owner]
    np.divide(gap, terms, out=terms)
    if np.count_nonzero(huge := mu >= 2.0 ** 1023):  # mu_max + R r_k may pass the largest float
        at = huge[owner]
        terms[at] = gap[at] / big_r[owner[at]] / (big_r[owner[at]] + r[at])
    terms[starts] = -r[starts] / big_r
    return np.add.reduceat(terms, starts)


def gl_weights(freqs: ModeFrequencies) -> np.ndarray:
    """Read-only weights beta_j = -sqrt(mu_j) + sum_k sqrt(mu_k)/(n-1), shaped like ``freqs.mu``.

    All beta_j > 0 marks weak coupling; sign(beta_j) is the signature of the star
    condition. Undefined for one oscillator (the formula divides by n - 1). Summed as
    (1 - phi) R / (n - 1) + gap_j / (R + r_j), so all are positive exactly up to c_n.
    """
    if freqs.n < 2:
        raise ValueError("gl(1|n) weights need at least two oscillators")
    sq, mu = np.atleast_2d(freqs.sqrt_mu), np.atleast_2d(freqs.mu).max(axis=-1)
    big_r, rows, n = sq.max(axis=-1), np.arange(len(sq)), freqs.n
    with np.errstate(over="ignore"):  # _phi_excess redoes the terms that overflow
        excess = _phi_excess(freqs.gap.ravel(), sq.ravel(), big_r, mu, rows.repeat(n), rows * n)
    beta = freqs.gap / (big_r[:, None] + sq) - (excess * big_r / (n - 1))[:, None]
    beta = beta.reshape(freqs.mu.shape)
    beta.setflags(write=False)
    return beta


def _bound(n: int, omega2: float) -> float:
    """2(2n-3) omega^2 / ((n-1)(n^2-3n+4)) of an int, exact until the division."""
    return 2.0 * (2 * n - 3) * omega2 / ((n - 1) * (n * n - 3 * n + 4))


def weak_coupling_bound(n: int, omega: float = 1.0) -> float:
    """Closed-form coupling bound 2(2n-3) omega^2 / ((n-1)(n^2-3n+4)), for an integer n
    from 2 to 2^53 (ValueError otherwise).

    Any c below this value keeps all beta_j positive when the coupling
    eigenvalues follow the Krawtchouk law lambda_j = j - 1.
    """
    message = f"bound defined for an integer n from 2 to 2**53; got n = {n!r}"
    (m,) = int_tuple((n,), message)
    if not 2 <= m <= 2 ** 53:
        raise ValueError(message)
    return _bound(m, omega_squared(omega))


def _search_failure(omega2: float, top: float, limit: float) -> Exception:
    """The error of a row with no critical coupling: c = omega^2 * 2^k, k < 200, capped at the
    positive-definiteness ``limit``, doubles until omega^2 + c * lambda_max (``top``) overflows
    or the limit is reached."""
    lo, hi = 0.0, min(omega2, limit)
    for _ in range(_MAX_STEPS):
        if not omega2 + hi * top < math.inf:
            return NoCriticalCouplingError(
                f"smallest weight stays positive up to c = {lo:.6g}; the next bracket overflows")
        if hi == limit:
            return NoCriticalCouplingError(
                f"smallest weight stays positive up to c = {limit:.6g}, where the "
                "interaction matrix stops being positive definite")
        lo, hi = hi, min(2.0 * hi, limit)
    return NoCriticalCouplingError(
        "smallest weight stays positive for every tested coupling strength")


def _newton(lam, d, owner, starts, sizes, top, hi, c, omega2: float) -> np.ndarray:
    """The root of phi = 1 of each row of ``lam`` laid end to end (d = lambda_max - lambda,
    ``owner`` the row of each entry, ``starts`` the first entry of each row) from ``c``, below
    ``hi``: the greatest coupling reached where the computed phi - 1 < 0, or inf. A step
    leaving (lo, hi), the couplings known below and at or above the root, is replaced by the
    midpoint; from above it goes at least one ulp down."""
    rows, c_n, lo = np.arange(len(sizes)), np.full(len(sizes), math.inf), np.zeros(len(sizes))
    c, hi, scale = np.where(c < hi, c, 0.5 * hi), hi.copy(), 2.0 / omega2
    for _ in range(_MAX_STEPS):
        mu = c * top + omega2
        big_r, c_k = np.sqrt(mu), c[owner]
        r = c_k * lam  # in place from here: for large tables, new arrays cost more than sums
        r += omega2
        np.sqrt(r, out=r)
        excess = _phi_excess(np.multiply(c_k, d, out=c_k), r, big_r, mu, owner, starts)
        np.copyto(lo, c, where=excess < 0.0)
        step = c - excess * mu * scale * big_r / np.add.reduceat(np.divide(d, r, out=r), starts)
        down = step <= c  # above the root, or a step that no longer raises c
        if np.count_nonzero(down):
            np.copyto(hi, c, where=down)
            np.minimum(step, np.nextafter(c, 0.0), out=step, where=down)
            inside = (lo < step) & (step < hi)
        else:  # lo <= c < step
            inside = step < hi
        if np.count_nonzero(inside) == rows.size:
            c = step
            continue
        c = np.where(inside, step, 0.5 * (lo + hi))
        done = (c == lo) | (c == hi)
        if ended := np.count_nonzero(done):
            c_n[rows[done]] = np.where(hi < math.inf, lo, math.inf)[done]
            if ended == rows.size:
                break
            live = ~done  # rows that have converged leave the arrays
            keep = live[owner]
            lam, d, rows, sizes = lam[keep], d[keep], rows[live], sizes[live]
            top, lo, hi, c = top[live], lo[live], hi[live], c[live]
            owner, starts = np.repeat(np.arange(rows.size), sizes), np.cumsum(sizes) - sizes
    return c_n


def _solve(rows: list[np.ndarray], omega: float) -> list[float]:
    """``critical_couplings`` of one batch of rows."""
    end = next((i for i, row in enumerate(rows) if row.shape[0] < 2), len(rows))
    failure = ValueError("need at least two oscillators") if end < len(rows) else None
    if end:  # a row is finite when its least and greatest eigenvalues are
        sizes = np.array([row.shape[0] for row in rows[:end]])
        lam, starts = np.concatenate(rows[:end]), np.cumsum(sizes) - sizes
        smallest, top = np.minimum.reduceat(lam, starts), np.maximum.reduceat(lam, starts)
        finite = np.isfinite(smallest) & np.isfinite(top)
        if np.count_nonzero(finite) < end:
            end, failure = int(finite.argmin()), ValueError("coupling eigenvalues must be finite")
            sizes, smallest, top, starts = sizes[:end], smallest[:end], top[:end], starts[:end]
            lam = lam[:sizes.sum()]
    if not end:
        if failure is not None:
            raise failure
        return []
    omega2 = omega_squared(omega)
    with np.errstate(all="ignore"):  # inf and nan decide as the comparisons below say
        shift, owner = np.minimum(smallest, 0.0), np.repeat(np.arange(end), sizes)
        limit = omega2 / (0.0 - shift)  # mu_min = 0 there, inf for lambda_min >= 0
        # phi_s (module docstring) at infinity, phi_end; the rows after one below 1 have no root
        top_s, d, lam_s = top - shift, top[owner] - lam, lam - shift[owner]
        big_q, span = np.sqrt(top_s), np.add.reduceat(d, starts)
        phi_end = np.add.reduceat(d / (big_q[owner] + np.sqrt(lam_s)), starts) / big_q
        roots = phi_end > 1.0
        solved = end if np.count_nonzero(roots) == end else int(roots.argmin())
        # the start (module docstring), a = span / 2 and m from phi_s''(0) in [1/3, 2], mapped
        # from t / (1 + shift t) back to c
        spread = span / top_s
        curve = np.add.reduceat(d * (lam_s / top_s[owner]), starts) / top_s
        m = 1.0 / (phi_end * (curve + 3.0 * spread) / spread ** 2 - 1.0)
        t0 = 2.0 * m * ((1.0 - 1.0 / phi_end) ** (-1.0 / m) - 1.0) * phi_end / span
        count = lam.size if solved == end else sizes[:solved].sum()
        c_n = _newton(lam[:count], d[:count], owner[:count], starts[:solved], sizes[:solved],
                      top[:solved], limit[:solved], (omega2 * t0 / (1.0 - shift * t0))[:solved],
                      omega2)
        # a root past the largest float is no root: c_n is inf there
        found = c_n < math.inf
        failed = solved if np.count_nonzero(found) == solved else int(found.argmin())
    if failed < end:
        raise _search_failure(omega2, float(top[failed]), float(limit[failed]))
    if failure is not None:
        raise failure
    return c_n.tolist()


def critical_couplings(spectra, omega: float = 1.0) -> list[float]:
    """``critical_coupling`` of each eigenvalue array of ``spectra``, in one Newton solve.

    A row's c_n is the same float in every table and alone. The first
    failing row, in order, raises its error, and the rows after it are not
    solved. Batches of at most ``_BATCH_ENTRIES`` eigenvalues (or one
    larger row) bound the memory however many sizes are asked for.
    """
    rows = [np.asarray(lambdas, dtype=float) for lambdas in spectra]
    couplings, start, size = [], 0, 0
    for stop, row in enumerate(rows):
        if size and size + row.size > _BATCH_ENTRIES:
            couplings += _solve(rows[start:stop], omega)
            start, size = stop, 0
        size += row.size
    return couplings + _solve(rows[start:], omega)


def critical_coupling(lambdas, omega: float = 1.0) -> float:
    """The critical coupling c_n, where the smallest weight beta_min vanishes: the root of
    phi(c) = 1 (module docstring) by Newton's method.

    c_n lies on the positive side, where phi - 1 as ``gl_weights`` sums it is negative,
    so every weight is positive at c_n, and within 4 ulps of the exact root of the given
    eigenvalues, divided by c_n phi'(c_n) where that is below 1 (as tested on the Krawtchouk
    and constant chains, n = 4..300, and on seeded spring, dense and uniform rows). Raises
    NoCriticalCouplingError when no root lies below omega^2 / -lambda_min, where mu_min
    reaches zero (e.g. all lambda_j equal, or the Krawtchouk chain with n = 2, whose smallest
    weight is identically omega), or when the root is past the largest float; the message
    says where the search c = omega^2 2^k, k < 200, stops.
    """
    return critical_couplings([lambdas], omega)[0]


def coupling_rows(model: InteractionModel, sizes: list[int]) -> list[CriticalCoupling]:
    """Critical couplings (and Krawtchouk's closed-form bound) over omega^2 of ``model``'s chain
    at each of ``sizes``, in one solve. Each size replaces the model's n, so the model is
    checked once; the first failing size raises, one below 2 once those before it are done,
    and one that is not an integer (ValueError) at once."""
    sizes = [int_tuple((n,), f"bounds need integer sizes; got n = {n!r}")[0] for n in sizes]
    short = next((i for i, n in enumerate(sizes) if n < 2), len(sizes))
    couplings = critical_couplings([eigenvalues(model, n) for n in sizes[:short]], model.omega)
    if short < len(sizes):
        raise ValueError("bounds need n >= 2")
    omega2 = omega_squared(model.omega)
    return [CriticalCoupling(n, c_n / omega2, _bound(n, omega2) / omega2
                             if model.kind == "krawtchouk" else None)
            for n, c_n in zip(sizes, couplings)]
