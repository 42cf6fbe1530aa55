"""Coupling-strength bounds for the gl(1|n) solution.

The Hamiltonian written in gl(1|n) generators carries the weights

    beta_j = -sqrt(mu_j) + (1/(n-1)) * sum_k sqrt(mu_k),        n >= 2,

and the unitary real form u(1|n) requires every beta_j > 0 ("weak
coupling"). Since beta_j decreases as mu_j grows, positivity reduces to
positivity of the weight attached to the largest eigenvalue, and the
critical coupling c_n is its unique root in c. For the Krawtchouk
eigenvalue law lambda_j = j - 1 a closed-form sufficient bound exists:

    c < 2 (2n-3) omega^2 / ((n-1) (n^2 - 3n + 4)),

of order 4/n^2 for large n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCriticalCouplingError
from .spectral import ModeFrequencies, omega_squared

__all__ = [
    "GlWeights",
    "CriticalCoupling",
    "gl_weights",
    "weak_coupling_bound",
    "critical_coupling",
    "krawtchouk_coupling_row",
    "critical_coupling_table",
    "table_to_text",
    "table_to_csv",
    "sqrt_sum_bound_holds",
]

_MAX_BRACKET_DOUBLINGS = 200
_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class GlWeights:
    """The weights beta_j of the diagonal gl(1|n) Hamiltonian, with bookkeeping.

    ``beta_sum`` equals (1/(n-1)) sum_k sqrt(mu_k); ``signs`` records
    sign(beta_j) (the signature of the star condition), and
    ``all_positive`` marks the weak-coupling regime.
    """

    beta: np.ndarray
    beta_sum: float
    all_positive: bool
    signs: np.ndarray

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=float)
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        signs = np.asarray(self.signs)
        signs.setflags(write=False)
        object.__setattr__(self, "signs", signs)

    @property
    def n(self) -> int:
        return self.beta.shape[0]


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


def gl_weights(freqs: ModeFrequencies) -> GlWeights:
    """Weights beta_j = -sqrt(mu_j) + mean-like sum over sqrt(mu_k)/(n-1).

    Undefined for a single oscillator (the formula divides by n - 1).
    """
    n = freqs.n
    if n < 2:
        raise ValueError("gl(1|n) weights need at least two oscillators")
    sq = freqs.sqrt_mu
    total = float(sq.sum()) / (n - 1)
    beta = total - sq
    return GlWeights(beta=beta,
                     beta_sum=float(beta.sum()),
                     all_positive=bool(np.all(beta > 0)),
                     signs=np.sign(beta).astype(int))


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


def critical_coupling(lambdas, omega: float = 1.0, tol: float = 1e-12) -> float:
    """Largest coupling strength keeping every beta_j positive.

    Solves beta_min(c) = 0 by bracketed bisection: the upper bracket is
    expanded geometrically from c = omega^2 until the weight turns
    negative, then the bracket is halved to relative width ``tol``. The
    returned point lies on the positive side of the root. Raises
    NoCriticalCouplingError when no sign change exists (e.g. all
    lambda_j equal, or the Krawtchouk chain with n = 2 where the
    smallest weight is identically omega).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n = lambdas.shape[0]
    if n < 2:
        raise ValueError("need at least two oscillators")
    if not np.all(np.isfinite(lambdas)):
        raise ValueError("coupling eigenvalues must be finite")
    omega2 = omega_squared(omega)

    # strict < 0 below: for couplings with no finite root the computed weight
    # decays to exactly 0.0 once c dwarfs omega^2, which is not a sign change
    lo, hi = 0.0, omega2
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if _smallest_weight(hi, lambdas, omega) < 0.0:
            break
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
        if hi - lo <= tol * hi:
            break
    return lo


def krawtchouk_coupling_row(n: int, omega: float = 1.0, tol: float = 1e-12) -> CriticalCoupling:
    """Critical coupling and closed-form bound of the Krawtchouk law lambda_j = j - 1, n >= 2.

    Both values are divided by omega^2.
    """
    lambdas = np.arange(n, dtype=float)
    return CriticalCoupling(n=n,
                            c_critical=critical_coupling(lambdas, omega=omega, tol=tol) / omega ** 2,
                            c_bound=weak_coupling_bound(n, omega=omega) / omega ** 2)


def critical_coupling_table(n_list, omega: float = 1.0,
                            tol: float = 1e-12) -> list[CriticalCoupling]:
    """Critical couplings and closed-form bounds for the Krawtchouk eigenvalue law.

    One row per requested n (each >= 4), all values divided by omega^2.
    """
    rows = []
    for n in n_list:
        if n < 4:
            raise ValueError("table rows start at n = 4")
        rows.append(krawtchouk_coupling_row(n, omega=omega, tol=tol))
    return rows


def table_to_text(rows: list[CriticalCoupling]) -> str:
    """Fixed-point five-decimal rendering of the critical-coupling table."""
    lines = [f"{'n':>4}  {'bound/omega^2':>13}  {'c_n/omega^2':>11}  {'bound/c_n':>9}"]
    for row in rows:
        bound = f"{row.c_bound:13.5f}" if row.c_bound is not None else " " * 13
        ratio = f"{row.ratio:9.5f}" if row.ratio is not None else " " * 9
        lines.append(f"{row.n:>4}  {bound}  {row.c_critical:11.5f}  {ratio}")
    return "\n".join(lines) + "\n"


def table_to_csv(rows: list[CriticalCoupling]) -> str:
    """Machine-readable mirror of the critical-coupling table."""
    lines = ["n,c_tilde_over_omega2,c_n_over_omega2,ratio"]
    for row in rows:
        bound = "" if row.c_bound is None else repr(row.c_bound)
        ratio = "" if row.ratio is None else repr(row.ratio)
        lines.append(f"{row.n},{bound},{repr(row.c_critical)},{ratio}")
    return "\n".join(lines) + "\n"


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
