"""Interaction matrices and their spectral decompositions.

A chain of n identical oscillators coupled through positions is encoded
by the real symmetric positive-definite matrix A = omega^2 I + c M. Only
the eigenvalues mu_j of A and the orthonormal eigenvector matrix U of M
enter the energy spectrum, so this module exposes:

* builders for the two analytically solvable coupling matrices
  (nearest-neighbour constant coupling and Krawtchouk coupling),
* their closed-form eigendecompositions,
* a cyclic Jacobi eigensolver for arbitrary symmetric matrices,
* the map from eigenvalues lambda_j of M to the squared normal-mode
  frequencies mu_j = omega^2 + c*lambda_j.

Index conventions: all closed-form expressions below are quoted 1-based
(as is customary); arrays are stored 0-based, so code evaluating a
formula at ``j`` passes ``j+1`` where needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, PositiveDefinitenessError

__all__ = [
    "InteractionModel",
    "SpectralDecomposition",
    "ModeFrequencies",
    "build_constant_matrix",
    "constant_decomposition",
    "krawtchouk_eval",
    "build_krawtchouk_matrix",
    "krawtchouk_decomposition",
    "jacobi_decomposition",
    "decompose",
    "mode_frequencies",
    "omega_squared",
    "load_matrix",
]

#: relative tolerance used to accept a matrix as symmetric
SYMMETRY_RTOL = 1e-12

_JACOBI_MAX_SWEEPS = 100


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _require_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    if float(np.abs(m - m.T).max()) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return m


def omega_squared(omega: float) -> float:
    """omega^2, refusing (ValueError) an omega that is not positive or whose square is not finite.

    Python's ``**`` raises OverflowError where the square exceeds the float range.
    """
    if not (0 < omega < math.inf and float(omega) * float(omega) < math.inf):
        raise ValueError("omega must be positive and finite, with a finite square")
    return omega ** 2


@dataclass(frozen=True)
class InteractionModel:
    """Physical parameters of a coupled-oscillator system, A = omega^2 I + c M.

    ``kind`` selects the coupling matrix M: "constant" (tridiagonal
    2/-1 chain with fixed walls), "krawtchouk" (tridiagonal matrix whose
    eigenvectors are normalized Krawtchouk polynomials, parameter
    ``ptilde`` in (0,1)), or "general" (explicit symmetric ``matrix``).
    """

    n: int
    omega: float
    c: float
    kind: str
    mass: float = 1.0
    hbar: float = 1.0
    ptilde: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one oscillator")
        omega_squared(self.omega)
        if not 0 <= self.c < math.inf:
            raise ValueError("coupling strength c must be non-negative and finite")
        if not (0 < self.mass < math.inf and 0 < self.hbar < math.inf):
            raise ValueError("mass and hbar must be positive and finite")
        if self.kind == "krawtchouk":
            if self.ptilde is None or not 0.0 < self.ptilde < 1.0:
                raise ValueError("krawtchouk coupling needs ptilde in (0,1)")
        elif self.kind == "general":
            if self.matrix is None:
                raise ValueError("general coupling needs an explicit matrix")
            m = _require_symmetric(self.matrix)
            if m.shape[0] != self.n:
                raise ValueError("matrix size does not match n")
            object.__setattr__(self, "matrix", _freeze(m.copy()))
        elif self.kind != "constant":
            raise ValueError(f"unknown coupling kind {self.kind!r}")

    @classmethod
    def constant(cls, n: int, omega: float = 1.0, c: float = 0.0, **kw) -> "InteractionModel":
        return cls(n=n, omega=omega, c=c, kind="constant", **kw)

    @classmethod
    def krawtchouk(cls, n: int, omega: float = 1.0, c: float = 0.0,
                   ptilde: float = 0.5, **kw) -> "InteractionModel":
        return cls(n=n, omega=omega, c=c, kind="krawtchouk", ptilde=ptilde, **kw)

    @classmethod
    def general(cls, matrix: np.ndarray, omega: float = 1.0, c: float = 0.0,
                **kw) -> "InteractionModel":
        matrix = np.asarray(matrix, dtype=float)
        return cls(n=matrix.shape[0], omega=omega, c=c, kind="general", matrix=matrix, **kw)

    def coupling_matrix(self) -> np.ndarray:
        """The matrix M in A = omega^2 I + c M."""
        if self.kind == "constant":
            return build_constant_matrix(self.n)
        if self.kind == "krawtchouk":
            return build_krawtchouk_matrix(self.n, self.ptilde)
        return np.array(self.matrix)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a coupling matrix.

    Column j of ``u`` is the eigenvector paired with ``lambdas[j]``; the
    sign of each column is fixed so that its first component of
    non-negligible size is positive.
    """

    lambdas: np.ndarray
    u: np.ndarray
    source: str  # "analytic" | "numeric"

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", _freeze(self.lambdas))
        object.__setattr__(self, "u", _freeze(self.u))

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]

    def orthonormality_residual(self) -> float:
        eye = np.eye(self.n)
        return float(max(np.abs(self.u.T @ self.u - eye).max(),
                         np.abs(self.u @ self.u.T - eye).max()))

    def reconstruction_residual(self, m: np.ndarray) -> float:
        return float(np.abs(m - self.u @ np.diag(self.lambdas) @ self.u.T).max())


@dataclass(frozen=True)
class ModeFrequencies:
    """Squared normal-mode frequencies mu_j = omega^2 + c*lambda_j and their roots."""

    mu: np.ndarray
    sqrt_mu: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        if not np.all(np.isfinite(mu)):
            raise ValueError("squared mode frequencies must be finite")
        if np.any(mu <= 0):
            bad = int(np.argmax(mu <= 0))
            raise PositiveDefinitenessError(
                f"interaction matrix not positive definite: mu[{bad}] = {mu[bad]!r}")
        object.__setattr__(self, "mu", _freeze(mu))
        object.__setattr__(self, "sqrt_mu", _freeze(np.sqrt(mu)))

    @property
    def n(self) -> int:
        return self.mu.shape[0]


def _fix_column_signs(u: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first non-negligible entry is positive."""
    u = np.array(u)
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
    return u


def build_constant_matrix(n: int) -> np.ndarray:
    """Tridiagonal coupling matrix of the fixed-wall chain: 2 on the diagonal, -1 off it."""
    if n < 1:
        raise ValueError("need at least one oscillator")
    m = 2.0 * np.eye(n)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = -1.0
    m[idx + 1, idx] = -1.0
    return m


def constant_decomposition(n: int) -> SpectralDecomposition:
    """Closed-form eigensystem of the constant-coupling chain.

    lambda_j = 2 - 2 cos(j pi / (n+1)) and
    u_ij = sqrt(2/(n+1)) sin(i j pi / (n+1)), i, j = 1..n.
    """
    if n < 1:
        raise ValueError("need at least one oscillator")
    j = np.arange(1, n + 1)
    lambdas = 2.0 - 2.0 * np.cos(j * np.pi / (n + 1))
    i = j[:, None]
    u = np.sqrt(2.0 / (n + 1)) * np.sin(i * j[None, :] * np.pi / (n + 1))
    return SpectralDecomposition(lambdas=lambdas, u=_fix_column_signs(u), source="analytic")


def krawtchouk_eval(i: int, j: int, n: int, ptilde: float) -> float:
    """Normalized Krawtchouk polynomial value K_i(j) for parameters (n-1, ptilde).

    K_i(j) = [C(n-1,i) C(n-1,j) pt^(i+j) (1-pt)^(n-i-j-1)]^(1/2)
             * sum_k C(i,k) C(j,k) / C(n-1,k) * (-1/pt)^k,
    symmetric in i and j; the rows (and columns) of the n x n table are
    orthonormal.
    """
    if not 0.0 < ptilde < 1.0:
        raise ValueError("ptilde must lie strictly between 0 and 1")
    if not (0 <= i <= n - 1 and 0 <= j <= n - 1):
        raise ValueError(f"indices ({i}, {j}) out of range for n = {n}")
    pref = math.comb(n - 1, i) * math.comb(n - 1, j) \
        * ptilde ** (i + j) * (1.0 - ptilde) ** (n - i - j - 1)
    acc = 0.0
    for k in range(min(i, j) + 1):
        acc += math.comb(i, k) * math.comb(j, k) / math.comb(n - 1, k) * (-1.0 / ptilde) ** k
    return math.sqrt(pref) * acc


def build_krawtchouk_matrix(n: int, ptilde: float) -> np.ndarray:
    """Tridiagonal Krawtchouk coupling matrix.

    Diagonal entries F_r = (n-1) pt + (1-2 pt) r and off-diagonal
    entries -E_(r+1) with E_r = sqrt(pt (1-pt)) sqrt(r (n-r)), r = 0..n-1.
    """
    if n < 1:
        raise ValueError("need at least one oscillator")
    if not 0.0 < ptilde < 1.0:
        raise ValueError("ptilde must lie strictly between 0 and 1")
    r = np.arange(n, dtype=float)
    m = np.diag((n - 1) * ptilde + (1.0 - 2.0 * ptilde) * r)
    e = np.sqrt(ptilde * (1.0 - ptilde)) * np.sqrt(r[1:] * (n - r[1:]))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = -e
    m[idx + 1, idx] = -e
    return m


def krawtchouk_decomposition(n: int, ptilde: float) -> SpectralDecomposition:
    """Closed-form eigensystem of the Krawtchouk matrix: lambda_j = j - 1,
    eigenvector entries u_ij = K_(i-1)(j-1)."""
    if n < 1:
        raise ValueError("need at least one oscillator")
    lambdas = np.arange(n, dtype=float)
    u = np.array([[krawtchouk_eval(i, j, n, ptilde) for j in range(n)] for i in range(n)])
    return SpectralDecomposition(lambdas=lambdas, u=_fix_column_signs(u), source="analytic")


def jacobi_decomposition(m: np.ndarray, tol: float = 1e-12) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix by the cyclic Jacobi method.

    Sweeps Givens rotations over all index pairs until the largest
    off-diagonal magnitude drops below ``tol`` times the largest entry
    of the input. Unconditionally robust at desk scale; not tuned for
    large n.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = _require_symmetric(m).copy()
    n = a.shape[0]
    v = np.eye(n)
    scale = float(np.abs(a).max())
    if n == 1 or scale == 0.0:
        return SpectralDecomposition(lambdas=np.diag(a).copy(), u=v, source="numeric")
    threshold = tol * scale

    def offdiag_max() -> float:
        off = np.abs(a - np.diag(np.diag(a)))
        return float(off.max())

    for _ in range(_JACOBI_MAX_SWEEPS):
        if offdiag_max() <= threshold:
            break
        for p in range(n - 1):  # one cyclic sweep over all index pairs
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0)) \
                    if theta != 0.0 else 1.0
                cth = 1.0 / math.sqrt(1.0 + t * t)
                sth = t * cth
                # a <- J^T a J with the (p,q) Givens rotation J
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = cth * rp - sth * rq
                a[q, :] = sth * rp + cth * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = cth * cp - sth * cq
                a[:, q] = sth * cp + cth * cq
                a[p, q] = a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = cth * vp - sth * vq
                v[:, q] = sth * vp + cth * vq
    else:
        raise NumericError(
            f"Jacobi iteration did not converge within {_JACOBI_MAX_SWEEPS} sweeps")

    lambdas = np.diag(a).copy()
    order = np.argsort(lambdas, kind="stable")
    return SpectralDecomposition(lambdas=lambdas[order],
                                 u=_fix_column_signs(v[:, order]),
                                 source="numeric")


def decompose(model: InteractionModel, tol: float = 1e-12) -> SpectralDecomposition:
    """Spectral decomposition of a model's coupling matrix, analytic when available."""
    if model.kind == "constant":
        return constant_decomposition(model.n)
    if model.kind == "krawtchouk":
        return krawtchouk_decomposition(model.n, model.ptilde)
    return jacobi_decomposition(model.matrix, tol=tol)


def mode_frequencies(decomp: SpectralDecomposition, omega: float, c: float) -> ModeFrequencies:
    """Squared normal-mode frequencies mu_j = omega^2 + c*lambda_j, in eigenvalue order.

    Raises PositiveDefinitenessError (naming the offending index) if any
    mu_j fails to be strictly positive, and ValueError if one is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # ModeFrequencies rejects non-finite mu
        mu = omega_squared(omega) + c * decomp.lambdas
    return ModeFrequencies(mu=mu)


def load_matrix(path) -> np.ndarray:
    """Read a symmetric matrix from a plain-text file.

    Format: first token is n, followed by n*n whitespace-separated reals
    in row-major order. Finiteness and symmetry are validated on load.
    """
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    n = int(tokens[0])
    if n < 1:
        raise ValueError(f"{path}: matrix size must be positive")
    values = [float(t) for t in tokens[1:]]
    if len(values) != n * n:
        raise ValueError(f"{path}: expected {n * n} entries, found {len(values)}")
    return _require_symmetric(np.array(values).reshape(n, n))
