"""Interaction matrices and their spectral decompositions.

A chain of n identical oscillators coupled through positions is encoded
by the real symmetric positive-definite matrix A = omega^2 I + c M. Spectra
and critical couplings read only its eigenvalues mu_j; the orthonormal
eigenvectors U of M enter only the canonical q = UQ, p = UP. This module has:

* builders for the two analytically solvable coupling matrices
  (nearest-neighbour constant coupling and Krawtchouk coupling),
* ``eigenvalues``, the one source of lambda_j: closed forms for both
  chains, the checked ``decompose`` for any other matrix,
* ``decompose``: those eigenvalues with closed-form eigenvectors for the
  constant chain, LAPACK (``numpy.linalg.eigh``) eigenvectors otherwise,
  every result checked against its orthonormality and reconstruction bounds,
* the map from eigenvalues lambda_j of M to the squared normal-mode
  frequencies mu_j = omega^2 + c*lambda_j.

Index conventions: all closed-form expressions below are quoted 1-based
(as is customary); arrays are stored 0-based, so code evaluating a
formula at ``j`` passes ``j+1`` where needed.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import NumericError, PositiveDefinitenessError

__all__ = [
    "InteractionModel",
    "SpectralDecomposition",
    "ModeFrequencies",
    "build_constant_matrix",
    "build_krawtchouk_matrix",
    "eigenvalues",
    "decompose",
    "mode_frequencies",
    "omega_squared",
    "load_matrix",
]

#: relative tolerance used to accept a matrix as symmetric
SYMMETRY_RTOL = 1e-12

#: every decomposition is checked against these bounds (see ``decompose``)
ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_RTOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of ``a``; the caller's array stays writeable."""
    a = np.array(a, dtype=float)
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


_INT = frozenset((int,))


def checked_namedtuple(typename: str, field_names: str) -> type:
    """A namedtuple base whose ``_make``, and so ``_replace``, build through the subclass's
    validating ``__new__``, as copy and pickle do."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def int_tuple(values, message: str) -> tuple[int, ...]:
    """``values`` as plain ints (``2.0``, ``np.int64`` and ``bool`` normalise), or
    ValueError(message) if one is not integral."""
    if type(values) is tuple and _INT.issuperset(map(type, values)):
        return values
    values = tuple(values)
    if not all(float(x).is_integer() for x in values):
        raise ValueError(message)
    return tuple(map(int, values))


class InteractionModel(checked_namedtuple("InteractionModel",
                                          "n omega c kind mass ptilde matrix")):
    """Physical parameters of a coupled-oscillator system, A = omega^2 I + c M.

    ``kind`` selects the coupling matrix M: "constant" (tridiagonal
    2/-1 chain with fixed walls), "krawtchouk" (tridiagonal matrix whose
    eigenvectors are normalized Krawtchouk polynomials, parameter
    ``ptilde`` in (0,1)), or "general" (explicit symmetric ``matrix``).
    """

    __slots__ = ()

    def __new__(cls, n: int, omega: float, c: float, kind: str, mass: float = 1.0,
                ptilde: float | None = None, matrix: np.ndarray | None = None):
        if n < 1:
            raise ValueError("need at least one oscillator")
        (n,) = int_tuple((n,), "the oscillator count must be an integer")
        omega_squared(omega)
        if not 0 <= c < math.inf:
            raise ValueError("coupling strength c must be non-negative and finite")
        if not 0 < mass < math.inf:
            raise ValueError("mass must be positive and finite")
        if kind == "krawtchouk":
            if ptilde is None or not 0.0 < ptilde < 1.0:
                raise ValueError("krawtchouk coupling needs ptilde in (0,1)")
        elif kind == "general":
            if matrix is None:
                raise ValueError("general coupling needs an explicit matrix")
            m = _require_symmetric(matrix)
            if m.shape[0] != n:
                raise ValueError("matrix size does not match n")
            matrix = _freeze(m)
        elif kind != "constant":
            raise ValueError(f"unknown coupling kind {kind!r}")
        return super().__new__(cls, n, omega, c, kind, mass, ptilde, matrix)

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


class SpectralDecomposition(checked_namedtuple(
        "SpectralDecomposition", "lambdas u source orthonormality reconstruction")):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a coupling matrix.

    Column j of ``u`` is the eigenvector paired with ``lambdas[j]``; the
    sign of each column is fixed so that its first component of
    non-negligible size is positive. ``source`` says where the
    eigenvalues come from: "analytic" (a closed form; the Krawtchouk
    eigenvectors are still computed numerically) or "numeric".
    ``orthonormality`` and ``reconstruction`` are the residuals that
    ``decompose`` checked (None on a decomposition built elsewhere).
    """

    __slots__ = ()

    def __new__(cls, lambdas: np.ndarray, u: np.ndarray, source: str,
                orthonormality: float | None = None, reconstruction: float | None = None):
        return super().__new__(cls, _freeze(lambdas), _freeze(u), source,
                               orthonormality, reconstruction)

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]

    def orthonormality_residual(self) -> float:
        eye = np.eye(self.n)
        return float(max(np.abs(self.u.T @ self.u - eye).max(),
                         np.abs(self.u @ self.u.T - eye).max()))

    def reconstruction_residual(self, m: np.ndarray) -> float:
        return float(np.abs(m - (self.u * self.lambdas) @ self.u.T).max())


class ModeFrequencies(namedtuple("ModeFrequencies", "mu sqrt_mu")):
    """Squared normal-mode frequencies mu_j = omega^2 + c*lambda_j and their roots.

    ``mu`` holds the n values at one coupling, or one row of them per
    coupling of a grid, shape (couplings, n). ``sqrt_mu`` is derived from
    ``mu``, so it is no constructor argument.
    """

    __slots__ = ()

    def __new__(cls, mu: np.ndarray):
        mu = np.asarray(mu, dtype=float)
        rows = np.atleast_2d(mu)
        # the first failing row decides (row 0 if none fails); non-finite before not positive
        row = rows[np.argmax(~np.isfinite(rows).all(axis=-1) | (rows <= 0).any(axis=-1))]
        if not np.all(np.isfinite(row)):
            raise ValueError("squared mode frequencies must be finite")
        if np.any(row <= 0):
            bad = int(np.argmax(row <= 0))
            raise PositiveDefinitenessError(
                f"interaction matrix not positive definite: mu[{bad}] = {float(row[bad])}")
        return super().__new__(cls, _freeze(mu), _freeze(np.sqrt(mu)))

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild sqrt_mu from mu
        return (self.mu,)

    @classmethod
    def _make(cls, iterable) -> "ModeFrequencies":  # sqrt_mu from mu again
        return cls(next(iter(iterable)))

    def _replace(self, **changes) -> "ModeFrequencies":  # naming sqrt_mu is a TypeError
        return type(self)(**{"mu": self.mu, **changes})

    @property
    def n(self) -> int:
        return self.mu.shape[-1]


def _fix_column_signs(u: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first non-negligible entry is positive."""
    first = np.argmax(np.abs(u) > 1e-12, axis=0)
    return u * np.where(u[first, np.arange(u.shape[1])] < 0, -1.0, 1.0)


def build_constant_matrix(n: int) -> np.ndarray:
    """Tridiagonal coupling matrix of the fixed-wall chain: 2 on the diagonal, -1 off it."""
    if n < 1:
        raise ValueError("need at least one oscillator")
    m = 2.0 * np.eye(n)
    m.flat[1::n + 1] = m.flat[n::n + 1] = -1.0
    return m


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
    m.flat[1::n + 1] = m.flat[n::n + 1] = -e  # super- and subdiagonal
    return m


def eigenvalues(model: InteractionModel, n: int | None = None) -> np.ndarray:
    """Ascending eigenvalues lambda_j of the model's M: 2 - 2 cos(j pi / (n+1)), j = 1..n
    (constant), j - 1 whatever ptilde (krawtchouk), or the checked ``decompose(model)``'s.

    ``n`` replaces a closed-form model's n, so one validated model serves many sizes.
    """
    n = model.n if n is None else n
    if model.kind == "constant":
        return 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    if model.kind == "krawtchouk":
        return np.arange(n, dtype=float)
    if n != model.n:
        raise ValueError(f"a general model has the size of its matrix, {model.n}, not {n}")
    return decompose(model).lambdas


def decompose(model: InteractionModel) -> SpectralDecomposition:
    """Spectral decomposition of a model's coupling matrix M, checked against M.

    * constant: the ``eigenvalues`` closed form and
      u_ij = sqrt(2/(n+1)) sin(i j pi / (n+1)), i, j = 1..n ("analytic");
    * krawtchouk: the ``eigenvalues`` j - 1 ("analytic"); the eigenvectors
      come from ``numpy.linalg.eigh`` of M, whose ascending eigenvalues are
      these distinct integers, so column j pairs with lambda_j. (The
      closed-form Krawtchouk-polynomial entries lose every digit to
      cancellation from n ~ 30 on.)
    * general: eigenvalues and eigenvectors from ``numpy.linalg.eigh``
      ("numeric").

    Raises NumericError if LAPACK fails, or if the result's
    orthonormality residual exceeds ORTHONORMALITY_TOL or its
    reconstruction residual exceeds RECONSTRUCTION_RTOL * (1 + max|M|).
    """
    m = model.coupling_matrix()
    n = model.n
    if model.kind == "constant":
        j = np.arange(1, n + 1)
        u = np.sqrt(2.0 / (n + 1)) * np.sin(j[:, None] * j * np.pi / (n + 1))
    else:
        try:
            lambdas, u = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigh failed on the {model.kind} coupling matrix: {exc}") from exc
    if model.kind != "general":
        lambdas = eigenvalues(model)
    decomp = SpectralDecomposition(lambdas=lambdas, u=_fix_column_signs(u),
                                   source="numeric" if model.kind == "general" else "analytic")
    orth = decomp.orthonormality_residual()
    recon = decomp.reconstruction_residual(m)
    recon_bound = RECONSTRUCTION_RTOL * (1.0 + float(np.abs(m).max()))
    if not (orth <= ORTHONORMALITY_TOL and recon <= recon_bound):
        raise NumericError(
            f"{model.kind} decomposition at n = {n} misses its residual bounds: "
            f"orthonormality {orth:.3e} (bound {ORTHONORMALITY_TOL:.0e}), "
            f"reconstruction {recon:.3e} (bound {recon_bound:.3e})")
    return SpectralDecomposition(lambdas=decomp.lambdas, u=decomp.u, source=decomp.source,
                                 orthonormality=orth, reconstruction=recon)


def mode_frequencies(lambdas, omega: float, c) -> ModeFrequencies:
    """Squared normal-mode frequencies mu_j = omega^2 + c*lambda_j, in eigenvalue order.

    ``lambdas`` is an eigenvalue array (``eigenvalues``) or a SpectralDecomposition;
    ``c`` is one coupling, or a 1-D array of couplings giving one row of mu
    each. Raises PositiveDefinitenessError (naming the offending index within
    its row) if any mu_j fails to be strictly positive, and ValueError if one
    is not finite; a grid raises its first failing row's.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # ModeFrequencies rejects non-finite mu
        mu = omega_squared(omega) + np.multiply.outer(c, getattr(lambdas, "lambdas", lambdas))
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
