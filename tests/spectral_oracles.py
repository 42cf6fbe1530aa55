"""Independent eigen oracles for ``wignerosc.spectral``.

* ``jacobi_decomposition``: the cyclic Jacobi method (Givens rotations
  swept over all index pairs) in plain Python. It shares no code with
  LAPACK, so it checks ``decompose`` on any symmetric matrix; it is slow
  (about 0.3 s at n = 40 and 1.5 s at n = 100).
* ``krawtchouk_eval``: one entry of the closed-form normalized
  Krawtchouk table in floating point. Its alternating sum cancels
  catastrophically: the n x n table is orthonormal to 1e-12 only up to
  about n = 8 at ptilde = 0.8 and n = 14 at ptilde = 0.3, and is
  garbage from n ~ 30.
* ``krawtchouk_exact``: the same table with the sum taken in exact
  rational arithmetic at the binary value of ``ptilde``, so each entry is
  correct to a few ulp at any n. It is the large-n oracle for the
  Krawtchouk eigenvectors (seconds at n = 100).
* ``fix_column_signs``: the sign convention of ``SpectralDecomposition``
  written as a loop over columns.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from wignerosc import NumericError, SpectralDecomposition

JACOBI_MAX_SWEEPS = 100


def fix_column_signs(u: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first entry above 1e-12 in size is positive."""
    u = np.array(u)
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
    return u


def krawtchouk_eval(i: int, j: int, n: int, ptilde: float) -> float:
    """Normalized Krawtchouk polynomial value K_i(j) for parameters (n-1, ptilde).

    K_i(j) = [C(n-1,i) C(n-1,j) pt^(i+j) (1-pt)^(n-i-j-1)]^(1/2)
             * sum_k C(i,k) C(j,k) / C(n-1,k) * (-1/pt)^k,
    symmetric in i and j; the rows (and columns) of the n x n table are
    orthonormal, and column j is the eigenvector of the Krawtchouk
    matrix for the eigenvalue j.
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


def krawtchouk_exact(n: int, ptilde: float) -> np.ndarray:
    """The n x n table K_i(j) of ``krawtchouk_eval``, summed exactly.

    Each K_i(j)^2 is formed as a Fraction and rounded once, so an entry
    is sqrt of a correctly rounded float times the sign of the exact sum.
    """
    pt = Fraction(ptilde)
    q = [(-1 / pt) ** k / math.comb(n - 1, k) for k in range(n)]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i + 1):
            acc = sum(math.comb(i, k) * math.comb(j, k) * q[k] for k in range(j + 1))
            square = math.comb(n - 1, i) * math.comb(n - 1, j) * pt ** (i + j) \
                * (1 - pt) ** (n - i - j - 1) * acc * acc
            out[i, j] = out[j, i] = math.copysign(math.sqrt(square), acc)
    return out


def jacobi_decomposition(m: np.ndarray, tol: float = 1e-12) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix by the cyclic Jacobi method.

    Sweeps Givens rotations over all index pairs until the largest
    off-diagonal magnitude drops below ``tol`` times the largest entry
    of the input; ValueError for a matrix that is not square and
    symmetric, NumericError after JACOBI_MAX_SWEEPS sweeps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.abs(a - a.T).max() > 1e-12 * max(1.0, float(np.abs(a).max())):
        raise ValueError("matrix is not symmetric within tolerance")
    n = a.shape[0]
    v = np.eye(n)
    scale = float(np.abs(a).max())
    if n == 1 or scale == 0.0:
        return SpectralDecomposition(lambdas=np.diag(a).copy(), u=v, source="numeric")
    threshold = tol * scale

    def offdiag_max() -> float:
        off = np.abs(a - np.diag(np.diag(a)))
        return float(off.max())

    for _ in range(JACOBI_MAX_SWEEPS):
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
            f"Jacobi iteration did not converge within {JACOBI_MAX_SWEEPS} sweeps")

    lambdas = np.diag(a).copy()
    order = np.argsort(lambdas, kind="stable")
    return SpectralDecomposition(lambdas=lambdas[order],
                                 u=fix_column_signs(v[:, order]),
                                 source="numeric")
