"""Dense test oracle for the truncated Fock model, and a densifier for its structured form.

``dense_operators`` builds every ladder operator and the Hamiltonian as
a full ``np.kron`` matrix of size cutoff**n squared, and
``dense_compatibility`` / ``dense_observables`` measure the ladder,
position, momentum and pairing identities with dense matmuls on
interior states. This is the model ``wignerosc.fock`` stores by its
shift structure; the two must agree entry for entry and residual for
residual. Dense matrices cost O(dim^2) memory and O(dim^3) time, so use
this only at small sizes (a few hundred states).

``densify`` turns a structured ``TruncatedOperatorSet`` back into dense
``a_plus``, ``a_minus`` and ``h`` matrices, reading a_j^- as the stride
shift of the one stored coefficient array, and ``dense_q``/``dense_w``
rebuild the chain observables from ``ReconstructedObservables`` so
that tests can state identities as matrix equations.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class DenseOperators(NamedTuple):
    a_plus: tuple[np.ndarray, ...]
    a_minus: tuple[np.ndarray, ...]
    h: np.ndarray
    interior: np.ndarray
    sqrt_mu: np.ndarray

    @property
    def n(self) -> int:
        return len(self.a_plus)

    @property
    def dim(self) -> int:
        return self.h.shape[0]


class DenseObservables(NamedTuple):
    q: tuple[np.ndarray, ...]
    w: tuple[np.ndarray, ...]
    position_cc_residuals: tuple[float, ...]
    momentum_cc_residuals: tuple[float, ...]
    pairing_residual: float
    max_q_asymmetry: float
    max_w_symmetry: float


def _single_mode_lowering(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff, cutoff))
    for k in range(1, cutoff):
        a[k - 1, k] = np.sqrt(k)
    return a


def dense_operators(n: int, freqs, cutoff: int) -> DenseOperators:
    """Ladder matrices and h = sum_j sqrt(mu_j) (a_j^+ a_j^- + 1/2), all dense (hbar = m = 1)."""
    lower = _single_mode_lowering(cutoff)
    a_minus = [np.kron(np.kron(np.eye(cutoff ** j), lower), np.eye(cutoff ** (n - j - 1)))
               for j in range(n)]
    a_plus = [op.T.copy() for op in a_minus]
    dim = cutoff ** n
    h = np.zeros((dim, dim))
    eye = np.eye(dim)
    for j in range(n):
        h += freqs.sqrt_mu[j] * (a_plus[j] @ a_minus[j] + 0.5 * eye)
    occupations = np.array(np.unravel_index(np.arange(dim), (cutoff,) * n)).T
    interior = np.all(occupations <= cutoff - 2, axis=1)
    return DenseOperators(tuple(a_plus), tuple(a_minus), h, interior, np.array(freqs.sqrt_mu))


def _interior_max(matrix: np.ndarray, mask: np.ndarray) -> float:
    sub = matrix[np.ix_(mask, mask)]
    return float(np.abs(sub).max()) if sub.size else 0.0


def dense_compatibility(ops: DenseOperators) -> tuple[list[float], list[float]]:
    """Interior max-norms of [h, a_j^+] - shift a_j^+ and [h, a_j^-] + shift a_j^-."""
    plus, minus = [], []
    for j in range(ops.n):
        shift = ops.sqrt_mu[j]
        rp = ops.h @ ops.a_plus[j] - ops.a_plus[j] @ ops.h - shift * ops.a_plus[j]
        rm = ops.h @ ops.a_minus[j] - ops.a_minus[j] @ ops.h + shift * ops.a_minus[j]
        plus.append(_interior_max(rp, ops.interior))
        minus.append(_interior_max(rm, ops.interior))
    return plus, minus


def dense_observables(decomp, ops: DenseOperators, model) -> DenseObservables:
    """q = U Q, w = U W as dense matrices, and their identity residuals on interior states."""
    n = model.n
    q_modes = [np.sqrt(1.0 / (2.0 * ops.sqrt_mu[j])) * (ops.a_plus[j] + ops.a_minus[j])
               for j in range(n)]
    w_modes = [np.sqrt(ops.sqrt_mu[j] / 2.0) * (ops.a_plus[j] - ops.a_minus[j])
               for j in range(n)]
    u = decomp.u
    q = tuple(sum(u[r, j] * q_modes[j] for j in range(n)) for r in range(n))
    w = tuple(sum(u[r, j] * w_modes[j] for j in range(n)) for r in range(n))

    a_matrix = model.omega ** 2 * np.eye(n) + model.c * (u @ np.diag(decomp.lambdas) @ u.T)
    mask = ops.interior
    h = ops.h
    pos_res, mom_res = [], []
    pairing = 0.0
    for r in range(n):
        pos = h @ q[r] - q[r] @ h - w[r]
        pos_res.append(_interior_max(pos, mask))
        forced = sum(a_matrix[r, s] * q[s] for s in range(n))
        mom = h @ w[r] - w[r] @ h - forced
        mom_res.append(_interior_max(mom, mask))
        for s in range(n):
            pair = q[r] @ w[s] - w[s] @ q[r]
            if r == s:
                pair = pair - np.eye(ops.dim)
            pairing = max(pairing, _interior_max(pair, mask))
    return DenseObservables(
        q=q, w=w, position_cc_residuals=tuple(pos_res), momentum_cc_residuals=tuple(mom_res),
        pairing_residual=pairing,
        max_q_asymmetry=max(float(np.abs(m - m.T).max()) for m in q),
        max_w_symmetry=max(float(np.abs(m + m.T).max()) for m in w))


def _shift_matrix(coefficients: np.ndarray, offset: int) -> np.ndarray:
    """Dense matrix with entry coefficients[col] at (col + offset, col)."""
    dim = coefficients.shape[0]
    m = np.zeros((dim, dim))
    cols = np.arange(max(0, -offset), min(dim, dim - offset))
    m[cols + offset, cols] = coefficients[cols]
    return m


def densify(ops) -> DenseOperators:
    """The dense matrices of a structured TruncatedOperatorSet; a_j^- has a_plus[j, i] in
    column i + s."""
    a_plus = tuple(_shift_matrix(ops.a_plus[j], s) for j, s in enumerate(ops.strides))
    a_minus = tuple(_shift_matrix(np.concatenate((np.zeros(s), ops.a_plus[j, :-s])), -s)
                    for j, s in enumerate(ops.strides))
    return DenseOperators(a_plus, a_minus, np.diag(ops.h), ops.interior, ops.sqrt_mu)


def dense_q(obs, dense: DenseOperators, r: int) -> np.ndarray:
    """q_r = sum_j obs.q[r, j] (a_j^+ + a_j^-) as a dense matrix."""
    return sum(obs.q[r, j] * (dense.a_plus[j] + dense.a_minus[j]) for j in range(dense.n))


def dense_w(obs, dense: DenseOperators, r: int) -> np.ndarray:
    """w_r = sum_j obs.w[r, j] (a_j^+ - a_j^-) as a dense matrix."""
    return sum(obs.w[r, j] * (dense.a_plus[j] - dense.a_minus[j]) for j in range(dense.n))
