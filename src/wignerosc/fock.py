"""Canonical quantization as a truncated boson Fock-space model, stored by its structure.

When the canonical commutation relations are imposed, the mode
operators become ordinary boson ladder operators and, in units
hbar = m = 1, the Hamiltonian is 1/2 * sum_j sqrt(mu_j) {a_j^+, a_j^-}.
With a per-mode occupation cutoff K, a state is a mixed-radix index
(first mode most significant), h is diagonal, and a_j^+ shifts the
index by K**(n-1-j) with one coefficient per column; a_j^-, its
transpose, reads the same coefficients. The ladder identities
[H, a_j^+-] = +-sqrt(mu_j) a_j^+- and the position, momentum and
pairing identities of the chain's q = U Q, p = U P are evaluated once,
on the raising entries (at the mirrored lowering entry a residual is the
same float or its exact negative: products commute and a rounded
difference changes sign with its operands), never on a K**n x K**n
matrix; a byte budget admits 2.9 * 10**6 states at n = 2 and
5.3 * 10**5 at n = 6. The closed-form spectrum sum_j sqrt(mu_j) (1/2 + k_j)
is the osp(1|2n) V(1) spectrum, whose weights are the occupations.

Truncation corrupts exactly the top rung of each mode, so every
identity is asserted only between "interior" states (all occupations
at most K - 2).

Real-matrix convention: a_j^+- and hence position operators are real;
momentum operators are purely imaginary, p = i * W with W real
antisymmetric. Commutator identities involving i are therefore checked
as identities between real matrices (the i factors cancel; signs are
noted where each identity is formed).
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from .levels import SpectrumLine, check_bytes, levels, spectrum_lines
from .osp_spectrum import GZPattern, osp_classes
from .spectral import (InteractionModel, ModeFrequencies, SpectralDecomposition,
                       checked_namedtuple, int_tuple, omega_squared)

__all__ = [
    "FockBasisState",
    "TruncatedOperatorSet",
    "CompatibilityReport",
    "ReconstructedObservables",
    "build_fock_operators",
    "verify_compatibility",
    "fock_spectrum",
    "gz_to_fock",
    "reconstruct_observables",
]


def _peak_bytes(n: int, cutoff: int) -> int:
    """Bytes build_fock_operators and reconstruct_observables hold at most at once.

    Per state: a_plus, h, interior and the commutator diagonals, plus the larger of one
    mode's residual loop (four (n, dim) arrays, ten vectors) and the pairing step (the
    loop's last two arrays, five vectors, the (n * n, dim) grid and its absolute values,
    and a word to spare); the build's occupation arrays need less.
    """
    return cutoff ** n * (8 * (2 * n + 1) + 1 + 8 * max(4 * n + 10, 2 * n * n + 2 * n + 6))


class FockBasisState(checked_namedtuple("FockBasisState", "occupations cutoff")):
    """Occupation-number state |k_1, ..., k_n> with per-mode cutoff K (all k_j < K)."""

    __slots__ = ()

    def __new__(cls, occupations: tuple[int, ...], cutoff: int):
        occ = int_tuple(occupations, "occupations must be integers")
        if type(cutoff) is not int:
            (cutoff,) = int_tuple((cutoff,), "cutoff must be an integer")
        if cutoff < 1:
            raise ValueError("cutoff must be positive")
        if occ and (min(occ) < 0 or max(occ) >= cutoff):
            raise ValueError("occupations must lie in [0, cutoff)")
        return super().__new__(cls, occ, cutoff)


class TruncatedOperatorSet(NamedTuple):
    """The n-mode ladder algebra at per-mode cutoff K, stored by its shift structure.

    ``a_plus[j, i]`` is the one entry of a_j^+ in column i (row
    i + strides[j]); a zero marks a column the operator annihilates. a_j^-
    is its transpose, the same array shifted by the stride: its entry in
    column i + strides[j] (row i) is ``a_plus[j, i]``. ``h`` is the diagonal
    of the Hamiltonian, and ``interior`` flags the states on which the
    algebra is exact (all occupations <= K - 2).
    """

    n: int
    cutoff: int
    sqrt_mu: np.ndarray
    a_plus: np.ndarray   # (n, dim)
    h: np.ndarray        # (dim,)
    interior: np.ndarray

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @property
    def interior_dim(self) -> int:
        return int(self.interior.sum())

    @property
    def strides(self) -> list[int]:
        """Index shift of mode j's ladder operators: cutoff**(n-1-j)."""
        return [self.cutoff ** (self.n - 1 - j) for j in range(self.n)]


def build_fock_operators(n: int, freqs: ModeFrequencies, cutoff: int) -> TruncatedOperatorSet:
    """Ladder entries and the diagonal of h = sum_j sqrt(mu_j)/2 {a_j^+, a_j^-}.

    The anticommutator is evaluated as 2 a^+ a^- + 1, with the diagonal of
    a^+ a^- taken from products of the stored entries; this is exact between
    truncated states, where a^- a^+ would vanish on the top rung. A cutoff
    that is not an integer of at least 2 is a ValueError; sizes over the byte
    budget raise ResourceLimitError before anything is allocated.
    """
    if freqs.n != n:
        raise ValueError("mode count disagrees with n")
    (cutoff,) = int_tuple((cutoff,), f"cutoff must be an integer; got cutoff = {cutoff!r}")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    check_bytes(_peak_bytes(n, cutoff), f"cutoff**n = {cutoff ** n} states")

    occ = np.indices((cutoff,) * n).reshape(n, -1)  # occ[j, i]: k_j of state i
    a_plus = np.where(occ < cutoff - 1, np.sqrt(occ + 1), 0.0)
    h = np.zeros(cutoff ** n)
    for j in range(n):
        s = cutoff ** (n - 1 - j)
        number = np.zeros_like(h)  # diagonal of a_j^+ a_j^-; a_j^- at column i + s is a_j^+ at i
        number[s:] = a_plus[j, :-s] * a_plus[j, :-s]
        h += freqs.sqrt_mu[j] * (number + 0.5)
    return TruncatedOperatorSet(n=n, cutoff=cutoff, sqrt_mu=np.array(freqs.sqrt_mu),
                                a_plus=a_plus, h=h, interior=np.all(occ <= cutoff - 2, axis=0))


def _paired_modes(ops: TruncatedOperatorSet) -> range:
    """Modes with an interior pair (i, i + s): every mode from cutoff 3 on, and none below,
    where the one interior state (all occupations 0) has only top-rung neighbours."""
    return range(ops.n if ops.cutoff > 2 else 0)


def _mode_pairs(ops: TruncatedOperatorSet, j: int):
    """a_j^+ at column i (a_j^- at column i + s), h[i], h[i + s] over interior pairs (i, i + s)."""
    s = ops.strides[j]
    low = np.flatnonzero(ops.interior[:-s] & ops.interior[s:])
    return ops.a_plus[j, low], ops.h[low], ops.h[low + s]


def _max_abs(values: np.ndarray) -> float:
    return float(np.abs(values).max()) if values.size else 0.0


class CompatibilityReport(NamedTuple):
    """Interior residuals of the ladder identities [h, a_j^+] - sqrt(mu_j) a_j^+, which are
    also those of [h, a_j^-] + sqrt(mu_j) a_j^-: minus its transpose, float for float."""

    cutoff: int
    interior_dim: int
    raising_residuals: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.raising_residuals)


def verify_compatibility(ops: TruncatedOperatorSet) -> CompatibilityReport:
    """Measure the ladder identities on interior states; thresholds are the caller's.

    An entry a of a_j^+ at (row, col) makes [h, a_j^+] - sqrt(mu_j) a_j^+ equal
    h[row] a - a h[col] - sqrt(mu_j) a there; every other entry is zero.
    """
    plus = [0.0] * ops.n
    for j in _paired_modes(ops):
        up, h_low, h_high = _mode_pairs(ops, j)
        plus[j] = _max_abs(h_high * up - up * h_low - ops.sqrt_mu[j] * up)
    return CompatibilityReport(cutoff=ops.cutoff, interior_dim=ops.interior_dim,
                               raising_residuals=tuple(plus))


def fock_spectrum(n: int, freqs: ModeFrequencies, k_total_max: int = 3) -> list[SpectrumLine]:
    """Levels sum_j sqrt(mu_j) (1/2 + k_j) over occupations with sum k_j <= k_total_max.

    The lines of ``osp_spectrum(n, 1, freqs, k_total_max)``, each labelled by
    the weight of its head class: its occupation tuple.
    """
    classes = osp_classes(n, 1, k_total_max)
    merged = levels(classes, freqs)
    occ = classes.weights[merged.head].tolist()
    return spectrum_lines(merged, list(map(tuple, occ)))


def gz_to_fock(pattern: GZPattern) -> FockBasisState:
    """Occupation state matching a single-column pattern: k_j = m_j - m_{j-1}.

    Only patterns of the p = 1 shape (one value per row, all other
    entries zero) correspond to Fock states; anything else is rejected.
    Interleaving bounds entry i of every row by top-row entry i, so a pattern
    is single-column exactly when its top row's second entry is 0 (or absent).
    The state is built unchecked: the heads ascend, so the occupations are
    non-negative ints, below cutoff = max + 1.
    """
    rows = pattern.rows
    if any(rows[0][1:2]):
        raise ValueError("pattern is not single-column (p = 1 shape)")
    heads = [row[0] for row in reversed(rows)]  # m_1, ..., m_n
    occ = tuple(map(operator.sub, heads, [0, *heads]))
    return tuple.__new__(FockBasisState, (occ, max(occ) + 1))


class ReconstructedObservables(NamedTuple):
    """Position and momentum operators of the original chain, with identity residuals.

    ``q[r, j]`` and ``w[r, j]`` are the coefficients of the chain
    operators on the ladder operators: q_r = sum_j q[r, j] (a_j^+ + a_j^-)
    is real symmetric, and the momentum operator is i * w_r with
    w_r = sum_j w[r, j] (a_j^+ - a_j^-) real antisymmetric, both by
    construction, as a_j^- is stored as the transpose of a_j^+. Residuals
    are interior-restricted max-norms, in units hbar = m = 1, of:

    * position identity  [h, q_r] - w_r             (from [H, q_r] = -i p_r,
      substituting p_r = i w_r: the i factors cancel, the sign flips),
    * momentum identity  [h, w_r] - sum_s A_rs q_s  (from [H, p_r] = i sum A q),
    * pairing            [q_r, w_s] - delta_rs I    (from [q_r, p_s] = i delta).
    """

    q: np.ndarray
    w: np.ndarray
    position_cc_residuals: tuple[float, ...]
    momentum_cc_residuals: tuple[float, ...]
    pairing_residual: float


def reconstruct_observables(decomp: SpectralDecomposition, ops: TruncatedOperatorSet,
                            model: InteractionModel) -> ReconstructedObservables:
    """Invert the mode-operator definition and map back through the eigenvector matrix.

    Normal-mode operators: Q_j = sqrt(1/(2 sqrt(mu_j))) (a_j^+ + a_j^-) and
    P_j = i sqrt(sqrt(mu_j)/2) (a_j^+ - a_j^-); original-chain operators
    are q = U Q and p = U P. Raises if the operator set was built for
    different mode frequencies than (decomp, model) imply.
    """
    n = model.n
    if decomp.n != n or ops.n != n:
        raise ValueError("decomposition, operators and model sizes disagree")
    omega2 = omega_squared(model.omega)
    with np.errstate(invalid="ignore"):  # a negative mu_j gives nan, which never matches
        expected = np.sqrt(omega2 + model.c * decomp.lambdas)
    if not float(np.abs(expected - ops.sqrt_mu).max()) <= 1e-12 * (1.0 + float(expected.max())):
        raise ValueError("operator set was built for different mode frequencies")

    u = decomp.u
    alpha = np.sqrt(1.0 / (2.0 * ops.sqrt_mu))  # Q_j = alpha_j (a_j^+ + a_j^-)
    beta = np.sqrt(ops.sqrt_mu / 2.0)  # W_j = beta_j (a_j^+ - a_j^-)
    a_matrix = omega2 * np.eye(n) + model.c * (u @ np.diag(decomp.lambdas) @ u.T)

    pos_res, mom_res = np.zeros(n), np.zeros(n)
    commutators = np.zeros((n, ops.interior_dim))  # interior diagonal of [a_j^-, a_j^+]
    for j in _paired_modes(ops):
        up, h_low, h_high = _mode_pairs(ops, j)
        # raising entries (row i + s, column i); row r: q_r's / w_r's
        qe = np.outer(u[:, j], alpha[j] * up)
        we = np.outer(u[:, j], beta[j] * up)
        pos_res = np.maximum(pos_res, np.abs(h_high * qe - qe * h_low - we).max(axis=1))
        mom_res = np.maximum(mom_res, np.abs(h_high * we - we * h_low - a_matrix @ qe).max(axis=1))
    for j, s in enumerate(ops.strides):
        # raise-then-lower products: a_j^- a_j^+ at i is a_j^+ a_j^- at i + s
        anti = ops.a_plus[j, :-s] * ops.a_plus[j, :-s]
        commutator = np.concatenate((anti, np.zeros(s)))
        commutator[s:] -= anti
        commutators[j] = commutator[ops.interior]
    q, w = u * alpha, u * beta
    # [Q_j, W_k] = 0 for j != k and 2 alpha_j beta_j [a_j^-, a_j^+] for j = k, so
    # [q_r, w_s] = sum_j 2 q[r, j] w[s, j] [a_j^-, a_j^+]
    pairs = (2.0 * q[:, None, :] * w[None, :, :]).reshape(n * n, n) @ commutators
    pairs[:: n + 1] -= 1.0
    return ReconstructedObservables(
        q=q, w=w, position_cc_residuals=tuple(pos_res.tolist()),
        momentum_cc_residuals=tuple(mom_res.tolist()), pairing_residual=_max_abs(pairs))
