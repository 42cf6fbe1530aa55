"""Canonical quantization as a truncated boson Fock-space model, stored by its structure.

When the canonical commutation relations are imposed, the mode
operators become ordinary boson ladder operators and the Hamiltonian
is hbar/2 * sum_j sqrt(mu_j) {a_j^+, a_j^-}. With a per-mode occupation
cutoff K, a state is a mixed-radix index (first mode most significant),
h is diagonal, and a_j^+- shifts the index by +-K**(n-1-j) with one
coefficient per column. The ladder identities
[H, a_j^+-] = +-hbar sqrt(mu_j) a_j^+- and the position, momentum and
pairing identities of the chain's q = U Q, p = U P are evaluated on
these stored entries, never on a K**n x K**n matrix; a byte budget
admits 1.2 * 10**6 states at n = 2 and 5.3 * 10**5 at n = 6. The
closed-form spectrum hbar sum_j sqrt(mu_j) (1/2 + k_j) is the osp(1|2n)
V(1) spectrum, whose weights are the occupations.

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
                       checked_namedtuple, int_tuple, mode_frequencies)

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

    Per state: occupations, a_plus, a_minus, h and interior, plus the larger
    of one mode's (n, 2 * dim) residual arrays and the (n * n, dim) pairing grid.
    """
    return cutoff ** n * (8 * (3 * n + 1) + 1 + 8 * max(12 * n + 24, 2 * n * n + n))


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

    @property
    def index(self) -> int:
        """Mixed-radix state index, first mode most significant."""
        idx = 0
        for k in self.occupations:
            idx = idx * self.cutoff + k
        return idx


class TruncatedOperatorSet(NamedTuple):
    """The n-mode ladder algebra at per-mode cutoff K, stored by its shift structure.

    ``a_plus[j, i]`` is the one entry of a_j^+ in column i (row
    i + strides[j]) and ``a_minus[j, i]`` that of a_j^- (row
    i - strides[j]); a zero marks a column the operator annihilates, so
    a_j^- is the transpose of a_j^+. ``h`` is the diagonal of the
    Hamiltonian, and ``interior`` flags the states on which the algebra
    is exact (all occupations <= K - 2).
    """

    n: int
    cutoff: int
    hbar: float
    sqrt_mu: np.ndarray
    a_plus: np.ndarray   # (n, dim)
    a_minus: np.ndarray  # (n, dim)
    h: np.ndarray        # (dim,)
    interior: np.ndarray
    occupations: np.ndarray  # state-index -> occupation vector

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


def build_fock_operators(n: int, freqs: ModeFrequencies, cutoff: int,
                         hbar: float = 1.0) -> TruncatedOperatorSet:
    """Ladder entries and the diagonal of h = sum_j hbar sqrt(mu_j)/2 {a_j^+, a_j^-}.

    The anticommutator is evaluated as 2 a^+ a^- + 1, with the diagonal of
    a^+ a^- taken from products of the stored entries; this is exact between
    truncated states, where a^- a^+ would vanish on the top rung. Sizes over
    the byte budget raise ResourceLimitError before anything is allocated.
    """
    if freqs.n != n:
        raise ValueError("mode count disagrees with n")
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    check_bytes(_peak_bytes(n, cutoff), f"cutoff**n = {cutoff ** n} states")

    occ = np.indices((cutoff,) * n).reshape(n, -1)  # occ[j, i]: k_j of state i
    a_minus = np.sqrt(occ)
    a_plus = np.where(occ < cutoff - 1, np.sqrt(occ + 1), 0.0)
    h = np.zeros(cutoff ** n)
    for j in range(n):
        s = cutoff ** (n - 1 - j)
        number = np.zeros_like(h)  # diagonal of a_j^+ a_j^-
        number[s:] = a_plus[j, :-s] * a_minus[j, s:]
        h += hbar * freqs.sqrt_mu[j] * (number + 0.5)
    return TruncatedOperatorSet(n=n, cutoff=cutoff, hbar=hbar, sqrt_mu=np.array(freqs.sqrt_mu),
                                a_plus=a_plus, a_minus=a_minus, h=h,
                                interior=np.all(occ <= cutoff - 2, axis=0), occupations=occ.T)


def _paired_modes(ops: TruncatedOperatorSet) -> range:
    """Modes with an interior pair (i, i + s): every mode from cutoff 3 on, and none below,
    where the one interior state (all occupations 0) has only top-rung neighbours."""
    return range(ops.n if ops.cutoff > 2 else 0)


def _mode_pairs(ops: TruncatedOperatorSet, j: int):
    """a_j^+ at column i, a_j^- at column i + s, h[i], h[i + s] over interior pairs (i, i + s)."""
    s = ops.strides[j]
    low = np.flatnonzero(ops.interior[:-s] & ops.interior[s:])
    return ops.a_plus[j, low], ops.a_minus[j, low + s], ops.h[low], ops.h[low + s]


def _max_abs(values: np.ndarray) -> float:
    return float(np.abs(values).max()) if values.size else 0.0


class CompatibilityReport(NamedTuple):
    """Interior residuals of the ladder identities [h, a_j^+-] -+ hbar sqrt(mu_j) a_j^+-."""

    cutoff: int
    interior_dim: int
    raising_residuals: tuple[float, ...]
    lowering_residuals: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.raising_residuals + self.lowering_residuals)


def verify_compatibility(ops: TruncatedOperatorSet) -> CompatibilityReport:
    """Measure the ladder identities on interior states; thresholds are the caller's.

    An entry a of a_j^+- at (row, col) makes [h, a_j^+-] -+ shift a_j^+- equal
    h[row] a - a h[col] -+ shift a there; every other entry is zero.
    """
    plus, minus = [0.0] * ops.n, [0.0] * ops.n
    for j in _paired_modes(ops):
        up, down, h_low, h_high = _mode_pairs(ops, j)
        shift = ops.hbar * ops.sqrt_mu[j]
        plus[j] = _max_abs(h_high * up - up * h_low - shift * up)
        minus[j] = _max_abs(h_low * down - down * h_high + shift * down)
    return CompatibilityReport(cutoff=ops.cutoff, interior_dim=ops.interior_dim,
                               raising_residuals=tuple(plus), lowering_residuals=tuple(minus))


def fock_spectrum(n: int, freqs: ModeFrequencies, hbar: float = 1.0,
                  k_total_max: int = 3) -> list[SpectrumLine]:
    """Levels hbar sum_j sqrt(mu_j) (1/2 + k_j) over occupations with sum k_j <= k_total_max.

    The lines of ``osp_spectrum(n, 1, freqs, k_total_max)`` times hbar, each
    labelled by the weight of its head class: its occupation tuple. hbar must be finite
    and positive (ValueError).
    """
    if not 0 < hbar < np.inf:
        raise ValueError(f"hbar must be finite and positive; got hbar = {hbar!r}")
    classes = osp_classes(n, 1, k_total_max)
    merged = levels(classes, freqs)
    occ = classes.weights[merged.head].tolist()
    return spectrum_lines(merged._replace(energy=hbar * merged.energy), list(map(tuple, occ)))


def gz_to_fock(pattern: GZPattern) -> FockBasisState:
    """Occupation state matching a single-column pattern: k_j = m_j - m_{j-1}.

    Only patterns of the p = 1 shape (one value per row, all other
    entries zero) correspond to Fock states; anything else is rejected.
    """
    heads = tuple(map(operator.itemgetter(0), pattern.rows))  # m_n, ..., m_1
    # entries are non-negative, so the rows sum to their heads only when the rest are 0
    if sum(map(sum, pattern.rows)) != sum(heads):
        raise ValueError("pattern is not single-column (p = 1 shape)")
    occ = tuple(map(operator.sub, heads[::-1], (0,) + heads[:0:-1]))
    return FockBasisState(occupations=occ, cutoff=max(occ) + 1)


class ReconstructedObservables(NamedTuple):
    """Position and momentum operators of the original chain, with identity residuals.

    ``q[r, j]`` and ``w[r, j]`` are the coefficients of the chain
    operators on the ladder operators: q_r = sum_j q[r, j] (a_j^+ + a_j^-)
    is real symmetric, and the momentum operator is i * w_r with
    w_r = sum_j w[r, j] (a_j^+ - a_j^-) real antisymmetric. Residuals are
    interior-restricted max-norms of:

    * position identity  [h, q_r] - (hbar/m) w_r          (from [H, q_r] = -(i hbar/m) p_r,
      substituting p_r = i w_r: the i factors cancel, the sign flips),
    * momentum identity  [h, w_r] - hbar m sum_s A_rs q_s (from [H, p_r] = i hbar m sum A q),
    * pairing            [q_r, w_s] - hbar delta_rs I     (from [q_r, p_s] = i hbar delta).
    """

    q: np.ndarray
    w: np.ndarray
    position_cc_residuals: tuple[float, ...]
    momentum_cc_residuals: tuple[float, ...]
    pairing_residual: float
    max_q_asymmetry: float
    max_w_symmetry: float


def reconstruct_observables(decomp: SpectralDecomposition, ops: TruncatedOperatorSet,
                            model: InteractionModel) -> ReconstructedObservables:
    """Invert the mode-operator definition and map back through the eigenvector matrix.

    Normal-mode operators: Q_j = sqrt(hbar/(2 m sqrt(mu_j))) (a_j^+ + a_j^-) and
    P_j = i sqrt(hbar m sqrt(mu_j)/2) (a_j^+ - a_j^-); original-chain operators
    are q = U Q and p = U P. Raises if the operator set was built for
    different mode frequencies than (decomp, model) imply.
    """
    n = model.n
    if decomp.n != n or ops.n != n:
        raise ValueError("decomposition, operators and model sizes disagree")
    expected = mode_frequencies(decomp, model.omega, model.c).sqrt_mu
    if float(np.abs(expected - ops.sqrt_mu).max()) > 1e-12 * (1.0 + float(expected.max())):
        raise ValueError("operator set was built for different mode frequencies")

    hbar, mass, u = ops.hbar, model.mass, decomp.u
    alpha = np.sqrt(hbar / (2.0 * mass * ops.sqrt_mu))  # Q_j = alpha_j (a_j^+ + a_j^-)
    beta = np.sqrt(hbar * mass * ops.sqrt_mu / 2.0)  # W_j = beta_j (a_j^+ - a_j^-)
    a_matrix = model.omega ** 2 * np.eye(n) + model.c * (u @ np.diag(decomp.lambdas) @ u.T)

    pos_res, mom_res, asymmetry = np.zeros(n), np.zeros(n), np.zeros(n)
    commutators = np.zeros((n, ops.interior_dim))  # interior diagonal of [a_j^-, a_j^+]
    for j in _paired_modes(ops):
        up, down, h_low, h_high = _mode_pairs(ops, j)
        # raising entries (row i + s, column i), then lowering ones; row r: q_r's / w_r's
        h_row, h_col = np.concatenate((h_high, h_low)), np.concatenate((h_low, h_high))
        qe = np.outer(u[:, j], alpha[j] * np.concatenate((up, down)))
        we = np.outer(u[:, j], beta[j] * np.concatenate((up, -down)))
        pos = h_row * qe - qe * h_col - (hbar / mass) * we
        mom = h_row * we - we * h_col - hbar * mass * (a_matrix @ qe)
        pos_res = np.maximum(pos_res, np.abs(pos).max(axis=1))
        mom_res = np.maximum(mom_res, np.abs(mom).max(axis=1))
    for j, s in enumerate(ops.strides):
        # raise-then-lower products: a_j^- a_j^+ at i is a_j^+ a_j^- at i + s; q_r is
        # symmetric (w_r antisymmetric) where a_j^+ and a_j^- entries agree
        anti = ops.a_plus[j, :-s] * ops.a_minus[j, s:]
        commutator = np.concatenate((anti, np.zeros(s)))
        commutator[s:] -= anti
        commutators[j] = commutator[ops.interior]
        asymmetry[j] = _max_abs(ops.a_plus[j, :-s] - ops.a_minus[j, s:])
    q, w = u * alpha, u * beta
    # [Q_j, W_k] = 0 for j != k and 2 alpha_j beta_j [a_j^-, a_j^+] for j = k, so
    # [q_r, w_s] = sum_j 2 q[r, j] w[s, j] [a_j^-, a_j^+]
    pairs = (2.0 * q[:, None, :] * w[None, :, :]).reshape(n * n, n) @ commutators
    pairs[:: n + 1] -= hbar
    return ReconstructedObservables(
        q=q, w=w, position_cc_residuals=tuple(pos_res.tolist()),
        momentum_cc_residuals=tuple(mom_res.tolist()), pairing_residual=_max_abs(pairs),
        max_q_asymmetry=float((np.abs(q).max(axis=0) * asymmetry).max()),
        max_w_symmetry=float((np.abs(w).max(axis=0) * asymmetry).max()),
    )
