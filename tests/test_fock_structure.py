"""The shift-structured Fock model against the dense kron oracle, and its byte guard.

``wignerosc.fock`` stores one coefficient per column for each ladder
pair (a_j^- reads a_j^+'s, shifted by the stride) and h as its diagonal,
and evaluates every identity once, on the raising entries. ``fock_dense``
builds the same truncated model as full matrices, with a_j^- on its own,
and measures the identities with dense matmuls. Entries, h, the chain
observables and every residual must agree to 1e-13 at every size up to
256 states: the raising residuals with both the dense raising and the
dense lowering ones.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from wignerosc import (InteractionModel, ModeFrequencies, ResourceLimitError,
                       build_fock_operators, decompose, fock_spectrum, mode_frequencies,
                       reconstruct_observables, verify_compatibility)
from wignerosc.fock import _peak_bytes
from wignerosc.levels import BYTE_BUDGET, MERGE_TOL
from fock_dense import (dense_compatibility, dense_observables, dense_operators, dense_q,
                        dense_w, densify)
from oracles import merge_lines

SIZES = [(n, k) for n in range(1, 9) for k in range(2, 257) if k ** n <= 256]


def _setup(kind, n, c=0.37):
    make = InteractionModel.constant if kind == "constant" else InteractionModel.krawtchouk
    model = make(n, omega=1.3, c=c)
    decomp = decompose(model)
    return model, decomp, mode_frequencies(decomp, model.omega, model.c)


def _max_diff(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


@pytest.mark.parametrize("kind", ["constant", "krawtchouk"])
@pytest.mark.parametrize("n", sorted({n for n, _ in SIZES}))
def test_structured_model_matches_dense_oracle(n, kind):
    model, decomp, freqs = _setup(kind, n)
    for cutoff in (k for m, k in SIZES if m == n):
        ops = build_fock_operators(n, freqs, cutoff)
        oracle = dense_operators(n, freqs, cutoff)
        dense = densify(ops)
        assert ops.dim == cutoff ** n and ops.h.shape == (ops.dim,)
        for j in range(n):
            assert _max_diff(dense.a_plus[j], oracle.a_plus[j]) <= 1e-13
            assert _max_diff(dense.a_minus[j], oracle.a_minus[j]) <= 1e-13
        assert _max_diff(dense.h, oracle.h) <= 1e-13
        assert np.array_equal(ops.interior, oracle.interior)

        report = verify_compatibility(ops)
        plus, minus = dense_compatibility(oracle)
        assert _max_diff(report.raising_residuals, plus) <= 1e-13
        assert _max_diff(report.raising_residuals, minus) <= 1e-13

        obs = reconstruct_observables(decomp, ops, model)
        ref = dense_observables(decomp, oracle, model)
        for r in range(n):
            assert _max_diff(dense_q(obs, dense, r), ref.q[r]) <= 1e-13
            assert _max_diff(dense_w(obs, dense, r), ref.w[r]) <= 1e-13
        assert _max_diff(obs.position_cc_residuals, ref.position_cc_residuals) <= 1e-13
        assert _max_diff(obs.momentum_cc_residuals, ref.momentum_cc_residuals) <= 1e-13
        assert abs(obs.pairing_residual - ref.pairing_residual) <= 1e-13
        assert ref.max_q_asymmetry <= 1e-13 and ref.max_w_symmetry <= 1e-13


def test_compatibility_beyond_dense_reach():
    # 10**5 states: one dense matrix here would take 80 GB
    model, decomp, freqs = _setup("krawtchouk", 5, c=0.3)
    ops = build_fock_operators(5, freqs, 10)
    assert ops.dim == 10 ** 5
    report = verify_compatibility(ops)
    assert report.interior_dim == 9 ** 5
    assert report.max_residual < 1e-10
    obs = reconstruct_observables(decomp, ops, model)
    assert max(obs.position_cc_residuals) < 1e-9
    assert max(obs.momentum_cc_residuals) < 1e-9
    assert obs.pairing_residual < 1e-9


def test_over_budget_size_is_refused_before_allocating():
    freqs = ModeFrequencies(mu=np.array([1.0, 1.5]))
    assert _peak_bytes(2, 2000) > BYTE_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="bytes"):
            build_fock_operators(2, freqs, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


@pytest.mark.parametrize("n, cutoff", [(1, 2000), (2, 120), (3, 25), (4, 10), (6, 5),
                                       (8, 3)])
def test_byte_guard_bounds_the_allocations(n, cutoff):
    model, decomp, freqs = _setup("krawtchouk", n, c=0.3)
    tracemalloc.start()
    try:
        ops = build_fock_operators(n, freqs, cutoff)
        verify_compatibility(ops)
        reconstruct_observables(decomp, ops, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _peak_bytes(n, cutoff)


# ---------------------------------------------------------------- fock_spectrum


def _spectrum_oracle(n, freqs, k_total_max):
    """Every occupation vector one by one, merged at MERGE_TOL min_j sqrt(mu_j)."""
    raw = [(0.5 * float(freqs.sqrt_mu.sum()) + float(np.dot(occ, freqs.sqrt_mu)), 1,
            (sum(occ), occ))  # ties go to the lower total, then the lexicographically first
           for occ in itertools.product(range(k_total_max + 1), repeat=n)
           if sum(occ) <= k_total_max]
    lines = merge_lines(raw, merge_tol=MERGE_TOL * float(freqs.sqrt_mu.min()))
    return [line._replace(label=line.label[1]) for line in lines]


@pytest.mark.parametrize("n", range(1, 7))
def test_fock_spectrum_matches_brute_force(n):
    lambdas = {"krawtchouk": np.arange(n, dtype=float),
               "constant": decompose(InteractionModel.constant(n)).lambdas}
    mus = [np.ones(n)] + [1.0 + c * lam for lam in lambdas.values() for c in (0.0, 0.3719)]
    mus.append(np.repeat([0.7, 1.3, 2.2], 3)[:n])  # runs of coinciding frequencies
    cases = list(itertools.product(mus, range(5)))
    if n == 5:  # sqrt(mu) = 1, sqrt 2, sqrt 3, 2, sqrt 5: (2,2,1,0,0) ties (0,2,1,1,0)
        cases.append((1.0 + lambdas["krawtchouk"], 5))
    for mu, k_total_max in cases:
        freqs = ModeFrequencies(mu=mu)
        lines = fock_spectrum(n, freqs, k_total_max=k_total_max)
        assert lines == _spectrum_oracle(n, freqs, k_total_max)
        assert all(type(line.energy) is float and type(line.multiplicity) is int
                   and all(type(k) is int for k in line.label) for line in lines)
