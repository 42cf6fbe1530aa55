"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Tolerances are fixed here, not calibrated.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from wignerosc import (InteractionModel, ModeFrequencies, build_constant_matrix,
                       build_fock_operators, build_krawtchouk_matrix, critical_coupling,
                       decompose, fock_spectrum, gl_spectrum, mode_frequencies,
                       osp_spectrum, reconstruct_observables, verify_compatibility,
                       weak_coupling_bound)
from wignerosc.coupling import coupling_rows
from oracles import enumerate_gz, multiplicity_at_height, partitions_of, row_sum_signature
from spectral_oracles import jacobi_decomposition

TABLE_ROWS = {
    4: (0.41667, 1.27357), 5: (0.25000, 0.51723), 6: (0.16364, 0.27857),
    7: (0.11458, 0.17391), 8: (0.08442, 0.11887), 9: (0.06466, 0.08639),
    10: (0.05105, 0.06562), 20: (0.01132, 0.01259), 50: (0.00168, 0.00175),
    100: (0.00041, 0.00042),
}


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS "
          f"[{time.perf_counter() - start:.3f}s]")


def _kraw_freqs(n, c, omega=1.0):
    return ModeFrequencies(mu=omega ** 2 + c * np.arange(n))


def test_criterion_1_table_regression():
    with criterion(1, "critical-coupling table regression"):
        start = time.perf_counter()
        rows = coupling_rows(InteractionModel.krawtchouk(100), sorted(TABLE_ROWS))
        checked = 0
        for row in rows:
            c_tilde, c_n = TABLE_ROWS[row.n]
            assert row.c_bound == pytest.approx(c_tilde, abs=5e-6)
            assert row.c_critical == pytest.approx(c_n, abs=5e-6)
            checked += 2
        assert checked == 20
        assert time.perf_counter() - start < 1.0


def test_criterion_2_bound_order():
    with criterion(2, "closed-form bound is of order 4/n^2"):
        for n in (20, 50, 100):
            bound = Fraction(2 * (2 * n - 3), (n - 1) * (n * n - 3 * n + 4))
            assert bound == Fraction(
                weak_coupling_bound(n)).limit_denominator(10 ** 12)
            ratio = bound / Fraction(4, n * n)
            assert Fraction(1, 2) <= ratio <= 2


def test_criterion_3_gl_spectrum_structure():
    with criterion(3, "gl(1|4) V(2) spectrum structure"):
        start = time.perf_counter()
        # (a) two exact levels without coupling
        lines = gl_spectrum(4, 2, _kraw_freqs(4, 0.0))
        assert len(lines) == 2
        assert lines[0].energy == pytest.approx(2 / 3, abs=1e-12)
        assert lines[1].energy == pytest.approx(5 / 3, abs=1e-12)
        assert lines[0].multiplicity == 10
        assert lines[1].multiplicity == 4
        # (b) multiplicity conservation across the coupling window
        c4 = critical_coupling(np.arange(4.0))
        for c in np.linspace(0.0, c4, 100):
            total = sum(l.multiplicity for l in gl_spectrum(4, 2, _kraw_freqs(4, c)))
            assert total == 14
        # (c) ground level reaches zero at the critical coupling
        assert abs(gl_spectrum(4, 2, _kraw_freqs(4, c4))[0].energy) < 1e-8
        # (d) all 14 levels distinct at a generic coupling
        lines = gl_spectrum(4, 2, _kraw_freqs(4, 0.5))
        assert len(lines) == 14
        energies = [l.energy for l in lines]
        assert all(b - a > 1e-9 for a, b in zip(energies, energies[1:]))
        assert time.perf_counter() - start < 0.1


def test_criterion_4_osp_spectrum_structure():
    with criterion(4, "osp(1|8) V(2) spectrum structure"):
        start = time.perf_counter()
        lines = osp_spectrum(4, 2, _kraw_freqs(4, 0.3), k_max=2)
        by_height = {}
        for line in lines:
            by_height.setdefault(line.label[0], []).append(line.multiplicity)
        assert by_height[0] == [1]
        assert by_height[1] == [1, 1, 1, 1]
        assert len(by_height[2]) == 10
        assert sorted(by_height[2]) == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]
        assert time.perf_counter() - start < 0.5


def _brute_force_pattern_count(n, p, k):
    """Filter-style enumeration, independent of the package's range-built recursion."""
    total = 0
    for nu in partitions_of(k, math.ceil(p), max_slots=n):
        top = nu.parts + (0,) * (n - nu.length)
        partials = [(top,)]
        for length in range(n - 1, 0, -1):
            nxt = []
            for rows in partials:
                upper = rows[-1]
                for cand in itertools.product(range(k + 1), repeat=length):
                    if all(upper[i] >= cand[i] >= upper[i + 1] for i in range(length)):
                        nxt.append(rows + (cand,))
            partials = nxt
        total += len(partials)
    return total


def test_criterion_5_multiplicity_formula_oracle():
    with criterion(5, "hook-length multiplicity equals pattern counting"):
        start = time.perf_counter()
        for n in range(1, 6):
            for p in (1, 2, 3):
                for k in range(5):
                    formula = multiplicity_at_height(n, p, k)
                    brute = _brute_force_pattern_count(n, p, k)
                    assert formula == brute, (n, p, k, formula, brute)
        assert time.perf_counter() - start < 5.0


def test_criterion_6_distinct_level_law():
    with criterion(6, "distinct-level count law"):
        for n in range(1, 6):
            for p in (1, 2, 3, n - 0.5 if n >= 2 else 1):
                if p != int(p) and not p > n - 1:
                    continue
                signatures = {}
                for pat in enumerate_gz(n, p, 4):
                    signatures.setdefault(pat.height, set()).add(row_sum_signature(pat))
                for k in range(5):
                    assert len(signatures[k]) == math.comb(n + k - 1, n - 1)


def test_criterion_7_canonical_equivalence():
    with criterion(7, "boson Fock space matches osp V(1)"):
        for n in (1, 2, 3, 4):
            freqs = _kraw_freqs(n, 0.37)
            fock = fock_spectrum(n, freqs, k_total_max=3)
            osp = osp_spectrum(n, 1, freqs, k_max=3)
            assert [(a.energy, a.multiplicity) for a in fock] == \
                [(b.energy, b.multiplicity) for b in osp]


def test_criterion_8_operator_identities():
    with criterion(8, "truncated operator identities"):
        start = time.perf_counter()
        for kind in ("constant", "krawtchouk"):
            model = (InteractionModel.constant(2, omega=1.0, c=0.4)
                     if kind == "constant"
                     else InteractionModel.krawtchouk(2, omega=1.0, c=0.4))
            decomp = decompose(model)
            freqs = mode_frequencies(decomp, model.omega, model.c)
            ops = build_fock_operators(2, freqs, 6)
            report = verify_compatibility(ops)
            assert report.max_residual < 1e-10
            obs = reconstruct_observables(decomp, ops, model)
            assert max(obs.position_cc_residuals) < 1e-9
            assert max(obs.momentum_cc_residuals) < 1e-9
        assert time.perf_counter() - start < 2.0


def test_criterion_9_spectral_core_numerics():
    with criterion(9, "analytic vs Jacobi numerics"):
        for n in range(1, 13):
            ana = decompose(InteractionModel.constant(n))
            num = jacobi_decomposition(build_constant_matrix(n))
            assert np.abs(ana.lambdas - num.lambdas).max() <= 1e-9
            for pt in (0.2, 0.5, 0.8):
                ana = decompose(InteractionModel.krawtchouk(n, ptilde=pt))
                num = jacobi_decomposition(build_krawtchouk_matrix(n, pt))
                assert np.abs(ana.lambdas - num.lambdas).max() <= 1e-9
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(1, 21))
            m = rng.normal(size=(n, n))
            m = m + m.T
            d = jacobi_decomposition(m)
            assert d.orthonormality_residual() <= 1e-10
            assert d.reconstruction_residual(m) <= 1e-10 * (1 + np.abs(m).max())
