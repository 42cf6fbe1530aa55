import math

import numpy as np
import pytest

from wignerosc import (FockBasisState, GZPattern, InteractionModel, ModeFrequencies,
                       ResourceLimitError, build_fock_operators, decompose,
                       fock_spectrum, gz_to_fock, is_unirrep, mode_frequencies,
                       osp_spectrum, reconstruct_observables, verify_compatibility)

from fock_dense import dense_q, dense_w, densify
from oracles import enumerate_gz, fock_state_by_sums, osp_eigenvalue


def _kraw_freqs(n, c, omega=1.0):
    return ModeFrequencies(mu=omega ** 2 + c * np.arange(n))


def test_single_mode_hamiltonian_diagonal():
    ops = build_fock_operators(1, ModeFrequencies(mu=np.array([1.0])), 3)
    assert np.allclose(densify(ops).h, np.diag([0.5, 1.5, 2.5]), atol=1e-15)


def test_vacuum_energy():
    for n, c in ((2, 0.3), (3, 0.0), (3, 0.7)):
        freqs = _kraw_freqs(n, c)
        ops = build_fock_operators(n, freqs, 3)
        assert densify(ops).h[0, 0] == pytest.approx(0.5 * freqs.sqrt_mu.sum(), abs=1e-12)


def test_ladder_algebra_on_interior():
    freqs = _kraw_freqs(2, 0.4)
    ops = build_fock_operators(2, freqs, 4)
    dense = densify(ops)
    mask = ops.interior
    eye = np.eye(ops.dim)
    for j in range(2):
        for k in range(2):
            comm = dense.a_minus[j] @ dense.a_plus[k] - dense.a_plus[k] @ dense.a_minus[j]
            target = eye if j == k else 0.0
            sub = (comm - target)[np.ix_(mask, mask)]
            assert np.abs(sub).max() < 1e-12


def test_operator_set_structure():
    freqs = _kraw_freqs(2, 0.4)
    ops = build_fock_operators(2, freqs, 4)
    dense = densify(ops)
    for j in range(2):
        assert np.array_equal(dense.a_minus[j], dense.a_plus[j].T)
    assert np.abs(dense.h - dense.h.T).max() == 0.0
    assert ops.interior_dim == 3 ** 2
    # state indexing is mixed-radix with the first mode most significant
    assert ops.strides == [4, 1]
    for idx in range(ops.dim):
        k = divmod(idx, 4)
        assert ops.h[idx] == pytest.approx(np.dot(np.add(k, 0.5), freqs.sqrt_mu), abs=1e-14)


@pytest.mark.parametrize("cutoff", [2.5, math.nan, math.inf, "3", None])
def test_a_cutoff_that_is_not_an_integer_is_a_value_error(cutoff):
    with pytest.raises(ValueError, match="cutoff"):
        build_fock_operators(3, _kraw_freqs(3, 0.4), cutoff)


def test_an_integral_cutoff_builds_like_an_int():
    freqs = _kraw_freqs(3, 0.4)
    ref = build_fock_operators(3, freqs, 3)
    for cutoff in (3.0, np.int64(3)):
        ops = build_fock_operators(3, freqs, cutoff)
        assert type(ops.cutoff) is int and ops.strides == ref.strides
        assert np.array_equal(ops.a_plus, ref.a_plus) and np.array_equal(ops.h, ref.h)
    assert build_fock_operators(3, freqs, 2.0).dim == 8


def test_resource_and_cutoff_guards():
    freqs = _kraw_freqs(4, 0.1)
    with pytest.raises(ResourceLimitError):
        build_fock_operators(4, freqs, 50)
    with pytest.raises(ValueError):
        build_fock_operators(4, freqs, 1)


def test_compatibility_residuals_small():
    freqs = _kraw_freqs(2, 0.37)
    ops = build_fock_operators(2, freqs, 6)
    report = verify_compatibility(ops)
    assert report.max_residual < 1e-10
    assert report.interior_dim == 25


def test_compatibility_uncoupled_symmetric_across_modes():
    freqs = _kraw_freqs(3, 0.0)
    ops = build_fock_operators(3, freqs, 4)
    report = verify_compatibility(ops)
    assert len(set(report.raising_residuals)) == 1


def test_compatibility_minimal_cutoff():
    ops = build_fock_operators(1, ModeFrequencies(mu=np.array([2.0])), 2)
    report = verify_compatibility(ops)
    assert report.interior_dim == 1
    assert report.max_residual < 1e-12


def test_compatibility_cutoff_independent():
    freqs = _kraw_freqs(2, 0.5)
    for cutoff in (4, 6, 8):
        report = verify_compatibility(build_fock_operators(2, freqs, cutoff))
        assert report.max_residual < 1e-10


def test_mode_number_conserved():
    freqs = _kraw_freqs(2, 0.3)
    ops = build_fock_operators(2, freqs, 5)
    dense = densify(ops)
    mask = ops.interior
    for j in range(2):
        num = dense.a_plus[j] @ dense.a_minus[j]
        comm = dense.h @ num - num @ dense.h
        assert np.abs(comm[np.ix_(mask, mask)]).max() < 1e-10


def test_fock_spectrum_vacuum_and_uncoupled():
    freqs = _kraw_freqs(3, 0.4)
    lines = fock_spectrum(3, freqs, k_total_max=2)
    assert lines[0].energy == pytest.approx(0.5 * freqs.sqrt_mu.sum(), abs=1e-12)
    assert lines[0].multiplicity == 1

    freqs0 = _kraw_freqs(3, 0.0)
    lines = fock_spectrum(3, freqs0, k_total_max=4)
    assert len(lines) == 5
    for k, line in enumerate(lines):
        assert line.energy == pytest.approx(3 / 2 + k, abs=1e-12)
        assert line.multiplicity == math.comb(3 + k - 1, 2)


def test_fock_matches_osp_p1():
    for n in (1, 2, 3, 4):
        freqs = _kraw_freqs(n, 0.37)
        fock = fock_spectrum(n, freqs, k_total_max=3)
        osp = osp_spectrum(n, 1, freqs, k_max=3)
        assert [(a.energy, a.multiplicity) for a in fock] == \
            [(b.energy, b.multiplicity) for b in osp]


def test_gz_to_fock_examples():
    zero = GZPattern(rows=((0, 0, 0), (0, 0), (0,)), n=3, p=1)
    assert gz_to_fock(zero).occupations == (0, 0, 0)

    pat = GZPattern(rows=((2, 0, 0), (2, 0), (1,)), n=3, p=2)
    assert gz_to_fock(pat).occupations == (1, 1, 0)

    wide = GZPattern(rows=((1, 1, 0), (1, 1), (1,)), n=3, p=2)
    with pytest.raises(ValueError, match="single-column"):
        gz_to_fock(wide)


def test_gz_to_fock_bijection():
    for n in (2, 3):
        pats = enumerate_gz(n, 1, 3)
        occs = {gz_to_fock(p).occupations for p in pats}
        assert len(occs) == len(pats)
        assert occs == {occ for occ in _all_occs(n, 3)}


@pytest.mark.parametrize("n", range(1, 7))
def test_gz_to_fock_maps_every_v1_pattern_to_its_column_differences(n):
    for pat in enumerate_gz(n, 1, 4):
        column = [pat.row(j)[0] for j in range(1, n + 1)]  # m_1, ..., m_n
        state = gz_to_fock(pat)
        assert state.occupations == tuple(np.diff(column, prepend=0).tolist())
        assert all(type(k) is int for k in state.occupations)
        assert state.cutoff == max(state.occupations) + 1


@pytest.mark.parametrize("n", range(2, 6))
def test_gz_to_fock_rejects_every_wider_pattern(n):
    wide = [pat for pat in enumerate_gz(n, 2, 3)
            if any(x for row in pat.rows for x in row[1:])]
    assert wide
    for pat in wide:
        with pytest.raises(ValueError, match="single-column"):
            gz_to_fock(pat)


@pytest.mark.parametrize("n", range(1, 6))
def test_gz_to_fock_matches_the_sum_based_definition(n):
    """Every pattern up to height 3 of every V(p) with p <= 3: the same state, of the same
    types, or the same error."""
    for p in (0.5, 1, 1.5, 2, 2.5, 3):
        if not is_unirrep(n, p):
            continue
        for pat in enumerate_gz(n, p, 3):
            try:
                expected = fock_state_by_sums(pat)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    gz_to_fock(pat)
                assert str(info.value) == str(exc)
                continue
            state = gz_to_fock(pat)
            assert state == expected and type(state) is FockBasisState
            assert list(map(type, state)) == [tuple, int]
            assert all(type(k) is int for k in state.occupations)


def test_fock_basis_state_checks_and_normalises():
    with pytest.raises(ValueError, match=r"^cutoff must be positive$"):
        FockBasisState((0, 0), cutoff=0)
    for occ in ((0, 3), (-1, 0), (2, np.int64(-1)), (np.int64(3),)):
        with pytest.raises(ValueError, match=r"^occupations must lie in \[0, cutoff\)$"):
            FockBasisState(occ, cutoff=3)
    state = FockBasisState([np.int64(2), np.int32(0), True], cutoff=3)
    assert state.occupations == (2, 0, 1)
    assert type(state.occupations) is tuple and all(type(k) is int for k in state.occupations)
    assert state == FockBasisState((2, 0, 1), cutoff=3)
    assert FockBasisState((), cutoff=1).occupations == ()


def _all_occs(n, total):
    if n == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _all_occs(n - 1, total - first):
            yield (first,) + rest


def test_gz_to_fock_energy_preserved():
    rng = np.random.default_rng(23)
    count = 0
    while count < 200:
        n = int(rng.integers(1, 6))
        pats = enumerate_gz(n, 1, 4)
        pat = pats[int(rng.integers(0, len(pats)))]
        freqs = ModeFrequencies(mu=rng.uniform(0.1, 6.0, size=n))
        state = gz_to_fock(pat)
        e_fock = 0.5 * freqs.sqrt_mu.sum() + float(
            np.dot(state.occupations, freqs.sqrt_mu))
        assert abs(osp_eigenvalue(pat, freqs, 1) - e_fock) < 1e-12 * (1 + abs(e_fock))
        count += 1


def test_reconstruct_single_mode():
    model = InteractionModel.general(np.zeros((1, 1)), omega=1.3, c=0.0)
    decomp = decompose(model)
    freqs = mode_frequencies(decomp, model.omega, model.c)
    ops = build_fock_operators(1, freqs, 5)
    obs = reconstruct_observables(decomp, ops, model)
    dense = densify(ops)
    expected = math.sqrt(1.0 / (2 * 1.3)) * (dense.a_plus[0] + dense.a_minus[0])
    assert np.abs(dense_q(obs, dense, 0) - expected).max() < 1e-14


def test_reconstruct_compatibility_residuals():
    for make, n in ((InteractionModel.constant, 2), (InteractionModel.krawtchouk, 2),
                    (InteractionModel.constant, 3), (InteractionModel.krawtchouk, 3)):
        model = make(n, omega=1.0, c=0.4)
        decomp = decompose(model)
        freqs = mode_frequencies(decomp, model.omega, model.c)
        ops = build_fock_operators(n, freqs, 6 if n == 2 else 4)
        obs = reconstruct_observables(decomp, ops, model)
        assert max(obs.position_cc_residuals) < 1e-9
        assert max(obs.momentum_cc_residuals) < 1e-9
        assert obs.pairing_residual < 1e-9
        dense = densify(ops)  # a_j^- read as the stride shift of a_plus
        for r in range(n):
            q_r, w_r = dense_q(obs, dense, r), dense_w(obs, dense, r)
            assert np.array_equal(q_r, q_r.T) and np.array_equal(w_r, -w_r.T)


def test_reconstruct_rejects_mismatched_frequencies():
    model = InteractionModel.krawtchouk(2, omega=1.0, c=0.4)
    decomp = decompose(model)
    ops = build_fock_operators(2, _kraw_freqs(2, 0.9), 4)
    with pytest.raises(ValueError, match="different mode frequencies"):
        reconstruct_observables(decomp, ops, model)


def test_reconstruct_rejects_a_model_whose_mu_is_negative():
    # mu = omega^2 + c lambda = (-1, 2): no operator set has these frequencies
    model = InteractionModel.general(np.diag([-2.0, 1.0]), omega=1.0, c=1.0)
    ops = build_fock_operators(2, ModeFrequencies(mu=np.array([1.0, 2.0])), 4)
    with pytest.raises(ValueError, match="different mode frequencies"):
        reconstruct_observables(decompose(model), ops, model)
