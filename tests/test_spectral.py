import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerosc import (InteractionModel, ModeFrequencies, NumericError,
                       PositiveDefinitenessError, build_constant_matrix,
                       build_krawtchouk_matrix, decompose, load_matrix,
                       mode_frequencies)
from wignerosc.cli import main
from wignerosc.spectral import omega_squared
from spectral_oracles import (fix_column_signs, jacobi_decomposition, krawtchouk_eval,
                              krawtchouk_exact)


def test_constant_matrix_small_cases():
    assert build_constant_matrix(1).tolist() == [[2.0]]
    expected = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert build_constant_matrix(3).tolist() == expected
    with pytest.raises(ValueError):
        build_constant_matrix(0)


def test_constant_matrix_n2_eigenvalues():
    # independent oracle: dense eigensolver on the built matrix
    vals = np.linalg.eigvalsh(build_constant_matrix(2))
    assert np.allclose(sorted(vals), [1.0, 3.0], atol=1e-12)


def test_constant_decomposition_closed_form():
    d = decompose(InteractionModel.constant(3))
    assert np.allclose(d.lambdas, [2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)], atol=1e-12)

    d1 = decompose(InteractionModel.constant(1))
    assert d1.lambdas[0] == pytest.approx(2.0, abs=1e-12)
    assert d1.u.tolist() == [[1.0]]


def test_constant_decomposition_residuals():
    d = decompose(InteractionModel.constant(4))
    m = build_constant_matrix(4)
    for j in range(4):
        res = np.abs(m @ d.u[:, j] - d.lambdas[j] * d.u[:, j]).max()
        assert res < 1e-12
    assert d.orthonormality_residual() <= 1e-10
    assert d.reconstruction_residual(m) <= 1e-10 * (1 + np.abs(m).max())


def test_krawtchouk_eval_base_case():
    assert krawtchouk_eval(0, 0, 2, 0.5) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


@given(st.integers(min_value=1, max_value=8), st.data(),
       st.floats(min_value=0.05, max_value=0.95))
def test_krawtchouk_eval_symmetry(n, data, ptilde):
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert krawtchouk_eval(i, j, n, ptilde) == pytest.approx(
        krawtchouk_eval(j, i, n, ptilde), abs=1e-12)


def test_krawtchouk_eval_row_orthonormality():
    n, pt = 5, 0.3
    u = np.array([[krawtchouk_eval(i, j, n, pt) for j in range(n)] for i in range(n)])
    assert np.abs(u @ u.T - np.eye(n)).max() < 1e-12


def test_krawtchouk_eval_domain_errors():
    with pytest.raises(ValueError):
        krawtchouk_eval(2, 0, 2, 0.5)
    with pytest.raises(ValueError):
        krawtchouk_eval(0, 0, 2, 1.5)


def test_krawtchouk_matrix_n2():
    m = build_krawtchouk_matrix(2, 0.5)
    assert np.allclose(m, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
    vals = np.linalg.eigvalsh(m)
    assert np.allclose(sorted(vals), [0.0, 1.0], atol=1e-12)


def test_krawtchouk_matrix_half_parameter_diagonal():
    for n in (2, 3, 5, 8):
        m = build_krawtchouk_matrix(n, 0.5)
        assert np.allclose(np.diag(m), (n - 1) / 2.0, atol=1e-15)


def test_krawtchouk_decomposition():
    d = decompose(InteractionModel.krawtchouk(4, ptilde=0.5))
    assert np.allclose(d.lambdas, [0, 1, 2, 3], atol=1e-12)

    d = decompose(InteractionModel.krawtchouk(4, ptilde=0.3))
    assert d.orthonormality_residual() < 1e-10

    d = decompose(InteractionModel.krawtchouk(5, ptilde=0.5))
    m = build_krawtchouk_matrix(5, 0.5)
    assert d.reconstruction_residual(m) < 1e-10


def test_jacobi_identity_matrix():
    d = jacobi_decomposition(np.eye(4))
    assert np.allclose(d.lambdas, 1.0)
    assert d.orthonormality_residual() < 1e-12


def test_jacobi_matches_constant_closed_form():
    d_num = jacobi_decomposition(build_constant_matrix(6))
    d_ana = decompose(InteractionModel.constant(6))
    assert np.abs(d_num.lambdas - d_ana.lambdas).max() < 1e-10


def test_jacobi_krawtchouk_integer_eigenvalues():
    d = jacobi_decomposition(build_krawtchouk_matrix(6, 0.4))
    assert np.abs(d.lambdas - np.arange(6)).max() < 1e-9


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_decomposition(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_jacobi_random_matrices_residuals():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 13)
        m = rng.normal(size=(n, n))
        m = m + m.T
        d = jacobi_decomposition(m)
        assert d.orthonormality_residual() <= 1e-10
        assert d.reconstruction_residual(m) <= 1e-10 * (1 + np.abs(m).max())
        # trace preservation
        assert d.lambdas.sum() == pytest.approx(np.trace(m), rel=1e-10, abs=1e-12)
        assert np.all(np.diff(d.lambdas) >= 0)


def test_analytic_numeric_agreement_both_models():
    for n in range(1, 13):
        cst = decompose(InteractionModel.constant(n))
        num = jacobi_decomposition(build_constant_matrix(n))
        assert np.abs(cst.lambdas - num.lambdas).max() < 1e-9
        for pt in (0.2, 0.5, 0.8):
            kra = decompose(InteractionModel.krawtchouk(n, ptilde=pt))
            num = jacobi_decomposition(build_krawtchouk_matrix(n, pt))
            assert np.abs(kra.lambdas - num.lambdas).max() < 1e-9
            assert np.abs(num.lambdas - np.arange(n)).max() < 1e-9


def test_jacobi_degenerate_eigenspace_projector():
    # rotate diag(1, 1, 2); the lambda=1 eigenspace is only defined up to basis
    g1 = np.eye(3)
    g1[[0, 0, 1, 1], [0, 1, 0, 1]] = [math.cos(0.3), -math.sin(0.3),
                                      math.sin(0.3), math.cos(0.3)]
    g2 = np.eye(3)
    g2[[1, 1, 2, 2], [1, 2, 1, 2]] = [math.cos(0.7), -math.sin(0.7),
                                      math.sin(0.7), math.cos(0.7)]
    q = g1 @ g2
    m = q @ np.diag([1.0, 1.0, 2.0]) @ q.T
    d = jacobi_decomposition(m)
    assert np.allclose(sorted(d.lambdas), [1, 1, 2], atol=1e-10)
    proj = d.u[:, :2] @ d.u[:, :2].T
    exact = q[:, :2] @ q[:, :2].T
    assert np.abs(proj - exact).max() < 1e-9


def test_eigenvector_sign_convention():
    for d in (jacobi_decomposition(build_constant_matrix(5)),
              decompose(InteractionModel.krawtchouk(5, ptilde=0.4)),
              decompose(InteractionModel.constant(5))):
        for j in range(d.n):
            col = d.u[:, j]
            first = col[np.abs(col) > 1e-12][0]
            assert first > 0


def test_mode_frequencies_values():
    d = decompose(InteractionModel.krawtchouk(3, ptilde=0.5))
    f = mode_frequencies(d, 1.0, 0.0)
    assert np.allclose(f.mu, 1.0)

    f = mode_frequencies(d, 1.0, 0.1)
    assert np.allclose(f.mu, [1.0, 1.1, 1.2], atol=1e-15)
    assert np.allclose(f.sqrt_mu ** 2, f.mu, atol=1e-15)


def test_mode_frequencies_constant_closed_form():
    n, c = 6, 0.7
    d = decompose(InteractionModel.constant(n))
    f = mode_frequencies(d, 1.0, c)
    expected = [1 + 4 * c * math.sin(j * math.pi / (2 * (n + 1))) ** 2
                for j in range(1, n + 1)]
    assert np.allclose(f.mu, expected, atol=1e-12)


def test_mode_frequencies_positive_definiteness_guard():
    d = jacobi_decomposition(np.diag([-1.0, 1.0]))
    with pytest.raises(PositiveDefinitenessError, match=r"mu\[0\]"):
        mode_frequencies(d, 1.0, 2.0)


def test_interaction_model_validation():
    with pytest.raises(ValueError):
        InteractionModel.general(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        InteractionModel.krawtchouk(3, ptilde=1.0)
    with pytest.raises(ValueError):
        InteractionModel.constant(0)
    m = InteractionModel.general(np.eye(3), omega=2.0, c=0.5)
    assert m.n == 3 and m.kind == "general"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_inputs_rejected(bad, tmp_path):
    with pytest.raises(ValueError, match="finite"):
        InteractionModel.constant(3, omega=bad)
    with pytest.raises(ValueError, match="finite"):
        InteractionModel.krawtchouk(3, c=bad)
    with pytest.raises(ValueError, match="finite"):
        InteractionModel.general(np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        ModeFrequencies(mu=np.array([1.0, bad]))
    # c * lambda overflowing is caught on mu, not silently turned into inf energies
    with pytest.raises(ValueError, match="finite"):
        mode_frequencies(decompose(InteractionModel.constant(3)), 1.0, 1e308)
    path = tmp_path / "m.txt"
    path.write_text(f"2\n1 0\n0 {bad!r}\n")
    with pytest.raises(ValueError, match="finite"):
        load_matrix(path)


def test_decompose_dispatch():
    assert decompose(InteractionModel.constant(4)).source == "analytic"
    assert decompose(InteractionModel.krawtchouk(4)).source == "analytic"
    assert decompose(InteractionModel.general(np.eye(4))).source == "numeric"


def test_load_matrix_roundtrip(tmp_path):
    m = build_krawtchouk_matrix(3, 0.4)
    path = tmp_path / "m.txt"
    path.write_text("3\n" + "\n".join(" ".join(repr(float(x)) for x in row) for row in m))
    loaded = load_matrix(path)
    assert np.abs(loaded - m).max() < 1e-15


def test_load_matrix_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2 3\n")
    with pytest.raises(ValueError, match="expected 4 entries"):
        load_matrix(bad)
    asym = tmp_path / "asym.txt"
    asym.write_text("2\n1 2 0 1\n")
    with pytest.raises(ValueError, match="not symmetric"):
        load_matrix(asym)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_matrix(empty)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=10), st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.0, max_value=3.0))
def test_trace_preserved_krawtchouk(n, pt, c):
    m = build_krawtchouk_matrix(n, pt)
    d = decompose(InteractionModel.krawtchouk(n, ptilde=pt))
    assert d.lambdas.sum() == pytest.approx(np.trace(m), rel=1e-10, abs=1e-12)


def test_omega_whose_square_overflows_is_rejected():
    # 1e200 ** 2 raises OverflowError in Python; it must be a ValueError (usage error)
    with pytest.raises(ValueError, match="finite"):
        InteractionModel.krawtchouk(4, omega=1e200)
    with pytest.raises(ValueError, match="finite"):
        mode_frequencies(decompose(InteractionModel.constant(3)), 1e200, 0.1)
    # the largest omega whose square still fits is accepted
    omega = math.sqrt(np.finfo(float).max) * (1 - 1e-15)
    assert InteractionModel.constant(2, omega=omega).omega == omega


def test_omega_whose_square_underflows_is_rejected():
    # 1e-200 ** 2 is 0.0 and 1e-160 ** 2 the subnormal 1e-320
    for omega in (1e-200, 1e-160, 5e-324):
        with pytest.raises(ValueError, match="square of at least"):
            omega_squared(omega)
    with pytest.raises(ValueError, match="omega"):
        mode_frequencies(decompose(InteractionModel.constant(3)), 1e-200, 0.1)
    # the smallest omega whose square is still a normal float is accepted
    omega = math.sqrt(sys.float_info.min) * (1 + 1e-15)
    assert omega_squared(omega) >= sys.float_info.min
    assert InteractionModel.constant(2, omega=omega).omega == omega


# ------------------------------------------------------------ eigen path and residual gate

def _meets_gate(d, m):
    return (d.orthonormality_residual() <= 1e-10
            and d.reconstruction_residual(m) <= 1e-10 * (1 + np.abs(m).max()))


def test_krawtchouk_decompose_meets_the_gate_up_to_n100():
    for n in range(1, 101):
        for pt in (0.1, 0.5, 0.8):
            d = decompose(InteractionModel.krawtchouk(n, ptilde=pt))
            assert d.lambdas.tolist() == list(range(n))
            assert d.source == "analytic"
            assert _meets_gate(d, build_krawtchouk_matrix(n, pt)), (n, pt)


@pytest.mark.parametrize("n", [30, 40])
def test_krawtchouk_eigenvectors_match_the_exact_sum(n):
    # the floating-point closed form is off by 5.6e2 in orthonormality at n = 30
    exact = fix_column_signs(krawtchouk_exact(n, 0.8))
    u = decompose(InteractionModel.krawtchouk(n, ptilde=0.8)).u
    for j in range(n):
        assert np.abs(u[:, j] - exact[:, j]).max() <= 1e-10, j


def test_decompose_matches_jacobi_at_n40():
    # both eigen paths of each model against the Jacobi oracle, past criterion 9's n <= 12
    for model in (InteractionModel.constant(40), InteractionModel.krawtchouk(40, ptilde=0.2),
                  InteractionModel.krawtchouk(40, ptilde=0.8)):
        m = model.coupling_matrix()
        num = jacobi_decomposition(m)
        for d in (decompose(model), decompose(InteractionModel.general(m))):
            assert np.abs(d.lambdas - num.lambdas).max() <= 1e-9
            assert np.abs(d.u - num.u).max() <= 1e-9


def test_eigh_path_degenerate_matrices_and_n1():
    d = decompose(InteractionModel.general(np.eye(4)))
    assert d.source == "numeric"
    assert np.allclose(d.lambdas, 1.0, rtol=0, atol=1e-14)
    assert d.orthonormality_residual() <= 1e-14

    g1 = np.eye(3)
    g1[[0, 0, 1, 1], [0, 1, 0, 1]] = [math.cos(0.3), -math.sin(0.3),
                                      math.sin(0.3), math.cos(0.3)]
    g2 = np.eye(3)
    g2[[1, 1, 2, 2], [1, 2, 1, 2]] = [math.cos(0.7), -math.sin(0.7),
                                      math.sin(0.7), math.cos(0.7)]
    q = g1 @ g2
    m = q @ np.diag([1.0, 1.0, 2.0]) @ q.T
    d = decompose(InteractionModel.general(m))
    assert np.allclose(d.lambdas, [1, 1, 2], rtol=0, atol=1e-10)
    proj = d.u[:, :2] @ d.u[:, :2].T
    assert np.abs(proj - q[:, :2] @ q[:, :2].T).max() < 1e-9
    assert _meets_gate(d, m)

    for model in (InteractionModel.general(np.array([[-3.5]])), InteractionModel.constant(1),
                  InteractionModel.krawtchouk(1, ptilde=0.3)):
        d = decompose(model)
        assert d.u.tolist() == [[1.0]]
        assert d.lambdas[0] == pytest.approx(model.coupling_matrix()[0, 0], abs=1e-15)


def test_sign_convention_on_every_path():
    rng = np.random.default_rng(11)
    models = [InteractionModel.constant(n) for n in (1, 2, 7, 60)]
    models += [InteractionModel.krawtchouk(n, ptilde=pt) for n in (1, 2, 7, 60)
               for pt in (0.1, 0.5, 0.9)]
    for n in (1, 2, 7, 60):
        b = rng.normal(size=(n, n))
        models.append(InteractionModel.general(b + b.T))
    models.append(InteractionModel.general(-np.eye(5)))
    for model in models:
        u = decompose(model).u
        assert np.array_equal(fix_column_signs(u), u), (model.kind, model.n)
        for j in range(model.n):
            assert u[:, j][np.abs(u[:, j]) > 1e-12][0] > 0


def _perturbed_eigh(monkeypatch, du=0.0, dlambda=0.0):
    eigh = np.linalg.eigh

    def fake(m):
        lambdas, u = eigh(m)
        return lambdas + dlambda, u + du * np.ones_like(u)
    monkeypatch.setattr(np.linalg, "eigh", fake)


@pytest.mark.parametrize("du, dlambda", [(1e-8, 0.0), (0.0, 1e-7)])
def test_gate_refuses_a_perturbed_eigh(monkeypatch, du, dlambda):
    m = build_krawtchouk_matrix(6, 0.3)
    _perturbed_eigh(monkeypatch, du, dlambda)
    with pytest.raises(NumericError, match="residual bounds"):
        decompose(InteractionModel.general(m))
    if du:  # the Krawtchouk branch keeps its exact eigenvalues, so only U can fail
        with pytest.raises(NumericError, match="orthonormality"):
            decompose(InteractionModel.krawtchouk(6, ptilde=0.3))
    assert decompose(InteractionModel.constant(6)).source == "analytic"  # no eigh call


def test_gate_failure_exits_3_from_the_cli(monkeypatch, tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("3\n2 -1 0\n-1 2 -1\n0 -1 2\n")
    _perturbed_eigh(monkeypatch, du=1e-6)
    for argv in (["--model", "file", "--path", str(path)],
                 ["--model", "krawtchouk", "--n", "40", "--ptilde", "0.8", "--format", "json"]):
        assert main(["decompose"] + argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and "residual bounds" in err


def test_eigh_failure_is_a_numeric_error(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericError, match="did not converge"):
        decompose(InteractionModel.krawtchouk(5, ptilde=0.5))


def test_decompose_takes_no_tolerance():
    with pytest.raises(TypeError):
        decompose(InteractionModel.constant(3), tol=1e-12)
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--model", "constant", "--n", "3", "--tol", "1e-9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("model", [InteractionModel.constant(5),
                                   InteractionModel.krawtchouk(6, ptilde=0.3),
                                   InteractionModel.general(build_constant_matrix(4) + 1.0)])
def test_decompose_carries_its_gate_residuals(model):
    d = decompose(model)
    assert d.orthonormality == d.orthonormality_residual()
    assert d.reconstruction == d.reconstruction_residual(model.coupling_matrix())


def test_decompose_cli_prints_the_gate_residuals(monkeypatch, capsys):
    built = []
    original = InteractionModel.coupling_matrix
    monkeypatch.setattr(InteractionModel, "coupling_matrix",
                        lambda self: built.append(self) or original(self))
    assert main(["decompose", "--model", "krawtchouk", "--n", "7"]) == 0
    assert len(built) == 1  # decompose's own gate, not a second build in the CLI
    d = decompose(InteractionModel.krawtchouk(7))
    assert capsys.readouterr().err == (f"orthonormality residual: {d.orthonormality:.3e}\n"
                                       f"reconstruction residual: {d.reconstruction:.3e}\n")
