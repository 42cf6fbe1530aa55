import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerosc import (InteractionModel, ModeFrequencies, NoCriticalCouplingError,
                       critical_coupling, decompose, gl_weights, mode_frequencies,
                       weak_coupling_bound)
from wignerosc.cli import main
from wignerosc.coupling import coupling_rows
from oracles import sqrt_sum_bound_holds

# printed reference values for the Krawtchouk eigenvalue law (5 decimals)
TABLE = {
    4: (0.41667, 1.27357, 0.32717),
    5: (0.25000, 0.51723, 0.48334),
    6: (0.16364, 0.27857, 0.58742),
    7: (0.11458, 0.17391, 0.65886),
    8: (0.08442, 0.11887, 0.71013),
    9: (0.06466, 0.08639, 0.74843),
    10: (0.05105, 0.06562, 0.77802),
    20: (0.01132, 0.01259, 0.89893),
    50: (0.00168, 0.00175, 0.96186),
    100: (0.00041, 0.00042, 0.98130),
}


def _kraw_freqs(n, c, omega=1.0):
    return ModeFrequencies(mu=omega ** 2 + c * np.arange(n))


def test_weights_uncoupled():
    for n in (2, 3, 5, 9):
        w = gl_weights(_kraw_freqs(n, 0.0))
        assert np.allclose(w, 1.0 / (n - 1), atol=1e-15)
        assert (w > 0).all()


def test_weights_two_modes_example():
    w = gl_weights(ModeFrequencies(mu=np.array([1.0, 1.21])))
    assert np.allclose(w, [1.1, 1.0], atol=1e-12)
    assert w.sum() == pytest.approx(2.1, abs=1e-12)
    assert np.sign(w).tolist() == [1, 1]


def test_weights_near_root_monotone():
    c4 = critical_coupling(np.arange(4.0))
    w = gl_weights(_kraw_freqs(4, c4 * (1 - 1e-9)))
    beta = w
    assert beta[-1] > 0
    assert beta[-1] < 1e-8
    assert all(beta[i] > beta[i + 1] for i in range(3))


def test_weights_reject_single_mode():
    with pytest.raises(ValueError):
        gl_weights(ModeFrequencies(mu=np.array([1.0])))


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=50))
def test_weight_sum_identity(mus):
    freqs = ModeFrequencies(mu=np.array(mus))
    w = gl_weights(freqs)
    n = len(mus)
    expected = freqs.sqrt_mu.sum() / (n - 1)
    assert w.sum() == pytest.approx(expected, rel=1e-12)
    assert w.sum(axis=-1) == pytest.approx(float(w.sum()), rel=1e-12, abs=1e-12)


def test_weights_decrease_with_increasing_mu():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = rng.integers(2, 12)
        mu = np.sort(rng.uniform(0.1, 5.0, size=n))
        mu += np.arange(n) * 1e-6  # force strict increase
        w = gl_weights(ModeFrequencies(mu=mu))
        assert np.all(np.diff(w) < 0)


def test_bound_closed_form_values():
    assert weak_coupling_bound(4) == pytest.approx(TABLE[4][0], abs=5e-6)
    assert weak_coupling_bound(9) == pytest.approx(TABLE[9][0], abs=5e-6)
    assert weak_coupling_bound(100) == pytest.approx(TABLE[100][0], abs=5e-6)
    assert weak_coupling_bound(4, omega=2.0) == pytest.approx(4 * 10 / 24, rel=1e-12)
    with pytest.raises(ValueError):
        weak_coupling_bound(1)


def test_critical_coupling_reference_values():
    for n in (4, 10, 50):
        c = critical_coupling(np.arange(float(n)))
        assert c == pytest.approx(TABLE[n][1], abs=5e-6)


def test_critical_coupling_positive_side_and_small_residual():
    for n in (4, 7, 20):
        lambdas = np.arange(float(n))
        c_n = critical_coupling(lambdas)
        w = gl_weights(_kraw_freqs(n, c_n))
        assert w[-1] >= 0
        assert abs(w[-1]) <= 1e-10


def test_critical_coupling_no_root_cases():
    # Krawtchouk with n=2: the smallest weight is identically omega
    with pytest.raises(NoCriticalCouplingError):
        critical_coupling(np.array([0.0, 1.0]))
    # all eigenvalues equal: weights positive for every coupling
    with pytest.raises(NoCriticalCouplingError):
        critical_coupling(np.array([2.0, 2.0, 2.0]))


@pytest.mark.parametrize("lambdas, root", [([-0.6, 0.0, 1.0], 1.25),
                                           ([-2.0, -1.0, 0.0], 2 * math.sqrt(3) - 3)])
def test_critical_coupling_with_a_negative_eigenvalue(lambdas, root):
    # the root lies below omega^2 / -lambda_min, where positive definiteness ends
    c = critical_coupling(np.array(lambdas))
    assert c == pytest.approx(root, rel=1e-12)
    assert (gl_weights(ModeFrequencies(mu=1.0 + c * np.array(lambdas))) > 0).all()


def test_critical_coupling_stops_before_its_bracket_overflows():
    # no sign change for n = 2; from omega^2 = 1e260 the doubled bracket overflows
    with pytest.raises(NoCriticalCouplingError, match="bracket overflows"):
        critical_coupling([0.0, 1.0], omega=1e130)
    # a large lambda_max overflows mu before the bracket does
    with pytest.raises(NoCriticalCouplingError, match="bracket overflows"):
        critical_coupling([0.0, 1e300])
    assert critical_coupling(np.arange(4.0), omega=1e130) / 1e260 == pytest.approx(
        TABLE[4][1], abs=5e-6)


def test_critical_coupling_stops_where_positive_definiteness_ends():
    # the smallest weight sqrt(1 - c)/2 only vanishes where mu_1 does, at c = 1
    with pytest.raises(NoCriticalCouplingError, match="positive up to c = 1, where"):
        critical_coupling(np.array([-1.0, 1.0, 1.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_critical_coupling_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        critical_coupling(np.array([0.0, bad, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        critical_coupling(np.arange(4.0), omega=bad)


def test_critical_coupling_three_modes_exact():
    # root of the n=3 Krawtchouk condition: c^2 - 6c - 3 = 0
    c3 = critical_coupling(np.array([0.0, 1.0, 2.0]))
    assert c3 == pytest.approx(3 + 2 * math.sqrt(3), rel=1e-10)


def test_critical_coupling_constant_chain():
    d = decompose(InteractionModel.constant(5))
    c5 = critical_coupling(d.lambdas)
    w = gl_weights(mode_frequencies(d, 1.0, c5 * 0.999))
    assert (w > 0).all()
    w = gl_weights(mode_frequencies(d, 1.0, c5 * 1.001))
    assert not (w > 0).all()


def test_smallest_weight_monotone_in_coupling():
    lambdas = np.arange(6.0)
    c6 = critical_coupling(lambdas)
    values = [gl_weights(_kraw_freqs(6, c))[-1]
              for c in np.linspace(0, 2 * c6, 80)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bound_is_safe_for_small_sizes():
    for n in range(4, 22):
        c = weak_coupling_bound(n)
        w = gl_weights(_kraw_freqs(n, c))
        assert w[-1] >= -1e-12


def test_weak_coupling_iff_below_critical():
    c4 = critical_coupling(np.arange(4.0))
    for d in np.linspace(-0.5, 0.5, 100):
        c = c4 * (1 + d)
        w = gl_weights(_kraw_freqs(4, c))
        assert (w > 0).all() == (c < c4)


def test_table_reference_rows():
    rows = coupling_rows(InteractionModel.krawtchouk(20), [8, 20, 5])
    for row in rows:
        ct, cn, ratio = TABLE[row.n]
        assert row.c_bound == pytest.approx(ct, abs=5e-6)
        assert row.c_critical == pytest.approx(cn, abs=5e-6)
        assert row.ratio == pytest.approx(ratio, abs=5e-6)
        assert row.c_bound <= row.c_critical  # the closed form is a safe bound


def test_table_scales_with_omega():
    [row1] = coupling_rows(InteractionModel.krawtchouk(6), [6])
    [row2] = coupling_rows(InteractionModel.krawtchouk(6, omega=2.0), [6])
    assert row1.c_critical == pytest.approx(row2.c_critical, rel=1e-9)
    assert row1.c_bound == pytest.approx(row2.c_bound, rel=1e-12)


def test_table_renderings(capsys):
    assert main(["bounds", "--n", "4,5"]) == 0
    text = capsys.readouterr().out
    assert "0.41667" in text and "1.27357" in text and "0.32717" in text
    assert main(["bounds", "--n", "4,5", "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    lines = csv.strip().split("\n")
    assert lines[0] == "n,c_tilde_over_omega2,c_n_over_omega2,ratio"
    assert len(lines) == 3
    assert lines[1].startswith("4,")


def test_sqrt_sum_bound_examples():
    assert sqrt_sum_bound_holds(1.0, 1)
    assert sqrt_sum_bound_holds(10.0, 6)
    assert sqrt_sum_bound_holds(5.0, 12)
    with pytest.raises(ValueError):
        sqrt_sum_bound_holds(0.2, 12)  # 0.2 <= (12-4)^2/16 = 4


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.001, max_value=500.0))
def test_sqrt_sum_bound_property(n, excess):
    big_c = (n - 4) ** 2 / 16.0 + excess
    assert sqrt_sum_bound_holds(big_c, n)


def test_omega_whose_square_overflows_is_rejected():
    with pytest.raises(ValueError, match="finite"):
        critical_coupling(np.arange(4.0), omega=1e200)
    with pytest.raises(ValueError, match="finite"):
        weak_coupling_bound(4, omega=1e200)
    with pytest.raises(ValueError, match="finite"):
        coupling_rows(InteractionModel.krawtchouk(4, omega=1e200), [4])
