import json
import math

import numpy as np
import pytest

from wignerosc import (InteractionModel, ModeFrequencies, NumericError, UnitarityError,
                       critical_coupling, decompose, gl_dimension, gl_spectrum, gl_weights,
                       mode_frequencies)
from wignerosc.cli import main
from wignerosc.gl_spectrum import gl_classes, gl_levels
from oracles import GlBasisVector, enumerate_gl_basis, gl_eigenvalue


def _kraw_freqs(n, c, omega=1.0):
    return ModeFrequencies(mu=omega ** 2 + c * np.arange(n))


def test_enumerate_counts():
    assert len(enumerate_gl_basis(4, 2)) == 14
    assert enumerate_gl_basis(1, 0) == [GlBasisVector(theta=0, r=(0,))]
    vecs = enumerate_gl_basis(2, 1)
    assert vecs == [GlBasisVector(0, (0, 1)), GlBasisVector(0, (1, 0)),
                    GlBasisVector(1, (0, 0))]


def test_enumeration_sorted_and_complete():
    for n in range(1, 7):
        for p in range(5):
            vecs = enumerate_gl_basis(n, p)
            assert len(vecs) == gl_dimension(n, p)
            assert vecs == sorted(vecs)
            assert len(set(vecs)) == len(vecs)
            assert all(v.p == p for v in vecs)


def test_dimension_formula():
    assert gl_dimension(4, 2) == 14
    assert gl_dimension(3, 3) == math.comb(5, 2) + math.comb(4, 2) == 16
    for n in (1, 2, 5, 9):
        assert gl_dimension(n, 0) == 1


def test_an_integral_float_p_is_that_integer():
    freqs = _kraw_freqs(3, 0.1)
    assert gl_dimension(3, 2.0) == gl_dimension(3, np.float64(2)) == gl_dimension(3, 2) == 9
    for got, want in zip(gl_classes(3, 2.0), gl_classes(3, 2)):
        assert np.array_equal(got, want) and np.asarray(got).dtype == np.asarray(want).dtype
    assert gl_spectrum(3, 2.0, freqs) == gl_spectrum(3, 2, freqs)


@pytest.mark.parametrize("p", [2.5, -1, -1.0, math.nan, math.inf, -math.inf])
def test_any_other_p_is_a_value_error(p):
    message = rf"need n >= 1 and a non-negative integer p, not n = 3, p = {p}$"
    with pytest.raises(ValueError, match=message):
        gl_dimension(3, p)
    with pytest.raises(ValueError, match=message):
        gl_classes(3, p)
    with pytest.raises(ValueError, match=message):
        gl_spectrum(3, p, _kraw_freqs(3, 0.1))


def test_eigenvalue_uncoupled():
    for n in (2, 4, 6):
        for p in (1, 2, 3):
            freqs = _kraw_freqs(n, 0.0)
            w = gl_weights(freqs)
            for v in enumerate_gl_basis(n, p):
                e = gl_eigenvalue(v, w, freqs, p)
                assert e == pytest.approx(p / (n - 1) + v.theta, abs=1e-12)


def test_eigenvalue_vacuum_and_lowest():
    freqs = _kraw_freqs(4, 0.4)
    w = gl_weights(freqs)
    vac = GlBasisVector(0, (0, 0, 0, 0))
    assert gl_eigenvalue(vac, w, freqs, 0) == 0.0

    lowest = GlBasisVector(0, (0, 0, 0, 3))
    assert gl_eigenvalue(lowest, w, freqs, 3) == pytest.approx(3 * w[-1], abs=1e-12)


def test_eigenvalue_two_forms_agree():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(0, 5))
        mu = rng.uniform(0.05, 9.0, size=n)
        freqs = ModeFrequencies(mu=mu)
        w = gl_weights(freqs)
        theta = int(rng.integers(0, 2)) if p >= 1 else 0
        parts = rng.multinomial(p - theta, np.ones(n) / n)
        v = GlBasisVector(theta, tuple(int(x) for x in parts))
        e = gl_eigenvalue(v, w, freqs, p, allow_nonunitary=True)
        alt = float(w.sum()) * theta + float(w @ np.array(v.r))
        assert abs(e - alt) <= 1e-10 * (1.0 + abs(e))


def test_eigenvalue_refuses_mixed_signs():
    c4 = critical_coupling(np.arange(4.0))
    freqs = _kraw_freqs(4, 2 * c4)
    w = gl_weights(freqs)
    assert not (w > 0).all()
    v = GlBasisVector(0, (2, 0, 0, 0))
    with pytest.raises(UnitarityError):
        gl_eigenvalue(v, w, freqs, 2)
    assert isinstance(gl_eigenvalue(v, w, freqs, 2, allow_nonunitary=True), float)


def test_spectrum_uncoupled_collapse():
    for n in range(2, 7):
        for p in range(1, 5):
            lines = gl_spectrum(n, p, _kraw_freqs(n, 0.0))
            assert len(lines) == 2
            assert lines[0].multiplicity == math.comb(p + n - 1, n - 1)
            assert lines[1].multiplicity == math.comb(p + n - 2, n - 1)
            assert lines[0].energy == pytest.approx(p / (n - 1), abs=1e-12)
            assert lines[1].energy == pytest.approx(p / (n - 1) + 1, abs=1e-12)


def test_spectrum_p_zero():
    lines = gl_spectrum(4, 0, _kraw_freqs(4, 0.3))
    assert len(lines) == 1
    assert lines[0].energy == 0.0
    assert lines[0].multiplicity == 1


def test_spectrum_generic_all_distinct():
    lines = gl_spectrum(4, 2, _kraw_freqs(4, 0.5))
    assert len(lines) == 14
    assert all(line.multiplicity == 1 for line in lines)
    energies = [line.energy for line in lines]
    assert all(b - a > 1e-9 for a, b in zip(energies, energies[1:]))


def test_spectrum_multiplicity_conserved_on_grid():
    c4 = critical_coupling(np.arange(4.0))
    for c in np.linspace(0.0, c4, 100):
        lines = gl_spectrum(4, 2, _kraw_freqs(4, c))
        assert sum(line.multiplicity for line in lines) == 14


def test_ground_level_decreases_to_zero():
    c4 = critical_coupling(np.arange(4.0))
    grid = np.linspace(0.0, c4, 100)
    lows = [gl_spectrum(4, 2, _kraw_freqs(4, c))[0].energy for c in grid]
    assert all(a > b for a, b in zip(lows, lows[1:]))
    assert abs(lows[-1]) < 1e-8


def test_level_crossing_detected():
    # these two classes swap order inside (0, c_4); bracket frozen from a scan
    a = GlBasisVector(1, (0, 0, 0, 1))
    b = GlBasisVector(0, (2, 0, 0, 0))

    def gap(c):
        freqs = _kraw_freqs(4, c)
        w = gl_weights(freqs)
        return gl_eigenvalue(a, w, freqs, 2) - gl_eigenvalue(b, w, freqs, 2)

    lo, hi = 0.9, 1.1
    assert gap(lo) * gap(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(lo) * gap(mid) <= 0:
            hi = mid
        else:
            lo = mid
    lines = gl_spectrum(4, 2, _kraw_freqs(4, 0.5 * (lo + hi)))
    assert any(line.multiplicity >= 2 for line in lines)
    assert sum(line.multiplicity for line in lines) == 14


def test_spectrum_refuses_strong_coupling():
    c4 = critical_coupling(np.arange(4.0))
    with pytest.raises(UnitarityError):
        gl_spectrum(4, 2, _kraw_freqs(4, 1.5 * c4))
    lines = gl_spectrum(4, 2, _kraw_freqs(4, 1.5 * c4), allow_nonunitary=True)
    assert sum(line.multiplicity for line in lines) == 14



def test_two_forms_that_disagree_are_a_numeric_error():
    # at c = 1e15 the two energy forms of V(2) of gl(1|3) share only 8 digits
    grid = mode_frequencies(decompose(InteractionModel.krawtchouk(3)), 1.0,
                            np.array([0.0, 5e14, 1e15]))
    with pytest.raises(NumericError, match="at coupling index 2: .* beyond the relative bound"):
        gl_levels(gl_classes(3, 2), grid, allow_nonunitary=True)

def test_constant_chain_spectrum():
    d = decompose(InteractionModel.constant(4))
    freqs = mode_frequencies(d, 1.0, 0.25)
    lines = gl_spectrum(4, 2, freqs)
    assert sum(line.multiplicity for line in lines) == 14


def test_csv_and_json_exports(capsys):
    # the Krawtchouk chain has lambda_j = j - 1, so these are _kraw_freqs(4, 0.5)
    argv = "spectrum --algebra gl --model krawtchouk --n 4 --p 2 --c 0.5".split()
    assert main(argv) == 0
    csv = capsys.readouterr().out
    rows = csv.strip().split("\n")
    assert rows[0] == "energy,multiplicity,theta,r_1,r_2,r_3,r_4"
    assert len(rows) == 15
    assert "\r" not in csv

    assert main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 14
    assert payload[0]["multiplicity"] == 1
    assert set(payload[0]) == {"energy", "multiplicity", "theta", "r"}
    # lowest class carries all weight on the softest mode
    assert payload[0]["theta"] == 0 and payload[0]["r"] == [0, 0, 0, 2]
