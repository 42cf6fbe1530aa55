"""One merge rule for gl, osp and Fock, measured in mode quanta.

``levels.merge_classes`` merges two levels at one coupling when their
energies differ by at most MERGE_TOL times that coupling's smallest mode
quantum min_j sqrt(mu_j). The unit is omega at c = 0, so the exact
degeneracies there collapse at every omega, and the spectrum is scale
covariant: (omega, c) gives omega times the lines of (1, c / omega^2).
"""

import itertools
import math

import numpy as np
import pytest

from wignerosc import (InteractionModel, ModeFrequencies, decompose, fock_spectrum,
                       gl_dimension, gl_spectrum, mode_frequencies, osp_spectrum)
from wignerosc.cli import main

OMEGA = 3141592.65
GL_CASES = list(itertools.product((2, 3, 4, 6), (0, 1, 2, 3, 5, 8)))
OSP_CASES = [(1, 1), (1, 2.5), (2, 1), (2, 1.5), (2, 3), (3, 1), (3, 2), (3, 2.5), (3, 5),
             (4, 2), (4, 3.5), (6, 3), (6, 8)]
MAKE = {"krawtchouk": InteractionModel.krawtchouk, "constant": InteractionModel.constant}


def _uncoupled(n, omega):
    return ModeFrequencies(mu=np.full(n, omega ** 2))


@pytest.mark.parametrize("n, p", GL_CASES)
def test_gl_collapses_to_two_levels_at_zero_coupling(n, p):
    lines = gl_spectrum(n, p, _uncoupled(n, OMEGA))
    expected = [math.comb(p + n - 1, n - 1)] + ([math.comb(p + n - 2, n - 1)] if p else [])
    assert [line.multiplicity for line in lines] == expected
    assert sum(expected) == gl_dimension(n, p)


@pytest.mark.parametrize("n, p", OSP_CASES)
def test_osp_collapses_to_one_level_per_height_at_zero_coupling(n, p):
    lines = osp_spectrum(n, p, _uncoupled(n, OMEGA), k_max=4)
    assert [line.label[0] for line in lines] == list(range(5))


@pytest.mark.parametrize("n", range(1, 7))
def test_fock_collapses_to_one_level_per_total_at_zero_coupling(n):
    lines = fock_spectrum(n, _uncoupled(n, OMEGA), k_total_max=4)
    assert [line.multiplicity for line in lines] == [math.comb(n + t - 1, n - 1)
                                                     for t in range(5)]


def test_cli_prints_two_gl_levels_at_zero_coupling_and_large_omega(capsys):
    argv = ["spectrum", "--algebra", "gl", "--model", "krawtchouk", "--n", "3", "--p", "8",
            "--c", "0", "--omega", str(OMEGA)]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def _scaled_spectra(model, n, k, c):
    """gl, osp and Fock lines at omega = 2^k and coupling c 4^k."""
    decomp = decompose(MAKE[model](n))
    freqs = mode_frequencies(decomp, 2.0 ** k, c * 4.0 ** k)
    spectra = [fock_spectrum(n, freqs, k_total_max=4)]
    spectra += [osp_spectrum(n, p, freqs, k_max=4) for p in (1, n + 0.25)]
    if n > 1:
        spectra += [gl_spectrum(n, p, freqs, allow_nonunitary=True) for p in range(5)]
    return spectra


@pytest.mark.parametrize("model", sorted(MAKE))
@pytest.mark.parametrize("n", range(1, 5))
def test_spectra_are_scale_covariant(model, n):
    for c in (0.0, 0.3719, 1.7):
        reference = _scaled_spectra(model, n, 0, c)
        for k in (-30, -10, 10, 30):
            for ref, lines in zip(reference, _scaled_spectra(model, n, k, c), strict=True):
                assert [(line.multiplicity, line.label) for line in lines] == \
                    [(line.multiplicity, line.label) for line in ref]
                assert [line.energy for line in lines] == [2.0 ** k * line.energy
                                                           for line in ref]


@pytest.mark.parametrize("n", range(1, 7))
def test_fock_equals_osp_v1(n):
    couplings = (0.0, 0.05, 0.1, 0.2, 0.3, 0.3719, 0.5, 0.75, 1.0, 1.5, 2.0, 5.0)
    for model, omega in itertools.product(sorted(MAKE), (0.5, 1.0, 2.0, OMEGA, 1e130)):
        decomp = decompose(MAKE[model](n))
        for c, k in itertools.product(couplings, (3, 5)):
            freqs = mode_frequencies(decomp, omega, c * omega ** 2)
            fock = fock_spectrum(n, freqs, k_total_max=k)
            osp = osp_spectrum(n, 1, freqs, k_max=k)
            assert [(line.energy, line.multiplicity) for line in fock] == \
                [(line.energy, line.multiplicity) for line in osp]
