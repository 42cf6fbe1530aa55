"""The level-class kernel against the brute-force per-vector path.

``gl_spectrum`` and ``osp_spectrum`` build integer class arrays once and
evaluate and merge every class at once. The oracles below take the long
way through ``oracles``: every basis vector or Gelfand-Zetlin pattern as
an object, one energy each, and ``merge_lines``. Both must give the same
lines, multiplicities and labels. The oracles sum each energy in another
order, so energies are held instead to the exact rational value of
sum_j sqrt(mu_j) (a + w_j) on the float sqrt(mu_j), for the head class w of
each line: within (n + 2) eps sum_j sqrt(mu_j) (|a| + |w_j|), the rounding
of the library's a sum_j sqrt(mu_j) + w . sqrt(mu).
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

from wignerosc import (InteractionModel, ModeFrequencies, NoCriticalCouplingError,
                       critical_coupling, decompose, gl_spectrum, gl_weights,
                       is_unirrep, mode_frequencies, osp_spectrum)
from wignerosc.cli import main
from wignerosc.levels import MERGE_TOL
from oracles import (enumerate_gl_basis, enumerate_gz, gl_eigenvalue, merge_lines,
                     osp_eigenvalue, row_sum_signature)

MODELS = {"krawtchouk": lambda n: np.arange(n, dtype=float),
          "constant": lambda n: decompose(InteractionModel.constant(n)).lambdas}


def _couplings(lambdas):
    """c = 0, a generic coupling, and couplings just below and just past c_n."""
    try:
        c_n = critical_coupling(lambdas) if len(lambdas) > 1 else None
    except NoCriticalCouplingError:
        c_n = None
    if c_n is None:
        return [0.0, 0.3719, 1.7]
    return [0.0, 0.3719 * c_n, c_n * (1 - 1e-9), c_n * (1 + 1e-6)]


def _freqs(lambdas, c):
    return ModeFrequencies(mu=1.0 + c * lambdas)


def _merge_tol(freqs):
    """MERGE_TOL in units of the smallest mode quantum, as ``merge_classes`` applies it."""
    return MERGE_TOL * float(freqs.sqrt_mu.min())


def gl_oracle(n, p, freqs):
    weights = gl_weights(freqs)
    return merge_lines([(gl_eigenvalue(v, weights, freqs, p, allow_nonunitary=True), 1, v)
                        for v in enumerate_gl_basis(n, p)], _merge_tol(freqs))


def osp_oracle(n, p, freqs, k_max):
    classes = {}
    for pattern in enumerate_gz(n, p, k_max):
        sig = row_sum_signature(pattern)
        count, rep = classes.get(sig, (0, pattern))
        classes[sig] = (count + 1, rep)
    return merge_lines([(osp_eigenvalue(rep, freqs, p), count, (rep.height, sig))
                        for sig, (count, rep) in classes.items()], _merge_tol(freqs))


def _gl_weight(label):
    return [-r for r in label[1]]


def _osp_weight(label):
    return np.diff(label[1], prepend=0).tolist()


def _assert_same(lines, expected, freqs, a, weight):
    """Equal lines, multiplicities and labels; each energy within its bound of the exact one."""
    assert [(line.multiplicity, line.label) for line in lines] == \
        [(line.multiplicity, line.label) for line in expected]
    assert all(type(line.energy) is float and type(line.multiplicity) is int
               for line in lines)
    sqrt_mu = [Fraction(x) for x in freqs.sqrt_mu.tolist()]
    eps = Fraction(sys.float_info.epsilon)
    for line in lines:
        w = weight(line.label)
        exact = sum(s * (a + x) for s, x in zip(sqrt_mu, w, strict=True))
        bound = (len(w) + 2) * eps * sum(s * (abs(a) + abs(x)) for s, x in zip(sqrt_mu, w))
        assert abs(Fraction(line.energy) - exact) <= bound, line


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("n", range(2, 7))
def test_gl_kernel_matches_per_vector_path(model, n):
    lambdas = MODELS[model](n)
    for c in _couplings(lambdas):
        freqs = _freqs(lambdas, c)
        for p in range(5):
            _assert_same(gl_spectrum(n, p, freqs, allow_nonunitary=True),
                         gl_oracle(n, p, freqs), freqs, Fraction(p, n - 1), _gl_weight)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("n", range(1, 5))
def test_osp_kernel_matches_pattern_path(model, n):
    lambdas = MODELS[model](n)
    ps = [p for p in (1, 2, 3, n - 0.5, n + 0.25) if is_unirrep(n, p)]
    for c in _couplings(lambdas):
        freqs = _freqs(lambdas, c)
        for p in ps:
            for k_max in range(5):
                _assert_same(osp_spectrum(n, p, freqs, k_max), osp_oracle(n, p, freqs, k_max),
                             freqs, Fraction(p) / 2, _osp_weight)


def test_osp_exact_tie_is_decided_by_multiplicity():
    model = InteractionModel.krawtchouk(5, c=1.0, ptilde=0.4)
    freqs = mode_frequencies(decompose(model), 1.0, 1.0)
    lines = osp_spectrum(5, 3, freqs, 4)
    _assert_same(lines, osp_oracle(5, 3, freqs, 4), freqs, Fraction(3, 2), _osp_weight)
    # (3,3,3,3,3) at height 3 (one pattern) ties (1,1,1,2,2) at height 2 (two patterns)
    line = next(line for line in lines if line.label[1] == (3, 3, 3, 3, 3))
    assert (line.multiplicity, line.label[0]) == (3, 3)


def test_gl_and_osp_lines_are_labelled_by_their_head_keys_in_plain_ints():
    freqs = _freqs(MODELS["krawtchouk"](4), 0.3719)
    for lines in (gl_spectrum(4, 3, freqs), osp_spectrum(4, 3.5, freqs, 3)):
        assert all(type(line.label) is tuple and len(line.label) == 2
                   and type(line.label[0]) is int and type(line.label[1]) is tuple
                   and all(type(x) is int for x in line.label[1]) for line in lines)


def _csv_rows(argv, capsys):
    assert main(argv) == 0
    return [row.split(",") for row in capsys.readouterr().out.strip().split("\n")[1:]]


@pytest.mark.parametrize("algebra,extra", [
    ("gl", ["--p", "3", "--allow-strong"]),
    ("osp", ["--p", "3.5", "--kmax", "3"]),
])
def test_sweep_slices_equal_single_spectra(algebra, extra, capsys):
    flags = ["--algebra", algebra, "--model", "krawtchouk", "--n", "4", *extra]
    records = _csv_rows(["sweep", *flags, "--cmin", "0", "--cmax", "1.6", "--steps", "6"],
                        capsys)
    by_c = {}
    for c, energy, mult, label in records:
        by_c.setdefault(c, []).append([energy, mult, label])
    assert len(by_c) == 6
    for c, rows in by_c.items():
        spectrum = _csv_rows(["spectrum", *flags, "--c", c], capsys)
        assert rows == [[e, m, f"{key[0]}/" + "-".join(key[1:])] for e, m, *key in spectrum]
