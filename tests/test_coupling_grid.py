"""Spectra on a coupling grid: one array of couplings against one coupling at a time.

``mode_frequencies`` takes a 1-D array of couplings and gives one row of
mu per coupling; ``gl_levels``/``osp_levels`` evaluate and merge the whole
grid as one table. Each coupling's rows must equal the single-coupling
result bit for bit.
"""

import numpy as np
import pytest

from wignerosc import (InteractionModel, ModeFrequencies, PositiveDefinitenessError,
                       critical_coupling, decompose, gl_spectrum, gl_weights, mode_frequencies,
                       osp_spectrum)
from wignerosc.gl_spectrum import gl_classes, gl_levels
from wignerosc.levels import MergedLevels
from wignerosc.osp_spectrum import osp_classes, osp_levels

MODELS = {"krawtchouk": lambda n: InteractionModel.krawtchouk(n, ptilde=0.3),
          "constant": InteractionModel.constant}


def _grids(decomp):
    """Grids below c_n that include c = 0, and a one-coupling grid."""
    c_n = critical_coupling(decomp.lambdas)
    return [np.array([0.0, 0.25 * c_n, 0.5 * c_n, 0.999 * c_n]),
            np.array([0.3719 * c_n, 0.0, 0.7 * c_n]), np.array([0.6 * c_n])]


def _bits(merged):
    return [merged.head.tolist(), merged.energy.view(np.int64).tolist(),
            merged.multiplicity.tolist()]


def _assert_rows_equal_single_couplings(levels, decomp, grid):
    merged = levels(mode_frequencies(decomp, 1.0, grid))
    assert set(merged.coupling.tolist()) == set(range(len(grid)))
    for i, c in enumerate(grid.tolist()):
        at = merged.coupling == i
        single = levels(mode_frequencies(decomp, 1.0, c))
        assert not single.coupling.any()
        assert _bits(MergedLevels(*(column[at] for column in merged))) == _bits(single)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("n,p", [(8, 3), (12, 2)])
def test_gl_grid_rows_equal_single_couplings(model, n, p):
    decomp = decompose(MODELS[model](n))
    classes = gl_classes(n, p)
    for grid in _grids(decomp):
        _assert_rows_equal_single_couplings(
            lambda freqs: gl_levels(classes, freqs), decomp, grid)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("n,p,k_max", [(8, 3, 3), (8, 7.5, 2), (12, 12.5, 2)])
def test_osp_grid_rows_equal_single_couplings(model, n, p, k_max):
    decomp = decompose(MODELS[model](n))
    classes = osp_classes(n, p, k_max)
    for grid in _grids(decomp):
        _assert_rows_equal_single_couplings(
            lambda freqs: osp_levels(classes, freqs), decomp, grid)


@pytest.mark.parametrize("algebra,p", [("gl", 3), ("osp", 2), ("osp", 5.5)])
def test_classes_carry_their_p_and_their_levels_are_the_spectrum(algebra, p):
    decomp = decompose(InteractionModel.krawtchouk(5, ptilde=0.3))
    freqs = mode_frequencies(decomp, 1.0, 0.4 * critical_coupling(decomp.lambdas))
    if algebra == "gl":
        classes = gl_classes(5, p)
        merged, lines = gl_levels(classes, freqs), gl_spectrum(5, p, freqs)
    else:
        classes = osp_classes(5, p, 3)
        merged, lines = osp_levels(classes, freqs), osp_spectrum(5, p, freqs, 3)
    assert classes.p == p
    keys = classes.keys[merged.head].tolist()
    assert [(line.energy, line.multiplicity, line.label) for line in lines] == \
        [(e, m, (key[0], tuple(key[1:]))) for e, m, key in
         zip(merged.energy.tolist(), merged.multiplicity.tolist(), keys)]


def test_grid_frequencies_and_weights_equal_single_couplings():
    decomp = decompose(InteractionModel.krawtchouk(12, ptilde=0.7))
    grid = np.array([0.0, 0.01, 0.02, 0.05])
    freqs = mode_frequencies(decomp, 1.3, grid)
    assert freqs.mu.shape == (4, 12) and freqs.n == 12
    beta = gl_weights(freqs)
    assert beta.shape == (4, 12) and not beta.flags.writeable
    for i, c in enumerate(grid.tolist()):
        single = mode_frequencies(decomp, 1.3, c)
        assert single.mu.tolist() == freqs.mu[i].tolist()
        assert single.sqrt_mu.tolist() == freqs.sqrt_mu[i].tolist()
        assert gl_weights(single).tolist() == beta[i].tolist()
        assert gl_weights(single).sum(axis=-1) == beta.sum(axis=-1)[i]


def test_grid_raises_its_first_failing_couplings_error():
    # row 1 is not positive definite at index 1; row 2 overflows
    mu = np.array([[1.0, 2.0, 3.0], [1.0, -1.0, 3.0], [1.0, np.inf, -3.0]])
    with pytest.raises(PositiveDefinitenessError, match=r"mu\[1\] = -1\.0$"):
        ModeFrequencies(mu=mu)
    with pytest.raises(ValueError, match="finite"):
        ModeFrequencies(mu=mu[[0, 2, 1]])
    # lambdas -1, 0.5, 2: c = 2 makes mu_1 = -1, and c = 1e308 overflows mu_3
    decomp = decompose(InteractionModel.general(np.diag([-1.0, 0.5, 2.0])))
    with pytest.raises(PositiveDefinitenessError, match=r"mu\[0\] = -1\.0$"):
        mode_frequencies(decomp, 1.0, np.array([0.0, 2.0, 1e308]))
    with pytest.raises(ValueError, match="finite"):
        mode_frequencies(decomp, 1.0, np.array([0.0, 1e308, 2.0]))
