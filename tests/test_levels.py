import math

import numpy as np
import pytest

from wignerosc import (GZPattern, InteractionModel, ModeFrequencies, decompose, fock_spectrum,
                       gl_weights, mode_frequencies)
from wignerosc.gl_spectrum import gl_classes
from wignerosc.levels import SpectrumLine, level_energies, levels, merge_classes
from wignerosc.osp_spectrum import osp_classes
from oracles import GlBasisVector, gl_eigenvalue, hook_patterns, merge_lines, osp_eigenvalue


def test_merge_lines_orders_ties_by_multiplicity_before_label():
    # equal energies: the smaller multiplicity heads the line although its label is larger
    lines = merge_lines([(1.0, 2, "a"), (1.0, 1, "b"), (0.5, 1, "z")], merge_tol=0.0)
    assert lines == [SpectrumLine(0.5, 1, "z"), SpectrumLine(1.0, 3, "b")]
    # equal energies and multiplicities: the label decides
    assert merge_lines([(1.0, 1, "b"), (1.0, 1, "a")], 0.0) == [SpectrumLine(1.0, 2, "a")]


def test_merge_lines_chains_clusters_past_the_tolerance():
    raw = [(0.6 * k, 1, k) for k in range(5)]
    assert merge_lines(raw, merge_tol=1.0) == [SpectrumLine(0.0, 5, 0)]
    assert len(merge_lines(raw, merge_tol=0.5)) == 5


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_merge_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        merge_lines([(0.0, 1, 0)], tol)


def test_merge_classes_matches_merge_lines_row_by_row():
    rng = np.random.default_rng(23)
    tol = 1e-9
    for _ in range(200):
        steps, count = int(rng.integers(1, 4)), int(rng.integers(1, 30))
        # few distinct values, so exact ties, near ties and chains all occur
        base = rng.choice([0.0, 1.0, 1.5, 2.0], size=(steps, count))
        energies = base + rng.choice([0.0, 0.4e-9, 0.9e-9, 3e-9], size=(steps, count))
        mult = rng.integers(1, 4, size=count)
        # one mode of frequency 1: the merge unit min_j sqrt(mu_j) is 1
        merged = merge_classes(energies, mult, ModeFrequencies(mu=np.ones((steps, 1))))
        assert np.all(np.diff(merged.coupling) >= 0)
        assert set(merged.coupling.tolist()) == set(range(steps))
        for c, row in enumerate(energies):
            expected = merge_lines([(e, int(m), i) for i, (e, m) in
                                    enumerate(zip(row.tolist(), mult))], tol)
            at = merged.coupling == c
            got = [SpectrumLine(e, m, h) for e, m, h in
                   zip(merged.energy[at].tolist(), merged.multiplicity[at].tolist(),
                       merged.head[at].tolist())]
            assert got == expected


def test_gl_classes_of_one_oscillator_have_no_levels():
    # gl(1|1) has no offset p/(n-1): its classes build, and nothing evaluates them
    classes = gl_classes(1, 2)
    assert math.isnan(classes.a) and classes.keys.tolist() == [[0, 2], [1, 1]]
    with pytest.raises(ValueError, match="finite offset"):
        levels(classes, ModeFrequencies(mu=np.ones(1)))


def _assert_levels_match(classes, freqs, oracle):
    """Class energies equal the per-class ``oracle`` energies; lines take their head's."""
    energy = level_energies(classes.a, classes.weights, freqs)[0]
    np.testing.assert_allclose(energy, oracle, rtol=1e-13, atol=1e-13)
    merged = levels(classes, freqs)
    assert merged.energy.tolist() == energy[merged.head].tolist()
    return merged


@pytest.mark.parametrize("kind, n", [("gl", n) for n in range(2, 7)]
                         + [(kind, n) for kind in ("osp", "fock") for n in range(1, 7)])
def test_class_records_agree_with_themselves(kind, n):
    # the stored offset and weights are the ones the keys define, and give the oracle energies
    freqs = mode_frequencies(decompose(InteractionModel.krawtchouk(n, ptilde=0.3)), 1.0, 0.1)
    if kind == "gl":
        beta = gl_weights(freqs)
        for p in range(6):
            classes = gl_classes(n, p)
            assert classes.a == p / (n - 1)
            assert np.array_equal(classes.weights, -classes.keys[:, 1:])
            _assert_levels_match(classes, freqs, [
                gl_eigenvalue(GlBasisVector(theta, tuple(r)), beta, freqs, p)
                for theta, *r in classes.keys.tolist()])
        return
    for p in [1] if kind == "fock" else sorted({*range(1, n), n - 0.5, n + 1.25}):
        for k_max in range(5):
            classes = osp_classes(n, p, k_max)
            w = classes.weights
            assert classes.a == p / 2
            assert np.array_equal(classes.keys,
                                  np.column_stack((w.sum(axis=1), np.cumsum(w, axis=1))))
            oracle = [osp_eigenvalue(GZPattern(rows=tuple(map(tuple, rows)), n=n, p=p), freqs, p)
                      for rows in hook_patterns(classes.keys[:, 1:])]
            merged = _assert_levels_match(classes, freqs, oracle)
            if kind == "fock":  # V(1): the weights are the occupations that label the lines
                lines = fock_spectrum(n, freqs, k_total_max=k_max)
                assert [line.label for line in lines] == list(map(tuple, w[merged.head].tolist()))
                assert [line.energy for line in lines] == merged.energy.tolist()
