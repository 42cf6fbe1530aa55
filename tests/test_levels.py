import numpy as np
import pytest

from wignerosc import ModeFrequencies
from wignerosc.levels import SpectrumLine, merge_classes
from oracles import merge_lines


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
