"""osp(1|2n) classes counted from their weights, against pattern counts and formulas.

``osp_classes`` builds no Gelfand-Zetlin pattern: each weight up to the
cutoff is a class, and its multiplicity is a sum of Kostka numbers. The
oracles are the brute-force pattern enumerator of ``oracles``, the
hook-content formulas per height, and Littlewood's product
prod_i (1 - x_i)^-1 prod_{i<j} (1 - x_i x_j)^-1, whose coefficients count
the patterns of each weight once every top row is admissible (p > n - 1).
"""

import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from wignerosc import ModeFrequencies, ResourceLimitError, fock_spectrum, levels
from wignerosc.osp_spectrum import osp_classes
from oracles import (distinct_count_at_height, enumerate_gz, multiplicity_at_height,
                     partitions_of, row_sum_signature)


def _guard_bytes(n, k_max):
    return 8 * (7 * n + 49) * math.comb(k_max + n, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_classes_match_the_pattern_oracle(n):
    top = 5 if n < 6 else 4
    for p in sorted({*range(1, n), n - 0.5, n + 0.25, n - 1 + 1e-9, n + 3}):
        patterns = enumerate_gz(n, p, top)
        for k_max in range(top + 1):
            count = Counter((pat.height,) + row_sum_signature(pat)
                            for pat in patterns if pat.height <= k_max)
            classes = osp_classes(n, p, k_max)
            assert classes.keys.tolist() == [list(key) for key in sorted(count)]
            assert classes.multiplicity.tolist() == [count[key] for key in sorted(count)]


def test_classes_past_the_pattern_array():
    # 5.25 M patterns in 43,758 classes: a pattern array of this size was refused
    classes = osp_classes(8, 8, 10)
    assert classes.keys.tolist() == sorted(classes.keys.tolist())
    height = classes.keys[:, 0]
    for k in range(11):
        assert int(classes.multiplicity[height == k].sum()) == multiplicity_at_height(8, 8, k)
        assert int((height == k).sum()) == distinct_count_at_height(8, k)


def _littlewood(n, k_max):
    """Coefficients of prod_i (1 - x_i)^-1 prod_{i<j} (1 - x_i x_j)^-1, exponents <= k_max."""
    coef = np.zeros((k_max + 1,) * n, dtype=np.int64)
    coef[(0,) * n] = 1
    for i in range(n):
        coef = np.cumsum(coef, axis=i)
    for i, j in itertools.combinations(range(n), 2):
        # g = f / (1 - x_i x_j) is g[e] = f[e] + g[e - e_i - e_j], filled up in x_i
        for a in range(1, k_max + 1):
            dst, src = [slice(None)] * n, [slice(None)] * n
            dst[i], src[i] = a, a - 1
            dst[j], src[j] = slice(1, None), slice(None, -1)
            coef[tuple(dst)] += coef[tuple(src)]
    return coef


@pytest.mark.parametrize("n", range(1, 6))
def test_multiplicities_are_littlewood_coefficients(n):
    coef = _littlewood(n, 6)
    for p in (n - 0.5, n + 0.25, n + 3):
        classes = osp_classes(n, p, 6)
        weights = np.diff(classes.keys[:, 1:], axis=1, prepend=0)
        assert classes.multiplicity.tolist() == coef[tuple(weights.T)].tolist()


def test_single_mode_classes_and_one_part_partitions_take_linear_time():
    start = time.perf_counter()
    classes = osp_classes(1, 1, 20_000)
    assert classes.keys.tolist() == [[k, k] for k in range(20_001)]
    assert (classes.multiplicity == 1).all()
    assert [nu.parts for k in range(20_001) for nu in partitions_of(k, 1)] == \
        [(k,) if k else () for k in range(20_001)]
    assert time.perf_counter() - start < 10.0


def test_few_parts_drop_their_long_top_rows_as_they_grow():
    # V(1) of osp(1|6) has one pattern per weight; unpruned, 60 cells took about 5.5 s
    start = time.perf_counter()
    classes = osp_classes(3, 1, 60)
    assert time.perf_counter() - start < 2.0
    assert len(classes.keys) == math.comb(63, 3) and (classes.multiplicity == 1).all()


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_a_non_finite_label_is_refused(p):
    with pytest.raises(ValueError, match="must be finite"):
        osp_classes(3, p, 2)

def test_fock_lattice_over_the_byte_budget_is_refused_before_allocating(monkeypatch):
    freqs = ModeFrequencies(mu=1.0 + 0.3 * np.arange(6))
    monkeypatch.setattr(levels, "BYTE_BUDGET", 2 ** 20)
    assert _guard_bytes(6, 7) > 2 ** 20 > _guard_bytes(6, 6)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"occupations of 6 modes up to 7 need"):
            fock_spectrum(6, freqs, k_total_max=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert sum(line.multiplicity for line in fock_spectrum(6, freqs, k_total_max=6)) == \
        math.comb(12, 6)


@pytest.mark.parametrize("n,k_max", [(1, 5000), (3, 20), (6, 7), (12, 5), (40, 2)])
def test_the_lattice_guard_covers_the_traced_peak(n, k_max):
    builds = {"osp": lambda: osp_classes(n, n + 3, k_max),
              "fock": lambda: fock_spectrum(n, ModeFrequencies(mu=1.0 + 0.3 * np.arange(n)),
                                            k_total_max=k_max)}
    for name, build in builds.items():
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _guard_bytes(n, k_max), name
