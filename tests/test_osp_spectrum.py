import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerosc import (GZPattern, ModeFrequencies, ResourceLimitError, UnirrepError,
                       is_unirrep, levels, osp_spectrum)
from wignerosc.cli import main
from wignerosc.osp_spectrum import _interleaving, osp_classes
from oracles import (Partition, conjugate, distinct_count_at_height, enumerate_gz,
                     generalized_binomial, gz_first_broken_rule, hook_patterns,
                     multiplicity_at_height, osp_eigenvalue, partitions_of, row_sum_signature)

# the two four-row patterns displayed as an equal-energy pair
PATTERN_A = GZPattern(rows=((5, 0, 0, 0), (4, 0, 0), (2, 0), (1,)), n=4, p=5)
PATTERN_B = GZPattern(rows=((3, 2, 0, 0), (3, 1, 0), (2, 0), (1,)), n=4, p=5)


def _kraw_freqs(n, c, omega=1.0):
    return ModeFrequencies(mu=omega ** 2 + c * np.arange(n))


@st.composite
def partition_strategy(draw, max_weight=12):
    k = draw(st.integers(min_value=0, max_value=max_weight))
    maxlen = draw(st.integers(min_value=1, max_value=max_weight + 1))
    opts = partitions_of(k, maxlen)
    return draw(st.sampled_from(opts)) if opts else Partition(())


def test_partitions_of_examples():
    assert [p.parts for p in partitions_of(2, 2)] == [(2,), (1, 1)]
    assert [p.parts for p in partitions_of(0, 3)] == [()]
    assert [p.parts for p in partitions_of(4, 2)] == [(4,), (3, 1), (2, 2)]


def test_partitions_of_order_and_slots():
    out = [p.parts for p in partitions_of(5, 3)]
    assert out == sorted(out, reverse=True)  # reverse-lexicographic
    assert [p.parts for p in partitions_of(4, 10, max_slots=2)] == [(4,), (3, 1), (2, 2)]
    assert partitions_of(3, 0) == []


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    nu = Partition((3, 1))
    assert nu.weight == 4 and nu.length == 2


def test_conjugate_examples():
    assert conjugate(Partition((2,))).parts == (1, 1)
    assert conjugate(Partition((3, 1))).parts == (2, 1, 1)
    assert conjugate(Partition((2, 2))).parts == (2, 2)
    assert conjugate(Partition(())).parts == ()


@settings(max_examples=120)
@given(partition_strategy())
def test_conjugate_is_involution(nu):
    assert conjugate(conjugate(nu)) == nu
    assert conjugate(nu).weight == nu.weight


def test_generalized_binomial_values():
    assert generalized_binomial(4, Partition((1, 1))) == 10
    assert generalized_binomial(4, Partition((2,))) == 6
    for n in (1, 3, 7):
        assert generalized_binomial(n, Partition((1,))) == n
    # a cell of content x zeroes the product: diagrams wider than x columns vanish
    assert generalized_binomial(2, Partition((3,))) == 0
    # so top rows longer than n contribute nothing to the multiplicity sum
    assert generalized_binomial(1, conjugate(Partition((1, 1, 1, 1)))) == 0


def test_generalized_binomial_integrality():
    for n in range(1, 9):
        for k in range(7):
            for nu in partitions_of(k, k + 1):
                val = generalized_binomial(n, conjugate(nu))
                assert isinstance(val, Fraction)
                assert val.denominator == 1 and val >= 0


def test_multiplicity_examples():
    assert multiplicity_at_height(4, 2, 2) == 16
    assert multiplicity_at_height(4, 1, 3) == math.comb(6, 3) == 20
    for n, p in itertools.product((1, 3, 5), (1, 2, 3.5)):
        assert multiplicity_at_height(n, p, 0) == 1


def _count_patterns_brute(n, p, k):
    """Independent check: filter all candidate rows instead of building ranges."""
    tops = [nu.parts + (0,) * (n - nu.length)
            for nu in partitions_of(k, math.ceil(p), max_slots=n)]
    total = 0
    for top in tops:
        rows = [[top]]
        for length in range(n - 1, 0, -1):
            grown = []
            for partial in rows:
                upper = partial[-1]
                for cand in itertools.product(range(top[0] + 1), repeat=length):
                    if all(upper[i] >= cand[i] >= upper[i + 1] for i in range(length)):
                        grown.append(partial + [cand])
            rows = grown
        total += len(rows)
    return total


def test_multiplicity_formula_vs_brute_force():
    for n in range(1, 5):
        for p in (1, 2):
            for k in range(4):
                assert multiplicity_at_height(n, p, k) == _count_patterns_brute(n, p, k)


def test_enumerate_gz_single_mode():
    pats = enumerate_gz(1, 1, 2)
    assert [p.rows for p in pats] == [((0,),), ((1,),), ((2,),)]


def test_enumerate_gz_counts():
    pats = enumerate_gz(4, 2, 2)
    assert len(pats) == 21
    by_height = {}
    for pat in pats:
        by_height.setdefault(pat.height, []).append(pat)
    assert [len(by_height[k]) for k in (0, 1, 2)] == [1, 4, 16]
    for k in (0, 1, 2):
        assert len(by_height[k]) == multiplicity_at_height(4, 2, k)
    assert len(set(pats)) == len(pats)


def _accepted_grids(n, p, k):
    """Every entry grid of height <= k that GZPattern accepts, in no particular order.

    No entry of an accepted grid exceeds its top row's first entry, so
    the lower rows only try values up to that one.
    """
    out = []
    for top in itertools.product(range(k + 1), repeat=n):
        if sum(top) > k:
            continue
        for rest in itertools.product(range(top[0] + 1), repeat=n * (n - 1) // 2):
            flat = top + rest
            rows, start = [], 0
            for length in range(n, 0, -1):
                rows.append(flat[start:start + length])
                start += length
            try:
                out.append(GZPattern(rows=tuple(rows), n=n, p=p))
            except ValueError:
                pass
    return out


@pytest.mark.parametrize("n", range(1, 5))
def test_enumerate_gz_order_matches_filtered_grids(n):
    for p in (1, 2, 3, n - 0.5, n + 0.25):
        if not is_unirrep(n, p):
            continue
        grids = _accepted_grids(n, p, 3)
        grids.sort(key=lambda pat: (pat.height, [-x for row in pat.rows for x in row]))
        for k_max in range(4):
            expected = [pat for pat in grids if pat.height <= k_max]
            pats = enumerate_gz(n, p, k_max)
            assert pats == expected
            assert len(set(pats)) == len(pats)
            heights = [pat.height for pat in pats]
            assert [heights.count(k) for k in range(k_max + 1)] == \
                [multiplicity_at_height(n, p, k) for k in range(k_max + 1)]


def test_enumerate_gz_rejects_bad_p():
    with pytest.raises(UnirrepError):
        enumerate_gz(4, 0.5, 2)
    with pytest.raises(UnirrepError):
        enumerate_gz(4, 2.5, 2)


def test_displayed_patterns_are_members():
    pats = enumerate_gz(4, 2, 5)
    rows = {p.rows for p in pats}
    assert PATTERN_A.rows in rows
    assert PATTERN_B.rows in rows


def test_pattern_validation():
    with pytest.raises(ValueError, match="interleav"):
        GZPattern(rows=((2, 0), (3,)), n=2, p=2)
    with pytest.raises(ValueError, match="decreasing"):
        GZPattern(rows=((1, 2), (1,)), n=2, p=2)
    with pytest.raises(ValueError, match="nonzero"):
        GZPattern(rows=((2, 1), (1,)), n=2, p=1)
    with pytest.raises(ValueError):
        GZPattern(rows=((2, 0),), n=2, p=2)
    for n in (0, -1):  # no top row to read
        with pytest.raises(ValueError, match="needs n >= 1"):
            GZPattern(rows=(), n=n, p=1)
    with pytest.raises(ValueError, match="integer n; got n = 2.5"):
        GZPattern(rows=((1, 0), (1,)), n=2.5, p=2)
    pattern = GZPattern(rows=((1, 0), (1,)), n=2.0, p=2)
    assert pattern == GZPattern(rows=((1, 0), (1,)), n=2, p=2) and type(pattern.n) is int


def _split_rows(flat, n):
    """Rows of lengths n, n-1, ..., 1 from a flat entry tuple, top row first."""
    starts = list(itertools.accumulate(range(n, 0, -1), initial=0))
    return tuple(tuple(flat[a:b]) for a, b in zip(starts, starts[1:]))


def _assert_validates_like_oracle(rows, n, p):
    """GZPattern accepts ``rows`` exactly when the oracle does, else raises its first rule."""
    expected = gz_first_broken_rule(rows, n, p)
    if expected is None:
        pat = GZPattern(rows=rows, n=n, p=p)
        assert pat.rows == tuple(tuple(int(x) for x in row) for row in rows)
        assert all(type(row) is tuple for row in pat.rows)
        assert all(type(x) is int for row in pat.rows for x in row)
    else:
        try:
            GZPattern(rows=rows, n=n, p=p)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            raise AssertionError(f"{rows} accepted; expected {expected!r}")
    return expected


@pytest.mark.parametrize("n", range(1, 5))
def test_pattern_validation_matches_rule_by_rule_oracle(n):
    """Every grid of height <= 3 with lower entries in 0..3, many breaking several rules."""
    tops = [top for top in itertools.product(range(4), repeat=n) if sum(top) <= 3]
    lower = list(itertools.product(range(4), repeat=n * (n - 1) // 2))
    ps = (1, 1.5, 2, n - 0.5, n + 0.25)
    seen = Counter()
    for i, (top, rest) in enumerate(itertools.product(tops, lower)):
        seen[_assert_validates_like_oracle(_split_rows(top + rest, n), n, ps[i % len(ps)])] += 1
    assert None in seen
    if n > 1:
        assert {"top row must be weakly decreasing", "interleaving condition violated"} < set(seen)
        assert any(str(msg).startswith("top row has more than ceil(p)") for msg in seen)


def _column_rows(column):
    """The single-column pattern whose length-j row starts with column[j - 1], top row first."""
    n = len(column)
    return tuple((column[n - 1 - i],) + (0,) * (n - 1 - i) for i in range(n))


@pytest.mark.parametrize("n", range(5, 8))
def test_pattern_validation_of_v1_shapes_matches_rule_by_rule_oracle(n):
    """Every single-column V(1) pattern up to height 3, each with one entry moved by +-1,
    also given as a tuple of lists, lists, numpy ints, floats and (0/1 entries) bools."""
    ps = (1, 2, n + 0.5)
    seen = Counter()
    for c, column in enumerate(itertools.combinations_with_replacement(range(4), n)):
        flat = list(itertools.chain(*_column_rows(column)))
        moved = [flat[:i] + [flat[i] + step] + flat[i + 1:]
                 for i in range(len(flat)) for step in (-1, 1)]
        for i, entries in enumerate([flat, *moved]):
            rows = _split_rows(entries, n)
            forms = [rows, tuple(map(list, rows)), list(map(list, rows)),
                     tuple(tuple(map(np.int64, row)) for row in rows),
                     tuple(tuple(map(float, row)) for row in rows)]
            if set(entries) <= {0, 1}:
                forms.append(tuple(tuple(map(bool, row)) for row in rows))
            for form in forms:
                seen[_assert_validates_like_oracle(form, n, ps[(c + i) % len(ps)])] += 1
    assert None in seen and "entries must be non-negative" in seen
    assert {"top row must be weakly decreasing", "interleaving condition violated"} < set(seen)
    assert any(str(msg).startswith("top row has more than ceil(p)") for msg in seen)


def test_wrong_size_pattern_is_refused_before_any_per_n_build():
    before = _interleaving.cache_info()
    for rows, n in ((((1,),), 10 ** 6), (((0,),) * 3, 10 ** 6), (((0, 0, 0), (0,), (0,)), 3),
                    ([[0], [0, 0]], 10 ** 6)):
        with pytest.raises(ValueError, match="^pattern must have rows of lengths"):
            GZPattern(rows=rows, n=n, p=1)
    assert _interleaving.cache_info() == before


@pytest.mark.parametrize("rows, n, p", [
    (((1, -1), (0,)), 2, 2),  # negative, decreasing and interleaving all broken
    (((2, 0), (-1,)), 2, 2),
    (((0, -1), (0,)), 2, 1),
    (((3, 1, -1), (2, 0), (1,)), 3, 3),
    (((3, 1, 0), (2, 0), (-1,)), 3, 3),
    (((-1, 2), (0,)), 2, 2),  # negative before an increasing top row
    (((0, 1, 2), (1, -1), (0,)), 3, 3),
    (((-2,),), 1, 1),
    (((1, 0),), 2, 2),  # row lengths
    (((1, 0), (1,), ()), 2, 2),
    (((1, 0, 0), (1,)), 2, 2),
    (((1,), (1, 0)), 2, 2),
    (((1, 1),), 1, 1),
    ((), 1, 1),
    (((5,),), 1, 1),  # n = 1
    (((0,),), 1, 0.5),
    (((2,),), 1, 0.3),
    (((2,),), 1, 0),
    (((np.int64(2), np.int64(0)), (np.int64(1),)), 2, 1),  # normalised to int
    (((True, False), (True,)), 2, 1),
    (((True, True), (True,)), 2, 1),
    ([[2, 1, 0], [1, 1], [1]], 3, 2),
    (((2.0, 0.0), (1.5,)), 2, 1),
    (((np.int32(2), 0), (np.uint8(3),)), 2, 2),
    (((2, 1, 0), (2, 0), (1,)), 3, 1.5),  # non-integer p
    (((2, 1, 0), (2, 0), (1,)), 3, 0.9),
    (((2, 1, 1), (1, 1), (1,)), 3, 2.000001),
    (((2, 1, 1), (1, 1), (1,)), 3, 2.5),
])
def test_pattern_validation_edge_cases(rows, n, p):
    _assert_validates_like_oracle(rows, n, p)


def test_pattern_normalised_entries_compare_as_ints():
    ints = GZPattern(rows=((2, 0), (1,)), n=2, p=1)
    for rows in (((np.int64(2), np.int64(0)), (np.int64(1),)), [[2.0, False], [True]]):
        pat = GZPattern(rows=rows, n=2, p=1)
        assert pat == ints and hash(pat) == hash(ints) and not pat < ints


def test_row_sum_signature_examples():
    zero = GZPattern(rows=((0, 0, 0), (0, 0), (0,)), n=3, p=1)
    assert row_sum_signature(zero) == (0, 0, 0)
    assert row_sum_signature(PATTERN_A) == (1, 2, 4, 5)
    assert row_sum_signature(PATTERN_B) == (1, 2, 4, 5)


def test_eigenvalue_uncoupled():
    freqs = _kraw_freqs(4, 0.0)
    zero = GZPattern(rows=((0, 0, 0, 0), (0, 0, 0), (0, 0), (0,)), n=4, p=2)
    assert osp_eigenvalue(zero, freqs, 2) == pytest.approx(4 * 2 / 2, abs=1e-12)
    for pat in enumerate_gz(4, 2, 3):
        expected = 4 * 2 / 2 + pat.height
        assert osp_eigenvalue(pat, freqs, 2) == pytest.approx(expected, abs=1e-12)


def test_displayed_patterns_share_energy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        freqs = ModeFrequencies(mu=rng.uniform(0.1, 8.0, size=4))
        ea = osp_eigenvalue(PATTERN_A, freqs, 5)
        eb = osp_eigenvalue(PATTERN_B, freqs, 5)
        assert abs(ea - eb) < 1e-12 * (1 + abs(ea))


def test_signature_law_both_directions():
    rng = np.random.default_rng(17)
    patterns = {n: enumerate_gz(n, 2, 3) for n in range(2, 6)}
    checked_equal = checked_diff = 0
    while checked_equal < 500 or checked_diff < 500:
        n = int(rng.integers(2, 6))
        pats = patterns[n]
        i, j = rng.integers(0, len(pats), size=2)
        a, b = pats[int(i)], pats[int(j)]
        freqs = ModeFrequencies(mu=np.sort(rng.uniform(0.1, 7.0, size=n)))
        same_sig = row_sum_signature(a) == row_sum_signature(b)
        de = abs(osp_eigenvalue(a, freqs, 2) - osp_eigenvalue(b, freqs, 2))
        if same_sig:
            checked_equal += 1
            assert de < 1e-12
        else:
            checked_diff += 1
            assert de > 1e-9  # generic frequencies separate distinct signatures


def test_spectrum_structure_generic_coupling():
    lines = osp_spectrum(4, 2, _kraw_freqs(4, 0.3), k_max=2)
    per_height = {}
    for line in lines:
        per_height.setdefault(line.label[0], []).append(line.multiplicity)
    assert per_height[0] == [1]
    assert per_height[1] == [1, 1, 1, 1]
    assert sorted(per_height[2]) == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]
    energies = [line.energy for line in lines]
    assert energies == sorted(energies)


def test_spectrum_uncoupled_equidistant():
    lines = osp_spectrum(4, 2, _kraw_freqs(4, 0.0), k_max=4)
    assert len(lines) == 5
    for k, line in enumerate(lines):
        assert line.energy == pytest.approx(4.0 + k, abs=1e-12)
        assert line.multiplicity == multiplicity_at_height(4, 2, k)
    gaps = np.diff([line.energy for line in lines])
    assert np.abs(gaps - 1.0).max() < 1e-12


def test_spectrum_total_count():
    lines = osp_spectrum(3, 2, _kraw_freqs(3, 0.4), k_max=3)
    total = sum(line.multiplicity for line in lines)
    assert total == sum(multiplicity_at_height(3, 2, k) for k in range(4))


def test_distinct_count_law():
    assert distinct_count_at_height(4, 2) == 10
    assert distinct_count_at_height(4, 1) == 4
    for n in (1, 3, 7):
        assert distinct_count_at_height(n, 0) == 1
    for n in range(1, 6):
        for p in (1, 2, 3, n - 0.5):
            if not is_unirrep(n, p):
                continue
            pats = enumerate_gz(n, p, 4)
            per = {}
            for pat in pats:
                per.setdefault(pat.height, set()).add(row_sum_signature(pat))
            for k in range(5):
                assert len(per[k]) == distinct_count_at_height(n, k)


def test_unirrep_condition():
    assert is_unirrep(4, 2)
    assert is_unirrep(4, 3)
    assert is_unirrep(4, 3.5)
    assert is_unirrep(4, 10)
    assert not is_unirrep(4, 0.5)
    assert not is_unirrep(4, 2.5)
    assert not is_unirrep(4, 0)
    assert is_unirrep(1, 0.5)
    assert is_unirrep(2, 1)


@pytest.mark.parametrize("p", [True, False, np.True_])
def test_a_bool_label_is_refused(p):
    with pytest.raises(ValueError, match=r"^the V\(p\) label must be a number, not a bool; got p = "):
        is_unirrep(3, p)
    with pytest.raises(ValueError, match=r"^the V\(p\) label must be a number, not a bool"):
        osp_spectrum(3, p, _kraw_freqs(3, 0.1), 2)
    if p:  # a pattern's rules stay as they were: p = True has ceil(p) = 1
        assert GZPattern(rows=((1, 0), (1,)), n=2, p=p).p is p


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_a_label_that_is_not_finite_is_refused(p):
    with pytest.raises(ValueError, match=r"the V\(p\) label must be finite"):
        is_unirrep(3, p)
    with pytest.raises(ValueError, match=r"the V\(p\) label must be finite"):
        osp_classes(3, p, 2)


def test_non_integer_p_top_rows():
    # ceil(p) = 4 rows allowed once p exceeds n - 1 = 3
    pats = enumerate_gz(4, 3.5, 4)
    assert any(pat.rows[0] == (1, 1, 1, 1) for pat in pats)
    freqs = _kraw_freqs(4, 0.2)
    lines = osp_spectrum(4, 3.5, freqs, k_max=2)
    assert lines[0].energy == pytest.approx(float(freqs.sqrt_mu.sum() * 3.5 / 2), abs=1e-12)


def test_csv_and_json_exports(capsys):
    # the Krawtchouk chain has lambda_j = j - 1, so these are _kraw_freqs(4, 0.3)
    argv = "spectrum --algebra osp --model krawtchouk --n 4 --p 2 --c 0.3 --kmax 2".split()
    assert main(argv) == 0
    csv = capsys.readouterr().out
    rows = csv.strip().split("\n")
    assert rows[0] == "energy,multiplicity,height,s_1,s_2,s_3,s_4"
    assert len(rows) == 16  # 1 + 4 + 10 lines
    assert main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 15
    assert set(payload[0]) == {"energy", "multiplicity", "height", "signature", "pattern"}
    assert payload[0]["pattern"] == [[0, 0, 0, 0], [0, 0, 0], [0, 0], [0]]


def _first_pattern_of_each_class(n, p, k_max):
    first = {}
    for pattern in enumerate_gz(n, p, k_max):
        first.setdefault(row_sum_signature(pattern), pattern)
    return first


@pytest.mark.parametrize("n", range(1, 8))
def test_first_pattern_of_each_class_is_its_hook_pattern(n):
    # enumeration is height-ordered, so the largest k_max covers every smaller one
    k_max = 5 if n < 6 else 3
    ps = sorted(p for p in {0.5, 1, 2, 2.5, 3, 4.5, 7, n - 0.5, n + 0.25} if is_unirrep(n, p))
    for p in ps:
        first = _first_pattern_of_each_class(n, p, k_max)
        signatures = sorted(first)
        hooks = hook_patterns(np.array(signatures, dtype=np.int64).reshape(-1, n))
        assert hooks == [[list(row) for row in first[sig].rows] for sig in signatures]


def test_json_pattern_is_the_first_pattern_of_its_class(capsys):
    argv = "spectrum --algebra osp --model krawtchouk --n 4 --p 2 --c 0.3 --kmax 3"
    assert main(argv.split() + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    first = _first_pattern_of_each_class(4, 2, 3)
    assert len(payload) == len(first)
    for record in payload:
        expected = first[tuple(record["signature"])]
        assert record["pattern"] == [list(row) for row in expected.rows]
    # several nonzero rows: (s_1, ..., s_4) = (1, 2, 3, 3) gives [[3,0,0,0],[3,0,0],[2,0],[1]]
    assert any(sum(row[0] > 0 for row in record["pattern"]) >= 3 for record in payload)


@pytest.mark.parametrize("n", range(1, 9))
def test_json_pattern_is_the_hook_pattern_of_its_signature(n, capsys):
    argv = f"spectrum --algebra osp --model krawtchouk --n {n} --p {n} --c 0.2 --kmax 3"
    assert main(argv.split() + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    signatures = [record["signature"] for record in payload]
    assert all(len(sig) == n for sig in signatures) and any(sig[-1] == 3 for sig in signatures)
    assert [record["pattern"] for record in payload] == hook_patterns(signatures)


def test_osp_build_over_the_byte_budget_is_refused_before_allocating(monkeypatch, capsys):
    # n = 6, k <= 7: 1,716 classes, and the lattice guard counts 8 * (7n + 49) bytes a class
    assert math.comb(7 + 6, 6) * 8 * 91 == 1249248
    monkeypatch.setattr(levels, "BYTE_BUDGET", 2 ** 20)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"osp\(1\|12\) up to height 7 need 1249248 "):
            osp_spectrum(6, 8, _kraw_freqs(6, 0.1), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    argv = "spectrum --algebra osp --model krawtchouk --n 6 --p 8 --c 0.1 --kmax 7"
    assert main(argv.split()) == 2
    out = capsys.readouterr()
    assert out.out == "" and " bytes, beyond the 1048576-byte guard" in out.err
    # the largest build below the budget still runs
    assert sum(line.multiplicity for line in osp_spectrum(6, 8, _kraw_freqs(6, 0.1), 6)) == \
        sum(multiplicity_at_height(6, 8, k) for k in range(7))
