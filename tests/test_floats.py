"""``cli._floats`` against ``repr``: the shortest round-trip text of every float.

``_floats`` writes a column of ``floattext.SHORT`` or more values from
``floattext.shortest``, a numpy kernel, and the values that kernel leaves out
through ``repr``; a shorter column goes through ``repr`` alone. Each row, its 0
bytes dropped, must be the bytes of ``repr(value)``, on both routes: for random
bit patterns, for the edges of the kernel's range and rules, of its positional
and exponent forms, across chunk seams and around ``SHORT``.
"""

import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerosc import cli, critical_coupling, decompose, floattext, mode_frequencies
from wignerosc.gl_spectrum import gl_classes, gl_levels
from wignerosc.levels import levels
from wignerosc.osp_spectrum import osp_classes
from wignerosc.spectral import InteractionModel

from oracles import decompose_text

LOW, HIGH = (int(np.float64(x).view(np.int64)) for x in (1e-4, 1e16))
WIDE_LOW, WIDE_HIGH = (int(np.float64(x).view(np.int64)) for x in floattext.RANGE)


def _assert_reprs(values):
    """The kernel (``SHORT`` patched to 0), with its exponent form in every chunk that needs
    it (``WIDE`` patched to 0) and as it comes, and the short route each write ``values`` as
    repr."""
    values = np.asarray(values, dtype=float)
    for short, wide in ((0, 0), (0, floattext.WIDE), (len(values) + 1, floattext.WIDE)):
        with mock.patch.object(floattext, "SHORT", short), \
                mock.patch.object(floattext, "WIDE", wide):
            rows = cli._floats(values)
        assert rows.dtype == np.uint8 and len(rows) == len(values)
        assert [row.tobytes().replace(b"\0", b"") for row in rows] == [
            repr(value).encode() for value in values.tolist()], (short, wide)


def _as_floats(bits: list[int]) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


finite_bits = st.integers(0, 2 ** 64 - 1).filter(
    lambda bits: np.isfinite(_as_floats([bits])[0]))
# the kernel's positional range [1e-4, 1e16), and its whole range, either sign
kernel_bits = st.tuples(st.integers(LOW, HIGH - 1), st.booleans()).map(
    lambda pair: pair[0] | (pair[1] << 63))
wide_bits = st.tuples(st.integers(WIDE_LOW, WIDE_HIGH - 1), st.booleans()).map(
    lambda pair: pair[0] | (pair[1] << 63))


@settings(max_examples=150, deadline=None)
@given(st.lists(finite_bits, min_size=1, max_size=40))
def test_every_finite_double_is_written_as_its_repr(bits):
    _assert_reprs(_as_floats(bits))


@settings(max_examples=300, deadline=None)
@given(st.lists(kernel_bits, min_size=1, max_size=40))
def test_doubles_in_the_kernel_range_are_written_as_their_repr(bits):
    _assert_reprs(_as_floats(bits))


@settings(max_examples=300, deadline=None)
@given(st.lists(wide_bits, min_size=1, max_size=40))
def test_doubles_in_the_whole_kernel_range_are_written_as_their_repr(bits):
    _assert_reprs(_as_floats(bits))


@settings(max_examples=60, deadline=None)
@given(st.lists(kernel_bits | finite_bits, min_size=1, max_size=12), st.integers(1, 5))
def test_chunk_seams_and_fallbacks_in_any_chunk(bits, chunk):
    with mock.patch.object(floattext, "CHUNK", chunk):
        _assert_reprs(_as_floats(bits))


EDGES = [
    1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 9999999999999998.0, 1e16,
    np.nextafter(1e16, 0), 1181393090741442.75, 600000000000000.75, 600000000000000.25,
    0.0, -0.0, 5e-324, float("inf"), float("-inf"), float("nan"), 1.5, 0.1, 0.3,
    2.0 ** 53 + 2, 123456789012345.6, 0.000123456789012345, 14.56018518502272,
]
EDGES += [2.0 ** e for e in range(-20, 60)] + [10.0 ** e for e in range(-8, 20)]
EDGES += [float(f"1e{e}") for e in range(-8, 20)] + [n + 0.5 for n in range(0, 2000, 7)]
EDGES += [float(n) for n in (1, 7, 10, 99, 100, 12345, 2 ** 52 - 1, 10 ** 15 + 1)]
# the exponent form: either side of the switch from positional text, a value whose log10
# rounds up to 16, one-digit mantissas, three-digit exponents, the last exact power of ten
# and the first inexact ones, and two ulps either side of each end of the kernel's range
EDGES += [np.nextafter(1e16, np.inf), 9.999999999999999e-05, 9999999999999980.0, 1e-05,
          2e+100, 1.2345e-07, 5.5e-123, 1.7976931348623157e+308, 2.2250738585072014e-308,
          1e22, 1e23, 1e-23, 1e-100, 1e100, 1.2345678901234567e-200, 9.87654321e+250]
EDGES += [float(np.nextafter(np.nextafter(end, toward), toward)) for end in floattext.RANGE
          for toward in (0, np.inf)] + list(floattext.RANGE)


def test_edges_of_the_kernel_are_written_as_their_repr():
    _assert_reprs(EDGES)
    _assert_reprs([-x for x in EDGES])


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_a_column_of_one_chunk_less_or_more(extra):
    rng = np.random.default_rng(7 + extra)
    values = 10 ** rng.uniform(-5, 17, floattext.CHUNK + extra) * rng.choice([-1, 1])
    values[::97] = 2.0 ** rng.integers(-20, 60, len(values[::97]))  # fallbacks in each chunk
    _assert_reprs(values)


SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 2.0 ** -14, 2.0 ** 52, -0.5]


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_a_column_either_side_of_short_takes_its_route_and_writes_repr(extra):
    size = floattext.SHORT + extra
    rng = np.random.default_rng(11 + extra)
    values = 10 ** rng.uniform(-6, 18, size) * rng.choice([-1, 1], size)
    values[::7][:len(SPECIAL)] = SPECIAL
    values[1::13] = -(2.0 ** rng.integers(-20, 60, len(values[1::13])))
    expected = [repr(value).encode() for value in values.tolist()]
    with mock.patch.object(floattext, "shortest", wraps=floattext.shortest) as kernel:
        for shape in [(size,), (size, 1), (1, size)]:
            text = floattext.float_text(values.reshape(shape))
            assert text.dtype == np.uint8 and text.shape[:-1] == shape
            assert [row.tobytes().replace(b"\0", b"")
                    for row in text.reshape(size, -1)] == expected
    assert kernel.called == (size >= floattext.SHORT)


def _relative_gap(x: float, step: int) -> Fraction:
    """(d - h) / h, exactly: d is the distance from X = x 10^16 to the multiple of ``step``
    nearest it, h = 10^16 ulp(x) / 2 the half-width of x's rounding interval, x in [1, 10)."""
    big = Fraction(x) * 10 ** 16
    h = Fraction(10 ** 16) * Fraction(float(np.spacing(x))) / 2
    rest = big % step
    return (min(rest, step - rest) - h) / h


def _near_edge(binade: int, j: int, t: int) -> list[float]:
    """Floats x = a 2^(binade - 52) in [1, 10) whose nearest multiple of 10^j lies
    h + t 5^j 2^(binade - 37) below X = x 10^16: that holds when
    (2a - 1) 5^(16 - j) = t modulo 2^(37 + j - binade)."""
    modulus = 2 ** (37 + j - binade)
    odd = t * pow(5 ** (16 - j), -1, modulus) % modulus
    return [(2 ** 52 + (odd + 1) // 2 + modulus // 2 * i) * 2.0 ** (binade - 52)
            for i in range(3)]


def test_candidates_inside_the_edge_band_go_through_repr():
    # the 16-digit candidate of x in [1, 2), and the 15-digit one of x in [8, 10), where
    # two multiples of 10 lie within h, so that the 16-digit one passes
    for values, step in [(_near_edge(0, 1, t), 10) for t in (1, -1, 3)] + [
            (_near_edge(3, 2, t), 100) for t in (1, -1)]:
        for x in values:
            gap = _relative_gap(x, step)
            assert gap != 0 and abs(gap) < Fraction(1, 10 ** 9)
        assert floattext.shortest(np.array(values))[3].all()
        _assert_reprs(values)


def test_what_the_kernel_leaves_to_repr():
    below, above = (float(np.nextafter(end, toward)) for end, toward in zip(
        floattext.RANGE, (0, np.inf)))
    cases = {
        "zero and non-finite": [0.0, -0.0, float("inf"), float("nan")],
        "outside the kernel's range": [5e-324, 1e-300, below, floattext.RANGE[1], above, -1e300],
        "powers of two": [2.0 ** e for e in range(-900, 900, 7)],
        "exact ties of two 16-digit candidates": [600000000000000.75, 600000000000000.25],
        "an exact tie of two 17-digit candidates": [1181393090741442.75],
        # 10^23 and 10^24 are inexact: X = 3 5^23 / 2 and 3 5^24 / 2 lie within a rounding
        # error of a tie, and 7 5^23 of one between two multiples of 10
        "ties where 10^k is inexact": [3 * 2.0 ** -24, 2.0 ** -25 * 3, 7 * 2.0 ** -23],
        # 10^23 lies halfway between 1e23 and the next double: on the interval's edge
        "a candidate on the edge": [1e23],
    }
    kept = [1.5, 0.1, 1e-4, 9999999999999998.0, 3.0, 9.9e-5, 1e16, -3e20, 1e-05, 1e22, 1e-23,
            3 * 2.0 ** -23, 5.5e-123, 1e-280, np.nextafter(1e280, 0)]
    with mock.patch.object(floattext, "WIDE", 0):
        for name, values in cases.items():
            assert floattext.shortest(np.array(values))[3].all(), name
        assert not floattext.shortest(np.array(kept))[3].any()
    _assert_reprs([x for values in cases.values() for x in values])


@pytest.mark.parametrize("size", [100, 4096])
def test_a_chunk_writes_the_exponent_form_from_wide_values_on(size):
    # WIDE values outside [1e-4, 1e16), and one in 32 of the chunk, else repr writes them
    need = max(floattext.WIDE, size // 32)
    for count in (need - 1, need):
        values = np.full(size, 0.3)
        values[:count - 1] = -1.25e-7
        values[-1] = 3e20
        fallback = floattext.shortest(values)[3]
        assert list(np.flatnonzero(fallback)) == (
            [*range(count - 1), size - 1] if count < need else [])
        _assert_reprs(values)


def test_the_scaling_tables_hold_10_to_the_k_and_the_k_of_each_binade():
    powers, ks, bounds = floattext._tables()[0]
    for j in range(-280, 298):  # column j, negative j from the end
        hi, half_high, half_low, ulp, lo = powers[:, j].tolist()
        exact = Fraction(10) ** j
        assert hi == float(exact) and half_high + half_low == hi and ulp == hi * 2.0 ** -53
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact * Fraction(2, 10 ** 32)
        assert (lo == 0) == (0 <= j <= 22)
    # X = x 10^k lies in [1e16, 1e17), or just below where x is the double nearest a power
    # of ten and under it
    low, high = floattext.RANGE
    for e in range(int(np.log2(low)), int(np.log2(high)) + 1):
        binade = e + 1023
        ends = [2.0 ** e, np.nextafter(2.0 ** (e + 1), 0), bounds[binade],
                np.nextafter(bounds[binade], 0)]
        for x in [float(x) for x in ends if low <= x < high]:
            k = int(ks[binade]) - bool(x >= bounds[binade])
            big = Fraction(x) * Fraction(10) ** k
            assert 10 ** 16 <= big < 10 ** 17 or (
                float(Fraction(10) ** (16 - k)) == x and 10 ** 16 * (1 - Fraction(1, 2 ** 52)) < big)


def test_a_column_mixes_positional_and_exponent_rows_across_chunks():
    rng = np.random.default_rng(13)
    values = 10 ** rng.uniform(-30, 30, 600) * rng.choice([-1, 1], 600)
    values[::5] = rng.choice([1e-05, -2e+100, 0.5, -0.1, 1e16, 9.9e-5, 123.25], 120)
    values[3::11] = np.round(values[3::11], 3)  # short positional rows among them
    for chunk in (1, 7, 64, floattext.CHUNK):
        with mock.patch.object(floattext, "CHUNK", chunk):
            _assert_reprs(values)
            _assert_reprs(values[np.abs(values) >= 1e16])  # exponent rows alone
            _assert_reprs(values[np.abs(values) < 1e-4])


def _spring_chain(n: int, seed: int) -> np.ndarray:
    """A fixed-wall chain with disordered spring constants in [0.5, 1.5)."""
    k = np.random.default_rng(seed).uniform(0.5, 1.5, size=n + 1)
    return np.diag(k[:-1] + k[1:]) - np.diag(k[1:-1], 1) - np.diag(k[1:-1], -1)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", ["krawtchouk", "spring"])
def test_decompose_tables_go_through_the_kernel_and_write_repr(kind, fmt, tmp_path):
    # 17% of the entries lie below 1e-4, down to 2.6e-24 and 1.3e-30: the kernel writes all
    # but zeros and powers of two, in the exponent form below 1e-4
    if kind == "krawtchouk":
        model, flags = InteractionModel.krawtchouk(100, ptilde=0.75), [
            "--model", "krawtchouk", "--n", "100", "--ptilde", "0.75"]
    else:
        matrix = _spring_chain(100, 3)
        path = tmp_path / "spring.txt"
        path.write_text("100\n" + " ".join(map(repr, matrix.ravel().tolist())) + "\n")
        model, flags = InteractionModel.general(matrix), ["--model", "file", "--path", str(path)]
    decomp = decompose(model)
    table = np.column_stack((decomp.lambdas, decomp.u.T))
    assert (np.abs(table) < 1e-4).mean() > 0.05
    fallback = floattext.shortest(table.ravel())[3]
    left = np.abs(table.ravel()[fallback])
    assert np.all((left == 0) | (left.view(np.int64) & (2 ** 52 - 1) == 0))
    out = tmp_path / "out.dat"
    assert cli.main(["decompose", *flags, "--format", fmt, "--out", str(out)]) == 0
    assert out.read_text() == decompose_text(decomp, fmt)


@pytest.mark.parametrize("algebra", ["gl", "osp"])
def test_spectra_go_through_repr_for_under_half_a_percent(algebra):
    n = 6
    decomp = decompose(InteractionModel.krawtchouk(n))
    couplings = np.linspace(0.0, 0.9 * critical_coupling(decomp.lambdas), 60)
    freqs = mode_frequencies(decomp, 1.0, list(couplings))
    energy = (gl_levels(gl_classes(n, 4), freqs) if algebra == "gl"
              else levels(osp_classes(n, 2, 5), freqs)).energy
    assert len(energy) > 10_000
    assert floattext.shortest(energy)[3].mean() < 0.005
    _assert_reprs(energy)


def test_an_array_gets_one_more_axis_and_each_row_reads_as_its_own_column():
    rng = np.random.default_rng(5)
    values = 10 ** rng.uniform(-6, 18, (7, 5)) * rng.choice([-1, 1], (7, 5))
    values[0, 0], values[1, 2], values[3, 4] = 0.0, 2.0 ** 10, np.nan  # through repr
    text = floattext.float_text(values)
    assert text.dtype == np.uint8 and text.shape[:2] == values.shape and text.ndim == 3
    for row, column in zip(text, values):
        rendered = [cell.tobytes().replace(b"\0", b"") for cell in row]
        assert rendered == [cell.tobytes().replace(b"\0", b"")
                            for cell in floattext.float_text(column)]
        assert rendered == [repr(value).encode() for value in column.tolist()]
    assert floattext.float_text(values[None]).shape[:3] == (1, 7, 5)
    for shape in [(0,), (0, 3), (3, 0)]:
        assert floattext.float_text(np.zeros(shape)).shape[:-1] == shape
    for value in [2.5] + SPECIAL:
        assert floattext.float_text(value).tobytes().replace(b"\0", b"") == repr(value).encode()


@pytest.mark.parametrize("argv", [
    ["decompose", "--n", "3"], ["decompose", "--n", "3", "--format", "json"],
    ["bounds", "--n", "4", "--format", "csv"], ["bounds", "--n", "4", "--format", "json"]])
def test_a_csv_or_json_table_loads_the_kernel_and_builds_its_tables(argv):
    # the small table has fewer than SHORT floats, the large one more: 14 x 15 and 77 x 3
    large = [argv[0], "--n", "14" if argv[0] == "decompose" else "4..80", *argv[3:]]
    code = ("import sys, wignerosc.cli as cli; assert 'wignerosc.floattext' not in sys.modules; "
            f"cli.main({argv}); from wignerosc import floattext; "
            "assert floattext._tables.cache_info().currsize == 0; "
            f"cli.main({large}); cli.main({large}); info = floattext._tables.cache_info(); "
            "assert (info.misses, info.currsize) == (1, 1)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_kernel_is_loaded_and_its_tables_built_on_first_use():
    # the library and a bounds text table write no CSV or JSON float; a column of
    # fewer than SHORT floats goes through repr alone
    code = ("import sys, wignerosc.cli as cli; from wignerosc import InteractionModel, decompose, "
            "gl_spectrum, mode_frequencies; model = InteractionModel.krawtchouk(3, c=0.1); "
            "gl_spectrum(3, 2, mode_frequencies(decompose(model), 1.0, 0.1)); "
            "cli.main(['bounds', '--n', '4']); assert 'wignerosc.floattext' not in sys.modules; "
            "cli._floats([0.5]); from wignerosc import floattext; "
            "assert floattext._tables.cache_info().currsize == 0; "
            "cli._floats([0.5] * floattext.SHORT); cli._floats([0.5] * floattext.SHORT); "
            "info = floattext._tables.cache_info(); assert (info.misses, info.currsize) == (1, 1)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
