"""``cli._floats`` against ``repr``: the shortest round-trip text of every float.

``_floats`` writes a column of ``floattext.SHORT`` or more values from
``floattext.shortest``, a numpy kernel, and the values that kernel leaves out
through ``repr``; a shorter column goes through ``repr`` alone. Each row, its 0
bytes dropped, must be the bytes of ``repr(value)``, on both routes: for random
bit patterns, for the edges of the kernel's range and rules, across chunk seams
and around ``SHORT``.
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

LOW, HIGH = (int(np.float64(x).view(np.int64)) for x in (1e-4, 1e16))


def _assert_reprs(values):
    """The kernel (``SHORT`` patched to 0) and the short route each write ``values`` as repr."""
    values = np.asarray(values, dtype=float)
    for short in (0, len(values) + 1):
        with mock.patch.object(floattext, "SHORT", short):
            rows = cli._floats(values)
        assert rows.dtype == np.uint8 and len(rows) == len(values)
        assert [row.tobytes().replace(b"\0", b"") for row in rows] == [
            repr(value).encode() for value in values.tolist()], short


def _as_floats(bits: list[int]) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


finite_bits = st.integers(0, 2 ** 64 - 1).filter(
    lambda bits: np.isfinite(_as_floats([bits])[0]))
# the kernel's range, either sign
kernel_bits = st.tuples(st.integers(LOW, HIGH - 1), st.booleans()).map(
    lambda pair: pair[0] | (pair[1] << 63))


@settings(max_examples=150, deadline=None)
@given(st.lists(finite_bits, min_size=1, max_size=40))
def test_every_finite_double_is_written_as_its_repr(bits):
    _assert_reprs(_as_floats(bits))


@settings(max_examples=300, deadline=None)
@given(st.lists(kernel_bits, min_size=1, max_size=40))
def test_doubles_in_the_kernel_range_are_written_as_their_repr(bits):
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
    cases = {
        "zero and non-finite": [0.0, -0.0, float("inf"), float("nan")],
        "outside [1e-4, 1e16)": [5e-324, 9.9e-5, 1e16, -3e20],
        "powers of two": [2.0 ** e for e in range(-13, 54)],
        "exact ties of two 16-digit candidates": [600000000000000.75, 600000000000000.25],
        "an exact tie of two 17-digit candidates": [1181393090741442.75],
    }
    for name, values in cases.items():
        assert floattext.shortest(np.array(values))[3].all(), name
    assert not floattext.shortest(np.array([1.5, 0.1, 1e-4, 9999999999999998.0, 3.0]))[3].any()


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
