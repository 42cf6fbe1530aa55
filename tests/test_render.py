"""The byte-grid renderer of ``spectrum`` and ``sweep`` against ``template % row``.

``cli._fill`` fills a "%s" template from byte matrices: ``cli._floats`` holds
float reprs, ``cli._digits`` non-negative ints. For every template those two
writers use, its chunks must join to ``"".join(map(template.__mod__, rows))``
byte for byte, also when the rows end one before, at, or one after a chunk
boundary.
"""

import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerosc import cli

EDGE_INTS = (0, 9, 10, 99, 100, 2 ** 63 - 1)
# negative energies come from gl --allow-strong past the critical coupling
EDGE_FLOATS = (-0.0, 5e-324, 1e16, 1e-05, -2.5, -1e-300)

ints = st.sampled_from(EDGE_INTS) | st.integers(0, 2 ** 63 - 1)
floats = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


def _width(template, columns):
    """Bytes in one grid row of ``template`` filled from ``columns``."""
    return len(template) - 2 * template.count("%s") + sum(column.shape[1] for column in columns)


def _assert_fills(template, columns, rows, step):
    """_fill with ``step`` rows a chunk equals the %-join of ``rows``."""
    with mock.patch.object(cli, "_CHUNK_BYTES", step * _width(template, columns)):
        assert "".join(cli._fill(template, columns)) == "".join(map(template.__mod__, rows))


def _draw_shape(data):
    """(n, rows per chunk, rows): 1 row, or one less, as many or one more than a chunk."""
    n = data.draw(st.integers(1, 4), label="n")
    step = data.draw(st.integers(2, 6), label="step")
    return n, step, data.draw(st.sampled_from((1, step - 1, step, step + 1)), label="rows")


def _spectrum_items(n):
    """The CLI's JSON item layouts: gl, then osp with its hook pattern."""
    gl = {"energy": "%s", "multiplicity": "%s", "theta": "%s", "r": ["%s"] * n}
    osp = {"energy": "%s", "multiplicity": "%s", "height": "%s", "signature": ["%s"] * n,
           "pattern": [["%s"] + [0] * (j - 1) for j in range(n, 0, -1)]}
    return gl, osp


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fill_writes_spectrum_tables_like_the_percent_join(data):
    n, step, count = _draw_shape(data)
    energy = data.draw(st.lists(floats, min_size=count, max_size=count), label="energy")
    mult = data.draw(st.lists(ints, min_size=count, max_size=count), label="multiplicity")
    keys = data.draw(st.lists(st.lists(ints, min_size=n + 1, max_size=n + 1),
                              min_size=count, max_size=count), label="keys")
    columns = [cli._floats(energy), cli._digits(mult),
               *cli._digits(np.array(keys, dtype=np.int64)).transpose(1, 0, 2)]
    rows = [(e, m, *key) for e, m, key in zip(energy, mult, keys)]
    gl, osp = _spectrum_items(n)
    _assert_fills("%s," * (n + 2) + "%s\n", columns, rows, step)
    _assert_fills(cli._json_item(gl), columns, rows, step)
    # the pattern's rows take the signature columns again, s_n first
    _assert_fills(cli._json_item(osp), columns + columns[:2:-1],
                  [row + row[:2:-1] for row in rows], step)

    gl_payload = [{"energy": e, "multiplicity": m, "theta": key[0], "r": key[1:]}
                  for e, m, key in zip(energy, mult, keys)]
    osp_payload = [{"energy": e, "multiplicity": m, "height": key[0], "signature": key[1:],
                    "pattern": [[key[j]] + [0] * (j - 1) for j in range(n, 0, -1)]}
                   for e, m, key in zip(energy, mult, keys)]
    with mock.patch.object(cli, "_CHUNK_BYTES", step * _width(cli._json_item(osp), columns)):
        assert "".join(cli._json_lines(cli._json_item(gl), columns)) == json.dumps(
            gl_payload, indent=2) + "\n"
        assert "".join(cli._json_lines(cli._json_item(osp), columns + columns[:2:-1])) == (
            json.dumps(osp_payload, indent=2) + "\n")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fill_writes_sweep_tables_like_the_percent_join(data):
    n, step, count = _draw_shape(data)
    couplings = data.draw(st.lists(floats, min_size=1, max_size=4), label="couplings")
    keys = data.draw(st.lists(st.lists(ints, min_size=n + 1, max_size=n + 1),
                              min_size=1, max_size=5), label="class keys")
    coupling = np.array(data.draw(st.lists(st.integers(0, len(couplings) - 1),
                                           min_size=count, max_size=count)), dtype=np.intp)
    head = np.array(data.draw(st.lists(st.integers(0, len(keys) - 1),
                                       min_size=count, max_size=count)), dtype=np.intp)
    energy = data.draw(st.lists(floats, min_size=count, max_size=count), label="energy")
    mult = data.draw(st.lists(ints, min_size=count, max_size=count), label="multiplicity")
    # a line's label is its head class key, written from the key's digit columns
    columns = [cli._floats(couplings)[coupling], cli._floats(energy), cli._digits(mult),
               *cli._digits(np.array(keys, dtype=np.int64))[head].transpose(1, 0, 2)]
    rows = [(couplings[i], e, m, *keys[h])
            for i, e, m, h in zip(coupling.tolist(), energy, mult, head.tolist())]
    label = "%s/" + "-".join(["%s"] * n)
    _assert_fills("%s,%s,%s," + label + "\n", columns, rows, step)
    template = cli._line_item("sweep", "gl", n)
    _assert_fills(template, columns, rows, step)
    payload = [{"c": c, "energy": e, "multiplicity": m, "label": label % tuple(key)}
               for c, e, m, *key in rows]
    with mock.patch.object(cli, "_CHUNK_BYTES", step * _width(template, columns)):
        assert "".join(cli._json_lines(template, columns)) == json.dumps(
            payload, indent=2) + "\n"


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_fill_at_the_real_chunk_size(extra):
    # rows of the gl n = 3 CSV template, ending one before, at and one after a chunk
    rng = random.Random(extra)
    template = "%s," * 5 + "%s\n"
    energy = [rng.choice((-1, 1)) * rng.random() * 10 ** rng.randint(-8, 8) for _ in range(2)]
    columns = [cli._floats(energy), cli._digits([0, 2 ** 63 - 1]),
               *cli._digits(np.array([[1, 0, 10, 99], [0, 100, 9, 5]])).transpose(1, 0, 2)]
    count = cli._CHUNK_BYTES // _width(template, columns) + extra
    pick = np.array([rng.randrange(2) for _ in range(count)])
    rows = [(energy[i], [0, 2 ** 63 - 1][i], *[[1, 0, 10, 99], [0, 100, 9, 5]][i])
            for i in pick.tolist()]
    assert "".join(cli._fill(template, [column[pick] for column in columns])) == "".join(
        map(template.__mod__, rows))


@settings(max_examples=100, deadline=None)
@given(st.lists(ints, min_size=1, max_size=20))
def test_digits_are_right_aligned_decimal_text(values):
    digits = cli._digits(values)
    width = len(str(max(values)))
    assert digits.shape == (len(values), width)
    for value, row in zip(values, digits.tolist()):
        text = str(value).encode()
        assert bytes(row) == bytes(width - len(text)) + text


def test_digits_of_the_edge_ints_and_a_matrix():
    assert [bytes(row).lstrip(b"\0").decode() for row in cli._digits(EDGE_INTS)] == list(
        map(str, EDGE_INTS))
    matrix = cli._digits(np.array([[0, 5], [12, 300]]))
    assert matrix.shape == (2, 2, 3)
    assert [[bytes(cell).lstrip(b"\0") for cell in row] for row in matrix] == [
        [b"0", b"5"], [b"12", b"300"]]


@pytest.mark.parametrize("values", [[-1], [3, -2, 5], np.array([[0, 1], [-7, 2]])])
def test_digits_refuse_a_negative_int(values):
    with pytest.raises(ValueError, match="non-negative"):
        cli._digits(values)
