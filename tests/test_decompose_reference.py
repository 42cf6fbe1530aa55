"""CLI ``decompose`` and ``bounds --model file`` output against recorded references.

The files in ``tests/data/decompose`` were written by the implementation
whose Krawtchouk eigenvectors came from the closed-form Krawtchouk sum and
whose file-matrix eigensystems came from a cyclic Jacobi solver. Sizes
stay where that closed form is accurate (orthonormal to 1e-12): ptilde 0.3
up to n = 14 and ptilde 0.8 up to n = 8. ``matrix_n12.txt`` is
``B @ B.T / 12`` with ``B`` 12 x 12 standard normal from
``numpy.random.default_rng(2026)``, written with 17 significant digits.

Numbers are compared to 1e-12 (absolute), not byte for byte: a different
eigensolver may move the last digits. Everything else must be equal:
headers, shapes, keys, ``source`` and integer fields.
"""

import json
import math
from pathlib import Path

import pytest

from wignerosc.cli import main

DATA = Path(__file__).parent / "data" / "decompose"
MATRIX = str(DATA / "matrix_n12.txt")
TOL = 1e-12

CASES = {
    "constant_n6.csv": "decompose --model constant --n 6",
    "constant_n20.json": "decompose --model constant --n 20 --format json",
    "krawtchouk_p03_n14.csv": "decompose --model krawtchouk --ptilde 0.3 --n 14",
    "krawtchouk_p03_n14.json": "decompose --model krawtchouk --ptilde 0.3 --n 14 --format json",
    "krawtchouk_p08_n8.json": "decompose --model krawtchouk --ptilde 0.8 --n 8 --format json",
    "file_n12.csv": f"decompose --model file --path {MATRIX}",
    "file_n12.json": f"decompose --model file --path {MATRIX} --format json",
    "bounds_file_n12.csv": f"bounds --model file --path {MATRIX} --format csv",
    "bounds_file_n12.json": f"bounds --model file --path {MATRIX} --format json",
}


def _csv(text):
    header, *rows = text.splitlines()
    return {"header": header,
            "rows": [[float(x) if x else None for x in row.split(",")] for row in rows]}


def _assert_close(got, want, where="$"):
    """Equal structure and non-float values; floats within TOL."""
    if isinstance(want, float):
        assert isinstance(got, float) and math.isfinite(got), where
        assert abs(got - want) <= TOL, f"{where}: {got!r} vs {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_reference(name, capsys):
    assert main(CASES[name].split()) == 0
    got = capsys.readouterr().out
    parse = json.loads if name.endswith(".json") else _csv
    _assert_close(parse(got), parse((DATA / name).read_text(encoding="ascii")))
