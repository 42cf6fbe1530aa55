"""Byte-for-byte regression of CLI output against recorded reference files.

The files in ``tests/data/golden`` were written by the per-basis-vector
implementation that preceded the level-class kernel (its osp CSV
printed ``np.float64(x)``; those files hold the plain ``x``). They cover
the two-level gl collapse at c = 0, a gl coupling past c_n with
--allow-strong, and the osp case with exact energy ties that
multiplicity decides (n=5, p=3, kmax=4, ptilde 0.4, c = 1).

The ``spectrum`` files added later were written by the level-class
kernel through the per-algebra writers it then used, before the CLI
printed spectra from the class keys. They cover a p = 0 gl module (one
line, no theta = 1 row), negative gl energies past c_n, osp at n = 1,
and osp at a non-integer p.

Nine files were re-recorded when every energy moved to the one formula
a sum_j sqrt(mu_j) + w . sqrt(mu): their energies moved by a few ulps (and
cancelled gl levels by more), and at c = 0.75 in ``osp_sweep_tie.csv`` an
exact tie of multiplicities 1 and 2 now goes to the smaller multiplicity,
as documented, where a one-ulp difference had decided it before.
"""

from pathlib import Path

import pytest

from wignerosc.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "gl_spectrum_c0.csv": "spectrum --algebra gl --model krawtchouk --n 4 --p 2 --c 0",
    "gl_spectrum_constant.json":
        "spectrum --algebra gl --model constant --n 5 --p 3 --c 0.3 --format json",
    "gl_spectrum_strong.csv":
        "spectrum --algebra gl --model krawtchouk --n 5 --p 2 --c 0.52 --allow-strong",
    "osp_spectrum_tie.json": "spectrum --algebra osp --model krawtchouk --ptilde 0.4 --n 5 "
                             "--p 3 --kmax 4 --c 1.0 --format json",
    "osp_spectrum_tie.csv": "spectrum --algebra osp --model krawtchouk --ptilde 0.4 --n 5 "
                            "--p 3 --kmax 4 --c 1.0",
    "gl_spectrum_p0.csv": "spectrum --algebra gl --model constant --n 3 --p 0 --c 0.2",
    "gl_spectrum_negative.json": "spectrum --algebra gl --model krawtchouk --n 4 --p 3 "
                                 "--c 2.0 --allow-strong --format json",
    "osp_spectrum_n1.json": "spectrum --algebra osp --model constant --n 1 --p 0.5 --kmax 3 "
                            "--c 0.4 --format json",
    "osp_spectrum_half_integer_p.json": "spectrum --algebra osp --model krawtchouk --n 3 "
                                        "--p 2.5 --kmax 3 --c 0.6 --format json",
    "gl_sweep.csv": "sweep --algebra gl --model krawtchouk --n 4 --p 2 --cmin 0 --cmax 1.2 "
                    "--steps 7",
    "gl_sweep_strong.json": "sweep --algebra gl --model constant --n 4 --p 3 --cmin 0 "
                            "--cmax 2 --steps 5 --allow-strong --format json",
    "osp_sweep.json": "sweep --algebra osp --model krawtchouk --n 3 --p 2.5 --kmax 3 "
                      "--cmin 0 --cmax 1 --steps 4 --format json",
    "osp_sweep_tie.csv": "sweep --algebra osp --model krawtchouk --ptilde 0.4 --n 5 --p 3 "
                         "--kmax 4 --cmin 0.5 --cmax 1.0 --steps 3",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name].split()) == 0
    assert capsys.readouterr().out.encode("ascii") == (GOLDEN / name).read_bytes()
