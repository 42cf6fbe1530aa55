import json
import time
import tracemalloc

import numpy as np
import pytest

from wignerosc import (InteractionModel, build_krawtchouk_matrix, critical_coupling,
                       decompose, gl_spectrum, levels, mode_frequencies, osp_spectrum)
from wignerosc.cli import main


def test_decompose_krawtchouk_csv(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = main(["decompose", "--model", "krawtchouk", "--n", "4",
                 "--ptilde", "0.5", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "lambda,v_1,v_2,v_3,v_4"
    lambdas = [float(r.split(",")[0]) for r in rows[1:]]
    assert lambdas == pytest.approx([0, 1, 2, 3], abs=1e-12)
    assert "residual" in capsys.readouterr().err


def test_decompose_constant_json(tmp_path):
    out = tmp_path / "d.json"
    assert main(["decompose", "--model", "constant", "--n", "4",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["source"] == "analytic"
    assert len(payload["lambdas"]) == 4
    assert payload["lambdas"] == sorted(payload["lambdas"])


def test_decompose_file_model(tmp_path):
    m = 2.5 * np.eye(3)
    path = tmp_path / "m.txt"
    path.write_text("3\n" + " ".join(repr(float(x)) for x in m.ravel()) + "\n")
    out = tmp_path / "d.json"
    assert main(["decompose", "--model", "file", "--path", str(path),
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["source"] == "numeric"
    assert payload["lambdas"] == pytest.approx([2.5, 2.5, 2.5])


def test_bounds_range_matches_table(capsys):
    assert main(["bounds", "--n", "4..10"]) == 0
    text = capsys.readouterr().out
    lines = text.strip().split("\n")
    assert len(lines) == 8  # header + 7 rows
    assert "1.27357" in lines[1] and "0.41667" in lines[1]
    assert "0.06562" in lines[-1]


def test_bounds_single_and_csv(capsys):
    assert main(["bounds", "--n", "100", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "n,c_tilde_over_omega2,c_n_over_omega2,ratio"
    n, ct, cn, ratio = lines[1].split(",")
    assert n == "100"
    assert float(ct) == pytest.approx(0.00041, abs=5e-6)
    assert float(cn) == pytest.approx(0.00042, abs=5e-6)
    assert float(ratio) == pytest.approx(0.98130, abs=5e-6)


def test_bounds_constant_model_has_no_bound_column(capsys):
    assert main(["bounds", "--model", "constant", "--n", "5", "--format", "csv"]) == 0
    line = capsys.readouterr().out.strip().split("\n")[1]
    n, ct, cn, ratio = line.split(",")
    assert ct == "" and ratio == ""
    assert float(cn) > 0


def test_bounds_usage_and_numeric_failures(capsys):
    assert main(["bounds", "--n", "1"]) == 2
    # Krawtchouk n=2 has no finite critical coupling
    assert main(["bounds", "--n", "2"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("sizes", ["4..200", "2", "2,1"])
def test_bounds_refuse_the_ptilde_that_spectrum_refuses(sizes, capsys):
    # the Krawtchouk critical couplings do not depend on ptilde, but the model does
    argv = ["--model", "krawtchouk", "--ptilde", "1.5"]
    assert main(["bounds", "--n", sizes, *argv]) == 2
    bounds_err = capsys.readouterr().err
    assert main(["spectrum", "--algebra", "gl", "--n", "4", "--p", "2", "--c", "0.1", *argv]) == 2
    assert bounds_err == capsys.readouterr().err == \
        "error: krawtchouk coupling needs ptilde in (0,1)\n"


def test_bounds_at_an_omega_whose_bracket_overflows(capsys):
    # doubling the bracket from omega^2 = 1e260 overflows before any sign change
    assert main(["bounds", "--n", "2", "--omega", "1e130"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: smallest weight stays positive up to c = ")
    assert "RuntimeWarning" not in err and err.count("\n") == 1
    assert main(["bounds", "--n", "4", "--omega", "1e130"]) == 0
    assert "1.27357" in capsys.readouterr().out


def test_spectrum_gl_uncoupled(capsys):
    assert main(["spectrum", "--algebra", "gl", "--model", "krawtchouk",
                 "--n", "4", "--p", "2", "--c", "0"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert len(rows) == 3
    e0, m0 = rows[1].split(",")[:2]
    e1, m1 = rows[2].split(",")[:2]
    assert (float(e0), int(m0)) == (pytest.approx(2 / 3, abs=1e-12), 10)
    assert (float(e1), int(m1)) == (pytest.approx(5 / 3, abs=1e-12), 4)


def test_spectrum_osp_line_count(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--algebra", "osp", "--model", "krawtchouk", "--n", "4",
                 "--p", "2", "--c", "0.3", "--kmax", "2", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 16  # header + 1 + 4 + 10


def test_spectrum_unirrep_refusal(capsys):
    code = main(["spectrum", "--algebra", "osp", "--model", "krawtchouk",
                 "--n", "4", "--p", "0.5", "--c", "0.3"])
    assert code == 4
    assert "p in {1..3}" in capsys.readouterr().err


def test_spectrum_gl_strong_coupling_gate(tmp_path, capsys):
    c4 = critical_coupling(np.arange(4.0))
    args = ["spectrum", "--algebra", "gl", "--model", "krawtchouk", "--n", "4",
            "--p", "2", "--c", repr(1.2 * c4)]
    assert main(args) == 4
    assert capsys.readouterr() == (
        "", "error: weights change sign at this coupling; pass --allow-strong to proceed\n")
    out = tmp_path / "strong.csv"
    assert main(args + ["--allow-strong", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 15


def test_spectrum_gl_fractional_p_rejected(capsys):
    assert main(["spectrum", "--algebra", "gl", "--model", "krawtchouk",
                 "--n", "4", "--p", "1.5", "--c", "0.1"]) == 2
    capsys.readouterr()


def test_sweep_gl_dataset(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--algebra", "gl", "--model", "krawtchouk", "--n", "4",
                 "--p", "2", "--cmin", "0", "--cmax", "1.2", "--steps", "5",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "c,energy,multiplicity,label"
    body = [r.split(",") for r in rows[1:]]
    # multiplicities at each slice sum to dim V(2) = 14
    per_c = {}
    for c, _, m, _ in body:
        per_c[c] = per_c.get(c, 0) + int(m)
    assert len(per_c) == 5
    assert set(per_c.values()) == {14}
    # slices appear in grid order; energies ascend within a slice
    cs = [float(r[0]) for r in body]
    assert cs == sorted(cs)
    # labels carry theta/r
    assert body[0][3] == "0/0-0-0-2"


def test_sweep_gl_respects_critical_coupling(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["sweep", "--algebra", "gl", "--model", "krawtchouk", "--n", "4",
                 "--p", "2", "--cmin", "0", "--cmax", "2.0", "--steps", "3",
                 "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err == ("error: --cmax 2.0 exceeds the critical coupling 1.27357; "
                                       "pass --allow-strong to sweep past it\n")
    assert main(["sweep", "--algebra", "gl", "--model", "krawtchouk", "--n", "4",
                 "--p", "2", "--cmin", "0", "--cmax", "2.0", "--steps", "3",
                 "--allow-strong", "--out", str(out)]) == 0


SPECTRA_AND_BOUNDS = [
    "spectrum --algebra gl --p 2 --c 0.1", "spectrum --algebra osp --p 2 --c 0.1",
    "sweep --algebra gl --p 2 --cmin 0 --cmax 0.2 --steps 3",
    "sweep --algebra osp --p 2 --cmin 0 --cmax 0.2 --steps 3", "bounds"]


@pytest.mark.parametrize("model", ["constant", "krawtchouk"])
def test_spectra_and_bounds_of_the_closed_form_chains_need_no_eigh(model, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for argv in [f"{argv} --n 4" for argv in SPECTRA_AND_BOUNDS] + ["bounds --n 4..9"]:
        assert main(argv.split() + ["--model", model]) == 0, argv
    if model == "krawtchouk":  # its eigenvectors are eigh's, so the patch is in force
        with pytest.raises(AssertionError, match="eigh was called"):
            main(["decompose", "--model", model, "--n", "4"])


def test_a_matrix_file_is_decomposed_once_per_run(tmp_path, monkeypatch):
    import wignerosc.spectral as spectral
    calls = []

    def counted(model):
        calls.append(model.n)
        return decompose(model)

    monkeypatch.setattr(spectral, "decompose", counted)
    path = tmp_path / "m4.txt"
    path.write_text("4\n" + " ".join(repr(float(x)) for x in
                                      build_krawtchouk_matrix(4, 0.4).ravel()) + "\n")
    for argv in SPECTRA_AND_BOUNDS:
        calls.clear()
        assert main(argv.split() + ["--model", "file", "--path", str(path)]) == 0, argv
        assert calls == [4], argv


@pytest.mark.parametrize("flags,message", [
    ("--n 4 --p 2.5", "need n >= 1 and a non-negative integer p, not n = 4, p = 2.5"),
    ("--n 4 --p -1", "need n >= 1 and a non-negative integer p, not n = 4, p = -1.0"),
    ("--n 20 --p 10", "26936910 basis vectors"),
])
def test_sweep_checks_the_basis_before_the_critical_coupling(flags, message, capsys):
    # --cmax 2 lies past c_4 = 1.27 and c_20 = 0.0126, so the pre-check would exit 4
    argv = ["sweep", "--algebra", "gl", "--model", "krawtchouk", *flags.split(),
            "--cmin", "0", "--cmax", "2", "--steps", "3"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err and "critical coupling" not in out.err


def test_sweep_degenerate_grid(tmp_path):
    out = tmp_path / "deg.csv"
    assert main(["sweep", "--algebra", "osp", "--model", "krawtchouk", "--n", "3",
                 "--p", "1", "--cmin", "0", "--cmax", "0", "--steps", "2",
                 "--kmax", "1", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    half = len(rows) // 2
    assert [r.split(",")[1:] for r in rows[:half]] == \
        [r.split(",")[1:] for r in rows[half:]]
    # each slice holds all patterns up to the height cutoff: 1 + n at kmax=1
    assert sum(int(r.split(",")[2]) for r in rows[:half]) == 4


def test_sweep_usage_errors(capsys):
    base = ["sweep", "--algebra", "osp", "--model", "krawtchouk", "--n", "3", "--p", "1"]
    assert main(base + ["--cmin", "-1", "--cmax", "1", "--steps", "3"]) == 2
    assert main(base + ["--cmin", "0", "--cmax", "1", "--steps", "1"]) == 2
    assert main(base + ["--cmin", "2", "--cmax", "1", "--steps", "3"]) == 2
    capsys.readouterr()


def test_determinism_byte_identical(tmp_path):
    args = ["sweep", "--algebra", "osp", "--model", "krawtchouk", "--n", "4",
            "--p", "2", "--cmin", "0", "--cmax", "1.2", "--steps", "7", "--kmax", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_missing_required_flags():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--algebra", "gl", "--n", "4"])
    assert exc.value.code == 2
    # --n absent for a named model is a usage error too
    assert main(["decompose", "--model", "constant"]) == 2


def test_file_model_positive_definiteness_failure(tmp_path, capsys):
    m = np.diag([-1.0, 1.0])
    path = tmp_path / "m.txt"
    path.write_text("2\n" + " ".join(repr(float(x)) for x in m.ravel()) + "\n")
    code = main(["spectrum", "--algebra", "osp", "--model", "file", "--path", str(path),
                 "--p", "1", "--c", "2.0"])
    assert code == 3
    err = capsys.readouterr().err
    assert "positive definite" in err
    assert "mu[0] = -1.0" in err and "np.float64" not in err


def test_indefinite_file_matrix_has_its_critical_coupling(tmp_path, capsys):
    # lambda = (-0.6, 0, 1): the smallest weight vanishes at c = 1.25 < 1/0.6
    path = tmp_path / "m.txt"
    path.write_text("3\n-0.6 0 0\n0 0 0\n0 0 1\n")
    assert main(["bounds", "--model", "file", "--path", str(path)]) == 0
    assert capsys.readouterr().out.split("\n")[1].split() == ["3", "1.25000"]
    assert main(["sweep", "--algebra", "gl", "--model", "file", "--path", str(path),
                 "--p", "1", "--cmin", "0", "--cmax", "1.4", "--steps", "3"]) == 4
    assert "critical coupling" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["decompose", "--n", "0"], "--n must be positive"),
    (["bounds"], "--n is required"),
    (["bounds", "--n", "5..4"], "--n selected no sizes"),
    (["decompose", "--model", "file"], "--model file needs --path"),
])
def test_usage_errors_name_the_flag(argv, message, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"error: {message}" in out.err


def test_gl_sweep_without_a_critical_coupling(capsys):
    # Krawtchouk n = 2: the smallest weight is identically omega
    assert main(["sweep", "--algebra", "gl", "--model", "krawtchouk", "--n", "2", "--p", "1",
                 "--cmin", "0", "--cmax", "5", "--steps", "3"]) == 0
    per_c = {}
    for row in capsys.readouterr().out.strip().split("\n")[1:]:
        c, _, m, _ = row.split(",")
        per_c[c] = per_c.get(c, 0) + int(m)
    assert per_c == {"0.0": 3, "2.5": 3, "5.0": 3}  # dim V(1) = 3 at each coupling


@pytest.mark.parametrize("argv, message", [
    ("spectrum --algebra gl --n 1 --p 2", "gl(1|n) weights need at least two oscillators"),
    ("spectrum --algebra gl --n 1 --p 0 --format json",
     "gl(1|n) weights need at least two oscillators"),
    ("sweep --algebra gl --n 1 --p 2 --cmin 0 --cmax 1 --steps 3",
     "need at least two oscillators"),
    ("sweep --algebra gl --n 1 --p 2 --cmin 0 --cmax 1 --steps 3 --allow-strong",
     "gl(1|n) weights need at least two oscillators"),
])
def test_gl_with_one_oscillator_is_a_usage_error(argv, message, capsys):
    # gl(1|1) has no weights beta_j and no offset p/(n-1); its classes still build
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["decompose"],
    ["bounds"],
    ["spectrum", "--algebra", "osp", "--p", "2", "--c", "0.3"],
    ["sweep", "--algebra", "gl", "--p", "2", "--cmin", "0", "--cmax", "0.2", "--steps", "3"],
])
def test_file_model_refuses_a_conflicting_n(tmp_path, capsys, argv):
    m = build_krawtchouk_matrix(3, 0.4)
    path = tmp_path / "m3.txt"
    path.write_text("3\n" + " ".join(repr(float(x)) for x in m.ravel()) + "\n")
    argv = argv + ["--model", "file", "--path", str(path)]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--n", "3"]) == 0
    assert capsys.readouterr() == plain
    assert main(argv + ["--n", "9"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "error: --n 9 does not match the 3x3 matrix" in out.err


def test_module_entry_point(tmp_path):
    import subprocess
    import sys
    m = build_krawtchouk_matrix(3, 0.4)
    path = tmp_path / "m.txt"
    path.write_text("3\n" + " ".join(repr(float(x)) for x in m.ravel()) + "\n")
    proc = subprocess.run([sys.executable, "-m", "wignerosc", "decompose",
                           "--model", "file", "--path", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("lambda,")


@pytest.mark.parametrize("grid", [["spectrum", "--c", "1e15"],
                                  ["sweep", "--cmin", "0", "--cmax", "1e15", "--steps", "3"]])
def test_gl_energy_forms_that_disagree_exit_3_without_a_traceback(grid):
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "wignerosc", *grid, "--algebra", "gl",
                           "--model", "krawtchouk", "--n", "3", "--p", "2", "--allow-strong"],
                          capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: eigenvalue forms disagree at coupling index ")
    assert "Traceback" not in proc.stderr


ROUND_TRIP = {
    "gl": ["--algebra", "gl", "--model", "constant", "--n", "4", "--p", "3"],
    "osp": ["--algebra", "osp", "--model", "krawtchouk", "--n", "3", "--p", "2.5",
            "--kmax", "3"],
}


def _library_lines(algebra, c):
    model = (InteractionModel.constant(4, c=c) if algebra == "gl"
             else InteractionModel.krawtchouk(3, c=c))
    freqs = mode_frequencies(decompose(model), model.omega, c)
    if algebra == "gl":
        return gl_spectrum(4, 3, freqs)
    return osp_spectrum(3, 2.5, freqs, k_max=3)


def _parse(text, fmt):
    """(energy, multiplicity, integer label columns) per line, numbers read back by float()/json."""
    if fmt == "json":
        return [(row["energy"], row["multiplicity"],
                 [row["theta"], *row["r"]] if "theta" in row
                 else [row["height"], *row["signature"]])
                for row in json.loads(text)]
    rows = [row.split(",") for row in text.strip().split("\n")[1:]]
    return [(float(e), int(m), [int(x) for x in key]) for e, m, *key in rows]


def _library_rows(algebra, c):
    return [(line.energy, line.multiplicity, [line.label[0], *line.label[1]])
            for line in _library_lines(algebra, c)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("algebra", ["gl", "osp"])
def test_spectrum_output_parses_back_to_library_values(algebra, fmt, capsys):
    assert main(["spectrum", *ROUND_TRIP[algebra], "--c", "0.3", "--format", fmt]) == 0
    assert _parse(capsys.readouterr().out, fmt) == _library_rows(algebra, 0.3)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("algebra", ["gl", "osp"])
def test_sweep_output_parses_back_to_library_values(algebra, fmt, capsys):
    assert main(["sweep", *ROUND_TRIP[algebra], "--cmin", "0.1", "--cmax", "0.4",
                 "--steps", "4", "--format", fmt]) == 0
    text = capsys.readouterr().out
    if fmt == "json":
        records = [(row["c"], row["energy"], row["multiplicity"], row["label"])
                   for row in json.loads(text)]
    else:
        records = [(float(c), float(e), int(m), lab) for c, e, m, lab in
                   (row.split(",") for row in text.strip().split("\n")[1:])]
    grid = [0.1 + (0.4 - 0.1) * i / 3 for i in range(4)]
    expected = [(c, e, m, f"{key[0]}/" + "-".join(map(str, key[1:])))
                for c in grid for e, m, key in _library_rows(algebra, c)]
    assert records == expected


@pytest.mark.parametrize("argv", [
    ["spectrum", "--algebra", "osp", "--n", "4", "--p", "2", "--c", "nan"],
    ["spectrum", "--algebra", "gl", "--n", "4", "--p", "2", "--c", "inf"],
    ["spectrum", "--algebra", "osp", "--n", "4", "--p", "2", "--omega", "nan"],
    ["spectrum", "--algebra", "gl", "--n", "4", "--p", "2", "--c", "0.1", "--ptilde", "nan"],
    ["sweep", "--algebra", "osp", "--n", "3", "--p", "1", "--cmin", "nan", "--cmax", "1",
     "--steps", "3"],
    ["sweep", "--algebra", "gl", "--n", "3", "--p", "1", "--cmin", "0", "--cmax", "nan",
     "--steps", "3"],
    ["sweep", "--algebra", "gl", "--n", "3", "--p", "1", "--cmin", "0", "--cmax", "inf",
     "--steps", "3"],
    # finite bounds whose grid overflows mu = omega^2 + c*lambda
    ["sweep", "--algebra", "osp", "--n", "3", "--p", "1", "--cmin", "0", "--cmax", "1e308",
     "--steps", "3"],
    ["bounds", "--n", "4", "--omega", "nan"],
    ["spectrum", "--algebra", "osp", "--n", "3", "--p", "inf", "--kmax", "2", "--c", "0.1"],
    ["spectrum", "--algebra", "osp", "--n", "3", "--p", "nan", "--kmax", "2", "--c", "0.1"],
    ["sweep", "--algebra", "osp", "--n", "3", "--p", "inf", "--kmax", "2", "--cmin", "0",
     "--cmax", "0.1", "--steps", "3"],
    ["sweep", "--algebra", "osp", "--n", "3", "--p", "nan", "--kmax", "2", "--cmin", "0",
     "--cmax", "0.1", "--steps", "3"],
])
def test_non_finite_input_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "error:" in out.err


@pytest.mark.parametrize("entry", ["nan", "inf"])
def test_non_finite_matrix_file_is_a_usage_error(tmp_path, capsys, entry):
    path = tmp_path / "m.txt"
    path.write_text(f"2\n1.0 {entry}\n{entry} 1.0\n")
    assert main(["spectrum", "--algebra", "osp", "--model", "file", "--path", str(path),
                 "--p", "1", "--c", "0.5"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--algebra", "gl", "--n", "4", "--p", "2", "--omega", "1e200"],
    ["sweep", "--algebra", "gl", "--n", "4", "--p", "2", "--omega", "1e200",
     "--cmin", "0", "--cmax", "0.1", "--steps", "3"],
    ["sweep", "--algebra", "osp", "--n", "3", "--p", "1", "--omega", "1e200",
     "--cmin", "0", "--cmax", "0.1", "--steps", "3"],
    ["bounds", "--n", "4", "--omega", "1e200"],
    ["bounds", "--model", "constant", "--n", "4", "--omega", "1e200"],
])
def test_omega_whose_square_overflows_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "error: omega" in out.err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--algebra", "gl", "--n", "4", "--p", "2", "--c", "0.1"],
    ["sweep", "--algebra", "osp", "--n", "3", "--p", "1", "--cmin", "0", "--cmax", "1",
     "--steps", "3"],
    ["bounds", "--n", "4..6"],
])
def test_tol_flag_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum --c 0.1", "sweep --cmin 0 --cmax 0.01 --steps 2"])
def test_oversize_gl_build_is_a_usage_error_before_allocating(command, capsys):
    # dim V(10) of gl(1|20) is 26,936,910 basis vectors: gigabytes of int64 keys
    argv = command.split() + ["--algebra", "gl", "--n", "20", "--p", "10"]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    out = capsys.readouterr()
    assert out.out == ""
    assert "26936910 basis vectors" in out.err and " bytes, beyond the " in out.err


OVER_BUDGET_SWEEP = ("sweep --algebra osp --model krawtchouk --n 8 --p 8 --kmax 10 "
                     "--cmin 0 --cmax 1 --steps 100000")


def test_sweep_grid_over_the_byte_budget_is_refused_at_once(tmp_path, capsys):
    # 43,758 classes x 10^5 couplings: terabytes of energies, lines and text
    out = tmp_path / "sweep.csv"
    start = time.perf_counter()
    assert main(OVER_BUDGET_SWEEP.split() + ["--out", str(out)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(
        "error: the 100000 x 43758 (coupling, class) pairs of the sweep need ")
    assert captured.err.endswith(" bytes, beyond the 536870912-byte guard\n")


@pytest.mark.parametrize("argv", [
    "sweep --algebra osp --model krawtchouk --n 1 --p 1 --kmax 3000 --cmin 0.1 --cmax 0.5 "
    "--steps 12 --format json",
    "sweep --algebra gl --model krawtchouk --n 6 --p 4 --cmin 0.1 --cmax 0.2 --steps 200 "
    "--format json",
])
def test_sweep_byte_guard_covers_the_traced_peak(argv, tmp_path, monkeypatch, capsys):
    # every (coupling, class) pair is its own line here: the most text a grid can make
    args = argv.split() + ["--out", str(tmp_path / "sweep.out")]
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the guard counts more than the peak, and less than 1/0.7 of it
    monkeypatch.setattr(levels, "BYTE_BUDGET", peak)
    assert main(args) == 2 and "beyond the" in capsys.readouterr().err
    monkeypatch.setattr(levels, "BYTE_BUDGET", int(peak / 0.7))
    assert main(args) == 0


@pytest.mark.parametrize("argv, code", [
    ("decompose --model file --path missing.txt", 2),
    ("bounds --n 2,1", 3),
    ("spectrum --algebra gl --model krawtchouk --n 4 --p 2 --c 1.5", 4),
    (OVER_BUDGET_SWEEP, 2),
])
def test_an_error_exit_writes_no_output(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv.split() + ["--format", "json", "--out", "out.json"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_the_parser_is_built_once_and_not_at_import():
    import subprocess
    import sys
    code = ("import wignerosc.cli as cli; assert cli._build_parser.cache_info().currsize == 0; "
            "cli.main(['bounds', '--n', '4']); cli.main(['bounds', '--n', '5']); "
            "info = cli._build_parser.cache_info(); assert (info.misses, info.hits) == (1, 1)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
