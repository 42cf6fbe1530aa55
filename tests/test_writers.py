"""The CLI's output writers against ``json.dumps(indent=2)`` and the CSV joins they replace.

Every argv of a seeded corpus runs through ``main``. Its output must equal,
byte for byte, the text that ``json.dumps(payload, indent=2) + "\\n"`` or the
row-by-row CSV join makes from the same library records, read through the
CLI's own helpers. The writers format floats as their ``repr``, which equals
json's float text only for finite floats (json writes ``NaN``, ``repr``
``nan``), so every float they get must be finite.

The ``decompose`` and ``bounds`` tables of chosen models and sizes must also
equal, on stdout and in an ``--out`` file, the ``%r`` rows and
``json.dumps`` text of ``oracles.decompose_text`` and ``oracles.bounds_text``.
"""

import json
import math
import random

import pytest

import numpy as np

from wignerosc import cli, decompose, mode_frequencies
from wignerosc.coupling import coupling_rows
from wignerosc.cli import main
from wignerosc.spectral import InteractionModel, load_matrix
from oracles import bounds_text, decompose_text, hook_patterns

# negative and -0.0 entries; its eigenvectors hold -0.0 components too
MATRIX = "3\n2.0 -0.0 -1.0\n-0.0 1.5 0.0\n-1.0 0.0 -0.5\n"
OMEGAS = ("1", "2", "1e130", "1e-9", "3141592.65")


def _decompose(args):
    decomp = decompose(cli._model_from_flags(args))
    payload = {"source": decomp.source, "lambdas": decomp.lambdas.tolist(),
               "u": decomp.u.tolist()}
    rows = ["lambda," + ",".join(f"v_{i}" for i in range(1, decomp.n + 1))]
    for j in range(decomp.n):
        rows.append(",".join([repr(float(decomp.lambdas[j]))]
                             + [repr(float(x)) for x in decomp.u[:, j]]))
    return payload, rows


def _bounds(args):
    sizes = None if args.model == "file" else cli._parse_n_list(args.n)
    model = cli._model_from_flags(args, n=sizes and max(sizes))
    rows = coupling_rows(model, sizes or [model.n])
    payload = [{"n": r.n, "c_tilde_over_omega2": r.c_bound, "c_n_over_omega2": r.c_critical,
                "ratio": r.ratio} for r in rows]
    lines = ["n,c_tilde_over_omega2,c_n_over_omega2,ratio"]
    for r in rows:
        bound = "" if r.c_bound is None else repr(r.c_bound)
        ratio = "" if r.ratio is None else repr(r.ratio)
        lines.append(f"{r.n},{bound},{repr(r.c_critical)},{ratio}")
    return payload, lines


def _spectrum(args):
    model = cli._model_from_flags(args, c=args.c)
    classes = cli._classes(args, model.n)
    merged = cli._levels(args, classes, mode_frequencies(decompose(model), args.omega, model.c))
    first, rest, rest_json = ("theta", "r", "r") if args.algebra == "gl" \
        else ("height", "s", "signature")
    keys = classes.keys[merged.head]
    rows = list(zip(merged.energy.tolist(), merged.multiplicity.tolist(), keys.tolist()))
    payload = [{"energy": e, "multiplicity": m, first: key[0], rest_json: key[1:]}
               for e, m, key in rows]
    if args.algebra == "osp":
        for record, pattern in zip(payload, hook_patterns(keys[:, 1:])):
            record["pattern"] = pattern
    header = f"energy,multiplicity,{first}," + ",".join(
        f"{rest}_{j}" for j in range(1, model.n + 1))
    return payload, [header] + [f"{e!r},{m}," + ",".join(map(str, key)) for e, m, key in rows]


def _sweep(args):
    decomp = decompose(cli._model_from_flags(args, c=args.cmin))
    classes = cli._classes(args, decomp.n)
    couplings = [args.cmin + (args.cmax - args.cmin) * i / (args.steps - 1)
                 for i in range(args.steps)]
    merged = cli._levels(args, classes, mode_frequencies(decomp, args.omega, couplings))
    labels = [f"{key[0]}/" + "-".join(map(str, key[1:])) for key in classes.keys.tolist()]
    records = list(zip([couplings[i] for i in merged.coupling.tolist()],
                       merged.energy.tolist(), merged.multiplicity.tolist(),
                       [labels[h] for h in merged.head.tolist()]))
    payload = [{"c": c, "energy": e, "multiplicity": m, "label": lab}
               for c, e, m, lab in records]
    return payload, ["c,energy,multiplicity,label"] + [
        f"{c!r},{e!r},{m},{lab}" for c, e, m, lab in records]


REFERENCE = {"decompose": _decompose, "bounds": _bounds, "spectrum": _spectrum,
             "sweep": _sweep}


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)


def _model(rng):
    flags = ["--model", rng.choice(("constant", "krawtchouk"))]
    return flags + (["--ptilde", rng.choice(("0.3", "0.8"))] if rng.random() < 0.3 else [])


def _basis(rng, algebra):
    if algebra == "gl":
        return ["--n", str(rng.randint(2, 5)), "--p", str(rng.randint(0, 4))]
    n = rng.randint(1, 5)
    p = rng.choice([str(p) for p in range(1, n)] + [f"{n - 0.5}", f"{n + 0.25}", f"{n + 3}"])
    return ["--n", str(n), "--p", p, "--kmax", str(rng.randint(0, 4))]


def corpus(seed, matrix):
    """Seeded argvs over every subcommand and format, all of them successful runs.

    Couplings are at most 0.05 omega^2, below every gl critical coupling up
    to n = 5 (c_n / omega^2 >= 0.517); c = 0, where every level of a height
    merges, is drawn a third of the time.
    """
    rng = random.Random(seed)
    argvs = []
    for fmt in ("csv", "json"):
        output = ["--format", fmt]
        argvs.append(["decompose", "--model", "file", "--path", matrix] + output)
        argvs.append(["bounds", "--model", "file", "--path", matrix] + output)
        argvs.append(["bounds", "--model", "constant", "--n", "4..9"] + output)
        for _ in range(6):
            argvs.append(["decompose"] + _model(rng) + ["--n", rng.choice("12358"),
                                                        "--omega", rng.choice(OMEGAS)] + output)
            argvs.append(["bounds"] + _model(rng) + ["--n", rng.choice(("4", "4..12", "5,7,9")),
                                                     "--omega", rng.choice(OMEGAS)] + output)
            for algebra in ("gl", "osp"):
                omega = rng.choice(OMEGAS)
                flags = _model(rng) + _basis(rng, algebra) + ["--omega", omega]
                omega2 = float(omega) ** 2
                c = rng.choice((0.0, 0.01, 0.05)) * omega2
                argvs.append(["spectrum", "--algebra", algebra] + flags + ["--c", repr(c)]
                             + output)
                argvs.append(["sweep", "--algebra", algebra] + flags
                             + ["--cmin", repr(rng.choice((0.0, 0.01)) * omega2),
                                "--cmax", repr(0.05 * omega2),
                                "--steps", str(rng.randint(2, 6))] + output)
    return argvs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_writers_match_json_dumps_and_the_csv_join(seed, tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(MATRIX)
    argvs = corpus(seed, str(path))
    assert {argv[0] for argv in argvs} == set(REFERENCE)
    for argv in argvs:
        args = cli._build_parser().parse_args(argv)
        payload, csv_lines = REFERENCE[args.command](args)
        assert all(math.isfinite(x) for x in _floats(payload)), argv
        assert main(argv) == 0, argv
        text = capsys.readouterr().out
        if args.format == "json":
            assert text == json.dumps(payload, indent=2) + "\n", argv
        else:
            assert text == "\n".join(csv_lines) + "\n", argv


def test_corpus_reaches_the_edge_cases(tmp_path):
    argvs = [" ".join(argv) for seed in (1, 2, 3)
             for argv in corpus(seed, str(tmp_path / "m.txt"))]
    assert any("--n 1 " in a and a.startswith("decompose") for a in argvs)
    for command in ("spectrum --algebra gl", "spectrum --algebra osp",
                    "sweep --algebra gl", "sweep --algebra osp"):
        runs = [a for a in argvs if a.startswith(command)]
        assert any("--c 0.0 " in a or "--cmin 0.0 " in a for a in runs), command
        assert any("--omega 1e130" in a for a in runs) and any("--omega 1e-9" in a for a in runs)
    assert any(a.startswith("spectrum --algebra osp") and "--n 1 " in a for a in argvs)
    assert any(a.startswith("sweep --algebra osp") and "--n 1 " in a for a in argvs)


def test_file_model_output_holds_negative_and_signed_zero_entries(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(MATRIX)
    assert main(["decompose", "--model", "file", "--path", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    values = payload["lambdas"] + [x for row in payload["u"] for x in row]
    assert min(values) < 0 and any(x == 0 and math.copysign(1, x) < 0 for x in values)


def test_constant_model_bounds_json_writes_null_fields(capsys):
    assert main(["bounds", "--model", "constant", "--n", "4,6", "--format", "json"]) == 0
    text = capsys.readouterr().out
    assert text.count('"c_tilde_over_omega2": null,') == 2 and text.count('"ratio": null') == 2


def _matrix_file(path, n):
    """A symmetric n x n matrix with negative and -0.0 entries, written as a matrix file."""
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)).round(3)
    m = m + m.T
    if n > 1:
        m[0, -1] = m[-1, 0] = -0.0
    path.write_text(f"{n}\n" + " ".join(map(repr, m.ravel().tolist())) + "\n")
    return str(path)


def _model_and_flags(kind, n, tmp_path):
    if kind == "file":
        path = _matrix_file(tmp_path / "m.txt", n)
        return InteractionModel.general(load_matrix(path), omega=1.0, c=0.0), [
            "--model", "file", "--path", path]
    return getattr(InteractionModel, kind)(n), ["--model", kind, "--n", str(n)]


def _assert_writes(argv, text, tmp_path, capsys):
    """stdout of ``argv``, and the file it writes with --out, are ``text``."""
    assert main(argv) == 0
    assert capsys.readouterr().out == text
    out = tmp_path / "out.dat"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == text.encode("ascii")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [1, 2, 7, 30, 100])
@pytest.mark.parametrize("kind", ["constant", "krawtchouk", "file"])
def test_decompose_writes_the_percent_rows_and_json_dumps(kind, n, fmt, tmp_path, capsys):
    model, flags = _model_and_flags(kind, n, tmp_path)
    _assert_writes(["decompose", *flags, "--format", fmt],
                   decompose_text(decompose(model), fmt), tmp_path, capsys)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind,sizes", [("krawtchouk", "4..200"), ("constant", "4,9,30"),
                                        ("file", "12")])
def test_bounds_writes_the_percent_rows_and_json_dumps(kind, sizes, fmt, tmp_path, capsys):
    n = cli._parse_n_list(sizes)
    model, flags = _model_and_flags(kind, max(n), tmp_path)
    if kind != "file":
        flags[-1] = sizes
    rows = coupling_rows(model, n)
    assert all((row.c_bound is None) == (kind != "krawtchouk") for row in rows)
    _assert_writes(["bounds", *flags, "--format", fmt], bounds_text(rows, fmt), tmp_path, capsys)
