"""Compare the CLI of two source trees, run for run, on one seeded argv corpus.

    python tools/compare_cli.py --base REV [--seed 1] [--runs 3000]

checks out REV in a temporary local ``git worktree`` and runs every argv
of the corpus through ``wignerosc.cli.main`` in one worker process per
tree: REV's ``src`` and this checkout's ``src``. A run is identical when
its stdout, stderr, exit code and ``--out`` bytes agree. The report gives
the number of identical runs, the runs per command, and the differences
grouped by command, base exit -> change exit and first differing stream,
with one example argv per group. The exit code is 1 when any run differs.

The corpus covers decompose, bounds, spectrum and sweep, both algebras,
the constant, Krawtchouk and file models (positive definite, indefinite,
asymmetric and non-finite matrices), csv and json, with and without
``--out``, and edge cases: --omega 1e130, 3141592.65 and 1e-9 (where a merge
tolerance that did not scale with omega would split or fuse levels), --c and
--cmax 1e15 (where gl energies lose digits) and 1e308, fractional, negative
and non-finite --p, oversize bases, --n lists with n < 2 before or after a
size without a critical coupling, bounds tables up to n = 200, and
--allow-strong.
Matrix files live in one directory that both trees read; each worker
writes ``--out`` files in its own directory under the same relative name.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = "out.dat"

# (name, n, row-major entries) of the matrix files every --model file run may read
MATRICES = {
    "pd4": (4, [2, -1, 0, 0, -1, 2, -1, 0, 0, -1, 2, -1, 0, 0, -1, 2]),
    "dense3": (3, [1.5, 0.25, -0.5, 0.25, 2.0, 0.75, -0.5, 0.75, 0.5]),
    "indefinite3": (3, [0, 1, 0, 1, 0, 1, 0, 1, 0]),
    "diagonal4": (4, [-0.6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2]),
    "asymmetric2": (2, [1, 2, 0, 1]),
    "nan2": (2, [1, "nan", "nan", 1]),
}
# osp builds over the byte guard, refused before their weight lattice is allocated
OVERSIZE_OSP = ("--n 12 --p 12 --kmax 12", "--n 20 --p 21 --kmax 20")


def write_matrices(directory: Path) -> list[str]:
    """Write MATRICES as plain-text files; their paths, and one that does not exist."""
    paths = []
    for name, (n, entries) in MATRICES.items():
        path = directory / f"{name}.txt"
        path.write_text(f"{n}\n" + " ".join(map(str, entries)) + "\n")
        paths.append(str(path))
    return paths + [str(directory / "missing.txt")]


def _model(rng: random.Random, files: list[str], sizes: list[str]) -> list[str]:
    """Model flags; ``sizes`` holds the --n values of a constant or Krawtchouk model."""
    model = rng.choice(("constant", "krawtchouk", "krawtchouk", "krawtchouk", "file"))
    if model == "file":
        flags = ["--model", "file", "--path", rng.choice(files)]
        return flags + (["--n", rng.choice(("2", "3", "4"))] if rng.random() < 0.15 else [])
    flags = ["--model", model] + (["--n", rng.choice(sizes)] if sizes else [])
    if model == "krawtchouk" and rng.random() < 0.2:
        flags += ["--ptilde", rng.choice(("0.3", "0.8", "1.5"))]
    if rng.random() < 0.15:
        flags += ["--omega", rng.choice(("0.5", "2", "2", "1e130", "3141592.65", "1e-9", "nan",
                                         "-1"))]
    return flags


def _output(rng: random.Random, formats: tuple) -> list[str]:
    fmt = rng.choice(formats)
    return (["--format", fmt] if fmt else []) + (["--out", OUT] if rng.random() < 0.3 else [])


def _basis(rng: random.Random, algebra: str) -> list[str]:
    """--n, --p and --kmax of a gl or osp build, small except for a rare oversize one."""
    if algebra == "gl":
        if rng.random() < 0.02:
            return "--n 20 --p 10".split()
        return ["--n", str(rng.randint(1, 6)),
                "--p", rng.choice(("0", "1", "2", "3", "4", "2.5", "-1"))]
    if rng.random() < 0.005:
        return rng.choice(OVERSIZE_OSP).split()
    n = rng.randint(1, 6)
    p = rng.choice([str(p) for p in range(1, n)]
                   + [f"{n - 0.5}", f"{n + 0.25}", f"{n + 3}", "1.5", "0.5", "0", "-1", "inf", "nan"])
    return ["--n", str(n), "--p", p, "--kmax", str(rng.randint(0, 5 if n < 6 else 4))]


def corpus(seed: int, runs: int, files: list[str]) -> list[list[str]]:
    """``runs`` argvs drawn from ``seed``: a tenth each decompose and bounds, the rest
    spectrum and sweep, half of them gl and half osp."""
    rng = random.Random(seed)
    out = []
    for _ in range(runs):
        command = rng.choices(("decompose", "bounds", "spectrum", "sweep"), (1, 1, 4, 4))[0]
        if command == "decompose":
            sizes = ["1", "2", "4", "7", "12", "0", "x"]
            out.append([command] + _model(rng, files, sizes) + _output(rng, ("csv", "json")))
            continue
        if command == "bounds":
            sizes = ["4..10", "2..6", "1", "3,5,7", "5..4", "2..30", "1..3", "4..200", "2,1",
                     "30,2", "3..60"]
            out.append([command] + _model(rng, files, sizes) + _output(rng, (None, "csv", "json")))
            continue
        algebra = rng.choice(("gl", "osp"))
        argv = [command, "--algebra", algebra] + _model(rng, files, [])
        # a matrix file sets n itself
        argv += _basis(rng, algebra)[2 if "--path" in argv else 0:]
        if command == "spectrum":
            argv += ["--c", rng.choice(("0", "0.1", "0.3", "0.37", "1", "5", "-0.2", "1e15",
                                        "1e308", "nan"))]
        else:
            argv += ["--cmin", rng.choice(("0", "0", "0", "0.1", "0.1", "-1")),
                     "--cmax", rng.choice(("0.2", "0.5", "0.5", "1.2", "1.2", "2", "1e15",
                                           "1e308", "inf")),
                     "--steps", rng.choice(("2", "3", "3", "6", "11", "11", "1"))]
        if rng.random() < 0.2:
            argv.append("--allow-strong")
        out.append(argv + _output(rng, ("csv", "json")))
    return out


def _run_one(main, argv: list[str]) -> dict:
    """stdout, stderr, exit code and --out bytes of one in-process CLI run."""
    if os.path.exists(OUT):
        os.remove(OUT)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")  # every run prints its own warnings
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception as exc:  # reported as this run's result, so the corpus goes on
            code = "raised"
            stderr.write("".join(traceback.format_exception_only(type(exc), exc)))
    out = Path(OUT).read_bytes().decode("latin-1") if os.path.exists(OUT) else None
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "out": out}


def _worker(src: str, corpus_file: str, result_file: str) -> None:
    """Run the corpus through the CLI of the package in ``src``; results as JSON."""
    sys.path.insert(0, src)
    import wignerosc
    from wignerosc.cli import main

    if Path(wignerosc.__file__).resolve().parent != Path(src).resolve() / "wignerosc":
        raise ImportError(f"wignerosc imported from {wignerosc.__file__}, not from {src}")
    argvs = json.loads(Path(corpus_file).read_text())
    Path(result_file).write_text(json.dumps([_run_one(main, argv) for argv in argvs]))


def run_trees(srcs: list[Path], argvs: list[list[str]], scratch: Path) -> list[list[dict]]:
    """Run ``argvs`` in one worker process per source tree, at once; results per tree."""
    corpus_file = scratch / "corpus.json"
    corpus_file.write_text(json.dumps(argvs))
    procs = []
    for i, src in enumerate(srcs):
        workdir = scratch / f"tree{i}"
        workdir.mkdir()
        procs.append(subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(Path(src).resolve()),
             str(corpus_file), str(workdir / "result.json")], cwd=workdir))
    for proc in procs:
        if proc.wait() != 0:
            raise RuntimeError(f"worker {proc.args} exited with {proc.returncode}")
    return [json.loads((scratch / f"tree{i}" / "result.json").read_text())
            for i in range(len(srcs))]


def _kind(argv: list[str]) -> str:
    return argv[0] + (" " + argv[argv.index("--algebra") + 1] if "--algebra" in argv else "")


def compare(argvs: list[list[str]], base: list[dict], head: list[dict]) -> dict:
    """Identical-run count, runs per command, and differences grouped with one example each."""
    groups: dict = {}
    same = 0
    for argv, a, b in zip(argvs, base, head):
        diff = [key for key in ("exit", "stdout", "stderr", "out") if a[key] != b[key]]
        if not diff:
            same += 1
            continue
        key = f"{_kind(argv)}: exit {a['exit']} -> {b['exit']}, {diff[0]} differs"
        groups.setdefault(key, [0, " ".join(argv)])[0] += 1
    return {"runs": len(argvs), "identical": same,
            "per_command": dict(sorted(Counter(map(_kind, argvs)).items())),
            "differences": dict(sorted(groups.items(), key=lambda item: -item[1][0]))}


def render(report: dict) -> str:
    lines = [f"{report['identical']} of {report['runs']} runs identical",
             "runs: " + ", ".join(f"{k} {v}" for k, v in report["per_command"].items())]
    for key, (count, example) in report["differences"].items():
        lines.append(f"{count:6d}  {key}\n        e.g. wignerosc {example}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3000)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        tree = scratch / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.base], check=True)
        try:
            (scratch / "data").mkdir()
            argvs = corpus(args.seed, args.runs, write_matrices(scratch / "data"))
            base, head = run_trees([tree / "src", ROOT / "src"], argvs, scratch)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
    report = compare(argvs, base, head)
    sys.stdout.write(render(report))
    return 0 if report["identical"] == report["runs"] else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(*sys.argv[2:5])
    else:
        sys.exit(main())
