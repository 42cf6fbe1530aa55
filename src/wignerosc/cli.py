"""Command-line surface: decompositions, coupling tables, spectra, and c-sweeps.

Subcommands
-----------
decompose   eigenvalues/eigenvectors of a coupling matrix, with diagnostics
bounds      critical couplings (and the Krawtchouk closed-form bound)
spectrum    energy spectrum at a single coupling strength
sweep       long-format spectrum dataset over a grid of coupling strengths

Only decompose builds eigenvectors. bounds, spectrum and sweep read ``spectral.eigenvalues``:
closed forms, or for --model file the eigenvalues of one checked ``decompose``.

Exit codes: 0 success, 2 usage error (a basis build over the byte
budget included), 3 numeric failure, 4 representation-validity failure.
CSV and JSON use '.' decimals, LF line endings and shortest round-trip floats; decompose agrees
to 1e-12 across LAPACK kernels, and spectrum/sweep energies follow the BLAS ddot kernel.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .coupling import coupling_rows
from .errors import NumericError, ResourceLimitError, UnirrepError, UnitarityError
from .gl_spectrum import gl_classes, gl_levels
from .levels import LevelClasses, MergedLevels, check_bytes, levels
from .osp_spectrum import osp_classes
from .spectral import InteractionModel, decompose, eigenvalues, load_matrix, mode_frequencies

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_REPRESENTATION = 4


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=("constant", "krawtchouk", "file"),
                        default="krawtchouk", help="coupling matrix family")
    parser.add_argument("--path", help="matrix file for --model file")
    parser.add_argument("--n", dest="n", help="number of oscillators")
    parser.add_argument("--ptilde", type=float, default=0.5,
                        help="Krawtchouk parameter in (0,1)")
    parser.add_argument("--omega", type=float, default=1.0, help="natural frequency")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="output file (default: stdout)")


@functools.cache  # built on the first main(), not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerosc",
        description="Spectra of coupled oscillator chains in gl(1|n) and osp(1|2n) modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="eigendecomposition of the coupling matrix")
    _add_model_flags(p_dec)
    _add_output_flags(p_dec)

    p_bnd = sub.add_parser("bounds", help="critical coupling strengths")
    _add_model_flags(p_bnd)
    _add_output_flags(p_bnd)
    p_bnd.set_defaults(format=None)

    p_spec = sub.add_parser("spectrum", help="energy spectrum at one coupling strength")
    _add_model_flags(p_spec)
    _add_output_flags(p_spec)
    p_spec.add_argument("--algebra", choices=("gl", "osp"), required=True)
    p_spec.add_argument("--p", type=float, required=True, help="representation label")
    p_spec.add_argument("--c", type=float, default=0.0, help="coupling strength")
    p_spec.add_argument("--kmax", type=int, default=3,
                        help="top-row weight cutoff (osp only)")
    p_spec.add_argument("--allow-strong", action="store_true",
                        help="compute the gl spectrum even past the critical coupling")

    p_swp = sub.add_parser("sweep", help="spectrum dataset over a coupling grid")
    _add_model_flags(p_swp)
    _add_output_flags(p_swp)
    p_swp.add_argument("--algebra", choices=("gl", "osp"), required=True)
    p_swp.add_argument("--p", type=float, required=True)
    p_swp.add_argument("--cmin", type=float, required=True)
    p_swp.add_argument("--cmax", type=float, required=True)
    p_swp.add_argument("--steps", type=int, required=True)
    p_swp.add_argument("--kmax", type=int, default=3)
    p_swp.add_argument("--allow-strong", action="store_true")
    return parser


def _parse_n(value: str | None) -> int:
    if value is None:
        raise ValueError("--n is required for this model")
    n = int(value)
    if n < 1:
        raise ValueError("--n must be positive")
    return n


def _parse_n_list(value: str | None) -> list[int]:
    """Accept '7', '4..10', or a comma-separated list."""
    if value is None:
        raise ValueError("--n is required")
    out: list[int] = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, hi = chunk.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(chunk))
    if not out:
        raise ValueError("--n selected no sizes")
    return out


def _model_from_flags(args, c: float = 0.0, n: int | None = None) -> InteractionModel:
    """The model the flags describe; ``n``, when given, replaces ``--n``."""
    if args.model == "file":
        if not args.path:
            raise ValueError("--model file needs --path")
        matrix = load_matrix(args.path)
        if args.n is not None and _parse_n_list(args.n) != [len(matrix)]:
            raise ValueError(f"--n {args.n} does not match the {len(matrix)}x{len(matrix)} "
                             "matrix in --path")
        return InteractionModel.general(matrix, omega=args.omega, c=c)
    if n is None:
        n = _parse_n(args.n)
    if args.model == "constant":
        return InteractionModel.constant(n, omega=args.omega, c=c)
    return InteractionModel.krawtchouk(n, omega=args.omega, c=c, ptilde=args.ptilde)


def _emit(parts: list[str], out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _json_item(item, depth: int = 0) -> str:
    """The text ``json.dumps(items, indent=2)`` gives ``item`` as an element of a list.

    The list is nested ``depth`` lists deep. Each "%s" string in ``item`` becomes a bare
    slot for text already in json form: json writes ints and finite floats as their repr,
    so the filled text is json's own, without its pure-Python encoder.
    """
    pad = "  " * (depth + 1)
    template = json.dumps(item, indent=2).replace('"%s"', "%s")
    return pad + template.replace("\n", "\n" + pad)


#: bytes of output grid rendered at a time: a chunk stays in cache, and the grid adds
#: one chunk to the memory of the text (256 KiB filled faster than 1 MiB or 64 KiB)
_CHUNK_BYTES = 2 ** 18


def _digits(ints: np.ndarray) -> np.ndarray:
    """Non-negative ints as right-aligned decimal digits along a new last axis.

    Every value gets as many bytes as the largest; its leading zeros are 0 bytes.
    """
    rest = np.asarray(ints, dtype=np.int64)
    if rest.min() < 0:
        raise ValueError("_digits writes non-negative ints only")
    top = int(rest.max())
    rest = rest.astype(np.min_scalar_type(top))  # the narrowest unsigned type divides fastest
    width = len(str(top))
    out = np.empty(rest.shape + (width,), dtype=np.uint8)
    for place in range(width - 1, -1, -1):  # one pass per place, ones first
        quotient = rest // 10
        digit = rest - quotient * 10 + 48
        out[..., place] = digit if place == width - 1 else digit * (rest > 0)
        rest = quotient
    return out


def _floats(values) -> np.ndarray:
    """``repr`` of each float as uint8 text along a new last axis (``floattext.float_text``:
    through ``repr`` below ``floattext.SHORT`` values, through its numpy kernel above)."""
    from .floattext import float_text  # imported on first use: a bounds text table never is

    return float_text(values)


def _fill(template: str, columns: list[np.ndarray]) -> list[str]:
    """``"".join(template % row for row in rows)`` in chunks, slots filled from byte matrices.

    Every "%s" of ``template`` (which holds no other % directive) takes the
    next (rows, width) matrix of ``columns``, whose row i is row i's text
    with 0 bytes anywhere as padding. The text between slots is written into
    the grid once, the columns a chunk of rows at a time, and the 0 bytes dropped.
    """
    parts = template.encode("ascii").split(b"%s")
    line, slots = bytearray(), []  # one grid row, its slots 0 bytes
    for part, column in zip(parts, columns):
        line += part
        slots.append((len(line), len(line) + column.shape[1], column))
        line += bytes(column.shape[1])
    line += parts[-1]
    rows = len(columns[0])
    step = max(1, _CHUNK_BYTES // len(line))
    grid = np.empty((min(step, rows), len(line)), dtype=np.uint8)
    grid[:] = np.frombuffer(line, dtype=np.uint8)
    chunks = []
    for start in range(0, rows, step):
        block = grid[:min(step, rows - start)]
        for lo, hi, column in slots:
            block[:, lo:hi] = column[start:start + step]
        chunks.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return chunks


def _json_lines(template: str, columns: list[np.ndarray], depth: int = 0) -> list[str]:
    """``_fill`` chunks of ``json.dumps(items, indent=2)`` of a non-empty list nested ``depth``
    lists deep, and at depth 0 the newline after it.

    ``template`` is the ``_json_item`` text of an item at that depth, whose "%s" slots
    take ``columns`` in order. A first column opens the list or separates items, a last
    one closes the list after the last item.
    """
    rows = len(columns[0])
    lead = np.tile(np.frombuffer(b",\n", dtype=np.uint8), (rows, 1))
    lead[0] = np.frombuffer(b"[\n", dtype=np.uint8)
    end = b"\n" + b"  " * depth + b"]" + b"\n" * (depth == 0)
    close = np.zeros((rows, len(end)), dtype=np.uint8)
    close[-1] = np.frombuffer(end, dtype=np.uint8)
    return _fill("%s" + template + "%s", [lead, *columns, close])


@functools.cache  # json's pure-Python indenting encoder runs once per layout, not per job
def _line_item(command: str, algebra: str, n: int) -> str:
    """``_json_item`` of one line of a ``spectrum`` or ``sweep`` table of an n-mode chain."""
    if command == "sweep":
        return _json_item({"c": "%s", "energy": "%s", "multiplicity": "%s",
                           "label": "%s/" + "-".join(["%s"] * n)})
    first, rest = ("theta", "r") if algebra == "gl" else ("height", "signature")
    item = {"energy": "%s", "multiplicity": "%s", first: "%s", rest: ["%s"] * n}
    if algebra == "osp":  # the hook pattern: length-j row (s_j, 0, ..., 0), top first
        item["pattern"] = [["%s"] + [0] * (j - 1) for j in range(n, 0, -1)]
    return _json_item(item)


def _cmd_decompose(args) -> int:
    decomp = decompose(_model_from_flags(args))
    # row j: lambda_j, then eigenvector j (column j of u)
    text = _floats(np.column_stack((decomp.lambdas, decomp.u.T)))
    if args.format == "json":  # item i of "u" is row i of u, entry j of it text[j, 1 + i]
        parts = ['{\n  "source": %s,\n  "lambdas": ' % json.dumps(decomp.source),
                 *_json_lines(_json_item("%s", 1), [text[:, 0]], 1), ',\n  "u": ',
                 *_json_lines(_json_item(["%s"] * decomp.n, 1), list(text[:, 1:]), 1), "\n}\n"]
    else:
        parts = ["lambda," + ",".join(f"v_{i}" for i in range(1, decomp.n + 1)) + "\n",
                 *_fill("%s," * decomp.n + "%s\n", list(text.transpose(1, 0, 2)))]
    _emit(parts, args.out)
    print(f"orthonormality residual: {decomp.orthonormality:.3e}", file=sys.stderr)
    print(f"reconstruction residual: {decomp.reconstruction:.3e}", file=sys.stderr)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    sizes = None if args.model == "file" else _parse_n_list(args.n)  # a file sets its n
    model = _model_from_flags(args, n=sizes and max(sizes))  # checks the flags once
    rows = coupling_rows(model, sizes or [model.n])
    if args.format is None:  # the five-decimal table
        lines = [f"{'n':>4}  {'bound/omega^2':>13}  {'c_n/omega^2':>11}  {'bound/c_n':>9}"]
        for row in rows:
            bound = f"{row.c_bound:13.5f}" if row.c_bound is not None else " " * 13
            ratio = f"{row.ratio:9.5f}" if row.ratio is not None else " " * 9
            lines.append(f"{row.n:>4}  {bound}  {row.c_critical:11.5f}  {ratio}")
        _emit(["\n".join(lines) + "\n"], args.out)
        return EXIT_OK
    names = ("n", "c_tilde_over_omega2", "c_n_over_omega2", "ratio")
    table = [(row.c_bound, row.c_critical, row.ratio) for row in rows]
    # the bound and ratio exist on every row or on none (Krawtchouk only), so the
    # template writes a None as a fixed null (json) or empty (csv) field
    slots = ["%s"] + ["%s" if value is not None else None for value in table[0]]
    floats = _floats([[value for value in row if value is not None] for row in table])
    columns = [_digits([row.n for row in rows]), *floats.transpose(1, 0, 2)]
    if args.format == "json":
        parts = _json_lines(_json_item(dict(zip(names, slots))), columns)
    else:
        template = ",".join(slot or "" for slot in slots) + "\n"
        parts = [",".join(names) + "\n", *_fill(template, columns)]
    _emit(parts, args.out)
    return EXIT_OK


def _classes(args, n: int) -> LevelClasses:
    """Level classes of the requested representation of an n-mode chain."""
    return gl_classes(n, args.p) if args.algebra == "gl" else osp_classes(n, args.p, args.kmax)


def _levels(args, classes: LevelClasses, freqs) -> MergedLevels:
    """The merged lines of ``classes`` at every coupling of ``freqs``."""
    if args.algebra == "osp":
        return levels(classes, freqs)
    try:
        return gl_levels(classes, freqs, allow_nonunitary=args.allow_strong)
    except UnitarityError:  # the library's message names its keyword, not the flag
        raise UnitarityError("weights change sign at this coupling; "
                             "pass --allow-strong to proceed") from None


def _cmd_spectrum(args) -> int:
    model = _model_from_flags(args, c=args.c)
    lambdas, classes = eigenvalues(model), _classes(args, model.n)
    merged = _levels(args, classes, mode_frequencies(lambdas, args.omega, model.c))
    # each line's head class key: theta, r_1..r_n for gl; height, s_1..s_n for osp
    first, rest = ("theta", "r") if args.algebra == "gl" else ("height", "s")
    columns = [_floats(merged.energy), _digits(merged.multiplicity)]
    columns += list(_digits(classes.keys[merged.head]).transpose(1, 0, 2))
    if args.format == "json":
        if args.algebra == "osp":  # the hook pattern repeats s_n, ..., s_1
            columns += columns[:2:-1]
        parts = _json_lines(_line_item("spectrum", args.algebra, model.n), columns)
    else:
        header = f"energy,multiplicity,{first}," + ",".join(
            f"{rest}_{j}" for j in range(1, model.n + 1))
        parts = [header + "\n", *_fill("%s," * (model.n + 2) + "%s\n", columns)]
    _emit(parts, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if not (math.isfinite(args.cmin) and math.isfinite(args.cmax)):
        raise ValueError("--cmin and --cmax must be finite")
    if args.cmin < 0:
        raise ValueError("--cmin must be non-negative")
    if args.cmax < args.cmin:
        raise ValueError("--cmax must be at least --cmin")
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    model = _model_from_flags(args, c=args.cmin)
    lambdas, classes = eigenvalues(model), _classes(args, model.n)
    # each pair, and each class held while the pairs are evaluated: its keys, weights and
    # multiplicity; the traced peak once the classes are built, text included, was at most
    # 0.92 of this count (n 1-20, 2-20 steps, both formats, --out, counts of 4-300 MB)
    check_bytes((12 * (model.n + 15) * args.steps + 8 * (2 * model.n + 2)) * len(classes.keys),
                f"the {args.steps} x {len(classes.keys)} (coupling, class) pairs of the sweep")
    # cmin + (cmax - cmin) i / (steps - 1), float for float, scaled by 2^k so it cannot overflow
    scale = 2.0 ** (args.steps - 1).bit_length()
    couplings = [args.cmin + (args.cmax / scale - args.cmin / scale) * i / (args.steps - 1) * scale
                 for i in range(args.steps)]
    merged = _levels(args, classes, mode_frequencies(lambdas, args.omega, couplings))
    # each coupling and each class key is written once, and a line takes its coupling's
    # text and its head class's key digits: theta/r_1-...-r_n for gl, height/s_1-...-s_n for osp
    columns = [_floats(couplings)[merged.coupling], _floats(merged.energy),
               _digits(merged.multiplicity)]
    columns += list(_digits(classes.keys)[merged.head].transpose(1, 0, 2))
    del merged  # the text needs the columns only
    if args.format == "json":
        parts = _json_lines(_line_item("sweep", args.algebra, model.n), columns)
    else:
        parts = ["c,energy,multiplicity,label\n",
                 *_fill("%s,%s,%s,%s/" + "-".join(["%s"] * model.n) + "\n", columns)]
    _emit(parts, args.out)
    return EXIT_OK


_HANDLERS = {
    "decompose": _cmd_decompose,
    "bounds": _cmd_bounds,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (UnirrepError, UnitarityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REPRESENTATION
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
