"""Command-line surface: decompositions, coupling tables, spectra, and c-sweeps.

Subcommands
-----------
decompose   eigenvalues/eigenvectors of a coupling matrix, with diagnostics
bounds      critical couplings (and the Krawtchouk closed-form bound)
spectrum    energy spectrum at a single coupling strength
sweep       long-format spectrum dataset over a grid of coupling strengths

Exit codes: 0 success, 2 usage error (a basis build over the byte
budget included), 3 numeric failure, 4 representation-validity failure.
Output files are deterministic: '.' decimal separator, LF line endings,
shortest round-trip floats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .coupling import (CriticalCoupling, critical_coupling, critical_couplings,
                       krawtchouk_coupling_rows)
from .errors import NumericError, ResourceLimitError, UnirrepError, UnitarityError
from .gl_spectrum import gl_classes, gl_levels
from .levels import LevelClasses, MergedLevels
from .osp_spectrum import hook_patterns, osp_classes, osp_levels
from .spectral import (InteractionModel, constant_eigenvalues, decompose, load_matrix,
                       mode_frequencies)

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


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_decompose(args) -> int:
    model = _model_from_flags(args)
    decomp = decompose(model)
    if args.format == "json":
        text = json.dumps({"source": decomp.source,
                           "lambdas": decomp.lambdas.tolist(),
                           "u": decomp.u.tolist()}, indent=2) + "\n"
    else:
        header = "lambda," + ",".join(f"v_{i}" for i in range(1, decomp.n + 1))
        rows = [header]
        for j in range(decomp.n):
            rows.append(",".join([repr(float(decomp.lambdas[j]))]
                                 + [repr(float(x)) for x in decomp.u[:, j]]))
        text = "\n".join(rows) + "\n"
    _emit(text, args.out)
    print(f"orthonormality residual: {decomp.orthonormality:.3e}", file=sys.stderr)
    print(f"reconstruction residual: {decomp.reconstruction:.3e}", file=sys.stderr)
    return EXIT_OK


def _bounds_rows(args) -> list[CriticalCoupling]:
    """The table rows; the first failing size in --n order raises its error."""
    if args.model == "file":
        model = _model_from_flags(args)
        return [CriticalCoupling(
            n=model.n, c_critical=critical_coupling(decompose(model).lambdas,
                                                    omega=args.omega) / args.omega ** 2)]
    sizes = _parse_n_list(args.n)
    short = next((i for i, n in enumerate(sizes) if n < 2), len(sizes))
    if args.model == "krawtchouk":
        rows = krawtchouk_coupling_rows(sizes[:short], omega=args.omega)
    else:  # eigenvalues only: the constant chain's closed form, no eigenvectors
        couplings = critical_couplings([constant_eigenvalues(n) for n in sizes[:short]],
                                       omega=args.omega)
        rows = [CriticalCoupling(n=n, c_critical=c_n / args.omega ** 2)
                for n, c_n in zip(sizes, couplings)]
    if short < len(sizes):
        raise ValueError("bounds need n >= 2")
    return rows


def _cmd_bounds(args) -> int:
    rows = _bounds_rows(args)
    if args.format == "json":
        payload = [{"n": r.n, "c_tilde_over_omega2": r.c_bound,
                    "c_n_over_omega2": r.c_critical, "ratio": r.ratio} for r in rows]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK
    if args.format == "csv":
        lines = ["n,c_tilde_over_omega2,c_n_over_omega2,ratio"]
        for row in rows:
            bound = "" if row.c_bound is None else repr(row.c_bound)
            ratio = "" if row.ratio is None else repr(row.ratio)
            lines.append(f"{row.n},{bound},{repr(row.c_critical)},{ratio}")
    else:  # the five-decimal table
        lines = [f"{'n':>4}  {'bound/omega^2':>13}  {'c_n/omega^2':>11}  {'bound/c_n':>9}"]
        for row in rows:
            bound = f"{row.c_bound:13.5f}" if row.c_bound is not None else " " * 13
            ratio = f"{row.ratio:9.5f}" if row.ratio is not None else " " * 9
            lines.append(f"{row.n:>4}  {bound}  {row.c_critical:11.5f}  {ratio}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _classes(args, n: int) -> LevelClasses:
    """Level classes of the requested representation of an n-mode chain."""
    if args.algebra == "gl":
        if args.p < 0 or not float(args.p).is_integer():
            raise ValueError("gl spectra need a non-negative integer --p")
        return gl_classes(n, int(args.p))
    return osp_classes(n, args.p, args.kmax)


def _levels(args, classes: LevelClasses, freqs) -> MergedLevels:
    """The merged lines of ``classes`` at every coupling of ``freqs``."""
    if args.algebra == "gl":
        return gl_levels(classes, freqs, allow_nonunitary=args.allow_strong)
    return osp_levels(classes, freqs)


def _cmd_spectrum(args) -> int:
    model = _model_from_flags(args, c=args.c)
    decomp, classes = decompose(model), _classes(args, model.n)
    merged = _levels(args, classes, mode_frequencies(decomp, args.omega, model.c))
    # each line's head class key: theta, r_1..r_n for gl; height, s_1..s_n for osp
    first, rest, rest_json = ("theta", "r", "r") if args.algebra == "gl" \
        else ("height", "s", "signature")
    keys = classes.keys[merged.head]
    rows = zip(merged.energy.tolist(), merged.multiplicity.tolist(), keys.tolist())
    if args.format == "json":
        payload = [{"energy": e, "multiplicity": m, first: key[0], rest_json: key[1:]}
                   for e, m, key in rows]
        if args.algebra == "osp":
            for record, pattern in zip(payload, hook_patterns(keys[:, 1:])):
                record["pattern"] = pattern
        text = json.dumps(payload, indent=2) + "\n"
    else:
        header = f"energy,multiplicity,{first}," + ",".join(
            f"{rest}_{j}" for j in range(1, model.n + 1))
        text = "\n".join([header] + [f"{e!r},{m}," + ",".join(map(str, key))
                                     for e, m, key in rows]) + "\n"
    _emit(text, args.out)
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
    decomp = decompose(_model_from_flags(args, c=args.cmin))
    classes = _classes(args, decomp.n)
    if args.algebra == "gl" and not args.allow_strong:
        try:
            c_n = critical_coupling(decomp.lambdas, omega=args.omega)
        except NumericError:
            c_n = None  # weights stay positive for every coupling
        if c_n is not None and args.cmax > c_n:
            raise UnitarityError(
                f"--cmax {args.cmax} exceeds the critical coupling {c_n:.6g}; "
                "pass --allow-strong to sweep past it")

    couplings = [args.cmin + (args.cmax - args.cmin) * i / (args.steps - 1)
                 for i in range(args.steps)]
    merged = _levels(args, classes, mode_frequencies(decomp, args.omega, couplings))
    # theta/r_1-...-r_n for gl, height/s_1-...-s_n for osp: one string per class
    labels = [f"{key[0]}/" + "-".join(map(str, key[1:])) for key in classes.keys.tolist()]
    records = zip([couplings[i] for i in merged.coupling.tolist()], merged.energy.tolist(),
                  merged.multiplicity.tolist(), [labels[h] for h in merged.head.tolist()])
    if args.format == "json":
        payload = [{"c": c, "energy": e, "multiplicity": m, "label": lab}
                   for c, e, m, lab in records]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        rows = ["c,energy,multiplicity,label"]
        rows.extend(f"{c!r},{e!r},{m},{lab}" for c, e, m, lab in records)
        _emit("\n".join(rows) + "\n", args.out)
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
