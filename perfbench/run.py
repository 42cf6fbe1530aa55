#!/usr/bin/env python3
"""End-to-end benchmark of wignerosc, with an optional traced per-layer run.

    python3 perfbench/run.py --workload {sweep,spectrum,chain,fock} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout: the program is imported from ./src.
Each workload is a closed loop of one client issuing jobs one after
another in this process: CLI jobs call ``wignerosc.cli.main(argv)``
with stdout captured, the ``fock`` jobs call the library. Every job's
output is checked against the oracles in ``checks.py``.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs a
fixed number of rounds, each once untraced and once with every public
function of every module wrapped (``tracing.py``), and reports the
per-layer metrics and the tracing overhead; spans go to
``.bench_build/perfbench/``. The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

import os
import sys

BLAS_THREADS = 1  # pinned before numpy loads OpenBLAS; fixed so runs are comparable
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
MIN_JOBS = 110        # so that at least ten jobs lie beyond p90
PASSES = 2            # times a measured run executes its job list

END_TO_END = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


# ---------------------------------------------------------------- program

def import_program() -> None:
    """Import wignerosc from this checkout's src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "wignerosc" or m.startswith("wignerosc.")]:
        del sys.modules[name]
    module = importlib.import_module("wignerosc")
    importlib.import_module("wignerosc.cli")
    if Path(module.__file__).resolve().parent != (SRC / "wignerosc").resolve():
        raise ImportError(f"wignerosc imported from {module.__file__}, not from {SRC}")


def _column_pattern(osp, column: tuple[int, ...]):
    """The single-column V(1) pattern whose length-j row starts with column[j-1]."""
    n = len(column)
    rows = tuple((column[n - 1 - i],) + (0,) * (n - 1 - i) for i in range(n))
    return osp.GZPattern(rows=rows, n=n, p=1)


def run_fock(params: dict) -> dict:
    spectral = sys.modules["wignerosc.spectral"]
    fock = sys.modules["wignerosc.fock"]
    osp = sys.modules["wignerosc.osp_spectrum"]
    n, c = params["n"], params["c"]
    model = (spectral.InteractionModel.krawtchouk(n, c=c, ptilde=params["ptilde"])
             if params["model"] == "krawtchouk" else spectral.InteractionModel.constant(n, c=c))
    decomp = spectral.decompose(model)
    freqs = spectral.mode_frequencies(decomp, model.omega, model.c)
    ops = fock.build_fock_operators(n, freqs, params["cutoff"])
    report = fock.verify_compatibility(ops)
    obs = fock.reconstruct_observables(decomp, ops, model)
    lines = fock.fock_spectrum(n, freqs, k_total_max=3)
    pairs = [(col, fock.gz_to_fock(_column_pattern(osp, col)).occupations)
             for col in params["columns"]]
    return dict(ladder=report.max_residual, position=max(obs.position_cc_residuals),
                momentum=max(obs.momentum_cc_residuals), dim=ops.dim,
                lines=[(line.energy, line.multiplicity, line.label) for line in lines],
                correspondence=pairs)


def execute(job: workloads.Job):
    """Run one job in-process: (exit code, output, stderr text)."""
    if job.command == "fock":
        return 0, run_fock(job.params), ""
    cli = sys.modules["wignerosc.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- checking

CHECKERS = {"decompose": checks.check_decompose, "bounds": checks.check_bounds,
            "fock": checks.check_fock}


def check(job: workloads.Job, code, output, err: str) -> checks.Verdict:
    verdict = checks.Verdict()
    known = job.known_defect_possible
    try:
        if code == 3 and known == "krawtchouk-eigenvectors":
            verdict.defects.add(known)  # refused instead of printed: still no eigenvectors
        elif code != 0:
            raise checks.CheckError(f"exit code {code}: {err.strip()[:200]}")
        elif job.command in CHECKERS:
            CHECKERS[job.command](output, job, verdict)
        elif job.params["algebra"] == "gl":
            checks.check_gl(output, job, verdict)
        else:
            checks.check_osp(output, job, verdict)
    except Exception as exc:  # any way an output can be wrong is a failed check
        verdict.problems.append(f"{type(exc).__name__}: {exc}")
    unknown = verdict.defects - {known}
    if unknown:
        verdict.problems.append(f"defect {sorted(unknown)} not expected for this job")
    return verdict


class Results:
    def __init__(self) -> None:
        self.latency_ns: list[int] = []  # one per job
        self.attempted = 0               # one per execution
        self.passed = 0
        self.defects: Counter = Counter()
        self.problems: list[str] = []
        self.rounds = 0

    @property
    def failed(self) -> int:
        return self.attempted - self.passed

    def add(self, job: workloads.Job, verdict: checks.Verdict) -> None:
        self.attempted += 1
        self.passed += verdict.passed
        self.defects.update(verdict.defects)
        if verdict.unexpected:
            self.problems.append(f"{job.cell} {' '.join(job.argv) or job.params['n']}: "
                                 + "; ".join(verdict.problems))

    def jobs_per_s(self) -> float:
        """Passing jobs per second of job time."""
        passing = len(self.latency_ns) * self.passed / self.attempted
        return passing / (sum(self.latency_ns) / 1e9)


# ---------------------------------------------------------------- measuring

def setup(workload) -> tuple[float, checks.Verdict]:
    """Median over repeats of: import wignerosc, run one warm-up job."""
    job = workload.warmup()
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_program()
        code, output, err = execute(job)
        times.append(time.perf_counter() - start)
    return statistics.median(times), check(job, code, output, err)


def run_round(jobs: list, results: Results, tracer: tracing.Tracer | None = None,
              seen: dict | None = None) -> list[int]:
    """Run and check each job once; return the job times in ns.

    ``seen`` maps a job to its last output and verdict: an identical
    output is not checked again.
    """
    times = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = f"{results.rounds}.{i}"
        t0 = time.perf_counter_ns()
        code, output, err = execute(job)
        t1 = time.perf_counter_ns()
        if tracer is not None and isinstance(output, str):
            tracer.add("cli.bytes_out", len(output))
        times.append(t1 - t0)
        last = seen.get(id(job)) if seen is not None else None
        if last is not None and last[0] == (code, output, err):
            verdict = last[1]
        else:
            verdict = check(job, code, output, err)
            if seen is not None:
                seen[id(job)] = ((code, output, err), verdict)
        results.add(job, verdict)
    results.rounds += 1
    return times


def measure(workload, seconds: float) -> Results:
    """PASSES passes over one job list of at least MIN_JOBS jobs, ``seconds`` of job time in all.

    wignerosc is imported afresh before each pass, so nothing a pass
    caches serves the next. Every execution is checked (an output
    identical to the job's output in the pass before keeps its verdict).
    A job's time is its least over the passes, which filters out moments
    in which a shared machine runs this process slowly.
    """
    rounds = [workload.round(r) for r in range(workload.rounds(seconds / PASSES, MIN_JOBS))]
    results, seen = Results(), {}
    for _ in range(PASSES):
        import_program()
        times = [ns for jobs in rounds for ns in run_round(jobs, results, seen=seen)]
        results.latency_ns = (times if not results.latency_ns
                              else list(map(min, results.latency_ns, times)))
    return results


def end_to_end(results: Results, setup_s: float) -> dict[str, float]:
    ms = np.array(results.latency_ns) / 1e6
    return {
        "jobs_per_s": results.jobs_per_s(),
        "job_p50_ms": float(np.percentile(ms, 50)),
        "job_p90_ms": float(np.percentile(ms, 90)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": results.passed / results.attempted,
    }


def traced(workload, label: str) -> tuple[Results, dict[str, float]]:
    """Each of ``trace_rounds`` rounds runs untraced, then traced; the pairs share machine state.

    wignerosc is imported afresh before each, so the traced pass finds no
    cache the untraced one filled.
    """
    rounds = [workload.round(r) for r in range(min(workload.trace_rounds, workload.max_rounds))]
    plain, results = Results(), Results()
    tracer = tracing.Tracer()
    for jobs in rounds:
        import_program()
        plain.latency_ns += run_round(jobs, plain)
        import_program()
        tracer.install()
        try:
            results.latency_ns += run_round(jobs, results, tracer)
        finally:
            tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = plain.jobs_per_s() / results.jobs_per_s() - 1.0
    metrics["trace.accounted_frac"] = (sum(tracer.root_ns_by_job().values())
                                       / sum(results.latency_ns))
    WORKDIR.mkdir(parents=True, exist_ok=True)
    spans = WORKDIR / f"spans-{label}.jsonl"
    tracer.write_spans(spans)
    print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    wall = sum(results.latency_ns) / 1e9
    print(f"traced jobs: {results.attempted} in {len(rounds)} rounds, {wall:.3f} s of job time")
    for layer in tracing.LAYERS:
        share = metrics[f"{layer}.self_s"] / wall
        print(f"  {layer:<13} self {metrics[f'{layer}.self_s']:9.4f} s  {share:7.2%}")
    print(f"untraced jobs_per_s {plain.jobs_per_s():.4f}, traced {results.jobs_per_s():.4f}")
    return results, metrics


# ---------------------------------------------------------------- main

def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one round of the smallest jobs (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "wignerosc" / "__init__.py").is_file():
        print(f"error: no wignerosc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(parents=True, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    inputs = WORKDIR / f"inputs-{label}"
    inputs.mkdir()
    try:
        workload = workloads.make(args.workload, args.seed, inputs, tiny=args.tiny)
        setup_s, warm = setup(workload)
        print(f"workload {args.workload} seed {args.seed}: BLAS threads {BLAS_THREADS}, "
              f"{os.cpu_count()} CPUs, {platform.machine()} {platform.platform()}, "
              f"python {platform.python_version()}, numpy {np.__version__}, "
              f"git {_git_sha()}")
        if args.trace:
            results, metrics = traced(workload, label)
            units = tracing.metric_units()
        else:
            results = measure(workload, args.seconds)
            metrics, units = end_to_end(results, setup_s), END_TO_END
    finally:
        for path in inputs.iterdir():
            path.unlink()
        inputs.rmdir()

    if warm.unexpected:
        results.problems.insert(0, "warm-up job: " + "; ".join(warm.problems))
    print(f"jobs: {len(results.latency_ns)} in {results.rounds} rounds; executions: "
          f"{results.attempted} attempted, {results.passed} passed, {results.failed} failed "
          f"(fail_frac {results.failed / results.attempted:.4f}); "
          f"{sum(results.latency_ns) / 1e9:.3f} s of job time")
    for defect, count in sorted(results.defects.items()):
        print(f"  known defect {defect}: {count} jobs ({checks.KNOWN_DEFECTS[defect]})")
    for problem in results.problems[:20]:
        print(f"  UNEXPECTED {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not results.problems,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
