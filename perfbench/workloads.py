"""Seeded job generators for the four workloads.

A workload is a tuple of *cells*; round r of a run holds one job per
cell. Three rules keep the mix of a run the same for every seed, so
that runs on different seeds measure the same amount of work and fail
the same jobs:

* a cell's job size is set by a quantile q = frac(u + r * golden ratio)
  of the cell's size range, the k-th of K copies of a cell taking the
  offset u = k / K, so any number of rounds covers the range evenly;
* categorical choices (model, output format, strong coupling) rotate
  with the round, the k-th copy of a cell starting at phase k;
* the other parameters (couplings, ptilde, matrix entries, which (n, p)
  reaches a size, the order of jobs in a round) come from
  ``default_rng([seed, r])``.

Round r is therefore the same whatever ran before it. The program sees
only generated argv lists and matrix files; the inputs a check needs
travel in ``Job.params``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("sweep", "spectrum", "chain", "fock")
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Job:
    cell: str
    command: str                     # CLI subcommand, or "fock" for a library job
    argv: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def known_defect_possible(self) -> str | None:
        """The known defect this job may show, if any (see checks.KNOWN_DEFECTS)."""
        if self.params.get("algebra") == "osp" and self.params.get("format") == "csv":
            return "osp-csv-np-float64"
        if self.command == "decompose" and self.params.get("model") == "krawtchouk":
            return "krawtchouk-eigenvectors"
        return None


def _fmt(x: float) -> str:
    return repr(float(x))


def _model_flags(model: str, n: int, ptilde: float) -> list[str]:
    flags = ["--model", model, "--n", str(n)]
    return flags + (["--ptilde", _fmt(ptilde)] if model == "krawtchouk" else [])


def _osp_ps(n: int) -> list[float]:
    """Unirrep labels: the integers 1..n-1 and a grid of reals above n-1."""
    return [float(p) for p in range(1, n)] + [n - 1 + j / 4 for j in range(1, 13)]


def _p_arg(p: float) -> str:
    return str(int(p)) if float(p).is_integer() else _fmt(p)


class Choice:
    """Size quantile and categorical rotation of one cell in one round."""

    def __init__(self, q: float, phase: int, r: int):
        self.q, self.phase, self.r = q, phase, r

    def pick(self, options, period: int = 1):
        """Rotate through ``options``, advancing every ``period`` rounds."""
        return options[(self.r // period + self.phase) % len(options)]

    def index(self, count: int) -> int:
        return min(int(self.q * count), count - 1)


class Workload:
    CELLS: tuple[str, ...] = ()
    TINY_CELLS: tuple[str, ...] = ()
    trace_rounds = 1
    # Job time of one round on a shared 2-vCPU Xeon (2.0 GHz) VM. It only
    # turns --seconds into a round count (``rounds``), so that a seed and
    # --seconds fix exactly which jobs a run attempts.
    round_seconds = 1.0

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed, self.workdir, self.tiny = seed, workdir, tiny
        self.cells = self.TINY_CELLS if tiny else self.CELLS
        self.max_rounds = 1 if tiny else 10 ** 6
        # copies of a cell start at spread quantiles and consecutive phases
        seen: dict[str, int] = {}
        self.offsets, self.phases = [], []
        for name in self.cells:
            copy = seen.get(name, 0)
            self.offsets.append(copy / self.cells.count(name))
            self.phases.append(copy)
            seen[name] = copy + 1

    def rounds(self, seconds: float, min_jobs: int) -> int:
        """Rounds in a run of about ``seconds`` that holds at least ``min_jobs`` jobs."""
        wanted = max(round(seconds / self.round_seconds), math.ceil(min_jobs / len(self.cells)))
        return min(self.max_rounds, wanted)

    def choice(self, i: int, r: int) -> Choice:
        return Choice((self.offsets[i] + r * GOLDEN) % 1.0, self.phases[i], r)

    def job(self, rng, i: int, cell: str, choice: Choice, r: int) -> Job:
        raise NotImplementedError

    def order(self, rng, jobs: list[Job]) -> list[Job]:
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def round(self, r: int) -> list[Job]:
        rng = np.random.default_rng([self.seed, r])
        return self.order(rng, [self.job(rng, i, cell, self.choice(i, r), r)
                                for i, cell in enumerate(self.cells)])

    def warmup(self) -> Job:
        """A fixed mid-size job of the first cell, the same for every seed."""
        return self.job(np.random.default_rng(0), -1, self.cells[0], Choice(0.5, 0, 0), -1)


# ---------------------------------------------------------------- sweep

class Sweep(Workload):
    """CLI ``sweep`` jobs, gl and osp alternating; cells are bands of levels x steps."""

    BANDS = {"small": (300, 1000), "medium": (1000, 3500), "large": (3500, 9000),
             "tiny": (300, 600)}
    # p50 falls among the medium jobs and p90 among the large ones
    CELLS = tuple(f"{algebra}-{size}" for size, copies in (("small", 2), ("medium", 3),
                                                          ("large", 1))
                  for _ in range(copies) for algebra in ("gl", "osp"))
    TINY_CELLS = ("gl-tiny", "osp-tiny", "gl-tiny", "osp-tiny")
    trace_rounds = 6
    round_seconds = 0.7

    @staticmethod
    @functools.cache
    def sizes(algebra: str) -> list[tuple[tuple, int]]:
        """((n, p, kmax), levels or patterns) for the sweep parameter ranges."""
        if algebra == "gl":
            return [((n, p, None), checks.gl_dimension(n, p))
                    for n in range(4, 11) for p in range(2, 6)]
        return [((n, p, k), checks.osp_pattern_count(n, p, k))
                for n in range(3, 6) for p in _osp_ps(n) for k in range(2, 6)]

    def job(self, rng, i, cell, choice, r) -> Job:
        algebra, band = cell.split("-")
        lo, hi = self.BANDS[band]
        work = lo * (hi / lo) ** choice.q
        model = choice.pick(("krawtchouk", "constant"))
        fmt = choice.pick(("csv", "json"), 2)
        ptilde = float(rng.uniform(0.2, 0.8))
        # a seeded (n, p, kmax) whose basis size x steps hits the target work
        fits = [(key, size) for key, size in self.sizes(algebra) if 20 <= work / size <= 60]
        (n, p, kmax), size = fits[int(rng.integers(len(fits)))]
        steps = round(work / size)
        lambdas = checks.closed_form_lambdas(model, n)
        strong = algebra == "gl" and choice.pick((False, True), 4)
        if algebra == "gl":
            cmax = checks.critical_coupling(lambdas) * float(
                rng.uniform(1.2, 2.5) if strong else rng.uniform(0.3, 0.95))
        else:
            cmax = float(rng.uniform(0.2, 2.0))
        cmin = 0.0 if choice.pick((True, False), 8) else cmax * float(rng.uniform(0.0, 0.5))
        argv = (["sweep", "--algebra", algebra] + _model_flags(model, n, ptilde)
                + ["--p", _p_arg(p)] + (["--kmax", str(kmax)] if kmax is not None else [])
                + ["--cmin", _fmt(cmin), "--cmax", _fmt(cmax), "--steps", str(steps),
                   "--format", fmt] + (["--allow-strong"] if strong else []))
        grid = np.array([cmin + (cmax - cmin) * j / (steps - 1) for j in range(steps)])
        return Job(cell, "sweep", argv, dict(algebra=algebra, n=n, p=p, kmax=kmax, format=fmt,
                                             grid=grid, lambdas=lambdas))

    def order(self, rng, jobs):
        half = len(jobs) // 2  # cells alternate gl, osp
        gl = [jobs[2 * i] for i in rng.permutation(half)]
        osp = [jobs[2 * i + 1] for i in rng.permutation(half)]
        return [job for pair in zip(gl, osp) for job in pair]


# ---------------------------------------------------------------- spectrum

class Spectrum(Workload):
    """CLI ``spectrum`` jobs at one coupling each; no (algebra, n, p, kmax) repeats in a run.

    Each band's keys are sorted by size (levels for gl, patterns for
    osp); a job takes the still unused key at its size quantile.
    """

    BANDS = {"gl-1": (50, 1000), "gl-2": (1000, 3500), "gl-3": (3500, 8000),
             "gl-4": (8000, 16745), "osp-1": (10, 200), "osp-2": (200, 900),
             "osp-3": (900, 2600), "osp-4": (2600, 8200)}
    CELLS = ("gl-1", "gl-2", "gl-2", "gl-3", "gl-3", "gl-4",
             "osp-1", "osp-2", "osp-2", "osp-3", "osp-3", "osp-4")
    TINY_CELLS = ("gl-1", "osp-1")
    trace_rounds = 8
    round_seconds = 0.85

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        super().__init__(seed, workdir, tiny)
        sized = {
            "gl": sorted((checks.gl_dimension(n, p), (n, p))
                         for n in range(3, 13) for p in range(1, 129)),
            "osp": sorted((checks.osp_pattern_count(n, p, k), (n, p, k))
                          for n in range(2, 7) for p in _osp_ps(n) for k in range(2, 7)),
        }
        pools = {band: [key for size, key in sized[band.split("-")[0]] if lo <= size < hi]
                 for band, (lo, hi) in self.BANDS.items()}
        self.keys: list[list] = [[] for _ in self.cells]
        r = 0
        while all(len(pools[cell]) >= self.cells.count(cell) for cell in set(self.cells)):
            for i, cell in enumerate(self.cells):
                pool = pools[cell]
                self.keys[i].append(pool.pop(self.choice(i, r).index(len(pool))))
            r += 1
        self.max_rounds = 1 if tiny else r

    def job(self, rng, i, cell, choice, r) -> Job:
        algebra = cell.split("-")[0]
        model = choice.pick(("krawtchouk", "constant"))
        fmt = choice.pick(("csv", "json"), 2)
        ptilde = float(rng.uniform(0.2, 0.8))
        # the warm-up key (n = 2) lies outside every pool
        key = self.keys[i][r] if r >= 0 else (2, 100) if algebra == "gl" else (2, 1.0, 2)
        n = key[0]
        lambdas = checks.closed_form_lambdas(model, n)
        if algebra == "gl":
            p, kmax = key[1], None
            try:
                c = checks.critical_coupling(lambdas) * float(rng.uniform(0.0, 0.95))
            except ValueError:  # weights stay positive at every coupling
                c = float(rng.uniform(0.0, 1.0))
        else:
            p, kmax = key[1], key[2]
            c = float(rng.uniform(0.0, 2.0))
        argv = (["spectrum", "--algebra", algebra] + _model_flags(model, n, ptilde)
                + ["--p", _p_arg(p)] + (["--kmax", str(kmax)] if kmax is not None else [])
                + ["--c", _fmt(c), "--format", fmt])
        return Job(cell, "spectrum", argv, dict(algebra=algebra, n=n, p=p, kmax=kmax, format=fmt,
                                                grid=np.array([c]), lambdas=lambdas))


# ---------------------------------------------------------------- chain

def _spring_chain(rng, n: int) -> np.ndarray:
    """Fixed-wall chain with disordered spring constants k_0..k_n."""
    k = rng.uniform(0.5, 1.5, size=n + 1)
    return np.diag(k[:-1] + k[1:]) - np.diag(k[1:-1], 1) - np.diag(k[1:-1], -1)


def _dense(rng, n: int) -> np.ndarray:
    b = rng.normal(size=(n, n))
    m = b @ b.T / n
    return 0.5 * (m + m.T)


def _write_matrix(path: Path, m: np.ndarray) -> np.ndarray:
    """Write in the CLI's matrix format; the .17g text reads back as exactly ``m``."""
    rows = "\n".join(" ".join(format(float(x), ".17g") for x in row) for row in m)
    path.write_text(f"{m.shape[0]}\n{rows}\n", encoding="ascii")
    return m


class Chain(Workload):
    """CLI ``decompose`` and ``bounds`` jobs over the constant, Krawtchouk and file families."""

    # decompose: n range per cell. The Krawtchouk closed form stays orthonormal
    # to 1e-9 for n <= 14 and is garbage from n = 40 on for ptilde >= 0.3
    # (checks.KNOWN_DEFECTS), so those two cells pass and fail every time.
    DECOMPOSE = {"dec-kraw-small": (4, 14), "dec-kraw-large": (40, 100),
                 "dec-const": (4, 100), "dec-spring": (20, 50),
                 "dec-spring-large": (80, 100), "dec-dense": (10, 40)}
    # p50 falls among the constant-model jobs, p90 among dec-spring and
    # dec-kraw-large, not between two sizes
    CELLS = ("dec-spring", "dec-kraw-small", "dec-kraw-small", "dec-kraw-small",
             "dec-kraw-large", "dec-kraw-large", "dec-const", "dec-const", "dec-const",
             "dec-const", "dec-const", "dec-spring-large", "dec-dense", "dec-dense",
             "bnd-kraw-range", "bnd-kraw-range", "bnd-kraw-range", "bnd-kraw-table",
             "bnd-kraw-table", "bnd-const", "bnd-const", "bnd-file")
    TINY_CELLS = ("dec-spring", "dec-kraw-small", "dec-kraw-large", "dec-const",
                  "bnd-kraw-range", "bnd-kraw-table", "bnd-const", "bnd-file")
    trace_rounds = 5
    round_seconds = 1.7

    def _size(self, choice: Choice, lo: int, hi: int) -> int:
        return lo if self.tiny else lo + choice.index(hi - lo + 1)

    def _file(self, rng, tag: str, kind: str, n: int) -> tuple[str, np.ndarray]:
        """A seeded PSD matrix whose gl critical coupling exists, written to a file."""
        while True:
            m = _spring_chain(rng, n) if kind == "spring" else _dense(rng, n)
            try:
                checks.critical_coupling(np.linalg.eigvalsh(m))
                break
            except ValueError:
                continue
        path = self.workdir / f"{tag}.txt"
        return str(path), _write_matrix(path, m)

    def job(self, rng, i, cell, choice, r) -> Job:
        tag = f"r{r}-{i}"
        if cell in self.DECOMPOSE:
            n = self._size(choice, *self.DECOMPOSE[cell])
            fmt = choice.pick(("csv", "json"))
            if cell.startswith("dec-kraw"):
                model = "krawtchouk"
                ptilde = float(rng.uniform(0.2, 0.8) if cell == "dec-kraw-small"
                               else rng.uniform(0.3, 0.8))
                flags, m = _model_flags(model, n, ptilde), checks.krawtchouk_matrix(n, ptilde)
            elif cell == "dec-const":
                model = "constant"
                flags, m = _model_flags(model, n, 0.5), checks.constant_matrix(n)
            else:
                model = "file"
                path, m = self._file(rng, tag, "dense" if cell == "dec-dense" else "spring", n)
                flags = ["--model", "file", "--path", path]
            return Job(cell, "decompose", ["decompose"] + flags + ["--format", fmt],
                       dict(model=model, format=fmt, matrix=m))
        fmt = choice.pick(("text", "csv", "json"))
        params = dict(format=fmt)
        if cell == "bnd-kraw-range":
            top = self._size(choice, 10, 200)
            params.update(model="krawtchouk", sizes=list(range(4, top + 1)))
            flags = ["--model", "krawtchouk", "--n", f"4..{top}"]
        elif cell == "bnd-kraw-table":
            params.update(model="krawtchouk", sizes=sorted(checks.TABLE_ROWS))
            flags = ["--model", "krawtchouk", "--n", ",".join(map(str, params["sizes"]))]
        elif cell == "bnd-const":
            count = 1 + choice.index(8)
            sizes = sorted(int(x) for x in rng.choice(np.arange(4, 201), count, replace=False))
            params.update(model="constant", sizes=sizes)
            flags = ["--model", "constant", "--n", ",".join(map(str, sizes))]
        else:
            kind = choice.pick(("spring", "dense"), 3)
            path, m = self._file(rng, tag, kind, self._size(choice, 10, 40))
            params.update(model="file", sizes=[m.shape[0]], matrix=m)
            flags = ["--model", "file", "--path", path]
        return Job(cell, "bounds", ["bounds"] + flags
                   + (["--format", fmt] if fmt != "text" else []), params)


# ---------------------------------------------------------------- fock

class Fock(Workload):
    """Library jobs: Fock operators, ladder identities, observables, spectrum, V(1) map."""

    SIZES = {  # (n, cutoff) options per cell, cheapest first; cutoff**n states
        "tiny": ((2, 10), (3, 5), (7, 2), (2, 11), (2, 12)),
        "small": ((2, 15), (3, 6), (2, 16), (2, 17), (4, 4), (5, 3)),
        "medium": ((2, 20), (3, 7), (2, 21), (2, 22)),
        "large": ((2, 33), (2, 36)),
    }
    # p50 falls among the tiny jobs and p90 among the medium ones, not
    # between two sizes, so that neither hangs on a single job
    CELLS = ("tiny",) * 46 + ("small",) * 3 + ("medium",) * 6 + ("large",)
    TINY_CELLS = ("small", "tiny", "tiny")
    trace_rounds = 2
    round_seconds = 4.25

    def job(self, rng, i, cell, choice, r) -> Job:
        options = self.SIZES[cell]
        n, cutoff = options[choice.index(len(options))]
        model = choice.pick(("krawtchouk", "constant"))
        ptilde = float(rng.uniform(0.2, 0.8))
        m = (checks.krawtchouk_matrix(n, ptilde) if model == "krawtchouk"
             else checks.constant_matrix(n))
        return Job(cell, "fock", [], dict(
            n=n, cutoff=cutoff, model=model, c=float(rng.uniform(0.05, 0.5)), ptilde=ptilde,
            lambdas=np.linalg.eigvalsh(m),
            # single-column V(1) patterns up to height 3, as (m_1, ..., m_n)
            columns=list(itertools.combinations_with_replacement(range(4), n))))


def make(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    return {"sweep": Sweep, "spectrum": Spectrum, "chain": Chain, "fock": Fock}[name](
        seed, workdir, tiny)
