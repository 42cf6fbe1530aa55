"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench/test_smoke.py``.

They run every workload at its tiny size, check that every metric
declared in BENCHMARK.json is printed, and feed the output checker two
known-bad outputs. The repository's own test run (``testpaths =
["tests"]``) does not collect this file.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"\n{metric['name']} " in proc.stdout


def test_same_seed_same_jobs(tmp_path):
    from workloads import make
    for name in WORKLOADS:
        a, b = make(name, 11, tmp_path), make(name, 11, tmp_path)
        assert [j.argv for j in a.round(2)] == [j.argv for j in b.round(2)]


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _osp_job() -> Job:
    return Job("osp", "spectrum", [], dict(
        algebra="osp", n=2, p=1.0, kmax=1, format="csv", grid=np.array([0.3]),
        lambdas=checks.closed_form_lambdas("krawtchouk", 2)))


def _osp_csv(wrap) -> str:
    sq = np.sqrt(1.0 + 0.3 * np.arange(2.0))
    rows = []
    for height, sig in ((0, (0, 0)), (1, (1, 1)), (1, (0, 1))):
        energy = float(sq @ (0.5 + np.diff(sig, prepend=0)))
        rows.append((energy, f"{wrap(energy)},1,{height},{sig[0]},{sig[1]}"))
    return "\n".join(["energy,multiplicity,height,s_1,s_2"] + [r for _, r in sorted(rows)]) + "\n"


def test_checker_flags_np_float64_csv():
    assert run.check(_osp_job(), 0, _osp_csv(repr), "").passed
    verdict = run.check(_osp_job(), 0, _osp_csv(lambda e: f"np.float64({e!r})"), "")
    assert verdict.defects == {"osp-csv-np-float64"} and not verdict.passed
    assert not verdict.unexpected


def _decompose_output(u: np.ndarray, lambdas: np.ndarray) -> str:
    return json.dumps({"source": "analytic", "lambdas": lambdas.tolist(), "u": u.tolist()})


@pytest.mark.parametrize("model", ["constant", "krawtchouk"])
def test_checker_flags_non_orthonormal_u(model):
    m = checks.constant_matrix(4) if model == "constant" else checks.krawtchouk_matrix(4, 0.5)
    lambdas, u = np.linalg.eigh(m)
    job = Job("dec", "decompose", [], dict(model=model, format="json", matrix=m))
    assert run.check(job, 0, _decompose_output(u, lambdas), "").passed
    bent = u.copy()
    bent[0, 0] += 1e-3
    verdict = run.check(job, 0, _decompose_output(bent, lambdas), "")
    assert not verdict.passed
    if model == "krawtchouk":
        assert verdict.defects == {"krawtchouk-eigenvectors"} and not verdict.unexpected
    else:
        assert verdict.unexpected


def test_oracles_match_closed_forms():
    assert checks.gl_dimension(12, 6) == 16744
    assert checks.osp_pattern_count(4, 2, 2) == 1 + 4 + 16
    assert abs(checks.critical_coupling(np.arange(4.0)) - 1.27357) < 5e-6
    assert math.isclose(np.linalg.eigvalsh(checks.krawtchouk_matrix(6, 0.3))[-1], 5.0)
