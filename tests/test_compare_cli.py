"""``tools/compare_cli.py`` on copies of this checkout's source tree."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_cli", ROOT / "tools" / "compare_cli.py")
compare_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_cli)


def test_two_copies_of_the_source_run_identically_and_a_changed_one_does_not(tmp_path):
    for name in ("a", "b", "changed"):
        shutil.copytree(ROOT / "src", tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = tmp_path / "changed" / "wignerosc" / "cli.py"
    cli.write_text(cli.read_text().replace("EXIT_USAGE = 2", "EXIT_USAGE = 5"))
    (tmp_path / "data").mkdir()
    (tmp_path / "work").mkdir()
    argvs = compare_cli.corpus(3, 120, compare_cli.write_matrices(tmp_path / "data"))
    a, b, changed = compare_cli.run_trees(
        [tmp_path / "a", tmp_path / "b", tmp_path / "changed"], argvs, tmp_path / "work")

    report = compare_cli.compare(argvs, a, b)
    assert report["identical"] == report["runs"] == 120 and report["differences"] == {}
    assert set(report["per_command"]) == {"decompose", "bounds", "spectrum gl", "spectrum osp",
                                          "sweep gl", "sweep osp"}
    assert any(run["out"] is not None for run in a) and {0, 2, 3, 4} <= {run["exit"] for run in a}

    usage = sum(run["exit"] == 2 for run in a)
    report = compare_cli.compare(argvs, a, changed)
    assert report["identical"] == report["runs"] - usage
    assert sum(count for count, _ in report["differences"].values()) == usage
    assert all(" -> 5, exit differs" in key for key in report["differences"])
