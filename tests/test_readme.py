"""The README's library example runs as printed, and the facts its comments state hold."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs_and_its_comments_hold(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert len(capsys.readouterr().out.splitlines()) == 14
    assert scope["c4"] == pytest.approx(1.27357, abs=1e-5)
    assert scope["c_n"] == pytest.approx([1.27357, 0.51723, 0.27857], abs=1e-5)
    assert [row.c_critical for row in scope["rows"]] == scope["c_n"]
    bounds = [row.c_bound for row in scope["rows"]]
    assert bounds == pytest.approx([0.41667, 0.25, 0.16364], abs=1e-5)
    assert len(scope["lines"]) == 15
    assert scope["height"] == 2 and len(scope["signature"]) == 4
    assert scope["beta"].shape == (7, 4) and (scope["beta"] > 0).all()
    assert not scope["beta"].flags.writeable
    assert scope["rows_at_c0"].sum() == 2
