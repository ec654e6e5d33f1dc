"""The repository tools: the paired A/B timer in tools/ab.py, run on one tree
against itself, and the code-line counter in tools/loc.py."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["closed_form_sweep", "mc_oracle", "power_control"])
def test_ab_runs_one_tree_against_itself(workload):
    """Every round completes with identical CSV bytes; the ratio's quartiles
    are ordered and positive. Their values are timings and are not bounded."""
    package = str(ROOT / "src" / "riscf")
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "ab.py"), "--base", package, "--new", package,
            "--workload", workload, "--rounds", "4", "--tiny",
        ],
        capture_output=True, text=True, timeout=300, check=True,
    )
    out = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    assert out["workload"] == workload
    assert int(out["rounds"]) == 4
    completed = 4 - int(out["failed_rounds"])
    assert completed >= 2
    assert int(out["identical_csv"]) == completed
    assert 0 <= int(out["new_wins"]) <= completed
    assert 0.0 < float(out["ratio_q1"]) <= float(out["ratio_p50"]) <= float(out["ratio_q3"])
    assert float(out["base_s_p50"]) > 0.0 and float(out["new_s_p50"]) > 0.0


SYNTHETIC = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
def f(x):
    """One-line docstring."""
    y = """a string
that is code"""
    return (x +
            1)


class C:
    """Class docstring."""

    attr = f"{os.sep}"
'''


def test_loc_counts_code_lines_only(tmp_path):
    """Blank, comment and docstring lines are left out; a multi-line string
    that is no docstring and a continued expression count every line. Eight
    lines of ``SYNTHETIC`` are code: the import, the def, the two lines of
    ``y``, the two of the return, the class and its attribute."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(SYNTHETIC)
    (package / "empty.py").write_text('"""Only a docstring."""\n')
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "loc.py"), str(package)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    counts = dict(line.rsplit(" ", 1) for line in proc.stdout.splitlines())
    assert counts == {str(package / "empty.py"): "0", str(package / "mod.py"): "8", "total": "8"}
