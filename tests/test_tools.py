"""The paired A/B timer in tools/ab.py, run on one tree against itself."""
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
