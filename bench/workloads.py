"""Workload run specs and the output checks the benchmark applies to them.

Every workload is a YAML run spec that the benchmark writes itself and
feeds to ``riscf.experiment.run_experiment``, the code path behind
``riscf run``.  The specs use the package's default geometry; only the
sizes and modes below differ.  ``tiny`` shrinks each spec for the
self-test while keeping its modes, so every check still applies.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

import yaml

#: Pooled closed-vs-MC relative SE gap allowed on mc_oracle (median over
#: every UE of every completed run).  At 1000 trials single-UE gaps reach
#: about 2.3% and the pooled median is about 0.8%.
MC_GAP_BOUND = 0.03

#: Relative slack for comparisons that hold exactly in real arithmetic but
#: are read back from CSV values printed with 12 significant digits.
_CSV_RTOL = 1e-9

_SWEEP_MODES = [
    {"combiner": "lsfd", "emi": "on"},
    {"combiner": "lsfd", "emi": "off"},
    {"combiner": "mr", "emi": "on"},
    {"combiner": "lsfd", "ris": "off"},
]

_POWER_MODES = [
    {"combiner": "lsfd", "power": "maxmin"},
    {"combiner": "lsfd", "power": "fpc"},
    {"combiner": "lsfd", "power": "full"},
    {"combiner": "mr", "power": "full"},
]

SPECS = {
    # The NL x NL cascade build dominates: N up to 144 elements, L = 4.
    "closed_form_sweep": {
        "schema_version": 1,
        "config": {"n_aps": 10, "n_ues": 10, "n_ap_antennas": 4, "tau_p": 5},
        "sweep": {"param": "ris_elements_side", "values": [4, 8, 12]},
        "n_scenarios": 1,
        "mc_trials": 0,
        "modes": _SWEEP_MODES,
    },
    # The Monte Carlo oracle dominates: sampling, estimation, moments.
    "mc_oracle": {
        "schema_version": 1,
        "config": {
            "n_aps": 10,
            "n_ues": 5,
            "n_ap_antennas": 4,
            "ris_width_elements": 8,
            "ris_height_elements": 8,
        },
        "n_scenarios": 1,
        "mc_trials": 1000,
        "modes": [{"combiner": "lsfd", "emi": "on"}],
    },
    # Many small (AP, UE) pairs and the max-min solver; all four modes share
    # (emi, ris), so per-scenario reuse of link statistics would show here.
    "power_control": {
        "schema_version": 1,
        "config": {"n_aps": 10, "n_ues": 10, "n_ap_antennas": 1, "tau_p": 5},
        "n_scenarios": 4,
        "mc_trials": 0,
        "modes": _POWER_MODES,
    },
}

_TINY_CONFIG = {
    "closed_form_sweep": {"n_aps": 4, "n_ues": 4, "n_ap_antennas": 1, "tau_p": 2},
    "mc_oracle": {
        "n_aps": 10,
        "n_ues": 5,
        "n_ap_antennas": 2,
        "ris_width_elements": 4,
        "ris_height_elements": 4,
    },
    "power_control": {"n_aps": 4, "n_ues": 4, "n_ap_antennas": 1, "tau_p": 2},
}


class CheckError(AssertionError):
    """An output of riscf is wrong."""


def build_spec(workload: str, tiny: bool = False) -> dict:
    """The run spec of a workload, shrunk for the self-test when ``tiny``."""
    spec = json.loads(json.dumps(SPECS[workload]))
    if tiny:
        spec["config"] = _TINY_CONFIG[workload]
        if "sweep" in spec:
            spec["sweep"]["values"] = [2, 3]
        spec["n_scenarios"] = min(spec["n_scenarios"], 2)
    return spec


def write_spec(workload: str, tiny: bool, directory: str | Path) -> Path:
    """Generate a workload's spec and write it as YAML into ``directory``."""
    path = Path(directory) / f"{workload}.yaml"
    path.write_text(yaml.safe_dump(build_spec(workload, tiny), sort_keys=True))
    return path


def tasks_per_run(spec: dict) -> int:
    """(sweep value, scenario, mode) tasks in one run of ``spec``."""
    sweeps = len(spec["sweep"]["values"]) if "sweep" in spec else 1
    return sweeps * spec["n_scenarios"] * len(spec["modes"])


def read_outputs(out_dir: Path) -> tuple[bytes, list[str], list[dict], dict]:
    """Raw CSV bytes, CSV header, CSV rows and manifest of one run."""
    raw = (out_dir / "results.csv").read_bytes()
    reader = csv.DictReader(raw.decode().splitlines())
    rows = list(reader)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return raw, list(reader.fieldnames or []), rows, manifest


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _value(row: dict, column: str) -> float:
    return float(row[column])


def check_shape(spec: dict, seed: int, header, rows, manifest, columns) -> None:
    """Row count, column set, finite non-negative SE and manifest echo."""
    if list(header) != list(columns):
        raise CheckError(f"results.csv header {header} != {columns}")
    n_ues = spec["config"]["n_ues"]
    expected = tasks_per_run(spec) * n_ues
    if len(rows) != expected:
        raise CheckError(f"results.csv has {len(rows)} rows, expected {expected}")
    with_mc = spec["mc_trials"] > 0
    for i, row in enumerate(rows):
        for column in ("se_closed", "se_mc"):
            text = row[column]
            if text == "":
                if column == "se_closed" or with_mc:
                    raise CheckError(f"row {i}: {column} is missing")
                continue
            if column == "se_mc" and not with_mc:
                raise CheckError(f"row {i}: se_mc present although mc_trials is 0")
            value = float(text)
            if not math.isfinite(value) or value < 0.0:
                raise CheckError(f"row {i}: {column} = {text} is not finite and >= 0")
    echo = {
        "rows": len(rows),
        "seed": seed,
        "mc_trials": spec["mc_trials"],
        "n_scenarios": spec["n_scenarios"],
    }
    for key, want in echo.items():
        if manifest.get(key) != want:
            raise CheckError(f"manifest {key} = {manifest.get(key)!r}, expected {want!r}")
    if len(manifest.get("modes", [])) != len(spec["modes"]):
        raise CheckError("manifest lists a different number of modes than the spec")


def _mode_key(row: dict) -> tuple[str, str, str, str]:
    return (row["mode_combiner"], row["mode_emi"], row["mode_power"], row["mode_ris"])


def check_lsfd_beats_mr(rows) -> None:
    """With EMI on, LSFD SE >= MR SE for every (sweep, scenario, UE)."""
    lsfd, mr = {}, {}
    for row in rows:
        key = (row["sweep_value"], row["scenario"], row["ue"])
        if _mode_key(row) == ("lsfd", "on", "full", "on"):
            lsfd[key] = _value(row, "se_closed")
        elif _mode_key(row) == ("mr", "on", "full", "on"):
            mr[key] = _value(row, "se_closed")
    if not lsfd or lsfd.keys() != mr.keys():
        raise CheckError("LSFD and MR rows with EMI on do not pair up")
    for key, se_mr in mr.items():
        if lsfd[key] < se_mr - _CSV_RTOL * max(1.0, se_mr):
            raise CheckError(f"LSFD SE {lsfd[key]} < MR SE {se_mr} at {key}")


def check_maxmin_floor(rows) -> None:
    """Per scenario, min SE under (lsfd, maxmin) >= min SE under (lsfd, full)."""
    floors: dict[tuple, dict[str, float]] = {}
    for row in rows:
        combiner, _, power, _ = _mode_key(row)
        if combiner != "lsfd" or power not in ("maxmin", "full"):
            continue
        group = floors.setdefault((row["sweep_value"], row["scenario"]), {})
        se = _value(row, "se_closed")
        group[power] = min(group.get(power, math.inf), se)
    if not floors:
        raise CheckError("no (lsfd, maxmin) or (lsfd, full) rows")
    for key, group in floors.items():
        if group.keys() != {"maxmin", "full"}:
            raise CheckError(f"scenario {key} lacks a maxmin or full row")
        if group["maxmin"] < group["full"] - _CSV_RTOL * max(1.0, group["full"]):
            raise CheckError(
                f"scenario {key}: max-min floor {group['maxmin']} < full-power floor "
                f"{group['full']}"
            )


def mc_gaps(rows) -> list[float]:
    """Relative closed-vs-MC SE gap of every row."""
    return [
        abs(_value(r, "se_closed") - _value(r, "se_mc")) / max(_value(r, "se_mc"), 1e-12)
        for r in rows
    ]


def check_pooled_gap(gaps: list[float]) -> float:
    """The pooled median closed-vs-MC gap stays under MC_GAP_BOUND."""
    if not gaps:
        raise CheckError("no closed-vs-MC gaps to pool")
    pooled = statistics.median(gaps)
    if not pooled < MC_GAP_BOUND:
        raise CheckError(f"pooled closed-vs-MC SE gap {pooled:.4f} >= {MC_GAP_BOUND}")
    return pooled


#: Checks that apply to one run's rows, per workload.
ROW_CHECKS = {
    "closed_form_sweep": (check_lsfd_beats_mr,),
    "mc_oracle": (),
    "power_control": (check_maxmin_floor,),
}


def check_run(workload: str, spec: dict, seed: int, header, rows, manifest, columns) -> None:
    """Every per-run check of ``workload``; raises CheckError on the first failure."""
    check_shape(spec, seed, header, rows, manifest, columns)
    for check in ROW_CHECKS[workload]:
        check(rows)
    if not isinstance(manifest.get("closed_vs_mc_warnings"), list):
        raise CheckError("manifest lacks the closed_vs_mc_warnings list")
