"""Experiment orchestration: sweeps, scenario ensembles, CSV/JSON output.

A YAML run spec names a base configuration, an optional parameter sweep,
the number of random scenarios, the mode combinations to evaluate, and
the Monte Carlo budget.  ``load_run_spec`` builds and validates every
config once, one per sweep value, and reads each ``modes:`` entry once into
its mode (``config.mode_from_mapping``), the mapping of the four fields of
``config.MODES``, where a field the entry leaves out takes the first value
of its ``MODES`` entry.  The unit of work is the drop, one (sweep
value, scenario) pair: its scenario and mode-independent statistics are
built once from its sweep value's config, its link statistics once per
distinct link key among the modes (``pipeline.link_mode``: the surface
state, and the EMI state with the surface on), and every mode is
evaluated on them.  Scenario draws are seeded per scenario index, so they
are shared across sweep values for paired comparisons, and Monte Carlo
draws per (sweep value, scenario, mode); the emitted CSV is therefore
byte-identical for a given (spec, seed) regardless of thread count.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import time
from collections.abc import Callable, Hashable, Iterable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .config import (
    _FIELD_NAMES,
    MODES,
    SystemConfig,
    config_from_mapping,
    is_count,
    mode_from_mapping,
    reject_unknown,
    require_count,
    with_fields,
)
from .linalg import one_blas_thread
from .montecarlo import estimate_uatf_terms, in_order
from .pipeline import LinkStatistics, build_drop_statistics, build_link_statistics, link_mode
from .power import aggregate_gain, fractional_power_control, maxmin_power_control
from .scenario import generate_scenario
from .se import closed_form_moments, spectral_efficiency
from .uatf import Combining, UatfMoments, combine, uatf_sinr

SCHEMA_VERSION = 1

#: One label column per mode field, in ``MODES`` order.
MODE_COLUMNS = [f"mode_{name}" for name in MODES]

CSV_COLUMNS = [
    "sweep_param",
    "sweep_value",
    "scenario",
    *MODE_COLUMNS,
    "ue",
    "sinr_closed",
    "se_closed",
    "sinr_mc",
    "se_mc",
]

CDF_COLUMNS = [
    "sweep_param",
    "sweep_value",
    *MODE_COLUMNS,
    "se",
    "cdf",
    "q05",
]

#: Sweep parameters that set several config fields to one value, by those fields.
_SWEEP_ALIASES = {
    "ris_elements_side": ("ris_width_elements", "ris_height_elements"),
    "ris_spacing": ("ris_spacing_h", "ris_spacing_v"),
}

_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_SCENARIO_STREAM = 0xA
_MC_STREAM = 0xB


@dataclass(frozen=True)
class RunSpec:
    """Parsed and validated run description.

    ``configs`` holds the config of each sweep value, ``modes`` the mode
    (``config.mode_from_mapping``) of each ``modes:`` entry, and ``sha256``
    the hex SHA-256 of the spec file's bytes that were parsed.
    """

    config: SystemConfig
    sweep_param: str
    sweep_values: tuple
    configs: tuple[SystemConfig, ...]
    n_scenarios: int
    modes: tuple[dict[str, str], ...]
    mc_trials: int
    sha256: str


def _require_mapping(obj: object, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a mapping")
    return obj


def _reject_repeats(where: str, entries: list, keys: Iterable[Hashable]) -> None:
    """Refuse two entries with one key: the run would repeat their work and
    ``emit_cdf`` would pool both copies into one group."""
    first: dict = {}
    for entry, key in zip(entries, keys):
        if key in first:
            raise ValueError(f"{where} name one entry twice: {first[key]!r} and {entry!r}")
        first[key] = entry


def load_run_spec(path: str | Path) -> RunSpec:
    """Load and validate a YAML run spec; unknown keys are errors.

    Parsing uses libyaml's safe loader when PyYAML was built with it, and
    the pure-Python one otherwise; both give the same mapping. A mode field
    is set only under ``modes:``; under ``config:`` or as the sweep
    parameter it is an error. A spec without ``sweep:`` is one point,
    ``config:`` itself, labelled ``none`` 0. Two sweep values with one
    label or one config, and two equal modes, are errors. The file is read
    once, so a pipe such as ``/dev/stdin`` works and ``sha256`` hashes
    what was parsed.
    """
    spec_bytes = Path(path).read_bytes()
    data = _require_mapping(yaml.load(spec_bytes, Loader=_YAML_LOADER), "run spec")
    keys = {"schema_version", "config", "sweep", "n_scenarios", "modes", "mc_trials"}
    reject_unknown(data, keys, "run spec")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    config = config_from_mapping(_require_mapping(data.get("config", {}), "config"))

    sweep = data.get("sweep")
    if sweep is None:
        param, values, configs = "none", [0], [config]
    else:
        sweep = _require_mapping(sweep, "sweep")
        reject_unknown(sweep, {"param", "values"}, "sweep")
        param = sweep.get("param")
        values = sweep.get("values")
        if not isinstance(param, str):
            raise ValueError("sweep.param must be a string")
        if param not in _FIELD_NAMES | _SWEEP_ALIASES.keys():
            hint = "mode fields go under modes:" if param in MODES else "leave out sweep: for no sweep"
            raise ValueError(f"unknown sweep parameter: {param!r}; {hint}")
        if not isinstance(values, list) or not values:
            raise ValueError("sweep.values must be a non-empty list")
        configs = []
        for value in values:
            try:
                configs.append(apply_sweep(config, param, value))
            except ValueError as err:
                raise ValueError(f"sweep.values: {err}") from None
        _reject_repeats("sweep.values", values, map(_fmt, values))
        _reject_repeats("sweep.values", values, configs)

    n_scenarios = require_count(data.get("n_scenarios", 1), "n_scenarios", 1)
    mc_trials = require_count(data.get("mc_trials", 0), "mc_trials", 0)

    raw_modes = data.get("modes")
    if raw_modes is None:
        raw_modes = [{}]
    if not isinstance(raw_modes, list) or not raw_modes:
        raise ValueError("modes must be a non-empty list")
    modes = [mode_from_mapping(_require_mapping(entry, "mode")) for entry in raw_modes]
    _reject_repeats("modes", raw_modes, [tuple(mode.values()) for mode in modes])
    return RunSpec(
        config=config,
        sweep_param=param,
        sweep_values=tuple(values),
        configs=tuple(configs),
        n_scenarios=n_scenarios,
        modes=tuple(modes),
        mc_trials=mc_trials,
        sha256=hashlib.sha256(spec_bytes).hexdigest(),
    )


def apply_sweep(config: SystemConfig, param: str, value: object) -> SystemConfig:
    """Return a config with the swept field, or each field of an alias, set to ``value``."""
    return with_fields(config, dict.fromkeys(_SWEEP_ALIASES.get(param, (param,)), value))


def _scenario_rng(seed: int, scen_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _SCENARIO_STREAM, scen_idx]))


def _mc_rng(seed: int, sweep_idx: int, scen_idx: int, mode_idx: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, _MC_STREAM, sweep_idx, scen_idx, mode_idx])
    )


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _evaluate_mode(
    cfg: SystemConfig,
    mode: dict[str, str],
    link: LinkStatistics,
    moments: UatfMoments,
    full: Callable[[str], Combining],
    mc_trials: int,
    mc_rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Closed-form SINR and, when mc_trials > 0, the simulated SINR of one mode.

    ``mode`` sets the power control and the combiner, the drop's ``cfg``
    everything else. ``link`` and ``moments`` belong to the mode's link key
    and may have been built for another mode with that key; ``full(combiner)``
    is that combiner at full power on them, which the ``full`` power mode
    reports and max-min holds the weights of. The simulation keeps
    only the projections onto the closed form's weights, whose bound is
    that of one virtual AP with unit weight.
    """
    noise = cfg.noise_power
    if mode["power"] == "full":
        powers, closed = np.full(cfg.n_ues, cfg.p_max), full(mode["combiner"])
    else:
        if mode["power"] == "fpc":
            powers = fractional_power_control(aggregate_gain(link), cfg.fpc_alpha, cfg.p_max)
        else:
            powers = maxmin_power_control(
                moments, full(mode["combiner"]), noise, cfg.p_max, tol=cfg.maxmin_tol
            ).powers
        closed = combine(moments, mode["combiner"], powers, noise)
    sinr_mc = None
    if mc_trials > 0:
        estimates = estimate_uatf_terms(link, mc_trials, mc_rng, weights=closed.weights)
        sinr_mc = uatf_sinr(estimates.moments(), np.ones((1, cfg.n_ues)), powers, noise)
    return closed.sinr, sinr_mc


def _run_drop(
    spec: RunSpec, seed: int, sweep_idx: int, scen_idx: int, mc_trials: int
) -> list[dict]:
    """Rows of every mode on one (sweep value, scenario) drop, in spec order.

    The scenario and its mode-independent drop statistics are built once,
    from the sweep value's config (``spec.configs``). Link statistics and
    the closed-form moments depend on no mode field but the link key
    (``link_mode``), so each distinct key builds them once on the shared
    drop statistics, which hold the aggregated moments of the surface on.
    The modes are evaluated grouped by that key, and only one link bundle
    is alive at a time, beside the drop statistics. Within a group each
    combiner's full-power ``combine`` runs at most once, shared by its
    ``full`` and ``maxmin`` modes.
    """
    value = spec.sweep_values[sweep_idx]
    cfg = spec.configs[sweep_idx]
    scenario = generate_scenario(cfg, _scenario_rng(seed, scen_idx))
    drop = build_drop_statistics(scenario, cfg)
    p_full = np.full(cfg.n_ues, cfg.p_max)
    groups: dict[tuple[str, str], list[int]] = {}
    for mode_idx, mode in enumerate(spec.modes):
        groups.setdefault(link_mode(mode), []).append(mode_idx)
    sinrs = {}
    for mode_indices in groups.values():
        link = build_link_statistics(drop, spec.modes[mode_indices[0]])
        moments = closed_form_moments(link)
        full = functools.cache(lambda combiner: combine(moments, combiner, p_full, cfg.noise_power))
        for mode_idx in mode_indices:
            mc_rng = _mc_rng(seed, sweep_idx, scen_idx, mode_idx) if mc_trials > 0 else None
            mode = spec.modes[mode_idx]
            sinrs[mode_idx] = _evaluate_mode(cfg, mode, link, moments, full, mc_trials, mc_rng)
        del link, moments, full  # freed before the next group builds its bundle

    rows = []
    for mode_idx, mode in enumerate(spec.modes):
        sinr_closed, sinr_mc = sinrs[mode_idx]
        se_closed = spectral_efficiency(sinr_closed, cfg.prelog)
        se_mc = None if sinr_mc is None else spectral_efficiency(sinr_mc, cfg.prelog)
        labels = dict(zip(MODE_COLUMNS, mode.values()))
        for ue in range(cfg.n_ues):
            rows.append(
                {
                    "sweep_param": spec.sweep_param,
                    "sweep_value": _fmt(value),
                    "scenario": str(scen_idx),
                    **labels,
                    "ue": str(ue),
                    "sinr_closed": _fmt(float(sinr_closed[ue])),
                    "se_closed": _fmt(float(se_closed[ue])),
                    "sinr_mc": _fmt(None if sinr_mc is None else float(sinr_mc[ue])),
                    "se_mc": _fmt(None if se_mc is None else float(se_mc[ue])),
                }
            )
    return rows


@one_blas_thread()
def run_experiment(
    spec_path: str | Path,
    seed: int,
    out_dir: str | Path,
    mc_trials: int | None = None,
    threads: int = 1,
) -> dict:
    """Execute a run spec and write results.csv plus manifest.json.

    ``load_run_spec`` builds every config the run reads, one per sweep
    value, and each mode as the mapping of its ``config.MODES`` fields.
    Every row is labelled by its ``mode_*`` columns, one per mode field.
    ``mc_trials`` overrides the spec's Monte Carlo budget when given.
    Each (sweep value, scenario) drop is one unit of work, and
    ``montecarlo.in_order`` runs up to ``threads`` drops in parallel, no
    more than there are drops, or each on the calling thread when that
    leaves one worker; seed and thread count must be integers, not
    booleans.
    For the whole run OpenBLAS is held at one thread
    (``linalg.one_blas_thread``, restored when the run returns or raises),
    and each Monte Carlo estimate runs its chunks on up to
    ``montecarlo.CHUNK_WORKERS`` threads of its own. Rows are emitted in
    sweep, scenario, mode order, and the chunks' random streams and sums
    depend on the shapes only, so the CSV is byte-stable whatever the
    thread, worker or CPU count. The manifest holds the schema and package
    versions, the seed, thread and trial counts, the SHA-256 of the spec
    bytes that were parsed, sweep, modes and config echo (which has no mode
    field), the row count, the total ``wall_time_s`` of the run (there is
    no per-task timing), and the rows whose closed-form and Monte Carlo SE
    differ by more than 2%.
    """
    spec = load_run_spec(spec_path)
    if not is_count(seed) or not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    require_count(threads, "threads", 1)
    trials = require_count(spec.mc_trials if mc_trials is None else mc_trials, "mc_trials", 0)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    drops = [
        (spec, seed, sweep_idx, scen_idx, trials)
        for sweep_idx in range(len(spec.sweep_values))
        for scen_idx in range(spec.n_scenarios)
    ]
    workers = min(threads, len(drops))
    rows = [row for drop_rows in in_order(_run_drop, drops, workers) for row in drop_rows]
    csv_path = out_dir / "results.csv"
    with csv_path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    warnings = []
    for row in rows:
        if row["se_mc"] == "":
            continue
        closed, mc = float(row["se_closed"]), float(row["se_mc"])
        rel = abs(closed - mc) / max(abs(mc), 1e-12)
        if rel > 0.02:
            warnings.append(
                {
                    "sweep_value": row["sweep_value"],
                    "scenario": int(row["scenario"]),
                    "ue": int(row["ue"]),
                    "se_closed": closed,
                    "se_mc": mc,
                    "relative_gap": rel,
                }
            )

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "seed": seed,
        "threads": threads,
        "mc_trials": trials,
        "spec_sha256": spec.sha256,
        "sweep_param": spec.sweep_param,
        "sweep_values": [_fmt(v) for v in spec.sweep_values],
        "n_scenarios": spec.n_scenarios,
        "modes": list(spec.modes),
        "config": asdict(spec.config),
        "rows": len(rows),
        "wall_time_s": time.perf_counter() - started,
        "closed_vs_mc_warnings": warnings,
    }
    manifest_path = out_dir / "manifest.json"
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    manifest_path.write_text(text + "\n")
    return {"results": str(csv_path), "manifest": str(manifest_path)}


def emit_cdf(in_path: str | Path, out_path: str | Path) -> dict:
    """Summarize a results CSV into per-group empirical CDFs of closed SE.

    Rows are grouped by sweep point and mode; samples pool every
    (scenario, UE) pair.  q05 is the empirical 5 percent quantile of the
    group, repeated on each of its rows.
    """
    in_path, out_path = Path(in_path), Path(out_path)
    with in_path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        missing = set(CSV_COLUMNS) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"input CSV lacks columns: {sorted(missing)}")
        group_columns = ["sweep_param", "sweep_value", *MODE_COLUMNS]
        groups: dict[tuple, list[float]] = {}
        for row in reader:
            key = tuple(row[column] for column in group_columns)
            groups.setdefault(key, []).append(float(row["se_closed"]))
    if not groups:
        raise ValueError("input CSV has no data rows")

    out_rows = []
    for key, samples in groups.items():
        samples = sorted(samples)
        n = len(samples)
        q05 = samples[max(0, math.ceil(0.05 * n) - 1)]
        for i, value in enumerate(samples):
            out_rows.append(
                {
                    **dict(zip(group_columns, key)),
                    "se": _fmt(value),
                    "cdf": _fmt((i + 1) / n),
                    "q05": _fmt(q05),
                }
            )
    with out_path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CDF_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(out_rows)
    return {"cdf": str(out_path), "rows": len(out_rows)}
