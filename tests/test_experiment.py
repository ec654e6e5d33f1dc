"""Experiment harness: run specs, CSV emission, determinism, CLI."""
import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from riscf import correlation, experiment, linalg, montecarlo, pipeline, uatf
from riscf.cli import main
from riscf.config import SystemConfig
from riscf.experiment import (
    CDF_COLUMNS,
    CSV_COLUMNS,
    apply_sweep,
    emit_cdf,
    load_run_spec,
    run_experiment,
)

MICRO = {
    "schema_version": 1,
    "config": {
        "n_aps": 2,
        "n_ues": 2,
        "n_ap_antennas": 1,
        "ris_width_elements": 2,
        "ris_height_elements": 2,
        "tau_p": 2,
    },
    "n_scenarios": 2,
    "mc_trials": 128,
    "modes": [
        {"combiner": "lsfd"},
        {"combiner": "mr", "emi": "off"},
    ],
}


def write_spec(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return path


@pytest.fixture()
def micro_spec(tmp_path):
    return write_spec(tmp_path / "micro.yaml", MICRO)


def test_load_run_spec_roundtrip(micro_spec):
    spec = load_run_spec(micro_spec)
    assert spec.config.n_aps == 2
    assert spec.n_scenarios == 2
    assert spec.mc_trials == 128
    assert spec.sweep_param == "none"
    assert len(spec.modes) == 2
    assert spec.modes[1]["combiner"] == "mr"
    assert spec.modes[1]["emi"] == "off"


def test_load_run_spec_rejects_unknown_keys(tmp_path):
    bad = dict(MICRO)
    bad["surprise"] = 1
    with pytest.raises(ValueError, match="unknown"):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))


def test_load_run_spec_rejects_wrong_schema(tmp_path):
    bad = dict(MICRO)
    bad["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version"):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))


def test_load_run_spec_rejects_bad_sweep(tmp_path):
    bad = dict(MICRO)
    bad["sweep"] = {"param": "does_not_exist", "values": [1]}
    with pytest.raises(ValueError, match="sweep"):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))
    bad["sweep"] = {"param": "rho_db", "values": []}
    with pytest.raises(ValueError, match="values"):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))
    for field in ("emi", "ris", "combiner", "power"):
        bad["sweep"] = {"param": field, "values": ["on", "off"]}
        with pytest.raises(ValueError, match="modes"):
            load_run_spec(write_spec(tmp_path / "bad.yaml", bad))
    # none marks "no sweep"; as a parameter it would repeat one config per value
    bad["sweep"] = {"param": "none", "values": [1, 2]}
    with pytest.raises(ValueError, match="leave out sweep"):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))


@pytest.mark.parametrize("key", ["n_scenarios", "mc_trials"])
@pytest.mark.parametrize("value", [True, False])
def test_load_run_spec_rejects_boolean_counts(tmp_path, key, value):
    bad = dict(MICRO)
    bad[key] = value
    with pytest.raises(ValueError, match=key):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))


@pytest.mark.parametrize("field", ["p_max", "rho_db", "noise_dbm", "carrier_hz"])
def test_load_run_spec_rejects_boolean_float_fields(tmp_path, field):
    bad = dict(MICRO, config={**MICRO["config"], field: True})
    with pytest.raises(ValueError, match=field):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))


@pytest.mark.parametrize("values", [[2.5, 2], [2, True], ["2"]])
def test_load_run_spec_rejects_non_count_element_sides(tmp_path, values):
    """A side of 2.5 would otherwise run, and be labelled, as something else."""
    bad = dict(MICRO, sweep={"param": "ris_elements_side", "values": values})
    with pytest.raises(ValueError, match="sweep.values"):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))


@pytest.mark.parametrize("values", [[True, 0.5], ["0.5"], [0.5, None]])
def test_load_run_spec_rejects_non_real_spacings(tmp_path, values):
    """A spacing of true would otherwise run as 1 wavelength and be labelled True."""
    bad = dict(MICRO, sweep={"param": "ris_spacing", "values": values})
    with pytest.raises(ValueError, match="sweep.values"):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))


@pytest.mark.parametrize(
    "field, change",
    [
        ("p_max", {"config": {**MICRO["config"], "p_max": "0.1"}}),
        ("noise_dbm", {"config": {**MICRO["config"], "noise_dbm": "-94"}}),
        ("rho_db", {"sweep": {"param": "rho_db", "values": ["10"]}}),
    ],
    ids=["p_max", "noise_dbm", "rho_db-sweep"],
)
def test_load_run_spec_rejects_quoted_numbers(tmp_path, field, change):
    """Quoted numbers fail at load with the field named, not later with a TypeError."""
    with pytest.raises(ValueError, match=field):
        load_run_spec(write_spec(tmp_path / "bad.yaml", {**MICRO, **change}))


def test_spacing_sweep_keeps_its_values(tmp_path):
    spec = dict(MICRO, sweep={"param": "ris_spacing", "values": [0.25, 1]})
    loaded = load_run_spec(write_spec(tmp_path / "ok.yaml", spec))
    swept = apply_sweep(loaded.config, loaded.sweep_param, loaded.sweep_values[1])
    assert loaded.sweep_values == (0.25, 1)
    assert swept.ris_spacing_h == swept.ris_spacing_v == 1


def test_configs_parse_identically_under_both_yaml_loaders():
    paths = sorted((Path(__file__).parent.parent / "configs").glob("*.yaml"))
    assert paths
    for path in paths:
        text = path.read_text()
        fast = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        assert fast == yaml.load(text, Loader=yaml.SafeLoader), path.name


def test_load_run_spec_rejects_bad_mode(tmp_path):
    bad = dict(MICRO)
    bad["modes"] = [{"combiner": "zf"}]
    with pytest.raises(ValueError, match="invalid mode"):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))


@pytest.mark.parametrize("field", ["combiner", "emi", "power", "ris"])
def test_load_run_spec_rejects_mode_fields_under_config(tmp_path, field):
    """A mode field has one place, modes:; under config: the error names it."""
    bad = dict(MICRO, config={**MICRO["config"], field: "off"})
    with pytest.raises(ValueError, match=f"unknown configuration keys: {field}.*modes"):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))


def test_load_run_spec_coerces_yaml_booleans(tmp_path):
    payload = dict(MICRO)
    payload["modes"] = [{"emi": True, "ris": False}]
    spec = load_run_spec(write_spec(tmp_path / "bools.yaml", payload))
    assert spec.modes[0]["emi"] == "on"
    assert spec.modes[0]["ris"] == "off"


@pytest.mark.parametrize(
    "field",
    [
        "n_aps",
        "n_ues",
        "n_ap_antennas",
        "ris_height_elements",
        "ris_width_elements",
        "tau_c",
        "tau_p",
    ],
)
@pytest.mark.parametrize("value", [True, 2.0])
def test_load_run_spec_rejects_non_count_config_fields(tmp_path, field, value):
    bad = dict(MICRO, config={**MICRO["config"], field: value})
    with pytest.raises(ValueError, match=field):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))


def test_modes_take_defaults_for_unset_fields(tmp_path):
    """A mode entry sets only the fields it names; the rest take the first
    value of their MODES entry (lsfd, on, full, on)."""
    sparse = [
        {},
        {"power": "maxmin"},
        {"power": "fpc"},
        {"emi": False},
        {"ris": "off", "combiner": "mr"},
    ]
    full = [
        {"combiner": "lsfd", "emi": "on", "power": "full", "ris": "on"},
        {"combiner": "lsfd", "emi": "on", "power": "maxmin", "ris": "on"},
        {"combiner": "lsfd", "emi": "on", "power": "fpc", "ris": "on"},
        {"combiner": "lsfd", "emi": "off", "power": "full", "ris": "on"},
        {"combiner": "mr", "emi": "on", "power": "full", "ris": "off"},
    ]
    for name, modes in (("sparse", sparse), ("full", full)):
        payload = dict(MICRO, mc_trials=0, modes=modes)
        spec = write_spec(tmp_path / f"{name}.yaml", payload)
        run_experiment(spec, seed=6, out_dir=tmp_path / name)
    sparse_csv = tmp_path / "sparse" / "results.csv"
    assert sparse_csv.read_bytes() == (tmp_path / "full" / "results.csv").read_bytes()

    emit_cdf(sparse_csv, tmp_path / "cdf.csv")
    sizes = {}
    for row in read_rows(tmp_path / "cdf.csv"):
        key = tuple(row[column] for column in experiment.MODE_COLUMNS)
        sizes[key] = sizes.get(key, 0) + 1
    # modes 1 and 2 differ in mode_power alone and still form two groups
    assert sizes == {tuple(mode.values()): 2 * 2 for mode in full}


REPEATS = [
    ({"sweep": {"param": "rho_db", "values": [10, 10.0]}}, r"sweep.values .*10 and 10.0"),
    (
        {"sweep": {"param": "rho_db", "values": [10, 10 + 1e-13]}},
        r"sweep.values .*10 and 10.0000000000001",
    ),
    (
        {"sweep": {"param": "ris_position_xy", "values": [[10, 10], [10.0, 10.0]]}},
        r"sweep.values .*\[10, 10\] and \[10.0, 10.0\]",
    ),
    ({"modes": [{}, {"combiner": "lsfd"}]}, r"modes .*\{\} and \{'combiner': 'lsfd'\}"),
    ({"modes": [{"emi": "off"}, {"power": "fpc"}, {"emi": False}]}, r"modes .*'emi': False"),
]


@pytest.mark.parametrize(
    "change, message",
    REPEATS,
    ids=["rho-int-float", "rho-one-label", "xy-int-float", "mode-default", "mode-bool"],
)
def test_load_run_spec_rejects_repeated_points_and_modes(tmp_path, change, message):
    """One sweep label, one config or one mode named twice would run twice
    and count every CDF sample twice; the error names both entries."""
    with pytest.raises(ValueError, match=message):
        load_run_spec(write_spec(tmp_path / "bad.yaml", {**MICRO, **change}))


@pytest.mark.parametrize(
    "change", [change for change, _ in REPEATS[::2]], ids=["rho", "xy", "mode"]
)
def test_cli_refuses_repeats_before_running(tmp_path, capsys, change):
    spec = write_spec(tmp_path / "bad.yaml", {**MICRO, **change})
    out = tmp_path / "out"
    assert main(["run", "--config", str(spec), "--seed", "1", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert "twice" in err["error"]["message"]
    assert not out.exists()


def test_example_configs_parse():
    for name in ("configs/example.yaml", "configs/spacing_sweep.yaml"):
        spec = load_run_spec(name)
        assert spec.n_scenarios >= 1


def test_apply_sweep_aliases():
    cfg = SystemConfig()
    swept = apply_sweep(cfg, "ris_elements_side", 8)
    assert swept.ris_width_elements == 8 and swept.ris_height_elements == 8
    swept = apply_sweep(cfg, "ris_spacing", 0.125)
    assert swept.ris_spacing_h == 0.125 and swept.ris_spacing_v == 0.125
    swept = apply_sweep(cfg, "rho_db", 10.0)
    assert swept.rho_db == 10.0
    for alias, fields in experiment._SWEEP_ALIASES.items():
        assert apply_sweep(cfg, alias, 3) == cfg.replace(**dict.fromkeys(fields, 3)), alias


@pytest.mark.parametrize(
    "change, message",
    [
        ({"surprise": 1, "extra": 2}, "unknown run spec keys: extra, surprise"),
        ({"config": {**MICRO["config"], "n_app": 4}}, "unknown configuration keys: n_app"),
        ({"modes": [{"combiner": "mr", "n_aps": 4}]}, "unknown mode keys: n_aps"),
        ({"sweep": {"param": "rho_db", "values": [10], "step": 1}}, "unknown sweep keys: step"),
    ],
    ids=["run-spec", "config", "mode", "sweep"],
)
def test_every_reader_names_unknown_keys_one_way(tmp_path, change, message):
    """Each mapping a spec holds refuses its unknown keys, sorted, in one message form."""
    bad = write_spec(tmp_path / "bad.yaml", {**MICRO, **change})
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_run_spec(bad)


def test_ris_position_sweep_runs_end_to_end(tmp_path):
    """Sweep values are read as config: values are, a YAML list as the (x, y) pair."""
    sweep = {"param": "ris_position_xy", "values": [[10, 10], [50, 50]]}
    spec = write_spec(tmp_path / "xy.yaml", dict(MICRO, mc_trials=0, sweep=sweep))
    loaded = load_run_spec(spec)
    swept = apply_sweep(loaded.config, loaded.sweep_param, loaded.sweep_values[0])
    assert swept.ris_position_xy == (10, 10)
    run_experiment(spec, seed=1, out_dir=tmp_path / "out")
    rows = read_rows(tmp_path / "out" / "results.csv")
    by_point = {}
    for row in rows:
        by_point.setdefault(row["sweep_value"], []).append(row["se_closed"])
    assert sorted(by_point) == ["[10, 10]", "[50, 50]"]
    assert by_point["[10, 10]"] != by_point["[50, 50]"]


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_manifest_is_strict_json_without_emi(tmp_path):
    """A run without EMI echoes its config, finite rho_db included, and its
    modes as strict JSON; the config echo holds no mode field."""
    payload = {
        "schema_version": 1,
        "config": {"n_aps": 3, "n_ues": 2},
        "modes": [{"emi": "off"}],
    }
    out = tmp_path / "out"
    run_experiment(write_spec(tmp_path / "quiet.yaml", payload), seed=1, out_dir=out)
    manifest = _strict_json((out / "manifest.json").read_text())
    assert manifest["config"]["rho_db"] == 20.0
    assert manifest["modes"] == [{"combiner": "lsfd", "emi": "off", "power": "full", "ris": "on"}]
    assert manifest["config"]["n_aps"] == 3
    assert not manifest["config"].keys() & {"combiner", "emi", "power", "ris"}


@pytest.mark.parametrize("rho_db", [math.inf, None], ids=[".inf", "null"])
def test_load_run_spec_rejects_no_emi_levels(tmp_path, rho_db):
    """rho_db: .inf or null is no EMI level; the error points to emi: off."""
    bad = dict(MICRO, config={**MICRO["config"], "rho_db": rho_db})
    with pytest.raises(ValueError, match="rho_db .*emi: off"):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))


def test_load_run_spec_rejects_pilot_power(tmp_path):
    """Every UE sends its pilot at p_max, so a pilot power is an unknown key."""
    bad = dict(MICRO, config={**MICRO["config"], "pilot_power": 0.05})
    with pytest.raises(ValueError, match="unknown configuration keys: pilot_power"):
        load_run_spec(write_spec(tmp_path / "bad.yaml", bad))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_experiment_output_layout(micro_spec, tmp_path):
    out = tmp_path / "out"
    summary = run_experiment(micro_spec, seed=3, out_dir=out)
    rows = read_rows(out / "results.csv")
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert "runtime_ms" not in CSV_COLUMNS
    assert len(rows) == 2 * 2 * 2
    assert all(r["sinr_mc"] != "" for r in rows)
    combos = {(r["mode_combiner"], r["mode_emi"]) for r in rows}
    assert combos == {("lsfd", "on"), ("mr", "off")}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["seed"] == 3
    assert manifest["rows"] == len(rows)
    assert summary["results"].endswith("results.csv")
    assert summary["manifest"].endswith("manifest.json")


def test_run_experiment_deterministic_across_threads(micro_spec, tmp_path):
    run_experiment(micro_spec, seed=11, out_dir=tmp_path / "a", threads=1)
    run_experiment(micro_spec, seed=11, out_dir=tmp_path / "b", threads=3)
    run_experiment(micro_spec, seed=11, out_dir=tmp_path / "c", threads=1)
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    c = (tmp_path / "c" / "results.csv").read_bytes()
    assert a == b == c


def test_one_worker_runs_start_no_thread_pool(micro_spec, tmp_path, monkeypatch):
    """At ``threads=1``, or with one drop, the drops run on the caller's
    thread, and so do the Monte Carlo estimates, one chunk each here: no
    pool is started, and the results are those of a run on drop threads."""
    one_drop = write_spec(tmp_path / "one.yaml", dict(MICRO, n_scenarios=1))
    run_experiment(micro_spec, seed=11, out_dir=tmp_path / "pooled", threads=3)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", no_pool)
    run_experiment(micro_spec, seed=11, out_dir=tmp_path / "inline", threads=1)
    pooled = (tmp_path / "pooled" / "results.csv").read_bytes()
    assert (tmp_path / "inline" / "results.csv").read_bytes() == pooled
    run_experiment(one_drop, seed=11, out_dir=tmp_path / "one", threads=3)
    with pytest.raises(AssertionError, match="thread pool"):
        run_experiment(micro_spec, seed=11, out_dir=tmp_path / "again", threads=2)


def test_run_holds_blas_at_one_thread_and_restores_it(micro_spec, tmp_path, monkeypatch):
    """OpenBLAS runs at one thread inside a run, and its count after the run
    equals the count before it, also when the run raises inside the cap."""
    entries = linalg.openblas_threads()
    if not entries:
        pytest.skip("no OpenBLAS is loaded, so there is no thread count to hold")
    get, set_ = entries[0]
    before = get()
    seen = []
    run_drop = experiment._run_drop

    def recording(*args):
        seen.append(get())
        return run_drop(*args)

    def failing(*args):
        seen.append(get())
        raise RuntimeError("drop failed")

    set_(2)
    try:
        monkeypatch.setattr(experiment, "_run_drop", recording)
        run_experiment(micro_spec, seed=1, out_dir=tmp_path / "ok")
        assert get() == 2
        monkeypatch.setattr(experiment, "_run_drop", failing)
        with pytest.raises(RuntimeError, match="drop failed"):
            run_experiment(micro_spec, seed=1, out_dir=tmp_path / "failed")
        assert get() == 2
    finally:
        set_(before)
    assert seen == [1, 1, 1]


def test_results_do_not_depend_on_the_blas_cap(micro_spec, tmp_path, monkeypatch):
    """Without OpenBLAS's thread entry point the run is uncapped, with the
    same results.csv."""
    run_experiment(micro_spec, seed=5, out_dir=tmp_path / "capped")
    monkeypatch.setattr(linalg, "openblas_threads", lambda: ())
    run_experiment(micro_spec, seed=5, out_dir=tmp_path / "uncapped")
    capped = (tmp_path / "capped" / "results.csv").read_bytes()
    assert (tmp_path / "uncapped" / "results.csv").read_bytes() == capped


def test_manifest_hashes_the_spec_that_ran(micro_spec, tmp_path, monkeypatch):
    """The spec is read once: rewriting the file during the run changes
    neither the run nor the hash of the spec it parsed."""
    parsed = micro_spec.read_bytes()
    run_drop = experiment._run_drop

    def rewriting(*args):
        write_spec(micro_spec, {**MICRO, "n_scenarios": 1})
        return run_drop(*args)

    monkeypatch.setattr(experiment, "_run_drop", rewriting)
    run_experiment(micro_spec, seed=1, out_dir=tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert micro_spec.read_bytes() != parsed
    assert manifest["spec_sha256"] == hashlib.sha256(parsed).hexdigest()
    assert manifest["n_scenarios"] == 2


def test_run_experiment_builds_links_once_per_emi_ris(tmp_path, monkeypatch):
    """Each drop builds one link bundle per distinct link key of its modes,
    so emi does not split modes with the surface off, and its rows equal
    those of single-mode runs, each on a fresh bundle. Configs are built
    only at load: the base and one per sweep value; a mode is no config."""
    modes = [
        {"combiner": "lsfd", "emi": "on"},
        {"combiner": "mr", "emi": "off"},
        {"combiner": "mr", "emi": "on", "power": "fpc"},
        {"combiner": "lsfd", "ris": "off", "power": "maxmin"},
        {"combiner": "lsfd", "emi": "off", "power": "fpc"},
        {"combiner": "mr", "emi": "off", "ris": "off"},
    ]
    payload = dict(MICRO, mc_trials=0, modes=modes)
    payload["sweep"] = {"param": "rho_db", "values": [10.0, 20.0]}
    calls = []
    build = experiment.build_link_statistics
    monkeypatch.setattr(
        experiment,
        "build_link_statistics",
        lambda drop, mode: calls.append(pipeline.link_mode(mode)) or build(drop, mode),
    )
    built = []
    post_init = SystemConfig.__post_init__
    monkeypatch.setattr(
        SystemConfig, "__post_init__", lambda cfg: built.append(cfg) or post_init(cfg)
    )
    run_experiment(write_spec(tmp_path / "all.yaml", payload), seed=4, out_dir=tmp_path / "all")
    assert len(built) == 1 + 2
    assert len(calls) == 2 * 2 * 3
    assert set(calls) == {("on", "on"), ("on", "off"), ("off", "off")}

    per_mode = []
    for i, mode in enumerate(modes):
        spec = write_spec(tmp_path / f"mode{i}.yaml", dict(payload, modes=[mode]))
        run_experiment(spec, seed=4, out_dir=tmp_path / f"mode{i}")
        per_mode.append(read_rows(tmp_path / f"mode{i}" / "results.csv"))
    reference = [
        row
        for sweep_value in ("10", "20")
        for scenario in ("0", "1")
        for rows in per_mode
        for row in rows
        if (row["sweep_value"], row["scenario"]) == (sweep_value, scenario)
    ]
    assert read_rows(tmp_path / "all" / "results.csv") == reference


def test_run_experiment_builds_drop_statistics_once_per_drop(tmp_path, monkeypatch):
    """Mode-independent work runs once per drop whatever its link-key groups:
    two local-scattering passes (direct links, AP-side factors) and one
    surface build with its Gram and trace; the aggregated moments once per
    ris."""
    modes = [
        {"combiner": "lsfd", "emi": "on"},
        {"combiner": "lsfd", "emi": "off"},
        {"combiner": "mr", "emi": "on"},
        {"combiner": "lsfd", "ris": "off"},
    ]
    payload = dict(MICRO, mc_trials=0, modes=modes)
    payload["sweep"] = {"param": "ris_elements_side", "values": [2, 3]}
    drops = 2 * MICRO["n_scenarios"]
    counts = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(pipeline, "gaussian_local_scattering")
    counting(correlation, "gaussian_local_scattering")
    counting(pipeline, "surface_statistics")
    counting(pipeline, "aggregated_covariance")
    counting(experiment, "build_link_statistics")
    run_experiment(write_spec(tmp_path / "s.yaml", payload), seed=2, out_dir=tmp_path / "o")
    assert counts == {
        "gaussian_local_scattering": 2 * drops,
        "surface_statistics": drops,
        "aggregated_covariance": 2 * drops,
        "build_link_statistics": 3 * drops,
    }


def test_full_power_and_maxmin_share_one_lsfd_solve(tmp_path, monkeypatch):
    """On configs/power_control.yaml a drop solves for LSFD weights three
    times: at full power, shared by the lsfd full and maxmin modes, then at
    the max-min and the fractional powers; the mr mode solves none."""
    spec = Path(__file__).parent.parent / "configs/power_control.yaml"
    drops = load_run_spec(spec).n_scenarios
    calls = []
    solve = uatf.optimal_lsfd_weights
    monkeypatch.setattr(
        uatf, "optimal_lsfd_weights", lambda *args: calls.append(args) or solve(*args)
    )
    run_experiment(spec, seed=1, out_dir=tmp_path)
    assert len(calls) == 3 * drops


def test_run_experiment_seed_changes_output(micro_spec, tmp_path):
    run_experiment(micro_spec, seed=1, out_dir=tmp_path / "a")
    run_experiment(micro_spec, seed=2, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "results.csv").read_bytes() != (
        tmp_path / "b" / "results.csv"
    ).read_bytes()


def test_run_experiment_rejects_bad_seed(micro_spec, tmp_path):
    with pytest.raises(ValueError):
        run_experiment(micro_spec, seed=-1, out_dir=tmp_path / "x")
    with pytest.raises(ValueError):
        run_experiment(micro_spec, seed=2**64, out_dir=tmp_path / "y")
    for bad in (True, 2.5, -1):
        with pytest.raises(ValueError, match="mc_trials"):
            run_experiment(micro_spec, seed=1, out_dir=tmp_path / "z", mc_trials=bad)
    for bad in (True, 2.0, 0):
        with pytest.raises(ValueError, match="threads"):
            run_experiment(micro_spec, seed=1, out_dir=tmp_path / "z", threads=bad)
    assert not (tmp_path / "z").exists()


def test_mc_trials_override_skips_simulation(micro_spec, tmp_path):
    out = tmp_path / "out"
    run_experiment(micro_spec, seed=3, out_dir=out, mc_trials=0)
    rows = read_rows(out / "results.csv")
    assert all(r["sinr_mc"] == "" and r["se_mc"] == "" for r in rows)


def make_cdf_input(path, se_values):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for i, se in enumerate(se_values):
            writer.writerow(
                {
                    "sweep_param": "none",
                    "sweep_value": "0",
                    "scenario": i,
                    "mode_combiner": "lsfd",
                    "mode_emi": "on",
                    "mode_power": "full",
                    "mode_ris": "on",
                    "ue": 0,
                    "sinr_closed": 1.0,
                    "se_closed": se,
                    "sinr_mc": "",
                    "se_mc": "",
                }
            )


def test_emit_cdf_exact_quartiles(tmp_path):
    src = tmp_path / "results.csv"
    make_cdf_input(src, [3.0, 1.0, 4.0, 2.0])
    out = tmp_path / "cdf.csv"
    emit_cdf(src, out)
    rows = read_rows(out)
    assert list(rows[0].keys()) == CDF_COLUMNS
    ses = [float(r["se"]) for r in rows]
    cdfs = [float(r["cdf"]) for r in rows]
    assert ses == [1.0, 2.0, 3.0, 4.0]
    assert cdfs == pytest.approx([0.25, 0.5, 0.75, 1.0])
    assert all(float(r["q05"]) == 1.0 for r in rows)


def test_emit_cdf_quantile_index_rule(tmp_path):
    """q05 picks element ceil(0.05 n) - 1 of the sorted pool (floored at 0)."""
    src = tmp_path / "results.csv"
    values = list(range(1, 41))
    make_cdf_input(src, [float(v) for v in values])
    out = tmp_path / "cdf.csv"
    emit_cdf(src, out)
    rows = read_rows(out)
    expect = sorted(values)[max(0, math.ceil(0.05 * 40) - 1)]
    assert float(rows[0]["q05"]) == expect


def test_cli_run_and_cdf(tmp_path, capsys):
    spec = write_spec(tmp_path / "micro.yaml", MICRO)
    out = tmp_path / "out"
    rc = main(
        ["run", "--config", str(spec), "--seed", "5", "--out", str(out), "--mc-trials", "0"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    rc = main(
        ["cdf", "--in", str(out / "results.csv"), "--out", str(out / "cdf.csv")]
    )
    assert rc == 0
    assert (out / "cdf.csv").exists()


def test_cli_reports_errors_as_json(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--config",
            str(tmp_path / "missing.yaml"),
            "--seed",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"]
    assert err["schema_version"] == 1


def test_maxmin_under_mr_equalizes_the_mr_sinrs(tmp_path):
    """Max-min powers under MR are certified on the unit weights MR decodes with.

    The least powers meet the common target with equality, so every UE of a
    drop ends at the same SINR, above the lowest one at full power.
    """
    pc = yaml.safe_load((Path(__file__).parent.parent / "configs/power_control.yaml").read_text())
    modes = [{"combiner": "mr", "power": "maxmin"}, {"combiner": "mr", "power": "full"}]
    payload = dict(pc, n_scenarios=8, mc_trials=0, modes=modes)
    run_experiment(write_spec(tmp_path / "mr.yaml", payload), seed=1, out_dir=tmp_path / "mr")
    sinrs = {}
    for row in read_rows(tmp_path / "mr" / "results.csv"):
        sinrs.setdefault((row["scenario"], row["mode_power"]), []).append(
            float(row["sinr_closed"])
        )
    for scenario in map(str, range(8)):
        fair = sinrs[scenario, "maxmin"]
        assert max(fair) <= min(fair) * (1 + 1e-9)
        assert min(fair) >= min(sinrs[scenario, "full"])
