"""System configuration defaults, derived quantities, and validation."""
import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

from riscf.config import (
    MODES,
    RHO_DB_BOUND,
    SystemConfig,
    config_from_mapping,
    mode_from_mapping,
)
from riscf.correlation import surface_statistics
from riscf.emi import sigma_r2_from_rho
from riscf.scenario import generate_scenario


def test_default_dimensions():
    cfg = SystemConfig()
    assert cfg.n_aps == 10
    assert cfg.n_ues == 5
    assert cfg.n_ap_antennas == 1
    assert cfg.n_ris_elements == 16
    assert cfg.tau_p == 3


def test_wavelength_and_element_area():
    """The element area has one source, the surface of the drop."""
    cfg = SystemConfig()
    lam = 299792458.0 / 1.9e9
    assert cfg.wavelength == pytest.approx(lam, rel=1e-9)
    assert not hasattr(cfg, "element_area")
    surface = surface_statistics(generate_scenario(cfg, np.random.default_rng(0)), cfg)
    assert surface.element_area == pytest.approx(0.25 * lam * lam, rel=1e-9)


def test_noise_and_transmit_power():
    cfg = SystemConfig()
    assert cfg.noise_power == pytest.approx(10.0 ** ((-94.0 - 30.0) / 10.0))
    assert cfg.p_max == pytest.approx(10.0 ** (-0.7))


def test_prelog_fraction():
    cfg = SystemConfig(tau_c=200, tau_p=3)
    assert cfg.prelog == pytest.approx(1.0 - 3.0 / 200.0)


def test_replace_returns_modified_copy():
    cfg = SystemConfig()
    other = cfg.replace(n_ues=7, rho_db=10.0)
    assert other.n_ues == 7
    assert other.rho_db == 10.0
    assert cfg.n_ues == 5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_aps": 0},
        {"n_ues": -1},
        {"n_ap_antennas": 0},
        {"ris_width_elements": 0},
        {"tau_p": 0},
        {"tau_p": 300, "tau_c": 200},
        {"p_max": -1.0},
        {"combiner": "zf"},
        {"emi": "maybe"},
        {"power": "waterfill"},
        {"ris": "half"},
        {"fpc_alpha": -0.5},
    ],
)
def test_invalid_configs_rejected(kwargs):
    """Physical fields are checked by SystemConfig, mode fields by mode_from_mapping."""
    if kwargs.keys() <= MODES.keys():
        with pytest.raises(ValueError, match="invalid mode"):
            mode_from_mapping(kwargs)
    else:
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)


def test_config_has_no_mode_fields():
    """A mode is no config: its fields are set only under modes:."""
    assert not {f.name for f in dataclasses.fields(SystemConfig)} & MODES.keys()
    assert not hasattr(SystemConfig, "mode")


@pytest.mark.parametrize("asd_deg", [0.0, -15.0])
def test_angular_spread_must_be_positive(asd_deg):
    """Local scattering needs a spread; the error names the field."""
    with pytest.raises(ValueError, match="asd_deg"):
        SystemConfig(asd_deg=asd_deg)


COUNT_FIELDS = [
    "n_aps",
    "n_ues",
    "n_ap_antennas",
    "ris_height_elements",
    "ris_width_elements",
    "tau_c",
    "tau_p",
]


@pytest.mark.parametrize("field", COUNT_FIELDS)
@pytest.mark.parametrize("value", [True, 2.0])
def test_count_fields_reject_booleans_and_floats(field, value):
    with pytest.raises(ValueError, match=field):
        SystemConfig(**{field: value})


FLOAT_FIELDS = [
    f.name for f in dataclasses.fields(SystemConfig) if f.type == "float"
]


@pytest.mark.parametrize("field", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [True, False])
def test_float_fields_reject_booleans(field, value):
    """YAML true/false load as bools, which Python would take as 1 and 0."""
    with pytest.raises(ValueError, match=field):
        SystemConfig(**{field: value})


@pytest.mark.parametrize("field", FLOAT_FIELDS)
@pytest.mark.parametrize(
    "value", ["0.1", "-94", [10.0], 1j], ids=["str", "negative-str", "list", "complex"]
)
def test_float_fields_reject_non_real_values(field, value):
    """A quoted YAML number is a string; it must not reach arithmetic as one."""
    with pytest.raises(ValueError, match=field):
        SystemConfig(**{field: value})


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(SystemConfig) if f.type == "float"]
)
def test_float_fields_reject_none_unless_optional(field):
    with pytest.raises(ValueError, match=field):
        SystemConfig(**{field: None})


def test_float_fields_accept_integers():
    cfg = SystemConfig(p_max=1, noise_dbm=-90, rho_db=10)
    assert (cfg.p_max, cfg.noise_dbm, cfg.rho_db) == (1, -90, 10)


def test_mode_lists_the_mode_fields_in_table_order():
    mode = mode_from_mapping({"combiner": "mr", "power": "maxmin", "ris": "off"})
    assert mode == {"combiner": "mr", "emi": "on", "power": "maxmin", "ris": "off"}
    assert list(mode) == list(MODES)
    for name, values in MODES.items():
        for value in values:
            assert mode_from_mapping({name: value})[name] == value
        with pytest.raises(ValueError, match="invalid mode"):
            mode_from_mapping({name: "bogus"})


def test_every_mode_round_trips():
    """Each of the 24 combinations reads back as itself, in MODES order."""
    combos = list(itertools.product(*MODES.values()))
    assert len(combos) == 24
    for combo in combos:
        mode = dict(zip(MODES, combo))
        assert mode_from_mapping(mode) == mode
        assert list(mode_from_mapping(dict(reversed(mode.items())))) == list(MODES)


def test_empty_mode_takes_the_first_value_of_each_field():
    assert mode_from_mapping({}) == {
        "combiner": "lsfd",
        "emi": "on",
        "power": "full",
        "ris": "on",
    }


def test_mode_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown mode keys: n_aps"):
        mode_from_mapping({"combiner": "mr", "n_aps": 4})


def test_mapping_round_trip():
    cfg = config_from_mapping({"n_aps": 4, "rho_db": 10.0, "ris_spacing_h": 0.25})
    assert cfg.n_aps == 4
    assert cfg.rho_db == 10.0
    assert cfg.ris_spacing_h == 0.25


def test_mapping_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        config_from_mapping({"n_app": 4})


def test_mapping_coerces_yaml_booleans():
    mode = mode_from_mapping({"emi": True, "ris": False})
    assert mode["emi"] == "on"
    assert mode["ris"] == "off"


def test_mapping_accepts_ris_position_list():
    cfg = config_from_mapping({"ris_position_xy": [10.0, 20.0]})
    assert cfg.ris_position_xy == (10.0, 20.0)


def test_n_ris_elements_product():
    cfg = SystemConfig(ris_width_elements=8, ris_height_elements=3)
    assert cfg.n_ris_elements == 24


@pytest.mark.parametrize(
    "rho_db", [-math.inf, math.nan, math.inf, None, 4000.0, -4000.0, 300.5, -300.5]
)
def test_rho_rejects_unbounded_emi_and_nan(rho_db):
    """-inf dB would be infinite EMI; NaN, +inf and None are no level at all.

    Beyond +-RHO_DB_BOUND dB the EMI power overflows, divides by zero or
    turns subnormal. No EMI is the mode ``emi: off``, and the message says so.
    """
    with pytest.raises(ValueError, match="rho_db .*emi: off"):
        SystemConfig(rho_db=rho_db)


@pytest.mark.parametrize("rho_db", [-RHO_DB_BOUND, RHO_DB_BOUND])
def test_rho_bound_edges_give_a_normal_emi_power(rho_db):
    cfg = SystemConfig(rho_db=rho_db)
    beta_m = generate_scenario(cfg, np.random.default_rng(0)).beta_m
    sigma_r2 = sigma_r2_from_rho(cfg.rho_db, cfg.p_max, beta_m)
    assert sys.float_info.min <= sigma_r2 <= sys.float_info.max


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_bool_fields_reject_non_booleans(value):
    """A quoted YAML "false" or a 0 is no switch turned off.

    ``emi``, the one on/off switch of EMI, reads YAML true/false or on/off
    and rejects anything else.
    """
    with pytest.raises(ValueError, match="invalid mode emi"):
        mode_from_mapping({"emi": value})


@pytest.mark.parametrize(
    "field, value",
    [
        (field, value)
        for field in FLOAT_FIELDS
        for value in (math.nan, math.inf, -math.inf)
    ],
)
def test_float_fields_reject_nan_and_infinities(field, value):
    with pytest.raises(ValueError, match=field):
        SystemConfig(**{field: value})


@pytest.mark.parametrize(
    "xy",
    [[10.0, 20.0, 30.0], [10.0], [True, False], ["10", 20.0], [math.nan, 20.0], [math.inf, 0]],
)
def test_ris_position_must_be_a_pair_of_numbers(xy):
    with pytest.raises(ValueError, match="ris_position_xy"):
        config_from_mapping({"ris_position_xy": xy})
