"""System configuration: physical constants, network geometry, run modes.

A SystemConfig collects every physical knob the simulator reads. Values
default to the urban microcell setup used throughout the test suite;
experiment YAML files override fields by name and unknown keys are
rejected. A mode is not a config field: it is one mapping of the four
``MODES`` fields, read from a ``modes:`` entry by ``mode_from_mapping``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0

#: The mode fields and their values, named nowhere else: LSFD vs MR
#: combining, EMI at the RIS, full vs fractional vs max-min power, and the
#: surface present or removed. Results label rows by them in this order,
#: and a field a ``modes:`` entry leaves out takes its first value.
#: ``emi`` is the only EMI switch; ``rho_db`` is a finite level for EMI on.
MODES = {
    "combiner": ("lsfd", "mr"),
    "emi": ("on", "off"),
    "power": ("full", "fpc", "maxmin"),
    "ris": ("on", "off"),
}

#: |rho_db| bound: 10^(rho_db/10) and the EMI power sigma_r^2 it sets stay
#: normal, finite and nonzero floats (4000 dB overflows, 3000 dB is subnormal).
RHO_DB_BOUND = 300.0


def is_count(value: object) -> bool:
    """An int that is not a bool (YAML true/false load as bools, which are ints)."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_count(value: object, name: str, least: int) -> int:
    """``value`` if it is a count of at least ``least``; else a ValueError naming ``name``."""
    if not is_count(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def reject_unknown(data: dict, allowed: Iterable[str], what: str, hint: str = "") -> None:
    """Refuse keys of ``data`` not in ``allowed``: ``unknown <what> keys: a, b``, then ``hint``."""
    unknown = sorted(map(str, data.keys() - allowed))
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}{hint}")


def is_real(value: object) -> bool:
    """A real number that is not a bool (YAML loads quoted numbers as strings)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def dbm_to_watt(dbm: float) -> float:
    """Convert a dBm level to watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Full parameterization of one simulated network.

    Distances are in meters, powers in watts, angles in radians unless a
    field name says otherwise.
    """

    # Network size
    n_aps: int = 10
    n_ues: int = 5
    n_ap_antennas: int = 1
    ris_height_elements: int = 4
    ris_width_elements: int = 4

    # Frame structure
    tau_c: int = 200
    tau_p: int = 3

    # Radio parameters
    carrier_hz: float = 1.9e9
    ris_spacing_h: float = 0.5
    ris_spacing_v: float = 0.5
    ap_antenna_spacing: float = 0.5
    p_max: float = 10.0 ** (-0.7)
    noise_dbm: float = -94.0
    rho_db: float = 20.0
    ris_phase: float = 0.25 * math.pi

    # Geometry
    area_side: float = 100.0
    ap_height: float = 15.0
    ue_height: float = 1.65
    ris_height: float = 30.0
    ris_position_xy: tuple[float, float] | None = None

    # Large-scale propagation
    pl_const_db: float = -30.18
    pl_exp_db: float = 26.0
    rician_b0_db: float = 1.3
    rician_slope_db: float = 0.003
    asd_deg: float = 15.0
    shadow_std_db: float = 8.0
    shadow_decorr: float = 100.0
    shadow_ap_frac: float = 0.5

    # Power control
    fpc_alpha: float = 0.6
    maxmin_tol: float = 1e-3

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):  # annotations are strings here
            value = getattr(self, f.name)
            if f.type == "int" and not is_count(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float":
                # EMI is switched off by its mode, never by an EMI level
                hint = "; emi: off under modes: turns EMI off" if f.name == "rho_db" else ""
                if not is_real(value):
                    raise ValueError(f"{f.name} must be a number, got {value!r}{hint}")
                if not math.isfinite(value):
                    raise ValueError(f"{f.name} must be finite, got {value!r}{hint}")
        xy = self.ris_position_xy
        if xy is not None and not (
            isinstance(xy, tuple)
            and len(xy) == 2
            and all(is_real(v) and math.isfinite(v) for v in xy)
        ):
            raise ValueError(f"ris_position_xy must be a pair of numbers, got {xy!r}")
        checks = [
            (self.n_aps >= 1, "n_aps must be >= 1"),
            (self.n_ues >= 1, "n_ues must be >= 1"),
            (self.n_ap_antennas >= 1, "n_ap_antennas must be >= 1"),
            (self.ris_height_elements >= 1, "ris_height_elements must be >= 1"),
            (self.ris_width_elements >= 1, "ris_width_elements must be >= 1"),
            (self.tau_p >= 1, "tau_p must be >= 1"),
            (self.tau_c >= self.tau_p, "tau_c must be >= tau_p"),
            (self.carrier_hz > 0, "carrier_hz must be positive"),
            (self.ris_spacing_h > 0, "ris_spacing_h must be positive"),
            (self.ris_spacing_v > 0, "ris_spacing_v must be positive"),
            (self.ap_antenna_spacing > 0, "ap_antenna_spacing must be positive"),
            (self.p_max > 0, "p_max must be positive"),
            (
                abs(self.rho_db) <= RHO_DB_BOUND,
                f"rho_db must lie in [-{RHO_DB_BOUND:g}, {RHO_DB_BOUND:g}] dB, "
                f"got {self.rho_db!r}; emi: off under modes: turns EMI off",
            ),
            (self.area_side > 0, "area_side must be positive"),
            (
                self.ris_position_xy is None
                or all(0.0 <= v <= self.area_side for v in self.ris_position_xy),
                "ris_position_xy must lie inside the area",
            ),
            (self.asd_deg > 0, f"asd_deg must be positive, got {self.asd_deg!r}"),
            (self.shadow_std_db >= 0, "shadow_std_db must be >= 0"),
            (self.shadow_decorr > 0, "shadow_decorr must be positive"),
            (0.0 <= self.shadow_ap_frac <= 1.0, "shadow_ap_frac must be in [0, 1]"),
            (self.fpc_alpha >= 0, "fpc_alpha must be >= 0"),
            (self.maxmin_tol > 0, "maxmin_tol must be positive"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)

    @property
    def n_ris_elements(self) -> int:
        return self.ris_height_elements * self.ris_width_elements

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def noise_power(self) -> float:
        return dbm_to_watt(self.noise_dbm)

    @property
    def prelog(self) -> float:
        """Uplink data fraction (tau_c - tau_p) / tau_c."""
        return (self.tau_c - self.tau_p) / self.tau_c

    def replace(self, **changes: object) -> "SystemConfig":
        return dataclasses.replace(self, **changes)


_FIELD_NAMES = {f.name for f in dataclasses.fields(SystemConfig)}


def _coerce(data: dict[str, object]) -> dict[str, object]:
    """Read YAML values as field values: a list under ``ris_position_xy`` is its (x, y) tuple."""
    xy = data.get("ris_position_xy")
    return dict(data, ris_position_xy=tuple(xy)) if isinstance(xy, list) else data


def config_from_mapping(data: dict[str, object]) -> SystemConfig:
    """Build a SystemConfig from a plain mapping, rejecting unknown keys and mode fields."""
    hint = "; mode fields go under modes:" if MODES.keys() & data.keys() else ""
    reject_unknown(data, _FIELD_NAMES, "configuration", hint)
    return SystemConfig(**_coerce(data))  # type: ignore[arg-type]


def with_fields(config: SystemConfig, data: dict[str, object]) -> SystemConfig:
    """``config`` with the fields ``data`` sets, read as ``config_from_mapping`` reads them."""
    return config.replace(**_coerce(data))


def mode_from_mapping(data: dict[str, object]) -> dict[str, str]:
    """The mode a ``modes:`` entry names, as a mapping in ``MODES`` order.

    Unknown keys are rejected. A YAML boolean reads as on/off (YAML loads
    on/off as booleans), any other value outside the field's ``MODES``
    entry is rejected, and a field the entry leaves out takes that entry's
    first value.
    """
    reject_unknown(data, MODES, "mode")
    mode = {}
    for name, values in MODES.items():
        value = data.get(name, values[0])
        if isinstance(value, bool):
            value = "on" if value else "off"
        if value not in values:
            raise ValueError(f"invalid mode {name}={value!r}, not in {values}")
        mode[name] = value
    return mode
