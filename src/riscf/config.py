"""System configuration: physical constants, network geometry, run modes.

A SystemConfig collects every knob the simulator reads. Values default to
the urban microcell setup used throughout the test suite; experiment YAML
files override fields by name and unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0

#: Combiner modes: equal-weight MR vs optimal large-scale fading decoding.
COMBINER_MODES = ("mr", "lsfd")
#: EMI modes: correlated EMI at the RIS on or off.
EMI_MODES = ("on", "off")
#: Power modes: full transmit power, fractional control, or max-min SINR.
POWER_MODES = ("full", "fpc", "maxmin")
#: RIS modes: surface active or removed entirely.
RIS_MODES = ("on", "off")


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
    pilot_power: float | None = None
    noise_dbm: float = -94.0
    rho_db: float | None = 20.0
    ris_phase: float = 0.25 * math.pi

    # Geometry
    area_side: float = 100.0
    ap_height: float = 15.0
    ue_height: float = 1.65
    ris_height: float = 30.0

    # Large-scale propagation
    pl_const_db: float = -30.18
    pl_exp_db: float = 26.0
    rician_b0_db: float = 1.3
    rician_slope_db: float = 0.003
    asd_deg: float = 15.0
    shadow_std_db: float = 8.0
    shadow_decorr: float = 100.0
    shadow_ap_frac: float = 0.5

    # Channel-model switches
    ris_position_xy: tuple[float, float] | None = None
    zbar_planar: bool = True
    ue_ris_rician: bool = True

    # Power control
    fpc_alpha: float = 0.6
    maxmin_tol: float = 1e-3

    # Modes
    combiner: str = "lsfd"
    emi: str = "on"
    power: str = "full"
    ris: str = "on"

    def __post_init__(self) -> None:
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
            (self.pilot_power is None or self.pilot_power > 0,
             "pilot_power must be positive when given"),
            (self.area_side > 0, "area_side must be positive"),
            (
                self.ris_position_xy is None
                or all(0.0 <= v <= self.area_side for v in self.ris_position_xy),
                "ris_position_xy must lie inside the area",
            ),
            (self.shadow_std_db >= 0, "shadow_std_db must be >= 0"),
            (self.shadow_decorr > 0, "shadow_decorr must be positive"),
            (0.0 <= self.shadow_ap_frac <= 1.0, "shadow_ap_frac must be in [0, 1]"),
            (self.fpc_alpha >= 0, "fpc_alpha must be >= 0"),
            (self.maxmin_tol > 0, "maxmin_tol must be positive"),
            (self.combiner in COMBINER_MODES, f"combiner must be one of {COMBINER_MODES}"),
            (self.emi in EMI_MODES, f"emi must be one of {EMI_MODES}"),
            (self.power in POWER_MODES, f"power must be one of {POWER_MODES}"),
            (self.ris in RIS_MODES, f"ris must be one of {RIS_MODES}"),
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
    def pilot_power_value(self) -> float:
        """Pilot transmit power; defaults to p_max when not set explicitly."""
        return self.p_max if self.pilot_power is None else self.pilot_power

    @property
    def prelog(self) -> float:
        """Uplink data fraction (tau_c - tau_p) / tau_c."""
        return (self.tau_c - self.tau_p) / self.tau_c

    def replace(self, **changes: object) -> "SystemConfig":
        return dataclasses.replace(self, **changes)


_FIELD_NAMES = {f.name for f in dataclasses.fields(SystemConfig)}


def config_from_mapping(data: dict[str, object]) -> SystemConfig:
    """Build a SystemConfig from a plain mapping, rejecting unknown keys."""
    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        raise ValueError(f"unknown configuration keys: {', '.join(unknown)}")
    coerced = dict(data)
    if isinstance(coerced.get("ris_position_xy"), list):
        coerced["ris_position_xy"] = tuple(coerced["ris_position_xy"])
    for key in ("emi", "ris"):
        if isinstance(coerced.get(key), bool):
            coerced[key] = "on" if coerced[key] else "off"
    return SystemConfig(**coerced)  # type: ignore[arg-type]
