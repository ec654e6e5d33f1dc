"""Assembly of all per-scenario link statistics needed by the SE expressions.

The build has two stages. The drop stage, ``build_drop_statistics``, holds
what no mode field changes: the surface correlation model, the direct-link
covariances, the NLoS covariances and LoS components with the surface on,
and the cascade Gram G_m^H R G_m and phase trace tr(Phi R Phi^H R) that the
aggregated and EMI covariances share. The link stage,
``build_link_statistics``, applies the (emi, ris) mode: with the surface
off it zeroes the surface's LoS means and gains, it sets the EMI power,
and it builds the EMI covariance R_mm (one (M, L, L) array), the pilot
assignment with its powers, and the estimation statistics. The aggregated moments depend on ``ris`` alone, so the drop
keeps one copy per surface state for the links built on it. Everything
downstream (closed-form SINR, Monte Carlo validation, power control)
consumes the resulting link bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelStatistics, aggregated_covariance
from .config import SystemConfig
from .correlation import (
    LosComponents,
    NlosCovariances,
    RisCorrelation,
    gaussian_local_scattering,
    los_components,
    nlos_covariances,
    ris_sinc_correlation,
)
from .emi import emi_noise_covariance, sigma_r2_from_rho
from .estimation import (
    EstimationStatistics,
    PilotAssignment,
    assign_pilots,
    estimation_statistics,
)
from .scenario import Scenario, wrap_displacement


@dataclass(frozen=True)
class DropStatistics:
    """The mode-independent statistics of one scenario drop.

    ``direct`` holds the (M, K, L, L) direct-link covariances R_mk;
    ``los`` and ``nlos`` are those of the surface on, ``gram`` is
    G_m^H R G_m of that LoS, stacked to (M, L, L), and ``trace`` is
    tr(Phi R Phi^H R). ``stats`` maps a ``ris`` mode to the aggregated
    moments of the links built on this drop, filled on first use; it lives
    as long as the drop does.
    """

    scenario: Scenario
    config: SystemConfig
    ris: RisCorrelation
    direct: np.ndarray
    los: LosComponents
    nlos: NlosCovariances
    gram: np.ndarray
    trace: float
    stats: dict[str, ChannelStatistics] = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class LinkStatistics:
    """Everything the closed forms and the sampler need for one scenario.

    ``r_mm`` is the (M, L, L) EMI covariance at the APs; ``assignment``
    carries the pilot powers.
    """

    scenario: Scenario
    config: SystemConfig
    ris: RisCorrelation
    los: LosComponents
    nlos: NlosCovariances
    stats: ChannelStatistics
    r_mm: np.ndarray
    assignment: PilotAssignment
    est: EstimationStatistics
    sigma_r2: float


def direct_link_covariances(scenario: Scenario, config: SystemConfig) -> np.ndarray:
    """Spatial covariances R_mk, (M, K, L, L), of the AP-UE links from local scattering.

    The angle is the azimuth of the UE as seen from the AP, measured on the
    wrapped displacement so that the geometry matches the distance metric.
    """
    cfg = config
    ap_xy = scenario.ap_positions[:, :2]
    ue_xy = scenario.ue_positions[:, :2]
    delta = wrap_displacement(ue_xy[None, :, :] - ap_xy[:, None, :], cfg.area_side)
    theta = np.arctan2(delta[..., 1], delta[..., 0])
    return gaussian_local_scattering(
        scenario.beta_mk,
        theta,
        np.deg2rad(cfg.asd_deg),
        cfg.n_ap_antennas,
        cfg.ap_antenna_spacing,
    )


def build_drop_statistics(scenario: Scenario, config: SystemConfig) -> DropStatistics:
    """Build the statistics of one drop that no mode field changes."""
    cfg = config
    ris = ris_sinc_correlation(
        cfg.ris_width_elements,
        cfg.ris_height_elements,
        cfg.ris_spacing_h * cfg.wavelength,
        cfg.ris_spacing_v * cfg.wavelength,
        cfg.wavelength,
    )
    los = los_components(scenario, ris, cfg)
    nlos = nlos_covariances(ris, scenario, cfg)
    return DropStatistics(
        scenario=scenario,
        config=cfg,
        ris=ris,
        direct=direct_link_covariances(scenario, cfg),
        los=los,
        nlos=nlos,
        gram=nlos.cascade_gram(los.hbar, los.phi),
        trace=nlos.phase_trace(los.phi),
    )


def build_link_statistics(
    drop: Scenario | DropStatistics, config: SystemConfig
) -> LinkStatistics:
    """Build all deterministic statistics for one drop and (emi, ris) mode.

    ``drop`` is either a scenario, whose drop statistics are then built
    here, or drop statistics built from ``config`` up to its mode fields.
    """
    cfg = config
    if isinstance(drop, Scenario):
        drop = build_drop_statistics(drop, cfg)
    elif drop.config.replace(**cfg.mode) != cfg:
        raise ValueError("config differs from the drop's in more than its mode fields")

    los, nlos, gram = drop.los, drop.nlos, drop.gram
    if cfg.ris == "off":
        los = replace(los, hbar=np.zeros_like(los.hbar), zbar=np.zeros_like(los.zbar))
        nlos = replace(
            nlos, gain_m=np.zeros_like(nlos.gain_m), gain_k=np.zeros_like(nlos.gain_k)
        )
        gram = np.zeros_like(gram)
    if cfg.emi == "off" or cfg.ris == "off":
        sigma_r2 = 0.0
    else:
        sigma_r2 = sigma_r2_from_rho(cfg.rho_db, cfg.p_max, drop.scenario.beta_m)

    stats = drop.stats.get(cfg.ris)
    if stats is None:
        stats = aggregated_covariance(drop.direct, los, nlos, gram, drop.trace)
        drop.stats[cfg.ris] = stats
    r_mm = emi_noise_covariance(nlos, gram, drop.trace, sigma_r2, drop.ris.element_area)
    assignment = assign_pilots(cfg.n_ues, cfg.tau_p, cfg.pilot_power_value)
    est = estimation_statistics(stats, r_mm, assignment, cfg.noise_power)
    return LinkStatistics(
        scenario=drop.scenario,
        config=cfg,
        ris=drop.ris,
        los=los,
        nlos=nlos,
        stats=stats,
        r_mm=r_mm,
        assignment=assignment,
        est=est,
        sigma_r2=sigma_r2,
    )
