"""Assembly of all per-scenario link statistics needed by the SE expressions.

Given a scenario draw and a system configuration this module builds, in
dependency order, the surface correlation model, the LoS components, the
NLoS covariances, the aggregated channel statistics, the interference
covariance seen at the access points, the pilot assignment, and the
estimation statistics.  Everything downstream (closed-form SINR, Monte
Carlo validation, power control) consumes the resulting bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, aggregated_covariance
from .config import SystemConfig
from .correlation import (
    ApCorrelation,
    LosComponents,
    NlosCovariances,
    RisCorrelation,
    gaussian_local_scattering,
    los_components,
    nlos_covariances,
    ris_sinc_correlation,
)
from .emi import EmiNoiseCovariance, emi_noise_covariance, sigma_r2_from_rho
from .estimation import (
    EstimationStatistics,
    PilotAssignment,
    assign_pilots,
    estimation_statistics,
)
from .scenario import Scenario, wrap_displacement


@dataclass(frozen=True)
class LinkStatistics:
    """Everything the closed forms and the sampler need for one scenario."""

    scenario: Scenario
    config: SystemConfig
    ris: RisCorrelation
    direct: ApCorrelation
    los: LosComponents
    nlos: NlosCovariances
    stats: ChannelStatistics
    emi_cov: EmiNoiseCovariance
    assignment: PilotAssignment
    est: EstimationStatistics
    sigma_r2: float
    pilot_powers: np.ndarray


def direct_link_covariances(scenario: Scenario, config: SystemConfig) -> ApCorrelation:
    """Spatial covariance of every AP-UE link from local scattering.

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


def build_link_statistics(scenario: Scenario, config: SystemConfig) -> LinkStatistics:
    """Build all deterministic statistics for one scenario and mode set."""
    cfg = config
    ris = ris_sinc_correlation(
        cfg.ris_width_elements,
        cfg.ris_height_elements,
        cfg.ris_spacing_h * cfg.wavelength,
        cfg.ris_spacing_v * cfg.wavelength,
        cfg.wavelength,
    )
    direct = direct_link_covariances(scenario, config)
    los = los_components(scenario, ris, cfg)
    nlos = nlos_covariances(ris, scenario, cfg)

    if cfg.emi == "off" or cfg.ris == "off":
        sigma_r2 = 0.0
    else:
        sigma_r2 = sigma_r2_from_rho(cfg.rho_db, cfg.p_max, scenario.beta_m)

    stats = aggregated_covariance(direct.R, los, nlos)
    emi_cov = emi_noise_covariance(los, nlos, sigma_r2, ris.element_area)
    assignment = assign_pilots(cfg.n_ues, cfg.tau_p)
    pilot_powers = np.full(cfg.n_ues, cfg.pilot_power_value)
    est = estimation_statistics(
        stats,
        emi_cov,
        assignment,
        pilot_powers,
        cfg.tau_p,
        cfg.noise_power,
    )
    return LinkStatistics(
        scenario=scenario,
        config=cfg,
        ris=ris,
        direct=direct,
        los=los,
        nlos=nlos,
        stats=stats,
        emi_cov=emi_cov,
        assignment=assignment,
        est=est,
        sigma_r2=sigma_r2,
        pilot_powers=pilot_powers,
    )
