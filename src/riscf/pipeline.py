"""Assembly of all per-scenario link statistics needed by the SE expressions.

The build has two stages. The drop stage, ``build_drop_statistics``, holds
what no mode field changes: the direct-link covariances, the surface with
its cascade Gram G_m^H R G_m and phase trace tr(Phi R Phi^H R), and the
aggregated moments of the surface on. The link stage,
``build_link_statistics``, reads a mode, one mapping of the ``config.MODES``
fields, and applies its link key ``link_mode``: with the surface off it
aggregates ``surface.off()`` instead, it sets the EMI power, and it builds
the EMI covariance R_mm (one (M, L, L) array), the pilot assignment (every
UE at ``p_max``), and the estimation statistics. Every other field comes
from the drop's config.
Everything downstream (closed-form SINR, Monte Carlo validation, power
control) consumes the resulting link bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics, aggregated_covariance
from .config import SystemConfig
from .correlation import Surface, gaussian_local_scattering, surface_statistics
from .emi import emi_noise_covariance, sigma_r2_from_rho
from .estimation import EstimationStatistics, PilotAssignment, estimation_statistics
from .scenario import Scenario, wrap_displacement


@dataclass(frozen=True)
class DropStatistics:
    """The mode-independent statistics of one scenario drop.

    ``surface`` holds the surface switched on and ``stats`` the aggregated
    moments of the links built with it on, the (M, K, L, L) direct-link
    covariances R_mk among them (``stats.r_direct``).
    """

    scenario: Scenario
    config: SystemConfig
    surface: Surface
    stats: ChannelStatistics


@dataclass(frozen=True)
class LinkStatistics:
    """Everything the closed forms and the sampler need for one scenario.

    The surface and EMI state are those of the mode the link was built for
    (``link_mode``), the physical fields those of ``config``, the drop's
    config. ``surface`` is the drop's surface in that ``ris`` state,
    ``r_mm`` the (M, L, L) EMI covariance at the APs and ``sigma_r2`` its
    EMI power, zero with EMI off; ``assignment`` carries the pilot power.
    """

    scenario: Scenario
    config: SystemConfig
    surface: Surface
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


def link_mode(mode: dict[str, str]) -> tuple[str, str]:
    """The (ris, emi) state a link bundle is built for, from a mode mapping.

    With the surface off nothing reflects EMI, so ``emi`` is then "off"
    whatever the mode says; modes with the same key share one bundle.
    """
    return mode["ris"], mode["emi"] if mode["ris"] == "on" else "off"


def build_drop_statistics(scenario: Scenario, config: SystemConfig) -> DropStatistics:
    """Build the statistics of one drop that no mode field changes."""
    surface = surface_statistics(scenario, config)
    return DropStatistics(
        scenario=scenario,
        config=config,
        surface=surface,
        stats=aggregated_covariance(direct_link_covariances(scenario, config), surface),
    )


def build_link_statistics(drop: DropStatistics, mode: dict[str, str]) -> LinkStatistics:
    """Build all deterministic statistics for one drop and the link key of ``mode``."""
    cfg = drop.config
    ris, emi = link_mode(mode)
    surface, stats = drop.surface, drop.stats
    if ris == "off":
        surface = surface.off()
        stats = aggregated_covariance(drop.stats.r_direct, surface)
    if emi == "on":
        sigma_r2 = sigma_r2_from_rho(cfg.rho_db, cfg.p_max, drop.scenario.beta_m)
    else:
        sigma_r2 = 0.0

    r_mm = emi_noise_covariance(surface, sigma_r2)
    assignment = PilotAssignment(cfg.n_ues, cfg.tau_p, cfg.p_max)
    est = estimation_statistics(stats, r_mm, assignment, cfg.noise_power)
    return LinkStatistics(
        scenario=drop.scenario,
        config=cfg,
        surface=surface,
        stats=stats,
        r_mm=r_mm,
        assignment=assignment,
        est=est,
        sigma_r2=sigma_r2,
    )
