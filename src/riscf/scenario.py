"""Network geometry, large-scale fading, and correlated shadowing.

APs and UEs drop uniformly in a square area treated as a torus (wrap-around),
with the RIS at the area center by default. Large-scale gains follow a
COST 321 Walfish-Ikegami law with distance-decaying Rician factors and
spatially correlated log-normal shadow fading, whose kernel decays in the
chordal distance on the torus (``shadow_field_factor``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .linalg import psd_factor


def path_loss_db(
    distance: np.ndarray | float,
    const_db: float = SystemConfig.pl_const_db,
    exp_db: float = SystemConfig.pl_exp_db,
) -> np.ndarray | float:
    """Distance-dependent path loss in dB, shadowing excluded.

    Follows const_db - exp_db log10(d / 1 m), by default the
    ``SystemConfig`` values -30.18 - 26 log10(d / 1 m); distances must be
    positive.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("path loss requires positive distance")
    out = const_db - exp_db * np.log10(d)
    return float(out) if np.isscalar(distance) else out


def rician_factor(
    distance: np.ndarray | float,
    b0_db: float = SystemConfig.rician_b0_db,
    slope_db: float = SystemConfig.rician_slope_db,
) -> np.ndarray | float:
    """Linear Rician factor 10^(b0_db - slope_db d) for a LoS link of length d.

    The defaults are the ``SystemConfig`` values, 10^(1.3 - 0.003 d).
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0.0):
        raise ValueError("Rician factor requires nonnegative distance")
    out = 10.0 ** (b0_db - slope_db * d)
    return float(out) if np.isscalar(distance) else out


def wrap_displacement(delta: np.ndarray, side: float) -> np.ndarray:
    """Map coordinate differences to their minimum-image values on a torus."""
    return (delta + 0.5 * side) % side - 0.5 * side


def torus_distance(p: np.ndarray, q: np.ndarray, side: float) -> np.ndarray:
    """Pairwise horizontal wrap-around distances between 2-D point sets.

    ``p`` has shape (n, 2) and ``q`` (k, 2); the result is (n, k).
    """
    delta = wrap_displacement(p[:, None, :] - q[None, :, :], side)
    return np.sqrt((delta**2).sum(axis=-1))


def chordal_distance(p: np.ndarray, q: np.ndarray, side: float) -> np.ndarray:
    """Pairwise chordal distances between 2-D point sets on the torus.

    The distance (side / pi) sqrt(sin^2(pi dx / side) + sin^2(pi dy / side))
    of the torus embedded in R^4; it never exceeds ``torus_distance`` and
    meets it to first order at short range. ``p`` has shape (n, 2) and
    ``q`` (k, 2); the result is (n, k).
    """
    chords = np.sin(np.pi / side * (p[:, None, :] - q[None, :, :]))
    return side / np.pi * np.sqrt((chords**2).sum(axis=-1))


@dataclass(frozen=True)
class Scenario:
    """One random network drop with all large-scale quantities resolved.

    Shadow realizations are in dB; gains and Rician factors are linear.
    """

    ap_positions: np.ndarray
    ue_positions: np.ndarray
    ris_position: np.ndarray
    d_m: np.ndarray
    d_k: np.ndarray
    d_mk: np.ndarray
    shadow_m: np.ndarray
    shadow_k: np.ndarray
    shadow_mk: np.ndarray
    beta_m: np.ndarray
    beta_k: np.ndarray
    beta_mk: np.ndarray
    kappa_m: np.ndarray
    kappa_k: np.ndarray

    @property
    def beta_m_los(self) -> np.ndarray:
        return self.kappa_m / (self.kappa_m + 1.0) * self.beta_m

    @property
    def beta_m_nlos(self) -> np.ndarray:
        return self.beta_m / (self.kappa_m + 1.0)

    @property
    def beta_k_los(self) -> np.ndarray:
        return self.kappa_k / (self.kappa_k + 1.0) * self.beta_k

    @property
    def beta_k_nlos(self) -> np.ndarray:
        return self.beta_k / (self.kappa_k + 1.0)


def shadow_field_factor(
    positions: np.ndarray, side: float, std_db: float, decorr: float
) -> np.ndarray:
    """PSD factor of the endpoint shadow field covariance std^2 2^(-d/decorr).

    d is the horizontal ``chordal_distance`` on the torus, so the kernel is
    exp(-a r) of a Euclidean distance in R^4 and positive definite for any
    point set (Schoenberg, Annals of Math. 1938). At short range it is
    Gudmundson's kernel on the wrap-around distance d_w (Electronics
    Letters 1991): d_w (1 - (pi d_w / side)^2 / 6) <= d <= d_w, so the
    correlation lies within a factor 2^(d_w (pi d_w / side)^2 / (6 decorr))
    above it, 1.8% at a quarter of a 100 m side with decorr = 100 m. Toward
    half the side it correlates more, a model choice (0.802 against 0.707
    at 50 m along one axis there). Negative eigenvalues beyond
    ``linalg.PSD_REL_TOL`` would mean an indefinite kernel and raise.
    """
    d = chordal_distance(positions[:, :2], positions[:, :2], side)
    cov = std_db**2 * np.exp2(-d / decorr)
    return psd_factor(cov)


def correlated_shadow_fading(
    ap_positions: np.ndarray,
    ue_positions: np.ndarray,
    config: SystemConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw shadow fading (dB) for AP-RIS, RIS-UE, and AP-UE links.

    Each link mixes the endpoint fields as sqrt(df) a + sqrt(1-df) b, where
    a is the transmit-side field and b the receive-side one. The AP field,
    the UE field, and a scalar RIS variable are drawn once and shared across
    every link they terminate, which correlates links with a common endpoint.
    Returns (shadow_m, shadow_k, shadow_mk).
    """
    side = config.area_side
    std, decorr = config.shadow_std_db, config.shadow_decorr
    a = shadow_field_factor(ap_positions, side, std, decorr) @ rng.standard_normal(
        len(ap_positions)
    )
    b = shadow_field_factor(ue_positions, side, std, decorr) @ rng.standard_normal(
        len(ue_positions)
    )
    c = std * rng.standard_normal()
    sa = np.sqrt(config.shadow_ap_frac)
    sb = np.sqrt(1.0 - config.shadow_ap_frac)
    shadow_m = sa * a + sb * c
    shadow_k = sa * c + sb * b
    shadow_mk = sa * a[:, None] + sb * b[None, :]
    return shadow_m, shadow_k, shadow_mk


def generate_scenario(config: SystemConfig, rng: np.random.Generator) -> Scenario:
    """Drop APs and UEs uniformly, then resolve distances, gains, and shadowing.

    AP-UE distances use the horizontal wrap-around metric; RIS links use the
    plain metric since the RIS sits at the area center unless overridden.
    All distances are 3-D (height offsets included).
    """
    side = config.area_side
    ap_xy = rng.uniform(0.0, side, size=(config.n_aps, 2))
    ue_xy = rng.uniform(0.0, side, size=(config.n_ues, 2))
    ap_positions = np.column_stack([ap_xy, np.full(config.n_aps, config.ap_height)])
    ue_positions = np.column_stack([ue_xy, np.full(config.n_ues, config.ue_height)])
    ris_xy = (
        np.array([0.5 * side, 0.5 * side])
        if config.ris_position_xy is None
        else np.asarray(config.ris_position_xy, dtype=float)
    )
    ris_position = np.append(ris_xy, config.ris_height)

    d_m = np.sqrt(
        ((ap_xy - ris_xy) ** 2).sum(axis=1) + (config.ap_height - config.ris_height) ** 2
    )
    d_k = np.sqrt(
        ((ue_xy - ris_xy) ** 2).sum(axis=1) + (config.ue_height - config.ris_height) ** 2
    )
    horiz = torus_distance(ap_xy, ue_xy, side)
    d_mk = np.sqrt(horiz**2 + (config.ap_height - config.ue_height) ** 2)

    shadow_m, shadow_k, shadow_mk = correlated_shadow_fading(
        ap_positions, ue_positions, config, rng
    )
    pl = (config.pl_const_db, config.pl_exp_db)
    beta_m = 10.0 ** ((path_loss_db(d_m, *pl) + shadow_m) / 10.0)
    beta_k = 10.0 ** ((path_loss_db(d_k, *pl) + shadow_k) / 10.0)
    beta_mk = 10.0 ** ((path_loss_db(d_mk, *pl) + shadow_mk) / 10.0)

    rician = (config.rician_b0_db, config.rician_slope_db)
    kappa_m = rician_factor(d_m, *rician)
    kappa_k = rician_factor(d_k, *rician)

    return Scenario(
        ap_positions=ap_positions,
        ue_positions=ue_positions,
        ris_position=ris_position,
        d_m=d_m,
        d_k=d_k,
        d_mk=d_mk,
        shadow_m=shadow_m,
        shadow_k=shadow_k,
        shadow_mk=shadow_mk,
        beta_m=beta_m,
        beta_k=beta_k,
        beta_mk=beta_mk,
        kappa_m=kappa_m,
        kappa_k=kappa_k,
    )
