"""Spatial correlation matrices and deterministic LoS components.

Covers the sinc-kernel RIS correlation, Gaussian local scattering at the
APs, the Kronecker covariance of the RIS-to-AP channel, the RIS-to-UE
covariance, and the steering-vector LoS terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from riscf.config import SystemConfig
from riscf.scenario import Scenario


@dataclass(frozen=True)
class RisCorrelation:
    """Sinc-kernel correlation of the RIS elements on their planar grid."""

    R: np.ndarray
    element_positions: np.ndarray
    element_area: float


@dataclass(frozen=True)
class LosComponents:
    """Deterministic LoS parts of the cascaded link plus the RIS phases.

    hbar has shape (M, N, L), zbar (K, N), phi is the diagonal of the RIS
    phase-shift matrix.
    """

    hbar: np.ndarray
    zbar: np.ndarray
    theta_m: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class NlosCovariances:
    """NLoS covariances of the RIS links, kept in their shared structure.

    Every RIS-side covariance is a scalar times the one sinc matrix R
    (N x N). The column-major vectorized RIS-to-AP channel of AP m has
    covariance gain_m[m] (r_m[m]^T kron R), with r_m the (M, L, L) AP-side
    factors of trace L; the RIS-to-UE channel of UE k has covariance
    gain_k[k] R. Both gain vectors are zero when the RIS is off, and no
    (NL x NL) matrix is ever formed.
    """

    R: np.ndarray
    r_m: np.ndarray
    gain_m: np.ndarray
    gain_k: np.ndarray

    def cascade_gram(self, hbar: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """G_m^H R G_m with G_m = Phi^H Hbar_m, stacked to (M, L, L)."""
        g = phi.conj()[None, :, None] * hbar
        return g.conj().transpose(0, 2, 1) @ (self.R @ g)

    def phase_trace(self, phi: np.ndarray) -> float:
        """tr(Phi R Phi^H R), the trace shared by Q2 and the EMI term Q_m."""
        return float(np.sum(phi[:, None] * self.R * phi.conj()[None, :] * self.R.T).real)


def ris_element_positions(n_h: int, n_v: int, d_h: float, d_v: float) -> np.ndarray:
    """Element centers on the RIS plane, row-major over the horizontal axis.

    Element x (0-based) sits at [0, (x mod N_H) d_H, floor(x / N_H) d_V]
    with spacings in meters; the surface occupies the y-z plane.
    """
    idx = np.arange(n_h * n_v)
    return np.column_stack(
        [np.zeros(idx.size), (idx % n_h) * d_h, (idx // n_h) * d_v]
    )


def ris_sinc_correlation(
    n_h: int, n_v: int, d_h: float, d_v: float, wavelength: float
) -> RisCorrelation:
    """Isotropic-scattering RIS correlation R[i,j] = sinc(2 d_ij / lambda).

    Spacings d_h, d_v are physical element sizes in meters; the element
    area A_r = d_h d_v follows from them.
    """
    u = ris_element_positions(n_h, n_v, d_h, d_v)
    dist = np.linalg.norm(u[:, None, :] - u[None, :, :], axis=-1)
    return RisCorrelation(
        R=np.sinc(2.0 * dist / wavelength),
        element_positions=u,
        element_area=d_h * d_v,
    )


@lru_cache(maxsize=None)
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(order)


def gaussian_local_scattering(
    beta_nlos: float | np.ndarray,
    theta: float | np.ndarray,
    sigma_phi: float,
    n_antennas: int,
    spacing: float,
) -> np.ndarray:
    """ULA correlations under Gaussian angular deviation around theta.

    Entry (l, n) is beta_nlos E{exp(j 2 pi spacing (l - n) sin(theta + d))}
    with d ~ N(0, sigma_phi^2); spacing is in wavelengths and sigma_phi in
    radians. beta_nlos and theta broadcast against each other, the result
    has their broadcast shape + (L, L), and every pair is evaluated in one
    batched Gauss-Hermite pass: all pairs start at order 30 and double
    together up to order 240, and each pair keeps the first result that
    agrees with its predecessor to 1e-9 relative; a pair still open at order
    240 raises RuntimeError. 240 is the last doubling at which numpy's
    hermgauss stays finite: near order 400 it overflows, and at 480 its
    weights are NaN. Zero-beta pairs give zero matrices. Entries depend on
    l - n only, so one offset row per pair suffices, and the row is a
    Vandermonde sum: each node takes one complex exponential, whose powers
    along the offsets come from a cumulative product (offset 0 is exactly 1).
    """
    if sigma_phi <= 0.0:
        raise ValueError("sigma_phi must be positive")
    beta_b, theta_b = np.broadcast_arrays(np.asarray(beta_nlos, dtype=float), theta)
    beta_flat, theta_flat = beta_b.ravel(), theta_b.ravel()
    offsets = np.arange(n_antennas)
    rows = np.zeros((beta_flat.size, n_antennas), dtype=complex)

    def quadrature(order: int, pairs: np.ndarray) -> np.ndarray:
        nodes, weights = _hermgauss(order)
        angles = np.sin(theta_flat[pairs][:, None] + np.sqrt(2.0) * sigma_phi * nodes)
        phases = np.ones((pairs.size, n_antennas, order), dtype=complex)
        if n_antennas > 1:
            step = np.exp(2j * np.pi * spacing * angles)
            phases[:, 1:] = step[:, None, :]
            np.cumprod(phases[:, 1:], axis=1, out=phases[:, 1:])
        return beta_flat[pairs][:, None] * (phases @ weights) / np.sqrt(np.pi)

    pairs = np.flatnonzero(beta_flat != 0.0)
    order = 30
    row = quadrature(order, pairs)
    while pairs.size and order < 240:
        finer = quadrature(2 * order, pairs)
        done = np.linalg.norm(finer - row, axis=1) <= 1e-9 * np.linalg.norm(finer, axis=1)
        rows[pairs[done]] = finer[done]
        pairs, row, order = pairs[~done], finer[~done], 2 * order
    if pairs.size:
        raise RuntimeError(
            f"local-scattering quadrature did not converge by order {order}"
        )

    l_idx = offsets[:, None] - offsets[None, :]
    lagged = rows[:, np.abs(l_idx)]
    matrix = np.where(l_idx >= 0, lagged, np.conj(lagged))
    return matrix.reshape(beta_b.shape + (n_antennas, n_antennas))


def los_components(
    scenario: Scenario, ris: RisCorrelation, config: SystemConfig
) -> LosComponents:
    """Steering-vector LoS terms of both RIS links and the RIS phase diagonal.

    The RIS-to-AP mean progresses linearly over the element index with the
    horizontal spacing and the azimuth of the AP seen from the RIS; the
    RIS-to-UE mean is the planar-array response toward the UE. These are
    the means with the surface on; ``pipeline`` zeroes them when it is off.
    """
    n = config.n_ris_elements
    delta_ap = scenario.ap_positions[:, :2] - scenario.ris_position[:2]
    theta_m = np.arctan2(delta_ap[:, 1], delta_ap[:, 0])
    progression = np.exp(
        2j * np.pi * config.ris_spacing_h * np.arange(n)[None, :] * np.sin(theta_m)[:, None]
    )
    hbar = (
        np.sqrt(scenario.beta_m_los)[:, None, None]
        * progression[:, :, None]
        * np.ones((1, 1, config.n_ap_antennas))
    )

    towards_ue = scenario.ue_positions - scenario.ris_position[None, :]
    direction = towards_ue / np.linalg.norm(towards_ue, axis=1, keepdims=True)
    phase = (2.0 * np.pi / config.wavelength) * (ris.element_positions @ direction.T)
    zbar = np.sqrt(scenario.beta_k_los)[:, None] * np.exp(1j * phase.T)

    phi = np.full(n, np.exp(1j * config.ris_phase))
    return LosComponents(hbar=hbar, zbar=zbar, theta_m=theta_m, phi=phi)


def nlos_covariances(
    ris: RisCorrelation, scenario: Scenario, config: SystemConfig
) -> NlosCovariances:
    """Shared sinc matrix, AP-side factors and per-link gains of the NLoS links.

    The RIS-to-AP covariance is Kronecker, (R_m^T kron R_r,m) / (L N beta_m)
    with the RIS-side factor R_r,m = beta_m^NLoS A_r R and a
    unit-trace-per-antenna AP-side factor R_m from local scattering toward
    the RIS, so gain_m = beta_m^NLoS A_r / (L N beta_m). The RIS-to-UE
    covariance is beta_k^NLoS A_r R, so gain_k = beta_k^NLoS A_r. These are
    the gains with the surface on; ``pipeline`` zeroes them when it is off.
    """
    l, n = config.n_ap_antennas, config.n_ris_elements
    a_r = ris.element_area

    delta_ris = scenario.ris_position[:2] - scenario.ap_positions[:, :2]
    theta_to_ris = np.arctan2(delta_ris[:, 1], delta_ris[:, 0])
    r_m = gaussian_local_scattering(
        1.0, theta_to_ris, np.deg2rad(config.asd_deg), l, config.ap_antenna_spacing
    )
    gain_m = scenario.beta_m_nlos * a_r / (l * n * scenario.beta_m)
    gain_k = scenario.beta_k_nlos * a_r
    return NlosCovariances(R=ris.R, r_m=r_m, gain_m=gain_m, gain_k=gain_k)
