"""Electromagnetic interference at the RIS and its effect at the APs.

EMI impinges the RIS as a correlated circular Gaussian field with
covariance A_r sigma_r^2 R and reaches each AP through the RIS-to-AP
channel, adding the covariance R_mm on top of thermal noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from riscf.correlation import NlosCovariances
from riscf.linalg import psd_factor, sample_cn


@dataclass(frozen=True)
class EmiSpec:
    """EMI field parameters: power, element area, and RIS correlation.

    ``factor`` optionally holds F with F F^H = R, for instance the
    ``ChannelSampler.ris_factor`` of the same surface, so draws skip
    factoring R again.
    """

    sigma_r2: float
    element_area: float
    R: np.ndarray
    factor: np.ndarray | None = None

    @property
    def covariance(self) -> np.ndarray:
        return self.sigma_r2 * self.element_area * self.R


@dataclass(frozen=True)
class EmiNoiseCovariance:
    """Per-AP covariance R_mm of RIS-borne EMI, with its NLoS part Q_m."""

    r_mm: np.ndarray
    q_m: np.ndarray


def sigma_r2_from_rho(
    rho_db: float | None, p_max: float, beta_m: np.ndarray
) -> float:
    """EMI power from the signal-to-EMI ratio rho = p_max sum(beta) / (M sigma_r^2).

    ``rho_db`` of None or +inf means no EMI; -inf (unbounded EMI) and NaN
    are errors.
    """
    beta_m = np.asarray(beta_m, dtype=float)
    if beta_m.size == 0:
        raise ValueError("beta_m must be non-empty")
    if rho_db is None or rho_db == np.inf:
        return 0.0
    if not np.isfinite(rho_db):
        raise ValueError(f"rho_db must be finite or +inf, got {rho_db!r}")
    rho = 10.0 ** (rho_db / 10.0)
    return float(p_max * beta_m.sum() / (beta_m.size * rho))


def emi_noise_covariance(
    nlos: NlosCovariances,
    gram: np.ndarray,
    trace: float,
    sigma_r2: float,
    element_area: float,
) -> EmiNoiseCovariance:
    """EMI covariance R_mm = sigma_r^2 A_r Hbar^H Phi R Phi^H Hbar + Q_m per AP.

    The LoS part is sigma_r^2 A_r G_m^H R G_m with G_m = Phi^H Hbar_m, where
    ``gram`` is ``nlos.cascade_gram(hbar, phi)``; the NLoS part is
    Q_m = sigma_r^2 A_r gain_m tr(Phi R Phi^H R) R_m, with ``trace`` the
    same trace as in Q2 (``nlos.phase_trace(phi)``). The pilot-phase noise
    covariance is tau_p R_mm + tau_p sigma^2 I, assembled by the caller.
    """
    scale = sigma_r2 * element_area
    q_m = (scale * nlos.gain_m * trace)[:, None, None] * nlos.r_m
    return EmiNoiseCovariance(r_mm=scale * gram + q_m, q_m=q_m)


def sample_emi(
    spec: EmiSpec, rng: np.random.Generator, shape: tuple[int, ...]
) -> np.ndarray:
    """Draw i.i.d. EMI vectors with covariance A_r sigma_r^2 R.

    The result has shape ``shape + (N,)``; each index combination is an
    independent symbol. Zero EMI power short-circuits to zeros.
    """
    n = spec.R.shape[0]
    if spec.sigma_r2 == 0.0:
        return np.zeros(shape + (n,), dtype=complex)
    factor = psd_factor(spec.R) if spec.factor is None else spec.factor
    return np.sqrt(spec.sigma_r2 * spec.element_area) * sample_cn(rng, factor, shape)
