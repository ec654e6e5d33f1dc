"""Electromagnetic interference at the RIS and its effect at the APs.

EMI impinges the RIS as a correlated circular Gaussian field with
covariance A_r sigma_r^2 R and reaches each AP through the RIS-to-AP
channel, adding the covariance R_mm on top of thermal noise.
``emi_noise_covariance`` returns R_mm of every AP as one (M, L, L) array,
and ``sample_emi`` draws the field from the surface's factor F_R.
"""

from __future__ import annotations

import numpy as np

from .config import RHO_DB_BOUND
from .correlation import Surface
from .linalg import sample_cn


def sigma_r2_from_rho(rho_db: float, p_max: float, beta_m: np.ndarray) -> float:
    """EMI power from the signal-to-EMI ratio rho = p_max sum(beta) / (M sigma_r^2).

    ``rho_db`` must lie within +-``RHO_DB_BOUND`` dB, as ``SystemConfig``
    guarantees; no EMI is the mode ``emi: off``, which does not call this.
    """
    beta_m = np.asarray(beta_m, dtype=float)
    if beta_m.size == 0:
        raise ValueError("beta_m must be non-empty")
    if not abs(rho_db) <= RHO_DB_BOUND:  # NaN fails too
        raise ValueError(
            f"rho_db must lie in [-{RHO_DB_BOUND:g}, {RHO_DB_BOUND:g}] dB, "
            f"got {rho_db!r}; emi: off turns EMI off"
        )
    rho = 10.0 ** (rho_db / 10.0)
    return float(p_max * beta_m.sum() / (beta_m.size * rho))


def emi_noise_covariance(surface: Surface, sigma_r2: float) -> np.ndarray:
    """EMI covariance R_mm = sigma_r^2 A_r C_m, (M, L, L).

    C_m is the surface's ``reflection``, the LoS part G_m^H R G_m with
    G_m = Phi^H Hbar_m plus the NLoS part gain_m tr(Phi R Phi^H R) R_m: the
    matrix that the cascade term plus Q2 scales by gain_k. The pilot-phase
    noise covariance is tau_p R_mm + tau_p sigma^2 I, assembled by the
    caller.
    """
    return sigma_r2 * surface.element_area * surface.reflection


def sample_emi(
    rng: np.random.Generator, power: float, factor: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """Draw i.i.d. EMI vectors with covariance ``power`` F F^H.

    ``power`` is sigma_r^2 A_r and ``factor`` is F with F F^H = R, for
    instance ``ChannelSampler.ris_factor``. The result has shape
    ``shape + (N,)``; each index combination is an independent symbol. Zero
    power returns zeros without drawing, so the random stream is unchanged.
    """
    if power == 0.0:
        return np.zeros(shape + (factor.shape[0],), dtype=complex)
    return np.sqrt(power) * sample_cn(rng, factor, shape)
