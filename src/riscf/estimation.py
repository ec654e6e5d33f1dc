"""Pilot assignment and MMSE estimation of the aggregated channels.

UEs share tau_p orthogonal pilots round-robin, all at one pilot power p_hat
(``p_max``), so co-pilot UEs contaminate each other's observations;
``PilotAssignment`` is that rule and that power. ``pilot_observation``
forms the pilot-projected signal from sampled channels and the noise at the
APs (reflected EMI plus receiver noise, however the caller reflected it).
The estimator operates on that signal and needs only the aggregated
moments, the EMI covariance R_mm, the receiver noise power, and the UE LoS
phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelStatistics
from .linalg import pair_matvec, solve_hermitian


@dataclass(frozen=True)
class PilotAssignment:
    """Round-robin pilots: UE k sends pilot k mod tau_p at ``power``."""

    n_ues: int
    tau_p: int
    power: float

    @property
    def cosets(self) -> tuple[slice, ...]:
        """The UEs of each used pilot t, as the strided slice t::tau_p (a view)."""
        used = min(self.tau_p, self.n_ues)
        return tuple(slice(t, self.n_ues, self.tau_p) for t in range(used))

    @property
    def mask(self) -> np.ndarray:
        """0/1 matrix whose (k, i) entry flags i in P_k."""
        pilot = np.arange(self.n_ues) % self.tau_p
        return (pilot[:, None] == pilot[None, :]).astype(float)


@dataclass(frozen=True)
class EstimationStatistics:
    """Second-order quantities of the MMSE estimator, per (AP, UE).

    With Psi the pilot observation covariance divided by tau_p, x is the
    solution Psi^{-1} R^o and omega the estimate shape matrix
    R^o Psi^{-1} R^o. The estimator applies ``gain`` = sqrt(p_hat) x^H =
    sqrt(p_hat) R^o Psi^{-1} to the innovation; it is formed once here, not
    per batch of trials, since Monte Carlo chunks in flight at once would
    each hold a copy.
    """

    x: np.ndarray
    omega: np.ndarray
    gain: np.ndarray


def estimation_statistics(
    stats: ChannelStatistics,
    r_mm: np.ndarray,
    assignment: PilotAssignment,
    noise_power: float,
) -> EstimationStatistics:
    """Build x and Omega for every (AP, UE) pair.

    Psi_mk = p_hat tau_p sum_{i in P_k} R^o_mi + R_mm + sigma^2 I is
    shared within a coset; x = Psi^{-1} R^o and Omega = R^o x follow, and
    the error covariance is R^o - p_hat tau_p Omega. ``r_mm`` is the
    (M, L, L) EMI covariance.
    Solves are linear (no explicit inverses) and refuse ill-conditioned Psi.
    """
    weight = assignment.power * assignment.tau_p
    eye = np.eye(stats.r_o.shape[-1])
    psi = np.empty_like(stats.r_o)
    for coset in assignment.cosets:
        contaminated = np.einsum("miab->mab", weight * stats.r_o[:, coset])
        psi_coset = contaminated + r_mm + noise_power * eye
        psi[:, coset] = psi_coset[:, None]

    x = solve_hermitian(psi, stats.r_o)
    gain = np.sqrt(assignment.power) * x.conj().swapaxes(-1, -2)
    return EstimationStatistics(x=x, omega=stats.r_o @ x, gain=gain)


def pilot_observation(
    o: np.ndarray, noise: np.ndarray, assignment: PilotAssignment
) -> np.ndarray:
    """y^p_mk from the channels ``o`` (trials, M, K, L) and the noise at the APs.

    ``noise`` has shape (trials, M, L, tau_p): per pilot symbol, the EMI
    reflected to the APs plus the receiver noise. With
    unit-norm-squared-tau_p orthogonal pilots, projecting on pilot t scales
    the co-pilot channels by sqrt(p_hat) tau_p and the per-symbol noises by
    sqrt(tau_p).
    """
    tau_p = assignment.tau_p
    weight = np.sqrt(assignment.power) * tau_p
    noise = np.sqrt(tau_p) * noise
    y = np.empty(o.shape, dtype=complex)
    for t, coset in enumerate(assignment.cosets):
        signal = np.einsum("tmia->tma", weight * o[:, :, coset])
        y[:, :, coset] = (signal + noise[..., t])[:, :, None, :]
    return y


def mmse_estimate(
    y: np.ndarray,
    stats: ChannelStatistics,
    est: EstimationStatistics,
    assignment: PilotAssignment,
    phase: np.ndarray,
) -> np.ndarray:
    """MMSE estimates o_hat_mk given the pilot observations and LoS phases.

    o_hat = obar e^{j theta_k} + sqrt(p_hat) x^H (y - ybar), where ybar
    collects the phase-rotated LoS means of the whole coset: per coset, one
    GEMM of the coset's phases against its LoS means, so nothing larger
    than obar is formed outside the trial axis; sqrt(p_hat) x^H is
    ``est.gain``, which meets the innovation in one GEMM per (AP, UE) pair
    over the trials (``linalg.pair_matvec``).
    """
    trials, n_aps, _, n_antennas = y.shape
    root_p = np.sqrt(assignment.power)
    means = root_p * assignment.tau_p * stats.obar.transpose(1, 0, 2)
    innovation = y.copy()
    for coset in assignment.cosets:
        ybar = phase[:, coset] @ means[coset].reshape(-1, n_aps * n_antennas)
        innovation[:, :, coset] -= ybar.reshape(trials, n_aps, 1, n_antennas)
    estimate = pair_matvec(est.gain, innovation)
    estimate += stats.obar[None] * phase[:, None, :, None]
    return estimate
