"""Pilot assignment and MMSE estimation of the aggregated channels.

UEs share tau_p orthogonal pilots round-robin, so co-pilot UEs contaminate
each other's observations; ``PilotAssignment`` holds the cosets and the
pilot powers. ``pilot_observation`` forms the pilot-projected signal from
sampled channels and the noise at the APs (reflected EMI plus receiver
noise, however the caller reflected it). The estimator operates
on that signal and needs only the aggregated moments, the EMI covariance
R_mm, the receiver noise power, and the UE LoS phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from riscf.channel import ChannelStatistics
from riscf.linalg import solve_hermitian


@dataclass(frozen=True)
class PilotAssignment:
    """Round-robin pilot indices, the induced co-pilot cosets and the pilot powers."""

    tau_p: int
    pilot_of: np.ndarray
    cosets: tuple[np.ndarray, ...]
    powers: np.ndarray

    def coset(self, ue: int) -> np.ndarray:
        """UEs sharing UE ``ue``'s pilot, itself included."""
        return self.cosets[int(self.pilot_of[ue])]

    @property
    def mask(self) -> np.ndarray:
        """0/1 matrix whose (k, i) entry flags i in P_k."""
        return (self.pilot_of[:, None] == self.pilot_of[None, :]).astype(float)


def assign_pilots(n_ues: int, tau_p: int, power: float) -> PilotAssignment:
    """Deterministic round-robin assignment: UE k uses pilot k mod tau_p at ``power``."""
    if n_ues < 1:
        raise ValueError("n_ues must be >= 1")
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    pilot_of = np.arange(n_ues) % tau_p
    cosets = tuple(np.flatnonzero(pilot_of == t) for t in range(tau_p))
    return PilotAssignment(
        tau_p=tau_p, pilot_of=pilot_of, cosets=cosets, powers=np.full(n_ues, power)
    )


@dataclass(frozen=True)
class EstimationStatistics:
    """Second-order quantities of the MMSE estimator, per (AP, UE).

    With Psi the pilot observation covariance divided by tau_p, x is the
    solution Psi^{-1} R^o and omega the estimate shape matrix
    R^o Psi^{-1} R^o. The estimator applies sqrt(p_hat_k) x^H =
    sqrt(p_hat_k) R^o Psi^{-1} to the innovation.
    """

    x: np.ndarray
    omega: np.ndarray


def estimation_statistics(
    stats: ChannelStatistics,
    r_mm: np.ndarray,
    assignment: PilotAssignment,
    noise_power: float,
) -> EstimationStatistics:
    """Build x and Omega for every (AP, UE) pair.

    Psi_mk = sum_{i in P_k} p_hat_i tau_p R^o_mi + R_mm + sigma^2 I is
    shared within a coset; x = Psi^{-1} R^o and Omega = R^o x follow, and
    the error covariance is R^o - p_hat tau_p Omega. ``r_mm`` is the
    (M, L, L) EMI covariance.
    Solves are linear (no explicit inverses) and refuse ill-conditioned Psi.
    """
    tau_p, pilot_powers = assignment.tau_p, assignment.powers
    eye = np.eye(stats.r_o.shape[-1])
    psi = np.empty_like(stats.r_o)
    for coset in assignment.cosets:
        contaminated = np.einsum(
            "i,miab->mab", pilot_powers[coset] * tau_p, stats.r_o[:, coset]
        )
        psi_coset = contaminated + r_mm + noise_power * eye
        psi[:, coset] = psi_coset[:, None]

    x = solve_hermitian(psi, stats.r_o)
    return EstimationStatistics(x=x, omega=stats.r_o @ x)


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
    noise = np.sqrt(tau_p) * noise
    y = np.empty(o.shape, dtype=complex)
    for t, coset in enumerate(assignment.cosets):
        signal = np.einsum(
            "i,tmia->tma", np.sqrt(assignment.powers[coset]) * tau_p, o[:, :, coset]
        )
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

    o_hat = obar e^{j theta_k} + sqrt(p_hat_k) x^H (y - ybar), where ybar
    collects the phase-rotated LoS means of the whole coset: one GEMM of
    the phases against the trial-independent coset means.
    """
    coset_means = np.einsum(
        "i,mia,ki->imka",
        np.sqrt(assignment.powers) * assignment.tau_p,
        stats.obar,
        assignment.mask,
    )
    ybar = (phase @ coset_means.reshape(phase.shape[1], -1)).reshape(y.shape)
    prior = stats.obar[None] * phase[:, None, :, None]
    gain = np.sqrt(assignment.powers)[None, :, None, None] * est.x.conj().swapaxes(-1, -2)
    return prior + np.einsum("mkab,tmkb->tmka", gain, y - ybar)
