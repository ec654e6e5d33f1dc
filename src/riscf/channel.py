"""Aggregated channel statistics and joint channel sampling.

The aggregated channel o_mk = g_mk + H_m^H Phi z_k combines the direct
AP-UE link with the RIS cascade. Its LoS mean and covariance feed the
estimator and the closed-form SINR; the sampler draws joint realizations
for the Monte-Carlo oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from riscf.correlation import LosComponents, NlosCovariances
from riscf.linalg import psd_factor, sample_cn, sample_phases, standard_cn


@dataclass(frozen=True)
class ChannelStatistics:
    """First and second moments of the aggregated channels.

    obar is the LoS mean (M, K, L); r_o the aggregated covariance
    (M, K, L, L); q1 and q2 its two RIS-to-AP NLoS contributions;
    r_direct the direct-link covariance R_mk.
    """

    obar: np.ndarray
    r_o: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    r_direct: np.ndarray


@dataclass(frozen=True)
class ChannelRealization:
    """A batch of joint channel draws with leading trial axis."""

    g: np.ndarray
    h: np.ndarray
    z: np.ndarray
    o: np.ndarray
    phase: np.ndarray

    def __post_init__(self) -> None:
        if self.o.shape != self.g.shape:
            raise ValueError("o and g must share shape")


def aggregated_covariance(
    r_direct: np.ndarray, los: LosComponents, nlos: NlosCovariances
) -> ChannelStatistics:
    """Mean and covariance of o_mk from the link statistics.

    The covariance is R_mk + Hbar^H Phi Rtilde_k Phi^H Hbar + Q1 + Q2.
    With Rtilde_k = gain_k R the cascade term is gain_k G_m^H R G_m,
    G_m = Phi^H Hbar_m, one N x L product per AP. Q1 carries the NLoS
    RIS-to-AP response to the LoS RIS-to-UE direction,
    gain_m (Phi zbar_k)^H R (Phi zbar_k) R_m, and Q2 the response to the
    NLoS RIS-to-UE covariance, gain_m gain_k tr(Phi R Phi^H R) R_m.
    """
    obar = np.einsum("mna,n,kn->mka", los.hbar.conj(), los.phi, los.zbar)
    gram = nlos.cascade_gram(los.hbar, los.phi)
    cascade = nlos.gain_k[None, :, None, None] * gram[:, None]

    phi_z = los.phi[None, :] * los.zbar
    z_quad = np.einsum("kn,np,kp->k", phi_z.conj(), nlos.R, phi_z).real
    q1_scale = nlos.gain_m[:, None] * z_quad[None, :]
    q2_scale = nlos.gain_m[:, None] * nlos.gain_k[None, :] * nlos.phase_trace(los.phi)
    q1 = q1_scale[:, :, None, None] * nlos.r_m[:, None]
    q2 = q2_scale[:, :, None, None] * nlos.r_m[:, None]
    return ChannelStatistics(
        obar=obar, r_o=r_direct + cascade + q1 + q2, q1=q1, q2=q2, r_direct=r_direct
    )


class ChannelSampler:
    """Draws joint (g, H, z, o) batches from precomputed covariance factors.

    Setup takes one eigendecomposition of the shared sinc matrix R, one
    stacked factorization of the M AP-side L x L factors and one of the
    M K direct-link covariances. The NLoS part of H_m is drawn as
    sqrt(gain_m) F_R W F_m^T with F_R F_R^H = R and F_m the conjugate of the
    factor of R_m, so vec(H_m - Hbar_m) keeps covariance
    gain_m (R_m^T kron R); the NLoS part of z_k is sqrt(gain_k) F_R w.
    ``ris_factor`` is F_R, which EMI draws can share.
    """

    def __init__(
        self,
        stats: ChannelStatistics,
        los: LosComponents,
        nlos: NlosCovariances,
    ) -> None:
        self.los = los
        self.n_aps, self.n, self.l = los.hbar.shape
        self.n_ues = los.zbar.shape[0]
        self.g_factors = psd_factor(stats.r_direct)
        self.ris_factor = psd_factor(nlos.R)
        self.ap_factors = np.sqrt(nlos.gain_m)[:, None, None] * psd_factor(nlos.r_m).conj()
        self.ue_scale = np.sqrt(nlos.gain_k)

    def draw(
        self, rng: np.random.Generator, trials: int, phase: np.ndarray | None = None
    ) -> ChannelRealization:
        """Sample ``trials`` joint realizations.

        The UE LoS phase factors e^{j theta_k} are drawn fresh unless given.
        Draw order is fixed (phases, g, H, z) so a seeded stream reproduces
        the batch bit-for-bit.
        """
        if phase is None:
            phase = sample_phases(rng, (trials, self.n_ues))
        w_g = standard_cn(rng, (trials, self.n_aps, self.n_ues, self.l))
        g = np.einsum("mkab,tmkb->tmka", self.g_factors, w_g)
        h = np.empty((trials, self.n_aps, self.n, self.l), dtype=complex)
        for m in range(self.n_aps):
            w_h = standard_cn(rng, (trials, self.ris_factor.shape[1], self.l))
            h[:, m] = self.los.hbar[m] + self.ris_factor @ (w_h @ self.ap_factors[m].T)
        w_z = sample_cn(rng, self.ris_factor, (trials, self.n_ues))
        z = self.los.zbar * phase[:, :, None] + self.ue_scale[:, None] * w_z
        o = g + ((self.los.phi * z).conj()[:, None] @ h).conj()
        return ChannelRealization(g=g, h=h, z=z, o=o, phase=phase)


def sample_channels(
    stats: ChannelStatistics,
    los: LosComponents,
    nlos: NlosCovariances,
    rng: np.random.Generator,
    trials: int = 1,
) -> ChannelRealization:
    """One-shot joint channel draw; builds factors then samples a batch."""
    return ChannelSampler(stats, los, nlos).draw(rng, trials)
