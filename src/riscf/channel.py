"""Aggregated channel statistics and joint channel sampling.

The aggregated channel o_mk = g_mk + H_m^H Phi z_k combines the direct
AP-UE link with the RIS cascade. Its LoS mean and covariance feed the
estimator and the closed-form SINR. The sampler draws the Monte Carlo
oracle's trials in one fixed order (``draw_unreflected``) and reflects
RIS-side vectors to the APs with ``draw_reflections``, which draws only
the projection of the RIS-to-AP channels that the reflected vectors see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import Surface
from .linalg import pair_matvec, psd_sqrt, sample_cn, sample_phases, standard_cn


@dataclass(frozen=True)
class ChannelStatistics:
    """First and second moments of the aggregated channels.

    obar is the LoS mean (M, K, L), r_o the aggregated covariance
    (M, K, L, L) and r_direct the direct-link covariance R_mk.
    """

    obar: np.ndarray
    r_o: np.ndarray
    r_direct: np.ndarray


def aggregated_covariance(r_direct: np.ndarray, surface: Surface) -> ChannelStatistics:
    """Mean and covariance of o_mk from the direct links and the surface.

    The covariance is R_mk + Hbar^H Phi Rtilde_k Phi^H Hbar + Q1 + Q2.
    With Rtilde_k = gain_k R the cascade term is gain_k G_m^H R G_m, the
    surface's ``gram``. Q1 carries the NLoS RIS-to-AP response to the LoS
    RIS-to-UE direction, gain_m (Phi zbar_k)^H R (Phi zbar_k) R_m, and Q2
    the response to the NLoS RIS-to-UE covariance,
    gain_m gain_k tr(Phi R Phi^H R) R_m, with the surface's ``trace``. The
    LoS mean and the quadratic forms of Phi zbar_k are GEMMs.
    """
    s = surface
    phi_z = s.phi[None, :] * s.zbar
    obar = phi_z @ s.hbar.conj()
    cascade = s.gain_k[None, :, None, None] * s.gram[:, None]

    z_quad = np.sum((phi_z.conj() @ s.R) * phi_z, axis=1).real
    q1_scale = s.gain_m[:, None] * z_quad[None, :]
    q2_scale = s.gain_m[:, None] * s.gain_k[None, :] * s.trace
    q1 = q1_scale[:, :, None, None] * s.r_m[:, None]
    q2 = q2_scale[:, :, None, None] * s.r_m[:, None]
    return ChannelStatistics(obar=obar, r_o=r_direct + cascade + q1 + q2, r_direct=r_direct)


class ChannelSampler:
    """Draws joint channel batches from precomputed covariance factors.

    Setup takes the Hermitian square roots (``linalg.psd_sqrt``) of the
    shared sinc matrix R, of the M AP-side L x L factors and of the M K
    direct-link covariances; unlike eigenvector factors they move only as
    much as the covariances do. The NLoS part of H_m is F_R W_m A_m^T with
    F_R = R^(1/2), W_m white and A_m = sqrt(gain_m) times the conjugate of
    the root of R_m (``ap_factors``), so vec(H_m - Hbar_m) keeps covariance
    gain_m (R_m^T kron R); the NLoS part of z_k is sqrt(gain_k) F_R w. H
    itself is never formed: ``draw_reflections`` reflects a fixed set of J
    vectors per trial and draws only the J-dimensional projection of W that
    they see (k <= J white rows per AP instead of N).
    ``ris_factor`` is F_R, which ``emi.sample_emi`` draws from too.
    """

    def __init__(self, stats: ChannelStatistics, surface: Surface) -> None:
        self.surface = surface
        self.n_aps, self.n, self.l = surface.hbar.shape
        self.n_ues = surface.zbar.shape[0]
        self.g_factors = psd_sqrt(stats.r_direct)
        self.ris_factor = psd_sqrt(surface.R)
        self.ap_factors = np.sqrt(surface.gain_m)[:, None, None] * psd_sqrt(surface.r_m).conj()
        self.ue_scale = np.sqrt(surface.gain_k)
        # For draw_reflections, with Phi and the conjugates folded in: the
        # rows of (Hbar^H Phi) and of (F_R^H Phi), the small left operands of
        # GEMMs against the stacked x^T (a tall left operand would make BLAS
        # pack, and keep resident, a copy of x), and the A_m^H.
        hbar_cols = surface.hbar.transpose(1, 0, 2).reshape(self.n, self.n_aps * self.l)
        self._hbar_rows = (surface.phi[:, None] * hbar_cols.conj()).T.copy()
        self._ris_rows = (surface.phi[:, None] * self.ris_factor.conj()).T.copy()
        self._ap_factors_h = self.ap_factors.conj().swapaxes(-1, -2)

    def draw_unreflected(
        self, rng: np.random.Generator, trials: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The UE phases, direct channels g and RIS-to-UE channels z of ``trials`` trials.

        The UE LoS phase factors e^{j theta_k} are drawn fresh; H enters
        only through ``draw_reflections``. Draw order is fixed (phases, g,
        z) so a seeded stream reproduces the batch bit-for-bit. g's white
        draws meet the direct-link roots in one GEMM per (AP, UE) pair over
        the trials (``linalg.pair_matvec``).
        """
        phase = sample_phases(rng, (trials, self.n_ues))
        w_g = standard_cn(rng, (trials, self.n_aps, self.n_ues, self.l))
        g = pair_matvec(self.g_factors, w_g)
        z = sample_cn(rng, self.ris_factor, phase.shape)
        z *= self.ue_scale[:, None]
        z += self.surface.zbar * phase[:, :, None]
        return phase, g, z

    def draw_reflections(self, rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
        """H_m^H Phi x_j for a fresh draw of every H_m and the J vectors x_j of each trial.

        ``x`` has shape (trials, J, N); the result (trials, M, J, L) has the
        joint law of H_m^H Phi x_j, over all J vectors and APs, for
        H_m = Hbar_m + F_R W_m A_m^T with every W_m white and r x L, where
        r = N is the column count of F_R. With Y the J x r matrix of rows
        (Phi x_j)^H F_R and the reduced QR Y^H = Q R (R is k x J,
        k = min(r, J), rank-safe for zero or dependent rows),
        Y W_m = R^H (Q^H W_m), and Q^H W_m is white and independent of Y
        because W_m is. So one white k x (M L) matrix per trial replaces the
        r x L draws W_m of all APs: its block V_m stands for conj(Q^H W_m),
        white as well, and the NLoS part of H_m^H Phi x_j is row j of
        R^T V_m A_m^H.
        """
        trials, j, n = x.shape
        y_h = self._ris_rows @ x.reshape(trials * j, n).T
        y_h = y_h.reshape(-1, trials, j).transpose(1, 0, 2)
        r_factor = np.linalg.qr(y_h, mode="r")
        del y_h
        v = standard_cn(rng, (trials, r_factor.shape[1], self.n_aps * self.l))
        return self._reflect_projected(x, r_factor, v)

    def _reflect_projected(
        self, x: np.ndarray, r_factor: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Hbar_m^H Phi x_j + row j of R^T V_m A_m^H, as (trials, M, J, L).

        ``x`` holds the (trials, J, N) vectors x_j, ``r_factor`` the
        (trials, k, J) factors R and ``v`` the (trials, k, M L) white
        matrices, AP-major along the last axis. A_m^H is applied first,
        where k <= J rows are fewer, as one GEMM per AP over the strided
        view of every trial's block m; R^T then meets all APs' blocks in one
        GEMM per trial.
        """
        trials, k, j = r_factor.shape
        m, l = self.n_aps, self.l
        by_ap = (trials * k, m, l)
        coef = np.empty_like(v)
        np.matmul(
            v.reshape(by_ap).swapaxes(0, 1),
            self._ap_factors_h,
            out=coef.reshape(by_ap).swapaxes(0, 1),
        )
        out = r_factor.swapaxes(1, 2) @ coef
        del coef
        los = self._hbar_rows @ x.reshape(trials * j, -1).T
        out += los.T.reshape(trials, j, m * l)
        del los
        return out.reshape(trials, j, m, l).transpose(0, 2, 1, 3)
