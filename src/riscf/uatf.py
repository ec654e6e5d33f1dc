"""The use-and-then-forget (UatF) SINR bound, written once.

With MR combining v_mk at AP m and decoding weights a_k across APs at the
CPU, UE k sees the inner products g_ki[m] = v_mk^H o_mi. The bound keeps
the mean u_ki = E{g_ki} of the own term as the useful signal and treats
everything else as uncorrelated noise:

    SINR_k = p_k |a_k^H u_kk|^2 / (sum_i p_i a_k^H T_ki a_k - p_k |a_k^H u_kk|^2
                                   + sum_m |a_mk|^2 (sigma^2 d_mk + w_mk))

with T_ki = E{g_ki g_ki^H} = cov_ki + u_ki u_ki^H. Every consumer reads
the moment bundle ``UatfMoments`` (u, cov, d, w), which has two
producers: the closed form (``se.closed_form_moments``, straight from a
link's statistics) and the Monte Carlo oracle
(``montecarlo.UatfEstimates.moments``). For fixed weights
the bound is p_k num_k / (sum_i c[k, i] p_i + d_k) (``fixed_weight_form``);
``uatf_sinr`` evaluates it, power control reads (num, c, d), and the
optimal weights maximize it as a generalized Rayleigh quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import solve_hermitian


@dataclass(frozen=True)
class UatfMoments:
    """Moments of the combined channel that the bound needs.

    u[k, i, m] is E{v_mk^H o_mi} and cov[k, i] the covariance of that inner
    product across APs: either its AP diagonal, shape (K, K, M), or the
    full M x M matrix, shape (K, K, M, M). d[m, k] is E{||v_mk||^2} and
    w[m, k] the reflected-interference power after combining.
    """

    u: np.ndarray
    cov: np.ndarray
    d: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class Combining:
    """Decoding weights[m, k] across APs and the SINRs they give."""

    weights: np.ndarray
    sinr: np.ndarray


def fixed_weight_form(
    moments: UatfMoments, weights: np.ndarray, noise_power: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Write the SINR as p_k num_k / (sum_i c[k, i] p_i + d_k).

    num_k = |a_k^H u_kk|^2, c[k, i] = a_k^H cov_ki a_k + (1 - delta_ki)
    |a_k^H u_ki|^2 and d_k = sum_m |a_mk|^2 (sigma^2 d_mk + w_mk). c and d
    are non-negative whenever cov is PSD, which is what the max-min
    feasibility test needs.
    """
    weights = np.asarray(weights)
    if weights.shape != moments.d.shape:
        raise ValueError("weights must have shape (n_aps, n_ues)")
    a = weights.T
    gain = np.abs(np.einsum("km,kim->ki", a.conj(), moments.u)) ** 2
    if moments.cov.ndim == 3:
        spread = np.einsum("kim,km->ki", moments.cov, np.abs(a) ** 2)
    else:
        spread = np.einsum("km,kimn,kn->ki", a.conj(), moments.cov, a).real
    num = gain.diagonal().copy()
    np.fill_diagonal(gain, 0.0)
    d = np.einsum("km,mk->k", np.abs(a) ** 2, noise_power * moments.d + moments.w)
    return num, spread + gain, d


def uatf_sinr(
    moments: UatfMoments, weights: np.ndarray, powers: np.ndarray, noise_power: float
) -> np.ndarray:
    """Effective SINR of every UE for the given weights and data powers."""
    num, c, d = fixed_weight_form(moments, weights, noise_power)
    powers = np.asarray(powers, dtype=float)
    if powers.shape != num.shape:
        raise ValueError("powers must have shape (n_ues,)")
    denom = c @ powers + d
    if np.any(denom <= 0):
        raise ValueError("SINR denominator is not positive")
    return powers * num / denom


def optimal_lsfd_weights(
    moments: UatfMoments, powers: np.ndarray, noise_power: float
) -> Combining:
    """SINR-maximizing decoding weights of every UE.

    The SINR is a generalized Rayleigh quotient in a_k, so the maximizer
    solves B_k a_k = u_kk with B_k = sum_i p_i cov_ki + sum_{i != k} p_i
    u_ki u_ki^H + diag(sigma^2 d_k + w_k) (Bjornson & Sanguinetti, IEEE
    TWC 2020). All K matrices are built as one (K, M, M) stack and solved
    together.
    """
    powers = np.asarray(powers, dtype=float)
    u = moments.u
    ues, aps = np.arange(u.shape[0]), np.arange(u.shape[2])
    others = powers * (1.0 - np.eye(ues.size))
    b = (others[:, :, None] * u).transpose(0, 2, 1) @ u.conj()
    spread = np.einsum("i,ki...->k...", powers, moments.cov)
    diag = (noise_power * moments.d + moments.w).T
    if spread.ndim == 2:
        diag = spread + diag
    else:
        b += spread
    b[:, aps, aps] += diag
    a = solve_hermitian(b, u[ues, ues][:, :, None])[:, :, 0]
    return Combining(weights=a.T, sinr=uatf_sinr(moments, a.T, powers, noise_power))


def combine(
    moments: UatfMoments, combiner: str, powers: np.ndarray, noise_power: float
) -> Combining:
    """Weights of a combiner mode and their SINRs.

    ``lsfd`` optimizes the weights; ``mr`` gives every AP unit weight.
    """
    if combiner == "lsfd":
        return optimal_lsfd_weights(moments, powers, noise_power)
    if combiner == "mr":
        ones = np.ones_like(moments.d, dtype=complex)
        return Combining(weights=ones, sinr=uatf_sinr(moments, ones, powers, noise_power))
    raise ValueError(f"unknown combiner mode: {combiner!r}")
