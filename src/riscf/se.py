"""Closed-form uplink SINR and spectral efficiency with LSFD combining.

The achievable rate bound treats the average effective channel as the
useful signal and everything else (beamforming gain uncertainty,
interference, reflected electromagnetic interference, thermal noise) as
worst-case uncorrelated noise.  With maximum-ratio combining at the APs
every ingredient of that bound reduces to deterministic statistics of the
channel estimates, which this module assembles from a link-statistics
bundle.  Second-level decoding weights can be either fixed (equal) or
optimized per UE through a generalized Rayleigh quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import PilotAssignment, _coset_mask
from .linalg import solve_hermitian
from .pipeline import LinkStatistics

_IMAG_TOL = 1e-9


def _real_part(values: np.ndarray, what: str) -> np.ndarray:
    """Strip a provably-real quantity's numerical imaginary residue."""
    values = np.asarray(values)
    if not np.iscomplexobj(values):
        return values
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    tol = _IMAG_TOL * max(scale, 1.0)
    if np.max(np.abs(values.imag)) > tol:
        raise ValueError(f"{what} has a non-negligible imaginary part")
    return values.real.copy()


@dataclass(frozen=True)
class SinrTerms:
    """Deterministic ingredients of the closed-form SINR.

    z[m, k] is the mean-square norm of the estimate of UE k at AP m,
    xi[k, i, m] the mean interference power from UE i into the combiner of
    UE k at AP m, varpi[k, i, m] the coherent pilot-contamination trace
    (zero off the pilot coset), j2[m, k] the fourth power of the LoS mean
    norm, and w[m, k] the reflected-interference power after combining.
    """

    z: np.ndarray
    xi: np.ndarray
    varpi: np.ndarray
    j2: np.ndarray
    w: np.ndarray
    assignment: PilotAssignment
    pilot_powers: np.ndarray
    tau_p: int


@dataclass(frozen=True)
class LsfdWeights:
    """Per-UE decoding weights across APs and the resulting SINRs."""

    weights: np.ndarray
    sinr: np.ndarray


@dataclass(frozen=True)
class SeResult:
    """SINR, spectral efficiency, and the weights that produced them."""

    sinr: np.ndarray
    se: np.ndarray
    weights: np.ndarray


def build_sinr_terms(link: LinkStatistics) -> SinrTerms:
    """Evaluate every statistic the SINR expressions need for one scenario."""
    stats = link.stats
    est = link.est
    obar = stats.obar
    r_o = stats.r_o
    omega = est.omega
    r_mm = link.emi_cov.r_mm
    p_hat = link.pilot_powers
    tau_p = link.assignment.tau_p

    trace_omega = _real_part(np.trace(omega, axis1=-2, axis2=-1), "trace of omega")
    obar_norm2 = _real_part(
        np.einsum("mka,mka->mk", obar.conj(), obar), "LoS norm"
    )
    z = p_hat[None, :] * tau_p * trace_omega + obar_norm2

    est_cross = np.einsum("miab,mkba->kim", r_o, omega)
    los_through = np.einsum("mka,miab,mkb->kim", obar.conj(), r_o, obar)
    los_filtered = np.einsum("mia,mkab,mib->kim", obar.conj(), omega, obar)
    los_inner = np.einsum("mka,mia->kim", obar.conj(), obar)
    xi = _real_part(
        p_hat[:, None, None] * tau_p * (est_cross + los_filtered)
        + los_through
        + np.abs(los_inner) ** 2,
        "interference statistic",
    )

    x = solve_hermitian(est.psi, r_o)
    varpi = np.einsum("miab,mkba->kim", r_o, x)
    mask = _coset_mask(link.assignment)
    varpi = varpi * mask[:, :, None]

    j2 = obar_norm2**2
    w = _real_part(
        np.einsum("mka,mab,mkb->mk", obar.conj(), r_mm, obar)
        + p_hat[None, :] * tau_p * np.einsum("mab,mkba->mk", r_mm, omega),
        "reflected interference statistic",
    )
    return SinrTerms(
        z=z,
        xi=xi,
        varpi=varpi,
        j2=j2,
        w=w,
        assignment=link.assignment,
        pilot_powers=np.asarray(p_hat, dtype=float),
        tau_p=tau_p,
    )


def closed_form_u(terms: SinrTerms) -> np.ndarray:
    """Mean inner product between combiner k and channel i, per AP.

    Index order [k, i, m].  The diagonal equals z; coset partners carry the
    coherent contamination trace; everything else averages to zero.
    """
    n_ues = terms.z.shape[1]
    p_hat = terms.pilot_powers
    coherent = (
        np.sqrt(p_hat[:, None] * p_hat[None, :])[:, :, None]
        * terms.tau_p
        * terms.varpi
    )
    u = coherent.astype(complex)
    idx = np.arange(n_ues)
    u[idx, idx, :] = terms.z.T
    return u


def closed_form_t_matrices(terms: SinrTerms) -> np.ndarray:
    """Second moment of the combined interference, per UE pair.

    Returns t[k, i] as an M x M matrix so Monte Carlo estimates of
    E{u_ki u_ki^H} can be checked entrywise.
    """
    n_aps, n_ues = terms.z.shape
    p_hat = terms.pilot_powers
    tau_p = terms.tau_p
    mask = _coset_mask(terms.assignment)
    t = np.zeros((n_ues, n_ues, n_aps, n_aps), dtype=complex)
    for k in range(n_ues):
        for i in range(n_ues):
            diag = terms.xi[k, i].astype(complex)
            if i == k:
                diag = diag - terms.j2[:, k]
                t[k, i] = np.diag(diag) + np.outer(terms.z[:, k], terms.z[:, k])
            elif mask[k, i]:
                vp = terms.varpi[k, i]
                t[k, i] = np.diag(diag) + p_hat[k] * p_hat[i] * tau_p**2 * np.outer(
                    vp, vp.conj()
                )
            else:
                t[k, i] = np.diag(diag)
    return t


def _denominator(
    terms: SinrTerms,
    weights: np.ndarray,
    powers: np.ndarray,
    noise_power: float,
) -> np.ndarray:
    p_hat = terms.pilot_powers
    tau_p = terms.tau_p
    aw2 = np.abs(weights) ** 2
    interference = np.einsum("i,kim,mk->k", powers, terms.xi, aw2)
    inner = np.einsum("mk,kim->ki", weights.conj(), terms.varpi)
    coherent_gain = np.abs(inner) ** 2
    off_coset = _coset_mask(terms.assignment) - np.eye(terms.z.shape[1])
    contamination = (
        tau_p**2
        * p_hat
        * np.einsum("i,ki->k", powers * p_hat, coherent_gain * off_coset)
    )
    signal_overlap = powers * np.einsum("mk,mk->k", aw2, terms.j2)
    noise = noise_power * np.einsum("mk,mk->k", aw2, terms.z)
    reflected = np.einsum("mk,mk->k", aw2, terms.w)
    return interference + contamination + noise + reflected - signal_overlap


def sinr_lsfd_closed_form(
    terms: SinrTerms,
    weights: np.ndarray,
    powers: np.ndarray,
    noise_power: float,
) -> np.ndarray:
    """Closed-form effective SINR per UE for arbitrary decoding weights."""
    powers = np.asarray(powers, dtype=float)
    weights = np.asarray(weights)
    if weights.shape != terms.z.shape:
        raise ValueError("weights must have shape (n_aps, n_ues)")
    signal = powers * np.abs(np.einsum("mk,mk->k", weights.conj(), terms.z)) ** 2
    denom = _denominator(terms, weights, powers, noise_power)
    if np.any(denom <= 0):
        raise ValueError("SINR denominator is not positive")
    return signal / denom


def sinr_equal_weights(
    terms: SinrTerms, powers: np.ndarray, noise_power: float
) -> np.ndarray:
    """Closed-form SINR when every AP contributes with unit weight."""
    ones = np.ones_like(terms.z, dtype=float)
    return sinr_lsfd_closed_form(terms, ones, powers, noise_power)


def optimal_lsfd_weights(
    terms: SinrTerms, powers: np.ndarray, noise_power: float
) -> LsfdWeights:
    """SINR-maximizing decoding weights per UE.

    The SINR is a generalized Rayleigh quotient in the weight vector, so
    the maximizer solves B_k a_k = z_k and achieves p_k z_k^H B_k^{-1} z_k.
    B_k is diagonal plus one rank-1 term p_i p_k^hat p_i^hat tau_p^2
    varpi_ki varpi_ki^H per coset partner i of UE k; all K matrices are
    built as one (K, M, M) stack and solved together.
    """
    powers = np.asarray(powers, dtype=float)
    n_ues = terms.z.shape[1]
    p_hat = terms.pilot_powers
    off_coset = _coset_mask(terms.assignment) - np.eye(n_ues)
    diag = (
        np.einsum("i,kim->km", powers, terms.xi)
        - powers[:, None] * terms.j2.T
        + noise_power * terms.z.T
        + terms.w.T
    )
    coef = terms.tau_p**2 * np.outer(p_hat, powers * p_hat) * off_coset
    b = (coef[:, :, None] * terms.varpi).transpose(0, 2, 1) @ terms.varpi.conj()
    idx = np.arange(terms.z.shape[0])
    b[:, idx, idx] += diag
    a = solve_hermitian(b, terms.z.T[:, :, None].astype(complex))[:, :, 0]
    sinr = powers * _real_part(np.einsum("km,km->k", terms.z.T, a), "optimal SINR")
    return LsfdWeights(weights=a.T, sinr=sinr)


def spectral_efficiency(sinr: np.ndarray, prelog: float) -> np.ndarray:
    """Map per-UE SINR to spectral efficiency in bit/s/Hz."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(~np.isfinite(sinr)) or np.any(sinr < 0):
        raise ValueError("SINR values must be finite and non-negative")
    return prelog * np.log2(1.0 + sinr)


def evaluate_closed_form(
    link: LinkStatistics, powers: np.ndarray, combiner: str | None = None
) -> SeResult:
    """Closed-form SINR and SE for a scenario under the configured combiner."""
    cfg = link.config
    mode = combiner if combiner is not None else cfg.combiner
    terms = build_sinr_terms(link)
    noise = cfg.noise_power
    if mode == "lsfd":
        opt = optimal_lsfd_weights(terms, powers, noise)
        weights, sinr = opt.weights, opt.sinr
    elif mode == "mr":
        weights = np.ones_like(terms.z, dtype=complex)
        sinr = sinr_equal_weights(terms, powers, noise)
    else:
        raise ValueError(f"unknown combiner mode: {mode!r}")
    se = spectral_efficiency(sinr, cfg.prelog)
    return SeResult(sinr=sinr, se=se, weights=weights)
