"""Closed-form producer of the UatF bound's moments, and the SE map.

With maximum-ratio combining at the APs every moment of the
use-and-then-forget bound reduces to deterministic statistics of the
channel estimates.  ``build_sinr_terms`` evaluates them from a
link-statistics bundle and ``closed_form_moments`` turns them into the
moment bundle that ``uatf`` evaluates; the pilot-coset structure of the
contamination is known only here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import PilotAssignment, _coset_mask
from .pipeline import LinkStatistics
from .uatf import UatfMoments

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

    varpi = np.einsum("miab,mkba->kim", r_o, est.x)
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


def closed_form_moments(terms: SinrTerms) -> UatfMoments:
    """The bound's moment bundle in closed form.

    u[k, k] is z_k; a coset partner i of UE k carries the coherent
    pilot-contamination mean sqrt(p_k^hat p_i^hat) tau_p varpi_ki, and
    every other u[k, i] averages to zero.  Channels and estimates at
    different APs are independent, so cov keeps only its AP diagonal,
    E{|v_mk^H o_mi|^2} - |u[k, i, m]|^2 = xi_ki - delta_ki j2_k.
    """
    p_hat = terms.pilot_powers
    coherent = np.sqrt(np.outer(p_hat, p_hat))[:, :, None] * terms.tau_p
    u = (coherent * terms.varpi).astype(complex)
    ues = np.arange(terms.z.shape[1])
    u[ues, ues] = terms.z.T
    cov = terms.xi.copy()
    cov[ues, ues] -= terms.j2.T
    return UatfMoments(u=u, cov=cov, d=terms.z, w=terms.w)


def spectral_efficiency(sinr: np.ndarray, prelog: float) -> np.ndarray:
    """Map per-UE SINR to spectral efficiency in bit/s/Hz."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(~np.isfinite(sinr)) or np.any(sinr < 0):
        raise ValueError("SINR values must be finite and non-negative")
    return prelog * np.log2(1.0 + sinr)
