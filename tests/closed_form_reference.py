"""The paper's closed-form statistics, one (AP, UE, UE) entry at a time.

``paper_terms`` evaluates every statistic of the closed-form SINR with
plain traces and inner products on the link statistics, as written in the
paper, and ``terms_moments`` maps them onto the moment bundle of the UatF
bound. Together they are an oracle for ``se.closed_form_moments``, which
computes the same statistics batched:

    z[m, k]       = p_k^hat tau_p tr(Omega_mk) + ||obar_mk||^2
    xi[k, i, m]   = p_k^hat tau_p (tr(R_mi Omega_mk) + obar_mi^H Omega_mk obar_mi)
                    + obar_mk^H R_mi obar_mk + |obar_mk^H obar_mi|^2
    varpi[k, i, m] = tr(R_mi X_mk) for i in the pilot coset of k, else 0
    j2[m, k]      = ||obar_mk||^4
    w[m, k]       = obar_mk^H R_mm obar_mk + p_k^hat tau_p tr(R_mm Omega_mk)

with R the aggregated covariance, Omega the estimate shape matrix, X =
Psi^{-1} R and R_mm the reflected-EMI covariance at AP m.
"""
from dataclasses import dataclass

import numpy as np

from riscf.estimation import PilotAssignment
from riscf.uatf import UatfMoments


@dataclass(frozen=True)
class PaperTerms:
    """The closed form's statistics plus the pilot data that weighs them."""

    z: np.ndarray
    xi: np.ndarray
    varpi: np.ndarray
    j2: np.ndarray
    w: np.ndarray
    assignment: PilotAssignment
    pilot_powers: np.ndarray
    tau_p: int


def paper_terms(link):
    """Every statistic of the closed-form SINR of one link, entry by entry."""
    obar, r_o = link.stats.obar, link.stats.r_o
    omega, x = link.est.omega, link.est.x
    r_mm = link.r_mm
    tau = link.assignment.tau_p
    n_aps, n_ues = obar.shape[:2]
    p_hat = np.full(n_ues, link.assignment.power)
    z = np.zeros((n_aps, n_ues))
    xi = np.zeros((n_ues, n_ues, n_aps))
    varpi = np.zeros((n_ues, n_ues, n_aps), dtype=complex)
    j2 = np.zeros((n_aps, n_ues))
    w = np.zeros((n_aps, n_ues))
    for m in range(n_aps):
        for k in range(n_ues):
            own = obar[m, k]
            norm2 = np.vdot(own, own).real
            z[m, k] = p_hat[k] * tau * np.trace(omega[m, k]).real + norm2
            j2[m, k] = norm2**2
            w[m, k] = (
                np.vdot(own, r_mm[m] @ own)
                + p_hat[k] * tau * np.trace(r_mm[m] @ omega[m, k])
            ).real
            coset = np.flatnonzero(link.assignment.mask[k])
            for i in range(n_ues):
                other = obar[m, i]
                xi[k, i, m] = (
                    p_hat[k]
                    * tau
                    * (
                        np.trace(r_o[m, i] @ omega[m, k])
                        + np.vdot(other, omega[m, k] @ other)
                    )
                    + np.vdot(own, r_o[m, i] @ own)
                    + abs(np.vdot(own, other)) ** 2
                ).real
                if i in coset:
                    varpi[k, i, m] = np.trace(r_o[m, i] @ x[m, k])
    return PaperTerms(
        z=z,
        xi=xi,
        varpi=varpi,
        j2=j2,
        w=w,
        assignment=link.assignment,
        pilot_powers=p_hat,
        tau_p=tau,
    )


def terms_moments(terms):
    """The (u, cov, d, w) moments of the bound from the paper's statistics.

    u[k, k] = z_k, u[k, i] = sqrt(p_k^hat p_i^hat) tau_p varpi_ki for a
    coset partner i and 0 otherwise; cov[k, i] = xi_ki - delta_ki j2_k on
    the AP diagonal; d = z.
    """
    p_hat, tau = terms.pilot_powers, terms.tau_p
    n_ues = terms.z.shape[1]
    u = np.zeros(terms.varpi.shape, dtype=complex)
    cov = terms.xi.copy()
    for k in range(n_ues):
        for i in range(n_ues):
            u[k, i] = np.sqrt(p_hat[k] * p_hat[i]) * tau * terms.varpi[k, i]
        u[k, k] = terms.z[:, k]
        cov[k, k] -= terms.j2[:, k]
    return UatfMoments(u=u, cov=cov, d=terms.z, w=terms.w)
