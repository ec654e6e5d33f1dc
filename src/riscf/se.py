"""Closed-form producer of the UatF bound's moments, and the SE map.

With maximum-ratio combining at the APs every moment of the
use-and-then-forget bound reduces to deterministic statistics of the
channel estimates.  ``closed_form_moments`` evaluates the paper's
statistics (z, xi, varpi, j2, w) from a link-statistics bundle and returns
them as the moment bundle that ``uatf`` evaluates; the pilot-coset
structure of the contamination is known only here.
"""

from __future__ import annotations

import numpy as np

from .pipeline import LinkStatistics
from .uatf import UatfMoments

_IMAG_TOL = 1e-9


def _real_part(values: np.ndarray, what: str) -> np.ndarray:
    """Strip a provably-real quantity's numerical imaginary residue.

    The residue may reach ``_IMAG_TOL`` times the largest magnitude, or
    ``_IMAG_TOL`` itself below unit magnitude. A residue within
    ``_IMAG_TOL`` passes on two reductions of the imaginary part; only a
    larger one reads the magnitudes.
    """
    values = np.asarray(values)
    if not np.iscomplexobj(values):
        return values
    residue = values.imag
    if residue.size and max(residue.max(), -residue.min()) > _IMAG_TOL:
        scale = float(np.abs(values).max())
        if np.abs(residue).max() > _IMAG_TOL * max(scale, 1.0):
            raise ValueError(f"{what} has a non-negligible imaginary part")
    return values.real.copy()


def closed_form_moments(link: LinkStatistics) -> UatfMoments:
    """The bound's moment bundle of one scenario in closed form.

    The paper's statistics, per AP m and UE pair (k, i):
    z[m, k] is the mean-square norm of the estimate of UE k at AP m,
    xi[k, i, m] the mean interference power from UE i into the combiner of
    UE k, varpi[k, i, m] the coherent pilot-contamination trace (zero off
    the pilot coset), j2[m, k] the fourth power of the LoS mean norm, and
    w[m, k] the reflected-interference power after combining.

    They map onto the moments as d = z and w = w; u[k, k] is z_k, a coset
    partner i of UE k carries the coherent mean p_hat tau_p varpi_ki, with
    p_hat the one pilot power ``p_max``, and every other u[k, i] averages
    to zero.  cov keeps only its AP diagonal,
    E{|v_mk^H o_mi|^2} - |u[k, i, m]|^2 = xi_ki - delta_ki j2_k.  That is
    an approximation: every AP sees the same RIS-to-UE channel z_k and the
    same UE phase theta_k, so the inner products at different APs are
    correlated through the cascade.  It holds
    while the direct links dominate and fails when they are weak; with them
    removed, every UE's simulated SINR falls well below this bound
    (``tests/test_montecarlo.py::test_run_path_matches_closed_form_sinr``).

    Every (k, i) statistic is a trace against R_mi or Omega_mk, so each is
    one batched GEMM per AP on the flattened L^2 axis, (M, K, L^2) @
    (M, L^2, K): tr(Omega_mk R_mi), tr(X_mk R_mi) and the LoS forms
    against P_mk = vec(conj(obar_mk) obar_mk^T), with obar^H obar an
    (M, K, L) @ (M, L, K) product; w's two terms are GEMMs against the
    flattened R_mm.
    """
    stats = link.stats
    est = link.est
    obar = stats.obar
    omega = est.omega
    p_hat = link.assignment.power
    tau_p = link.assignment.tau_p
    n_aps, n_ues, n_antennas = obar.shape
    flat = (n_aps, n_ues, n_antennas * n_antennas)

    trace_omega = _real_part(np.trace(omega, axis1=-2, axis2=-1), "trace of omega")
    obar_norm2 = _real_part(
        np.einsum("mka,mka->mk", obar.conj(), obar), "LoS norm"
    )
    z = p_hat * tau_p * trace_omega + obar_norm2

    # tr(A_mk B_mi) = vec(A_mk^T) . vec(B_mi) and obar^H B obar = P . vec(B):
    # each GEMM gives [m, k, i], moved to [k, i, m] at the end.
    r_cols = stats.r_o.reshape(flat).swapaxes(1, 2)
    omega_t = omega.swapaxes(-1, -2).reshape(flat)
    los_outer = (obar.conj()[..., :, None] * obar[..., None, :]).reshape(flat)
    est_cross = omega_t @ r_cols
    los_through = los_outer @ r_cols
    los_filtered = omega.reshape(flat) @ los_outer.swapaxes(1, 2)
    los_inner = obar.conj() @ obar.swapaxes(1, 2)
    xi = _real_part(
        (
            p_hat * tau_p * (est_cross + los_filtered)
            + los_through
            + np.abs(los_inner) ** 2
        ).transpose(1, 2, 0),
        "interference statistic",
    )

    varpi = est.x.swapaxes(-1, -2).reshape(flat) @ r_cols
    varpi = varpi.transpose(1, 2, 0) * link.assignment.mask[:, :, None]

    j2 = obar_norm2**2
    r_mm_col = link.r_mm.reshape(n_aps, -1, 1)
    w = _real_part(
        (los_outer @ r_mm_col + p_hat * tau_p * (omega_t @ r_mm_col))[..., 0],
        "reflected interference statistic",
    )

    u = p_hat * tau_p * varpi
    ues = np.arange(n_ues)
    u[ues, ues] = z.T
    cov = xi
    cov[ues, ues] -= j2.T
    return UatfMoments(u=u, cov=cov, d=z, w=w)


def spectral_efficiency(sinr: np.ndarray, prelog: float) -> np.ndarray:
    """Map per-UE SINR to spectral efficiency in bit/s/Hz."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(~np.isfinite(sinr)) or np.any(sinr < 0):
        raise ValueError("SINR values must be finite and non-negative")
    return prelog * np.log2(1.0 + sinr)
