"""Dense reference for the RIS cascade statistics, used as a test oracle.

Materializes the (NL x NL) RIS-to-AP covariance rtilde_m = (R_m^T kron
R_r,m) / (L N beta_m) with R_r,m = beta_m^NLoS A_r R, and the RIS-to-UE
covariance beta_k^NLoS A_r R, straight from the scenario, then evaluates
Q1, Q2 and the EMI term Q_m as block traces with
``linalg.quadratic_block_trace``. It costs O(M K (NL)^2) per drop, which
is why the package uses the structured form instead.
"""
import numpy as np

from riscf.linalg import quadratic_block_trace


def dense_nlos(ris, scenario, config, r_m):
    """Stacks rtilde_m (M, NL, NL) and rtilde_k (K, N, N); zero with the RIS off."""
    l, n = config.n_ap_antennas, config.n_ris_elements
    a_r = ris.element_area
    on = 0.0 if config.ris == "off" else 1.0
    rtilde_m = np.stack(
        [
            on
            * np.kron(r_m[m].T, scenario.beta_m_nlos[m] * a_r * ris.R)
            / (l * n * scenario.beta_m[m])
            for m in range(config.n_aps)
        ]
    )
    rtilde_k = on * scenario.beta_k_nlos[:, None, None] * a_r * ris.R[None, :, :]
    return rtilde_m, rtilde_k


def dense_aggregated(r_direct, los, rtilde_m, rtilde_k):
    """obar, r_o, q1 and q2 by per-(AP, UE) block traces against rtilde_m."""
    n_aps, n, l = los.hbar.shape
    n_ues = los.zbar.shape[0]
    obar = np.einsum("mna,n,kn->mka", los.hbar.conj(), los.phi, los.zbar)

    g_phase = los.phi.conj()[None, :, None] * los.hbar
    cascade = np.einsum("mna,knp,mpb->mkab", g_phase.conj(), rtilde_k, g_phase)

    phi_z = los.phi[None, :] * los.zbar
    b_k = phi_z[:, :, None] * phi_z.conj()[:, None, :]
    phi_rk = np.einsum("n,knp,p->knp", los.phi, rtilde_k, los.phi.conj())

    q1 = np.empty((n_aps, n_ues, l, l), dtype=complex)
    q2 = np.empty((n_aps, n_ues, l, l), dtype=complex)
    for m in range(n_aps):
        for k in range(n_ues):
            q1[m, k] = quadratic_block_trace(b_k[k], rtilde_m[m], n, l)
            q2[m, k] = quadratic_block_trace(phi_rk[k], rtilde_m[m], n, l)
    return {"obar": obar, "r_o": r_direct + cascade + q1 + q2, "q1": q1, "q2": q2}


def dense_emi(hbar, phi, R, rtilde_m, sigma_r2, element_area):
    """r_mm and q_m, with q_m the block trace of Phi R Phi^H against rtilde_m."""
    n_aps, n, l = hbar.shape
    phi_r = phi[:, None] * R * phi.conj()[None, :]
    los_part = np.einsum("mna,np,mpb->mab", hbar.conj(), phi_r, hbar)
    q_m = np.stack(
        [
            sigma_r2 * element_area * quadratic_block_trace(phi_r, rtilde_m[m], n, l)
            for m in range(n_aps)
        ]
    )
    return {"r_mm": sigma_r2 * element_area * los_part + q_m, "q_m": q_m}
