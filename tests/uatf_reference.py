"""Dense reference for the UatF bound, used as a test oracle.

``dense_second_moment`` expands a moment bundle into the full second
moments T[k, i] = E{g_ki g_ki^H} = cov_ki + u_ki u_ki^H, one M x M matrix
per UE pair, and ``textbook_sinr`` evaluates the bound over them one UE at
a time:

    p_k |a^H u_kk|^2 / (sum_i p_i a^H T_ki a - p_k |a^H u_kk|^2
                        + sigma^2 sum_m |a_m|^2 d_mk + sum_m |a_m|^2 w_mk)

This is the textbook quotient, written without the fixed-weight form the
package uses.
"""
import numpy as np


def dense_second_moment(moments):
    """T as a (K, K, M, M) array; an AP-diagonal cov is expanded first."""
    cov = moments.cov
    if cov.ndim == 3:
        cov = cov[..., None] * np.eye(cov.shape[-1])
    u = moments.u
    return cov + np.einsum("kim,kin->kimn", u, u.conj())


def textbook_sinr(u, t, d, w, weights, powers, noise_power):
    """Per-UE quotient over dense second moments t[k, i] (M x M each)."""
    sinr = np.zeros(weights.shape[1])
    for k in range(weights.shape[1]):
        a = weights[:, k]
        aw2 = np.abs(a) ** 2
        signal = powers[k] * np.abs(a.conj() @ u[k, k]) ** 2
        quad = np.einsum("i,m,imn,n->", powers, a.conj(), t[k], a).real
        denom = quad - signal + noise_power * float(aw2 @ d[:, k]) + float(aw2 @ w[:, k])
        assert denom > 0
        sinr[k] = signal / denom
    return sinr
