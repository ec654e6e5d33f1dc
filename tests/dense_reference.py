"""Dense references for the RIS cascade and the Monte Carlo oracle.

The cascade statistics: materializes the (NL x NL) RIS-to-AP covariance
rtilde_m = (R_m^T kron R_r,m) / (L N beta_m) with R_r,m = beta_m^NLoS A_r R,
and the RIS-to-UE covariance beta_k^NLoS A_r R, straight from the scenario,
then evaluates Q1, Q2 and the EMI term Q_m as block traces with
``quadratic_block_trace``. It costs O(M K (NL)^2) per drop, which is why
the package uses the structured form instead.

The Monte Carlo oracle: ``dense_h`` forms every RIS-to-AP channel H_m of a
realization, and ``dense_uatf_terms`` is the per-trial loop that reflects
through those H and feeds the (trials, K, K, M, M) outer products to
``RunningMoments.update``, on the same random stream as
``estimate_uatf_terms`` without weights (its validation path).
"""
import numpy as np

from riscf.channel import ChannelSampler
from riscf.emi import sample_emi
from riscf.estimation import mmse_estimate
from riscf.montecarlo import RunningMoments, UatfEstimates


def quadratic_block_trace(a, cov, n, l):
    """E{X^H A X} for X with column-major vec covariance ``cov``.

    X is n x l, ``cov`` is (nl x nl) laid out in n-sized blocks: block
    (r, c) spans rows rn..(r+1)n and columns cn..(c+1)n (0-based half-open
    ranges). The (l, l') output entry is tr(A block(l', l)), which reduces
    to the familiar trace identity when cov is Kronecker.
    """
    if cov.shape != (n * l, n * l):
        raise ValueError(f"covariance must be {(n * l, n * l)}, got {cov.shape}")
    blocks = cov.reshape(l, n, l, n)
    return np.einsum("ab,pbqa->qp", a, blocks)


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


def dense_h(real):
    """H_m = Hbar_m + F_R W_m A_m^T of every trial, shape (trials, M, N, L)."""
    sampler = real.sampler
    nlos = np.einsum("nr,mtrb,mab->tmna", sampler.ris_factor, real.w, sampler.ap_factors)
    return sampler.los.hbar[None] + nlos


def dense_uatf_terms(link, trials, rng, chunk_size):
    """``estimate_uatf_terms`` as a per-trial loop over the dense H.

    Reflections are h.conj() einsums against H, the pilot observation is
    assembled UE by UE, and T accumulates the explicit per-trial outer
    products u u^H.
    """
    rng = np.random.default_rng(rng)
    cfg = link.config
    n_aps, n_ues, n_ant, tau_p = cfg.n_aps, cfg.n_ues, cfg.n_ap_antennas, cfg.tau_p
    phi = link.los.phi
    sampler = ChannelSampler(link.stats, link.los, link.nlos)
    emi_power = link.sigma_r2 * link.ris.element_area
    acc_u = RunningMoments((n_ues, n_ues, n_aps))
    acc_t = RunningMoments((n_ues, n_ues, n_aps, n_aps))
    acc_d = RunningMoments((n_aps, n_ues))
    acc_e = RunningMoments((n_aps, n_ues))
    remaining = trials
    while remaining > 0:
        batch = min(chunk_size, remaining)
        remaining -= batch
        real = sampler.draw(rng, batch)
        h = dense_h(real)
        o = real.g + np.einsum("tmna,n,tkn->tmka", h.conj(), phi, real.z)
        emi_pilot = sample_emi(rng, emi_power, sampler.ris_factor, (batch, tau_p))
        raw = rng.standard_normal((batch, n_aps, n_ant, tau_p, 2))
        ap_noise = np.sqrt(cfg.noise_power / 2.0) * (raw[..., 0] + 1j * raw[..., 1])
        reflected = np.einsum("tmna,n,tpn->tmap", h.conj(), phi, emi_pilot)
        noise = np.sqrt(tau_p) * (reflected + ap_noise)
        y = np.empty_like(o)
        for k in range(n_ues):
            pilot = link.assignment.pilot_of[k]
            coset = link.assignment.coset(k)
            scale = np.sqrt(link.assignment.powers[coset]) * tau_p
            y[:, :, k] = np.einsum("i,tmia->tma", scale, o[:, :, coset]) + noise[..., pilot]
        v = mmse_estimate(y, link.stats, link.est, link.assignment, real.phase)
        u = np.einsum("tmkl,tmil->tkim", v.conj(), o)
        acc_u.update(u)
        acc_t.update(np.einsum("tkim,tkin->tkimn", u, u.conj()))
        acc_d.update(np.einsum("tmkl,tmkl->tmk", v.conj(), v).real)
        n_data = sample_emi(rng, emi_power, sampler.ris_factor, (batch,))
        q = np.einsum("tmnl,n,tn->tml", h.conj(), phi, n_data)
        acc_e.update(np.abs(np.einsum("tmkl,tml->tmk", v.conj(), q)) ** 2)
    return UatfEstimates(
        u=acc_u.finalize(), t=acc_t.finalize(), d=acc_d.finalize(), u_emi=acc_e.finalize()
    )
