"""Dense references for the RIS cascade and the Monte Carlo oracle.

The cascade statistics: materializes the (NL x NL) RIS-to-AP covariance
rtilde_m = (R_m^T kron R_r,m) / (L N beta_m) with R_r,m = beta_m^NLoS A_r R,
and the RIS-to-UE covariance beta_k^NLoS A_r R, straight from the scenario,
then evaluates Q1, Q2 and the EMI term Q_m as block traces with
``quadratic_block_trace``. It costs O(M K (NL)^2) per drop, which is why
the package uses the structured form instead.

The Monte Carlo oracle: ``draw`` samples joint realizations from a
``ChannelSampler``'s factors with every RIS-to-AP channel H_m formed, and
``dense_uatf_terms`` is the per-trial loop that reflects through those H
and feeds the (trials, K, K, M, M) outer products u u^H to
``RunningMoments.update``. Unlike the package's Monte Carlo, which keeps
only the projections onto given decoding weights, it keeps the dense
moments u and T = E{u u^H} that the closed form predicts entry by entry.
"""
from dataclasses import dataclass

import numpy as np

from riscf.channel import ChannelSampler
from riscf.emi import sample_emi
from riscf.estimation import mmse_estimate
from riscf.linalg import sample_cn, sample_phases, standard_cn
from riscf.montecarlo import OracleEstimate, RunningMoments
from riscf.uatf import UatfMoments


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


def dense_nlos(surface, scenario, config, r_m, ris):
    """Stacks rtilde_m (M, NL, NL) and rtilde_k (K, N, N); zero with ``ris`` "off"."""
    l, n = config.n_ap_antennas, config.n_ris_elements
    a_r = surface.element_area
    on = 0.0 if ris == "off" else 1.0
    rtilde_m = np.stack(
        [
            on
            * np.kron(r_m[m].T, scenario.beta_m_nlos[m] * a_r * surface.R)
            / (l * n * scenario.beta_m[m])
            for m in range(config.n_aps)
        ]
    )
    rtilde_k = on * scenario.beta_k_nlos[:, None, None] * a_r * surface.R[None, :, :]
    return rtilde_m, rtilde_k


def dense_aggregated(r_direct, surface, rtilde_m, rtilde_k):
    """obar, r_o, q1 and q2 by per-(AP, UE) block traces against rtilde_m."""
    n_aps, n, l = surface.hbar.shape
    n_ues = surface.zbar.shape[0]
    obar = np.einsum("mna,n,kn->mka", surface.hbar.conj(), surface.phi, surface.zbar)

    g_phase = surface.phi.conj()[None, :, None] * surface.hbar
    cascade = np.einsum("mna,knp,mpb->mkab", g_phase.conj(), rtilde_k, g_phase)

    phi_z = surface.phi[None, :] * surface.zbar
    b_k = phi_z[:, :, None] * phi_z.conj()[:, None, :]
    phi_rk = np.einsum("n,knp,p->knp", surface.phi, rtilde_k, surface.phi.conj())

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


@dataclass(frozen=True)
class DenseDraw:
    """A batch of joint draws with every RIS-to-AP channel formed.

    g, z, o and phase lead with the trial axis. ``w`` holds the white draws
    W_m of H_m = Hbar_m + F_R W_m A_m^T, shape (M, trials, r, L), and ``h``
    the H_m themselves, shape (trials, M, N, L); ``phi`` is the diagonal of
    Phi.
    """

    phase: np.ndarray
    g: np.ndarray
    w: np.ndarray
    z: np.ndarray
    h: np.ndarray
    o: np.ndarray
    phi: np.ndarray

    def reflect(self, x):
        """H_m^H Phi x for every AP m and every RIS-side vector of ``x``.

        ``x`` has shape (trials, ..., N) with this batch's trial axis; the
        result has shape (trials, M, ..., L).
        """
        return np.einsum("tmna,n,t...n->tm...a", self.h.conj(), self.phi, x)


def draw(sampler, rng, trials, phase=None):
    """``trials`` joint realizations from the factors of ``sampler``.

    Draw order: the UE LoS phase factors (unless ``phase`` is given), the
    direct channels g, the W_m of every AP in one AP-major draw, then the
    RIS-to-UE channels z; o = g + H^H Phi z.
    """
    surface = sampler.surface
    m, l, k = sampler.n_aps, sampler.l, sampler.n_ues
    if phase is None:
        phase = sample_phases(rng, (trials, k))
    g = np.einsum("mkab,tmkb->tmka", sampler.g_factors, standard_cn(rng, (trials, m, k, l)))
    w = standard_cn(rng, (m, trials, sampler.ris_factor.shape[1], l))
    z = sample_cn(rng, sampler.ris_factor, phase.shape)
    z *= sampler.ue_scale[:, None]
    z += surface.zbar * phase[:, :, None]
    nlos = np.einsum(
        "nr,mtrb,mab->tmna", sampler.ris_factor, w, sampler.ap_factors, optimize=True
    )
    h = surface.hbar[None] + nlos
    o = g + np.einsum("tmna,n,tkn->tmka", h.conj(), surface.phi, z)
    return DenseDraw(phase=phase, g=g, w=w, z=z, h=h, o=o, phi=surface.phi)


@dataclass(frozen=True)
class DenseEstimates:
    """Sample moments of the combined statistics, dense across APs.

    u[k, i, m] is E{v_mk^H o_mi}, t[k, i] the M x M second moment of that
    inner product across APs, d[m, k] the mean squared combiner norm and
    u_emi[m, k] the mean reflected-interference power after combining.
    """

    u: OracleEstimate
    t: OracleEstimate
    d: OracleEstimate
    u_emi: OracleEstimate

    def moments(self):
        """The sample means as the dense bundle, with cov = t - u u^H."""
        u = self.u.mean
        cov = self.t.mean - np.einsum("kim,kin->kimn", u, u.conj())
        return UatfMoments(u=u, cov=cov, d=self.d.mean.real, w=self.u_emi.mean.real)


def dense_batch(link, sampler, rng, trials):
    """o, the MMSE estimates v and the reflected data EMI q of ``trials`` trials.

    Draw order: ``draw``, the pilot EMI, the AP noise, the data EMI.
    Reflections are einsums against the dense H, and the pilot observation
    is assembled UE by UE.
    """
    cfg = link.config
    n_aps, n_ant, tau_p = cfg.n_aps, cfg.n_ap_antennas, cfg.tau_p
    phi = link.surface.phi
    emi_power = link.sigma_r2 * link.surface.element_area
    real = draw(sampler, rng, trials)
    h, o = real.h, real.o
    emi_pilot = sample_emi(rng, emi_power, sampler.ris_factor, (trials, tau_p))
    raw = rng.standard_normal((trials, n_aps, n_ant, tau_p, 2))
    ap_noise = np.sqrt(cfg.noise_power / 2.0) * (raw[..., 0] + 1j * raw[..., 1])
    reflected = np.einsum("tmna,n,tpn->tmap", h.conj(), phi, emi_pilot)
    noise = np.sqrt(tau_p) * (reflected + ap_noise)
    p_hat = np.full(cfg.n_ues, link.assignment.power)
    y = np.empty_like(o)
    for k in range(cfg.n_ues):
        pilot = k % tau_p
        coset = np.flatnonzero(link.assignment.mask[k])
        scale = np.sqrt(p_hat[coset]) * tau_p
        y[:, :, k] = np.einsum("i,tmia->tma", scale, o[:, :, coset]) + noise[..., pilot]
    v = mmse_estimate(y, link.stats, link.est, link.assignment, real.phase)
    n_data = sample_emi(rng, emi_power, sampler.ris_factor, (trials,))
    q = np.einsum("tmnl,n,tn->tml", h.conj(), phi, n_data)
    return o, v, q


def dense_estimates(batches, n_aps, n_ues):
    """Accumulate (o, v, q) batches, T as the explicit per-trial outer products."""
    acc_u = RunningMoments((n_ues, n_ues, n_aps))
    acc_t = RunningMoments((n_ues, n_ues, n_aps, n_aps))
    acc_d = RunningMoments((n_aps, n_ues))
    acc_e = RunningMoments((n_aps, n_ues))
    for o, v, q in batches:
        u = np.einsum("tmkl,tmil->tkim", v.conj(), o)
        acc_u.update(u)
        acc_t.update(np.einsum("tkim,tkin->tkimn", u, u.conj()))
        acc_d.update(np.einsum("tmkl,tmkl->tmk", v.conj(), v).real)
        acc_e.update(np.abs(np.einsum("tmkl,tml->tmk", v.conj(), q)) ** 2)
    return DenseEstimates(
        u=acc_u.finalize(), t=acc_t.finalize(), d=acc_d.finalize(), u_emi=acc_e.finalize()
    )


def dense_uatf_terms(link, trials, rng, chunk_size):
    """The dense moments from ``trials`` trials drawn in chunks of ``chunk_size``."""
    rng = np.random.default_rng(rng)
    sampler = ChannelSampler(link.stats, link.surface)
    sizes = [min(chunk_size, trials - start) for start in range(0, trials, chunk_size)]
    batches = (dense_batch(link, sampler, rng, size) for size in sizes)
    return dense_estimates(batches, link.config.n_aps, link.config.n_ues)
