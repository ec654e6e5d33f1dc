"""Monte Carlo producer of the UatF bound's moments.

Samples channels, pilot noise, and reflected interference, runs the actual
MMSE estimator on each draw, and averages the combined statistics that the
closed forms predict deterministically.  ``UatfEstimates.moments`` hands
the sample means to ``uatf`` as the same moment bundle the closed form
produces.  Work proceeds in chunks from a caller-seeded generator, so an
estimate is bit-for-bit reproducible no matter how the surrounding run is
scheduled.

A trial costs its Gaussian draws plus GEMMs, and the RIS-to-AP channels H
are never formed.  Memory is bounded by ``CHUNK_BYTES``: the default chunk
holds as many trials as fit it (``chunk_trials``), at most
``CHUNK_TRIALS``, counted from the shapes alone.

Both paths run one trial body (``_trials``): it draws the phases, the
direct channels g, the RIS-to-UE channels z and both EMI draws in one
order, stacks the K + tau_p + 1 RIS-side vectors a trial reflects (z, the
pilot EMI symbols, the data EMI) and reflects them at once, then
synthesizes the pilot observation and runs the estimator.  The paths
differ in how they reflect and in what they keep:

* the validation path draws H's white draws W (M r L entries per trial)
  and reflects through H^H Phi straight from them
  (``ChannelSampler.reflect``), and keeps the dense moments of the inner
  products u_ki[m] = v_mk^H o_mi: u and the AP-to-AP second moment
  T = E{u u^H}, summed over the trial axis as batched GEMMs, so no
  per-trial (K, K, M, M) array exists;
* the run path draws only the projection of W that the stacked vectors
  see, k <= K + tau_p + 1 white rows per AP
  (``ChannelSampler.draw_reflections``), and, given the decoding weights
  a, keeps only the projections g_ki = a_k^H u_ki, a (K, K) matrix per
  trial, which is all the bound of those weights reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSampler
from .config import SystemConfig, is_count
from .emi import sample_emi
from .estimation import mmse_estimate, pilot_observation
from .pipeline import LinkStatistics
from .uatf import UatfMoments

#: Most trials in one chunk.
CHUNK_TRIALS = 4096
#: Bytes the working arrays of one default chunk may hold (``bytes_per_trial``).
CHUNK_BYTES = 32 * 2**20


@dataclass(frozen=True)
class OracleEstimate:
    """Sample mean with per-component standard errors.

    ``std_error`` is complex: the real part is the standard error of the
    real component of the mean, the imaginary part that of the imaginary
    component.
    """

    mean: np.ndarray
    std_error: np.ndarray
    trials: int


class RunningMoments:
    """Streaming first and second moments of complex-valued batches."""

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.count = 0
        self.total = np.zeros(shape, dtype=complex)
        self.total_sq_re = np.zeros(shape)
        self.total_sq_im = np.zeros(shape)

    def update(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch)
        self.count += batch.shape[0]
        self.total += batch.sum(axis=0)
        self.total_sq_re += np.sum(np.real(batch) ** 2, axis=0)
        self.total_sq_im += np.sum(np.imag(batch) ** 2, axis=0)

    def update_outer(self, batch: np.ndarray) -> None:
        """Accumulate the outer products b b^H of the trailing vectors b.

        ``batch`` has shape (trials, ..., n) and the accumulator
        (..., n, n). Every sum over trials is one batched GEMM, so no
        (trials, ..., n, n) array is formed. For c = a conj(b),
        |c|^2 = |a|^2 |b|^2 and c^2 = a^2 conj(b)^2, so the sums of
        Re(c)^2 and Im(c)^2 are the half sum and half difference of
        S1 = sum |a|^2 |b|^2 and Re S2 = Re sum a^2 conj(b)^2. On the
        diagonal c = |a|^2 is real and S2 = S1 exactly, which is imposed so
        that rounding leaves no spurious imaginary variance there.
        """
        trials, n = batch.shape[0], batch.shape[-1]
        a = np.ascontiguousarray(np.moveaxis(batch.reshape(trials, -1, n), 0, 1))
        power = a.real**2 + a.imag**2
        s1 = power.swapaxes(1, 2) @ power
        del power
        square = a * a
        s2 = (square.swapaxes(1, 2) @ square.conj()).real
        del square
        diag = np.arange(n)
        s2[:, diag, diag] = s1[:, diag, diag]
        shape = self.total.shape
        self.count += trials
        self.total += (a.swapaxes(1, 2) @ a.conj()).reshape(shape)
        self.total_sq_re += (0.5 * (s1 + s2)).reshape(shape)
        self.total_sq_im += (0.5 * (s1 - s2)).reshape(shape)

    def finalize(self) -> OracleEstimate:
        if self.count == 0:
            raise ValueError("no samples accumulated")
        n = self.count
        mean = self.total / n
        correction = n / max(n - 1, 1)
        var_re = np.clip(self.total_sq_re / n - mean.real**2, 0.0, None) * correction
        var_im = np.clip(self.total_sq_im / n - mean.imag**2, 0.0, None) * correction
        std_error = np.sqrt(var_re / n) + 1j * np.sqrt(var_im / n)
        return OracleEstimate(mean=mean, std_error=std_error, trials=n)


@dataclass(frozen=True)
class UatfEstimates:
    """Estimated moments of the combined statistics.

    Without ``weights`` (the validation path) u[k, i, m] is E{v_mk^H o_mi},
    t[k, i] the M x M second moment of that inner product across APs,
    d[m, k] the mean squared combiner norm, and u_emi[m, k] the mean
    reflected-interference power after combining. With the decoding
    ``weights`` a (the run path) u[k, i, 0] is E{g_ki} and t[k, i, 0]
    E{|g_ki|^2} for the projection g_ki = sum_m a_mk^* v_mk^H o_mi; d and
    u_emi stay per AP.
    """

    u: OracleEstimate
    t: OracleEstimate
    d: OracleEstimate
    u_emi: OracleEstimate
    weights: np.ndarray | None = None

    def moments(self) -> UatfMoments:
        """The sample means as the bound's moments.

        Without weights, the dense bundle with cov = t - u u^H. With
        weights, one virtual AP: u' = E{g}, cov' = E{|g|^2} - |E{g}|^2 and
        d'_k, w'_k the |a_mk|^2-weighted sums of d and u_emi, so the bound
        of ``weights`` is ``uatf_sinr`` of these moments with unit weights.
        """
        u = self.u.mean
        d, w = self.d.mean.real, self.u_emi.mean.real
        if self.weights is None:
            cov = self.t.mean - np.einsum("kim,kin->kimn", u, u.conj())
            return UatfMoments(u=u, cov=cov, d=d, w=w)
        power = np.abs(self.weights) ** 2
        return UatfMoments(
            u=u,
            cov=self.t.mean.real - np.abs(u) ** 2,
            d=np.sum(power * d, axis=0, keepdims=True),
            w=np.sum(power * w, axis=0, keepdims=True),
        )


def bytes_per_trial(cfg: SystemConfig, rank: int, dense: bool) -> int:
    """Bytes of working arrays one trial adds to a chunk, from the shapes alone.

    Both paths stack the J = K + tau_p + 1 RIS-side vectors of a trial in
    x, hold x, the UE phases and g from the start, and from the pilot EMI
    on the AP noise too. Then:

    Dense (validation) path: the white draws W (M r L entries, r the rank
    of ``ChannelSampler.ris_factor``) are alive from their draw until x is
    reflected. A trial holds them while it draws z, the pilot EMI or the
    data EMI (white entries, product and scaled copy), and while it
    reflects x (the conjugated x and Y, then Y with the LoS part and the
    white part, then the J M L NLoS part, its product with A_m^T and the
    sum). It then estimates (o, q and the observation, LoS mean, prior,
    innovation and estimate arrays) and combines o, v and u (K K M
    entries) with the three copies ``RunningMoments.update_outer`` makes
    of it.

    Projected (run) path, with k = min(r, J): from the UE draws on, a trial
    holds the copy of their K r white entries that a threaded BLAS packs
    and keeps resident. While it draws g, z and the EMI into x, it holds
    the draws of z or of the pilot EMI; then x while it factors Y (Y^H,
    its copy inside the QR and R) or reflects (R, the M L k white entries
    V, their product with A^H, and the J M L result with one temporary).
    It then estimates (o, q and the observation, LoS mean, prior,
    innovation and estimate arrays) and projects (o, v and the two
    (K, M L) operands). The largest step counts, at 16 bytes per complex
    entry, plus an eighth for the small temporaries left out.
    """
    m, k, l, n, tau = cfg.n_aps, cfg.n_ues, cfg.n_ap_antennas, cfg.n_ris_elements, cfg.tau_p
    mkl, kkm, j = m * k * l, k * k * m, k + tau + 1
    if dense:
        held = m * rank * l + j * n + k + mkl
        steps = [
            held + max(k, tau) * (rank + 2 * n) + 3 * m * l * tau,
            held + m * l * tau + j * max(2 * n, n + m * l + rank, 3 * m * l),
            k + m * l + 6 * mkl,
            3 * mkl + kkm,
            4 * kkm,
        ]
        return 16 * max(steps) * 9 // 8
    kj, mlk, jml = min(rank, j) * j, m * l * min(rank, j), j * m * l
    packed = k * rank
    held = k + mkl + m * l * tau + j * n + packed
    steps = [
        j * n + k + mkl + max(mkl, 2 * k * (rank + n), packed + tau * (rank + 2 * n)),
        held + 2 * j * rank + kj,
        held + kj + mlk + max(mlk + jml, 2 * jml),
        packed + k + m * l + 6 * mkl,
        packed + m * l + 4 * mkl + k * k,
    ]
    return 16 * max(steps) * 9 // 8


def chunk_trials(cfg: SystemConfig, rank: int, dense: bool) -> int:
    """Default chunk: as many trials as fit ``CHUNK_BYTES``, at most ``CHUNK_TRIALS``.

    It depends on the shapes only, so the random stream, and with it every
    estimate, is the same whatever the thread count.
    """
    return max(1, min(CHUNK_TRIALS, CHUNK_BYTES // bytes_per_trial(cfg, rank, dense)))


def estimate_uatf_terms(
    link: LinkStatistics,
    trials: int,
    rng: np.random.Generator | int,
    chunk_size: int | None = None,
    weights: np.ndarray | None = None,
) -> UatfEstimates:
    """Estimate the moments of the SINR bound by direct simulation.

    Each trial draws a joint channel realization, synthesizes the pilot
    observation with fresh pilot-phase EMI and receiver noise, runs the
    MMSE estimator, combines with v = o_hat, and accumulates the resulting
    statistics together with the combined power of one data-phase EMI
    draw. Without ``weights`` each trial draws H's white draws in full and
    the dense moments u and T are kept; with the (M, K) decoding
    ``weights`` a_mk H is drawn only where it reflects and only the
    projections g_ki = sum_m a_mk^* v_mk^H o_mi are kept, one (K, M L) by
    (M L, K) product per trial (see ``UatfEstimates``). The two paths have
    the same law but different random streams. ``chunk_size`` overrides
    the default chunk of ``chunk_trials``; the random stream depends on
    it. ``trials`` and ``chunk_size`` must be positive counts.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if not is_count(trials) or trials <= 0:
        raise ValueError(f"trials must be a positive count, got {trials!r}")
    if chunk_size is not None and (not is_count(chunk_size) or chunk_size <= 0):
        raise ValueError(f"chunk_size must be a positive count, got {chunk_size!r}")
    cfg = link.config
    n_aps, n_ues = cfg.n_aps, cfg.n_ues
    dense = weights is None
    if dense:
        acc_u = RunningMoments((n_ues, n_ues, n_aps))
        acc_t = RunningMoments((n_ues, n_ues, n_aps, n_aps))
    else:
        weights = np.asarray(weights)
        if weights.shape != (n_aps, n_ues):
            raise ValueError("weights must have shape (n_aps, n_ues)")
        # conj(a_mk) on the (k, m, l) layout of the projection's left operand
        a_conj = np.repeat(weights.T.conj(), cfg.n_ap_antennas, axis=1)
        acc_u = RunningMoments((n_ues, n_ues, 1))
        acc_t = RunningMoments((n_ues, n_ues, 1))
    acc_d = RunningMoments((n_aps, n_ues))
    acc_e = RunningMoments((n_aps, n_ues))
    sampler = ChannelSampler(link.stats, link.los, link.nlos)
    if chunk_size is None:
        chunk_size = chunk_trials(cfg, sampler.ris_factor.shape[1], dense)
    noise_scale = np.sqrt(cfg.noise_power / 2.0)
    remaining = trials
    while remaining > 0:
        batch = min(chunk_size, remaining)
        remaining -= batch
        o, v, q = _trials(link, sampler, rng, batch, noise_scale, dense)
        acc_d.update(np.einsum("tmkl,tmkl->tmk", v.conj(), v).real)
        acc_e.update(np.abs(np.einsum("tmkl,tml->tmk", v.conj(), q)) ** 2)
        del q
        if dense:
            u = np.einsum("tmkl,tmil->tkim", v.conj(), o)
            del v, o
            acc_u.update(u)
            acc_t.update_outer(u)
        else:
            left = v.conj().transpose(0, 2, 1, 3).reshape(batch, n_ues, -1) * a_conj
            right = o.transpose(0, 1, 3, 2).reshape(batch, -1, n_ues)
            del v, o
            g = (left @ right)[..., None]
            del left, right
            acc_u.update(g)
            acc_t.update(g.real**2 + g.imag**2)
    return UatfEstimates(
        u=acc_u.finalize(),
        t=acc_t.finalize(),
        d=acc_d.finalize(),
        u_emi=acc_e.finalize(),
        weights=weights,
    )


def _ap_noise(rng: np.random.Generator, shape: tuple[int, ...], scale: float) -> np.ndarray:
    raw = rng.standard_normal(shape + (2,))
    return scale * (raw[..., 0] + 1j * raw[..., 1])


def _trials(
    link: LinkStatistics,
    sampler: ChannelSampler,
    rng: np.random.Generator,
    batch: int,
    noise_scale: float,
    dense: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """o, the estimates v and the reflected data EMI q of ``batch`` trials.

    Draw order: the phases, g, W (``dense`` only) and z, the pilot EMI, the
    AP noise, the data EMI, then, unless ``dense``, the white matrices V of
    ``draw_reflections``. The K + tau_p + 1 RIS-side vectors of a trial (z,
    the pilot EMI symbols, the data EMI) are stacked in x and reflected at
    once: through H built from W if ``dense``, else by ``draw_reflections``.
    """
    cfg = link.config
    n_ues, tau_p = cfg.n_ues, cfg.tau_p
    x = np.empty((batch, n_ues + tau_p + 1, cfg.n_ris_elements), dtype=complex)
    phase, g, w, x[:, :n_ues] = sampler.draw_unreflected(rng, batch, white=dense)
    emi_power = link.sigma_r2 * link.ris.element_area
    x[:, n_ues:-1] = sample_emi(rng, emi_power, sampler.ris_factor, (batch, tau_p))
    ap_noise = _ap_noise(rng, (batch, cfg.n_aps, cfg.n_ap_antennas, tau_p), noise_scale)
    x[:, -1:] = sample_emi(rng, emi_power, sampler.ris_factor, (batch, 1))
    reflected = sampler.reflect(w, x) if dense else sampler.draw_reflections(rng, x)
    del x, w
    o = g + reflected[:, :, :n_ues]
    del g
    noise = reflected[:, :, n_ues:-1].swapaxes(2, 3) + ap_noise
    del ap_noise
    q = reflected[:, :, -1].copy()
    del reflected
    y = pilot_observation(o, noise, link.assignment)
    del noise
    v = mmse_estimate(y, link.stats, link.est, link.assignment, phase)
    return o, v, q
