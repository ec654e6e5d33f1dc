"""Monte Carlo producer of the UatF bound's moments at given decoding weights.

Samples channels, pilot noise, and reflected interference, runs the actual
MMSE estimator on each draw, and averages the combined statistics that the
closed forms predict deterministically.  ``UatfEstimates.moments`` hands
the sample means to ``uatf`` as the moment bundle of one virtual AP, so the
bound of the decoding weights is ``uatf_sinr`` of them with unit weights.

A trial (``_trials``) draws the phases, the direct channels g, the
RIS-to-UE channels z and both EMI draws in one order, stacks the
K + tau_p + 1 RIS-side vectors it reflects (z, the pilot EMI symbols, the
data EMI) and reflects them at once, drawing only the projection of the
RIS-to-AP channels H that those vectors see, k <= K + tau_p + 1 white rows
per AP (``ChannelSampler.draw_reflections``); H is never formed.  It then
synthesizes the pilot observation, runs the estimator and keeps only the
projections g_ki = a_k^H u_ki of the inner products u_ki[m] = v_mk^H o_mi
onto the weights a, a (K, K) matrix per trial, which is all the bound of
those weights reads.

Trials run in chunks, up to ``CHUNK_WORKERS`` of them at once on worker
threads (``in_order``; fewer where fewer CPUs are usable or there are fewer
chunks, and none where one chunk or one CPU leaves a single worker), with
OpenBLAS held at one thread (``linalg.one_blas_thread``).  Memory is
bounded by ``CHUNK_BYTES``, which the chunks in flight share: a chunk
holds as many trials as fit ``CHUNK_BYTES // CHUNK_WORKERS``
(``chunk_trials``), at most ``CHUNK_TRIALS``, counted from the shapes
alone.  Chunk i draws from the i-th child of the caller's generator
(``Generator.spawn``), and the chunks' statistics enter the sums in chunk
order, so an estimate is bit-for-bit the same whatever the worker count,
the CPU count or the schedule of the surrounding run.

The dense oracle that keeps u and its AP-to-AP second moment, with every
H formed, lives beside the tests (``tests/dense_reference.py``).
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSampler
from .config import SystemConfig, require_count
from .emi import sample_emi
from .estimation import mmse_estimate, pilot_observation
from .linalg import one_blas_thread, standard_cn
from .pipeline import LinkStatistics
from .uatf import UatfMoments

#: Most trials in one chunk.
CHUNK_TRIALS = 1024
#: Bytes the working arrays of the chunks in flight may hold together
#: (``bytes_per_trial``). The draws and the per-trial kernels set the cost,
#: so a larger chunk saves little but page faults, while the peak RSS grows
#: with it.
CHUNK_BYTES = 8 * 2**20
#: Most chunks in flight at once, each on its own worker thread; each
#: chunk's share of ``CHUNK_BYTES`` is ``CHUNK_BYTES // CHUNK_WORKERS``.
CHUNK_WORKERS = 2


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
    """Estimated moments of the combined statistics projected onto ``weights``.

    For the (M, K) decoding weights a, u[k, i, 0] is E{g_ki} and t[k, i, 0]
    E{|g_ki|^2} for the projection g_ki = sum_m a_mk^* v_mk^H o_mi; d[m, k]
    is the mean squared combiner norm and u_emi[m, k] the mean
    reflected-interference power after combining, both per AP.
    """

    u: OracleEstimate
    t: OracleEstimate
    d: OracleEstimate
    u_emi: OracleEstimate
    weights: np.ndarray

    def moments(self) -> UatfMoments:
        """The sample means as the bound's moments of one virtual AP.

        u' = E{g}, cov' = E{|g|^2} - |E{g}|^2 and d'_k, w'_k the
        |a_mk|^2-weighted sums of d and u_emi, so the bound of ``weights``
        is ``uatf_sinr`` of these moments with unit weights.
        """
        u = self.u.mean
        power = np.abs(self.weights) ** 2
        return UatfMoments(
            u=u,
            cov=self.t.mean.real - np.abs(u) ** 2,
            d=np.sum(power * self.d.mean.real, axis=0, keepdims=True),
            w=np.sum(power * self.u_emi.mean.real, axis=0, keepdims=True),
        )


def bytes_per_trial(cfg: SystemConfig) -> int:
    """Bytes of working arrays one trial adds to a chunk, from the shapes alone.

    A trial stacks the J = K + tau_p + 1 RIS-side vectors it reflects in
    x, and holds x, the UE phases and g from the start and from the pilot
    EMI on the AP noise too. With N the column count of
    ``ChannelSampler.ris_factor`` (the N x N root of R) and k = min(N, J):
    from the UE draws on, a trial holds the copy of their K N white entries
    that a threaded BLAS packs and keeps resident. While it draws g, z and
    the EMI into x, it holds the draws of z or of the pilot EMI; then x
    while it factors Y (Y^H, its copy inside the QR and R) or reflects (R,
    the M L k white entries V, their product with A^H, and the J M L result
    with one temporary). It then estimates (o, q and the observation,
    prior, innovation, correction and estimate arrays) and projects (o, v
    and the two (K, M L) operands). The largest step counts, at 16 bytes
    per complex entry, plus an eighth for the small temporaries left out.
    """
    m, k, l, n, tau = cfg.n_aps, cfg.n_ues, cfg.n_ap_antennas, cfg.n_ris_elements, cfg.tau_p
    mkl, j = m * k * l, k + tau + 1
    kj, mlk, jml = min(n, j) * j, m * l * min(n, j), j * m * l
    packed = k * n
    held = k + mkl + m * l * tau + j * n + packed
    steps = [
        j * n + k + mkl + max(mkl, 4 * k * n, packed + 3 * tau * n),
        held + 2 * j * n + kj,
        held + kj + mlk + max(mlk + jml, 2 * jml),
        packed + k + m * l + 6 * mkl,
        packed + m * l + 4 * mkl + k * k,
    ]
    return 16 * max(steps) * 9 // 8


def chunk_trials(cfg: SystemConfig) -> int:
    """Trials per chunk: as many as fit a chunk's share of ``CHUNK_BYTES``,
    ``CHUNK_BYTES // CHUNK_WORKERS``, at most ``CHUNK_TRIALS``.

    It depends on the shapes only, so the random stream, and with it every
    estimate, is the same whatever the thread, worker or CPU count.
    """
    share = CHUNK_BYTES // CHUNK_WORKERS
    return max(1, min(CHUNK_TRIALS, share // bytes_per_trial(cfg)))


def _workers() -> int:
    """Chunk workers: ``CHUNK_WORKERS``, or the usable CPUs where fewer."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        usable = os.cpu_count() or 1
    return min(CHUNK_WORKERS, usable)


def in_order(fn: Callable, jobs: Iterable[tuple], workers: int) -> Iterator:
    """``fn(*job)`` of each job, in job order, with at most ``workers`` running.

    With one worker the jobs run on the caller's thread, one after another.
    Otherwise a pool of ``workers`` threads runs them, and a job is taken
    from ``jobs`` only once the result ``workers`` jobs before it has been
    handed out, so only one more job waits in the pool's queue than it runs.
    A job's exception is raised where its result would have been handed out.
    """
    if workers == 1:
        yield from (fn(*job) for job in jobs)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for job in jobs:
            pending.append(pool.submit(fn, *job))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def estimate_uatf_terms(
    link: LinkStatistics,
    trials: int,
    rng: np.random.Generator,
    weights: np.ndarray,
) -> UatfEstimates:
    """Estimate the moments of the SINR bound of ``weights`` by direct simulation.

    Each trial draws a joint channel realization, synthesizes the pilot
    observation with fresh pilot-phase EMI and receiver noise, runs the
    MMSE estimator, combines with v = o_hat, and accumulates the resulting
    statistics together with the combined power of one data-phase EMI
    draw. H is drawn only where it reflects, and for the (M, K) decoding
    ``weights`` a only the projections g_ki = sum_m a_mk^* v_mk^H o_mi are
    kept, one (K, M L) by (M L, K) product per trial (see
    ``UatfEstimates``). Trials run in chunks of ``chunk_trials`` on up to
    ``CHUNK_WORKERS`` threads, no more than there are chunks (one chunk
    runs on the caller's thread), chunk i on the i-th child of ``rng``,
    with OpenBLAS at one thread; ``trials`` must be a positive count.
    """
    require_count(trials, "trials", 1)
    cfg = link.config
    n_aps, n_ues = cfg.n_aps, cfg.n_ues
    weights = np.asarray(weights)
    if weights.shape != (n_aps, n_ues):
        raise ValueError("weights must have shape (n_aps, n_ues)")
    # conj(a_mk) on the (k, m, l) layout of the projection's left operand
    a_conj = np.repeat(weights.T.conj(), cfg.n_ap_antennas, axis=1)
    acc_u = RunningMoments((n_ues, n_ues, 1))
    acc_t = RunningMoments((n_ues, n_ues, 1))
    acc_d = RunningMoments((n_aps, n_ues))
    acc_e = RunningMoments((n_aps, n_ues))
    sampler = ChannelSampler(link.stats, link.surface)

    def chunk(batch: int, chunk_rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        """The per-trial d, data-EMI power and projections g of one chunk."""
        o, v, q = _trials(link, sampler, chunk_rng, batch)
        d = np.einsum("tmkl,tmkl->tmk", v.conj(), v).real
        e = np.abs(np.einsum("tmkl,tml->tmk", v.conj(), q)) ** 2
        del q
        left = v.conj().transpose(0, 2, 1, 3).reshape(batch, n_ues, -1) * a_conj
        right = o.transpose(0, 1, 3, 2).reshape(batch, -1, n_ues)
        del v, o
        return d, e, (left @ right)[..., None]

    size = chunk_trials(cfg)
    starts = range(0, trials, size)
    # spawned lazily, in chunk order, as the chunks are handed to the workers
    jobs = ((min(size, trials - start), rng.spawn(1)[0]) for start in starts)
    with one_blas_thread():
        for d, e, g in in_order(chunk, jobs, min(_workers(), len(starts))):
            acc_d.update(d)
            acc_e.update(e)
            acc_u.update(g)
            acc_t.update(g.real**2 + g.imag**2)
    return UatfEstimates(
        u=acc_u.finalize(),
        t=acc_t.finalize(),
        d=acc_d.finalize(),
        u_emi=acc_e.finalize(),
        weights=weights,
    )


def _trials(
    link: LinkStatistics,
    sampler: ChannelSampler,
    rng: np.random.Generator,
    batch: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """o, the estimates v and the reflected data EMI q of ``batch`` trials.

    Draw order: the phases, g and z, the pilot EMI, the AP noise, the data
    EMI, then the white matrices V of ``draw_reflections``. The
    K + tau_p + 1 RIS-side vectors of a trial (z, the pilot EMI symbols,
    the data EMI) are stacked in x and reflected at once.
    """
    cfg = link.config
    n_ues, tau_p = cfg.n_ues, cfg.tau_p
    x = np.empty((batch, n_ues + tau_p + 1, cfg.n_ris_elements), dtype=complex)
    phase, g, x[:, :n_ues] = sampler.draw_unreflected(rng, batch)
    emi_power = link.sigma_r2 * link.surface.element_area
    x[:, n_ues:-1] = sample_emi(rng, emi_power, sampler.ris_factor, (batch, tau_p))
    ap_noise = np.sqrt(cfg.noise_power) * standard_cn(
        rng, (batch, cfg.n_aps, cfg.n_ap_antennas, tau_p)
    )
    x[:, -1:] = sample_emi(rng, emi_power, sampler.ris_factor, (batch, 1))
    reflected = sampler.draw_reflections(rng, x)
    del x
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
