"""Monte Carlo producer of the UatF bound's moments.

Samples channels, pilot noise, and reflected interference, runs the actual
MMSE estimator on each draw, and averages the combined statistics that the
closed forms predict deterministically.  ``UatfEstimates.moments`` hands
the sample means to ``uatf`` as the same moment bundle the closed form
produces, with a dense AP-to-AP covariance.  Work proceeds in fixed-size
chunks from a caller-seeded generator, so an estimate is bit-for-bit
reproducible no matter how the surrounding run is scheduled.

A trial costs its Gaussian draws plus GEMMs.  The RIS-to-AP channels H are
never formed: the channel realization reflects the UE channels and both
EMI draws through H^H Phi straight from its white draws, which are freed
once the data-phase EMI has used them.  The second moment T = sum u u^H
and its standard errors are summed over the trial axis as batched GEMMs,
so no per-trial (K, K, M, M) array exists either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSampler
from .emi import EmiSpec, sample_emi
from .estimation import mmse_estimate, synthesize_pilot_observation
from .pipeline import LinkStatistics
from .uatf import UatfMoments

CHUNK_TRIALS = 4096


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

    u[k, i, m] is E{v_mk^H o_mi}, t[k, i] the M x M second moment of that
    inner product across APs, d[m, k] the mean squared combiner norm, and
    u_emi[m, k] the mean reflected-interference power after combining.
    """

    u: OracleEstimate
    t: OracleEstimate
    d: OracleEstimate
    u_emi: OracleEstimate

    def moments(self) -> UatfMoments:
        """The sample means as the bound's moments, with dense cov = t - u u^H."""
        u = self.u.mean
        return UatfMoments(
            u=u,
            cov=self.t.mean - np.einsum("kim,kin->kimn", u, u.conj()),
            d=self.d.mean.real,
            w=self.u_emi.mean.real,
        )


def estimate_uatf_terms(
    link: LinkStatistics,
    trials: int,
    rng: np.random.Generator | int,
    chunk_size: int = CHUNK_TRIALS,
) -> UatfEstimates:
    """Estimate every moment of the SINR bound by direct simulation.

    Each trial draws a joint channel realization, synthesizes the pilot
    observation with fresh pilot-phase EMI and receiver noise, runs the
    MMSE estimator, combines with v = o_hat, and accumulates the resulting
    statistics together with the combined power of one data-phase EMI
    draw.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if trials <= 0:
        raise ValueError("trials must be positive")
    cfg = link.config
    n_aps, n_ues = cfg.n_aps, cfg.n_ues
    n_ant = cfg.n_ap_antennas
    tau_p = cfg.tau_p
    sampler = ChannelSampler(link.stats, link.los, link.nlos)
    spec = EmiSpec(
        sigma_r2=link.sigma_r2,
        element_area=link.ris.element_area,
        R=link.ris.R,
        factor=sampler.ris_factor,
    )
    noise_scale = np.sqrt(cfg.noise_power / 2.0)
    acc_u = RunningMoments((n_ues, n_ues, n_aps))
    acc_t = RunningMoments((n_ues, n_ues, n_aps, n_aps))
    acc_d = RunningMoments((n_aps, n_ues))
    acc_e = RunningMoments((n_aps, n_ues))
    remaining = trials
    while remaining > 0:
        batch = min(chunk_size, remaining)
        remaining -= batch
        real = sampler.draw(rng, batch)
        emi_pilot = sample_emi(spec, rng, (batch, tau_p)).transpose(0, 2, 1)
        raw = rng.standard_normal((batch, n_aps, n_ant, tau_p, 2))
        ap_noise = noise_scale * (raw[..., 0] + 1j * raw[..., 1])
        y = synthesize_pilot_observation(
            real, emi_pilot, ap_noise, link.assignment, link.pilot_powers, link.los.phi
        )
        del emi_pilot, raw, ap_noise
        v = mmse_estimate(
            y, link.stats, link.est, link.assignment, link.pilot_powers, real.phase
        )
        u = np.einsum("tmkl,tmil->tkim", v.conj(), real.o)
        q = real.reflect(sample_emi(spec, rng, (batch,)))
        del real, y  # frees the white draws W, the chunk's largest array
        acc_u.update(u)
        acc_t.update_outer(u)
        acc_d.update(np.einsum("tmkl,tmkl->tmk", v.conj(), v).real)
        e = np.einsum("tmkl,tml->tmk", v.conj(), q)
        acc_e.update(np.abs(e) ** 2)
    return UatfEstimates(
        u=acc_u.finalize(),
        t=acc_t.finalize(),
        d=acc_d.finalize(),
        u_emi=acc_e.finalize(),
    )
