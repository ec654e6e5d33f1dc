"""Monte Carlo producer of the UatF bound's moments.

Samples channels, pilot noise, and reflected interference, runs the actual
MMSE estimator on each draw, and averages the combined statistics that the
closed forms predict deterministically.  ``UatfEstimates.moments`` hands
the sample means to ``uatf`` as the same moment bundle the closed form
produces, with a dense AP-to-AP covariance.  Work proceeds in fixed-size
chunks from a caller-seeded generator, so an estimate is bit-for-bit
reproducible no matter how the surrounding run is scheduled.
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
        v = mmse_estimate(
            y, link.stats, link.est, link.assignment, link.pilot_powers, real.phase
        )
        u = np.einsum("tmkl,tmil->tkim", v.conj(), real.o)
        acc_u.update(u)
        acc_t.update(np.einsum("tkim,tkin->tkimn", u, u.conj()))
        acc_d.update(np.einsum("tmkl,tmkl->tmk", v.conj(), v).real)
        n_data = sample_emi(spec, rng, (batch,))
        q = np.einsum("tmnl,n,tn->tml", real.h.conj(), link.los.phi, n_data)
        e = np.einsum("tmkl,tml->tmk", v.conj(), q)
        acc_e.update(np.abs(e) ** 2)
    return UatfEstimates(
        u=acc_u.finalize(),
        t=acc_t.finalize(),
        d=acc_d.finalize(),
        u_emi=acc_e.finalize(),
    )
