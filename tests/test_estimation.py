"""Pilot assignment, observation synthesis, and the MMSE estimator."""
import numpy as np
import pytest

from riscf.channel import ChannelSampler
from riscf.emi import sample_emi
from riscf.estimation import PilotAssignment, mmse_estimate, pilot_observation
from riscf.linalg import hermitize, psd_factor

from dense_reference import draw


@pytest.mark.parametrize(
    "n_ues, tau_p, expected",
    [(5, 3, [[0, 3], [1, 4], [2]]), (4, 4, [[0], [1], [2], [3]]), (3, 4, [[0], [1], [2]])],
    ids=["5-3", "4-4", "3-4"],
)
def test_cosets_partition_the_ues_and_match_the_mask(n_ues, tau_p, expected):
    """Round robin: UE k sends pilot k mod tau_p; mask[k, i] flags a shared pilot."""
    a = PilotAssignment(n_ues, tau_p, 0.2)
    members = [list(range(n_ues))[coset] for coset in a.cosets]
    assert members == expected
    assert sorted(sum(members, [])) == list(range(n_ues))
    shared = np.zeros((n_ues, n_ues))
    for ues in members:
        shared[np.ix_(ues, ues)] = 1.0
    assert np.array_equal(a.mask, shared)


def _psi(link):
    """Psi_mk = sum_{i in coset} p_i tau_p r_o_mi + r_mm + noise I, entry by entry."""
    cfg = link.config
    psi = np.empty_like(link.stats.r_o)
    for k in range(cfg.n_ues):
        for m in range(cfg.n_aps):
            psi[m, k] = (
                sum(
                    link.assignment.power * cfg.tau_p * link.stats.r_o[m, i]
                    for i in np.flatnonzero(link.assignment.mask[k])
                )
                + link.r_mm[m]
                + cfg.noise_power * np.eye(cfg.n_ap_antennas)
            )
    return psi


def test_psi_assembly_from_aggregated_covariances(validation_link):
    """x solves Psi x = r_o for Psi assembled from its definition."""
    link = validation_link
    assert np.allclose(link.est.x, np.linalg.solve(_psi(link), link.stats.r_o), rtol=1e-9)


def test_omega_and_error_covariance_split(validation_link):
    """Omega = r_o Psi^{-1} r_o, and the error covariance r_o - p tau Omega is PSD."""
    link = validation_link
    tau = link.config.tau_p
    manual = link.stats.r_o @ np.linalg.solve(_psi(link), link.stats.r_o)
    assert np.allclose(link.est.omega, manual, rtol=1e-9)
    c = link.stats.r_o - link.assignment.power * tau * manual
    scale = np.abs(link.stats.r_o).max()
    for m in range(c.shape[0]):
        for k in range(c.shape[1]):
            assert np.allclose(c[m, k], c[m, k].conj().T, atol=1e-12 * scale)
            assert np.linalg.eigvalsh(hermitize(c[m, k])).min() > -1e-12 * scale


def _pilot_draw(link, rng, trials, phase=None):
    cfg = link.config
    sampler = ChannelSampler(link.stats, link.surface)
    real = draw(sampler, rng, trials, phase=phase)
    emi_power = link.sigma_r2 * link.surface.element_area
    emi_pilot = sample_emi(rng, emi_power, psd_factor(link.surface.R), (trials, cfg.tau_p))
    raw = rng.standard_normal((trials, cfg.n_aps, cfg.n_ap_antennas, cfg.tau_p, 2))
    ap_noise = np.sqrt(cfg.noise_power / 2.0) * (raw[..., 0] + 1j * raw[..., 1])
    reflected = real.reflect(emi_pilot).swapaxes(2, 3)
    y = pilot_observation(real.o, reflected + ap_noise, link.assignment)
    v = mmse_estimate(y, link.stats, link.est, link.assignment, real.phase)
    return real, y, v


def test_coset_mates_share_observation(validation_link):
    link = validation_link
    assert link.config.tau_p < link.config.n_ues
    rng = np.random.default_rng(11)
    _, y, _ = _pilot_draw(link, rng, 8)
    for k in range(link.config.n_ues):
        for i in np.flatnonzero(link.assignment.mask[k]):
            assert np.allclose(y[:, :, k], y[:, :, i])


def test_mmse_estimate_unbiased(tiny_link):
    n_trials = 60000
    ones = np.ones((n_trials, tiny_link.config.n_ues))
    rng = np.random.default_rng(12)
    real, _, v = _pilot_draw(tiny_link, rng, n_trials, phase=ones)
    se = np.sqrt(
        np.diagonal(tiny_link.stats.r_o, axis1=2, axis2=3).real.max() / n_trials
    )
    assert np.abs(v.mean(axis=0) - tiny_link.stats.obar).max() < 6.0 * se


def test_mmse_estimate_orthogonality(tiny_link):
    """Estimation error is uncorrelated with the estimate."""
    n_trials = 120000
    rng = np.random.default_rng(13)
    real, _, v = _pilot_draw(tiny_link, rng, n_trials)
    err = real.o - v
    cross = np.einsum("tmkl,tmkn->mkln", err, v.conj()) / n_trials
    scale = np.abs(np.diagonal(tiny_link.stats.r_o, axis1=2, axis2=3)).max()
    assert np.abs(cross).max() < 0.03 * scale


def test_mmse_estimate_second_moment(tiny_link):
    """cov(o_hat) approaches p tau Omega for unit LoS phases."""
    n_trials = 120000
    cfg = tiny_link.config
    ones = np.ones((n_trials, cfg.n_ues))
    rng = np.random.default_rng(14)
    _, _, v = _pilot_draw(tiny_link, rng, n_trials, phase=ones)
    centered = v - tiny_link.stats.obar
    sample = np.einsum("tmkl,tmkn->mkln", centered, centered.conj()) / n_trials
    expect = tiny_link.assignment.power * cfg.tau_p * tiny_link.est.omega
    scale = max(np.abs(expect).max(), 1e-30)
    assert np.abs(sample - expect).max() < 0.04 * scale
