"""Interference field at the surface and its covariance after reflection."""
import math

import numpy as np
import pytest

from riscf.emi import emi_noise_covariance, sample_emi, sigma_r2_from_rho
from riscf.linalg import hermitize, psd_factor
from riscf.config import SystemConfig
from riscf.correlation import ris_sinc_correlation

from conftest import make_link
from dense_reference import draw


def test_sigma_r2_formula():
    beta_m = np.array([1e-7, 3e-7])
    p_max = 0.2
    rho = 10.0 ** (20.0 / 10.0)
    got = sigma_r2_from_rho(20.0, p_max, beta_m)
    assert got == pytest.approx(p_max * beta_m.sum() / (len(beta_m) * rho))


def test_sigma_r2_no_interference_limits(tiny_config):
    """EMI power falls toward zero as rho grows; zero itself is ``emi: off``."""
    beta_m = np.array([1e-7])
    assert 0.0 < sigma_r2_from_rho(300.0, 0.2, beta_m) < 1e-30
    quiet = make_link(tiny_config, 5, emi="off")
    assert quiet.sigma_r2 == 0.0 and not quiet.r_mm.any()


@pytest.mark.parametrize("rho_db", [-math.inf, math.nan, 4000.0, -4000.0])
def test_sigma_r2_rejects_unbounded_emi_and_nan(rho_db):
    """-inf dB would be infinite EMI and NaN no level; neither yields a power.

    Past +-RHO_DB_BOUND dB the power overflows or divides by zero.
    """
    with pytest.raises(ValueError, match="rho_db .*emi: off"):
        sigma_r2_from_rho(rho_db, 0.2, np.array([1e-7]))


def test_sigma_r2_scales_inverse_with_rho():
    beta_m = np.array([1e-7, 2e-7, 5e-8])
    a = sigma_r2_from_rho(10.0, 0.2, beta_m)
    b = sigma_r2_from_rho(30.0, 0.2, beta_m)
    assert a / b == pytest.approx(100.0, rel=1e-12)


@pytest.fixture(scope="module")
def surface():
    """EMI power sigma_r^2 A_r, the correlation R and its factor F_R."""
    cfg = SystemConfig()
    size = 0.25 * cfg.wavelength
    r = ris_sinc_correlation(4, 4, size, size, cfg.wavelength)
    return 2.0 * size * size, r, psd_factor(r)


def test_sample_emi_covariance(surface):
    power, r, factor = surface
    rng = np.random.default_rng(0)
    draws = sample_emi(rng, power, factor, (120000,))
    sample = draws.T @ draws.conj() / len(draws)
    covariance = power * r
    scale = np.abs(covariance).max()
    assert np.abs(draws.mean(axis=0)).max() < 0.02 * np.sqrt(scale)
    assert np.abs(sample - covariance).max() < 0.03 * scale


def test_sample_emi_zero_power_preserves_stream(surface):
    _, _, factor = surface
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    draws = sample_emi(rng, 0.0, factor, (10,))
    assert np.all(draws == 0.0)
    assert rng.bit_generator.state == before


def test_sample_emi_extra_axes(surface):
    power, r, factor = surface
    rng = np.random.default_rng(2)
    draws = sample_emi(rng, power, factor, (5, 3))
    assert draws.shape == (5, 3, r.shape[0])


def test_emi_noise_covariance_zero_when_quiet(tiny_link):
    assert np.allclose(emi_noise_covariance(tiny_link.surface, 0.0), 0.0)


def test_emi_noise_covariance_brute_force(tiny_link):
    """Propagating raw EMI draws through H reproduces the closed matrix."""
    cfg = tiny_link.config
    surface = tiny_link.surface
    sigma_r2 = 3.0e-10
    closed = emi_noise_covariance(surface, sigma_r2)
    from riscf.channel import ChannelSampler

    sampler = ChannelSampler(tiny_link.stats, surface)
    rng = np.random.default_rng(3)
    n_trials = 120000
    real = draw(sampler, rng, n_trials)
    noise = sample_emi(
        rng, sigma_r2 * surface.element_area, psd_factor(surface.R), (n_trials,)
    )
    q = np.einsum("tmnl,n,tn->tml", real.h.conj(), surface.phi, noise)
    for m in range(cfg.n_aps):
        sample = q[:, m].T @ q[:, m].conj() / n_trials
        err = np.abs(sample - closed[m]).max()
        assert err < 0.05 * np.abs(closed[m]).max()


def test_emi_noise_covariance_psd(tiny_link):
    r_mm = emi_noise_covariance(tiny_link.surface, 1e-9)
    for m in range(r_mm.shape[0]):
        assert np.linalg.eigvalsh(hermitize(r_mm[m])).min() > -1e-24
