"""Interference field at the surface and its covariance after reflection."""
import math

import numpy as np
import pytest

from riscf.emi import EmiSpec, emi_noise_covariance, sample_emi, sigma_r2_from_rho
from riscf.linalg import hermitize, psd_factor
from riscf.config import SystemConfig
from riscf.correlation import ris_sinc_correlation

from dense_reference import dense_h


def test_sigma_r2_formula():
    beta_m = np.array([1e-7, 3e-7])
    p_max = 0.2
    rho = 10.0 ** (20.0 / 10.0)
    got = sigma_r2_from_rho(20.0, p_max, beta_m)
    assert got == pytest.approx(p_max * beta_m.sum() / (len(beta_m) * rho))


def test_sigma_r2_no_interference_limits():
    beta_m = np.array([1e-7])
    assert sigma_r2_from_rho(None, 0.2, beta_m) == 0.0
    assert sigma_r2_from_rho(math.inf, 0.2, beta_m) == 0.0


@pytest.mark.parametrize("rho_db", [-math.inf, math.nan])
def test_sigma_r2_rejects_unbounded_emi_and_nan(rho_db):
    with pytest.raises(ValueError, match="rho_db"):
        sigma_r2_from_rho(rho_db, 0.2, np.array([1e-7]))


def test_sigma_r2_scales_inverse_with_rho():
    beta_m = np.array([1e-7, 2e-7, 5e-8])
    a = sigma_r2_from_rho(10.0, 0.2, beta_m)
    b = sigma_r2_from_rho(30.0, 0.2, beta_m)
    assert a / b == pytest.approx(100.0, rel=1e-12)


@pytest.fixture(scope="module")
def spec():
    cfg = SystemConfig()
    ris = ris_sinc_correlation(
        4, 4, 0.25 * cfg.wavelength, 0.25 * cfg.wavelength, cfg.wavelength
    )
    return EmiSpec(sigma_r2=2.0, element_area=ris.element_area, R=ris.R)


def test_emi_covariance_property(spec):
    assert np.allclose(spec.covariance, 2.0 * spec.element_area * spec.R)


def test_sample_emi_covariance(spec):
    rng = np.random.default_rng(0)
    draws = sample_emi(spec, rng, (120000,))
    sample = draws.T @ draws.conj() / len(draws)
    scale = np.abs(spec.covariance).max()
    assert np.abs(draws.mean(axis=0)).max() < 0.02 * np.sqrt(scale)
    assert np.abs(sample - spec.covariance).max() < 0.03 * scale


def test_sample_emi_zero_power_preserves_stream(spec):
    quiet = EmiSpec(sigma_r2=0.0, element_area=spec.element_area, R=spec.R)
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    draws = sample_emi(quiet, rng, (10,))
    assert np.all(draws == 0.0)
    assert rng.bit_generator.state == before


def test_sample_emi_shared_factor_gives_same_draws(spec):
    """A precomputed factor of R replaces factoring the covariance per call."""
    shared = EmiSpec(
        sigma_r2=spec.sigma_r2,
        element_area=spec.element_area,
        R=spec.R,
        factor=psd_factor(spec.R),
    )
    a = sample_emi(spec, np.random.default_rng(4), (6,))
    b = sample_emi(shared, np.random.default_rng(4), (6,))
    assert np.array_equal(a, b)


def test_sample_emi_extra_axes(spec):
    rng = np.random.default_rng(2)
    draws = sample_emi(spec, rng, (5, 3))
    assert draws.shape == (5, 3, spec.R.shape[0])


def _emi_covariance(link, sigma_r2):
    los, nlos = link.los, link.nlos
    return emi_noise_covariance(
        nlos,
        nlos.cascade_gram(los.hbar, los.phi),
        nlos.phase_trace(los.phi),
        sigma_r2,
        link.ris.element_area,
    )


def test_emi_noise_covariance_zero_when_quiet(tiny_link):
    out = _emi_covariance(tiny_link, 0.0)
    assert np.allclose(out.r_mm, 0.0)
    assert np.allclose(out.q_m, 0.0)


def test_emi_noise_covariance_brute_force(tiny_link):
    """Propagating raw EMI draws through H reproduces the closed matrix."""
    cfg = tiny_link.config
    los = tiny_link.los
    sigma_r2 = 3.0e-10
    emi = EmiSpec(
        sigma_r2=sigma_r2, element_area=tiny_link.ris.element_area, R=tiny_link.ris.R
    )
    closed = _emi_covariance(tiny_link, sigma_r2)
    from riscf.channel import ChannelSampler

    sampler = ChannelSampler(tiny_link.stats, tiny_link.los, tiny_link.nlos)
    rng = np.random.default_rng(3)
    n_trials = 120000
    real = sampler.draw(rng, n_trials)
    noise = sample_emi(emi, rng, (n_trials,))
    q = np.einsum("tmnl,n,tn->tml", dense_h(real).conj(), los.phi, noise)
    for m in range(cfg.n_aps):
        sample = q[:, m].T @ q[:, m].conj() / n_trials
        err = np.abs(sample - closed.r_mm[m]).max()
        assert err < 0.05 * np.abs(closed.r_mm[m]).max()


def test_emi_noise_covariance_psd(tiny_link):
    out = _emi_covariance(tiny_link, 1e-9)
    for m in range(out.r_mm.shape[0]):
        assert np.linalg.eigvalsh(hermitize(out.r_mm[m])).min() > -1e-24
