"""The UatF bound: one SINR over the closed-form and Monte Carlo moments."""
import dataclasses

import numpy as np
import pytest

from riscf.config import SystemConfig
from riscf.experiment import _scenario_rng
from riscf.se import closed_form_moments
from riscf.uatf import fixed_weight_form, optimal_lsfd_weights, uatf_sinr
from conftest import make_link
from dense_reference import dense_uatf_terms
from uatf_reference import dense_second_moment, textbook_sinr


@pytest.fixture(scope="module")
def mc_estimates(validation_link):
    return dense_uatf_terms(validation_link, 2000, 4, 4096)


def _weights(moments, kind, powers, noise):
    if kind == "equal":
        return np.ones_like(moments.d)
    return optimal_lsfd_weights(moments, powers, noise).weights


def _powers(config):
    return np.full(config.n_ues, config.p_max) * np.linspace(0.3, 1.0, config.n_ues)


@pytest.mark.parametrize("kind", ["lsfd", "equal"])
@pytest.mark.parametrize("link_name", ["validation_link", "tiny_link"])
def test_closed_form_sinr_matches_textbook_quotient(link_name, kind, request):
    link = request.getfixturevalue(link_name)
    cfg = link.config
    moments = closed_form_moments(link)
    p = _powers(cfg)
    a = _weights(moments, kind, p, cfg.noise_power)
    t = dense_second_moment(moments)
    expected = textbook_sinr(moments.u, t, moments.d, moments.w, a, p, cfg.noise_power)
    got = uatf_sinr(moments, a, p, cfg.noise_power)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["lsfd", "equal"])
def test_monte_carlo_sinr_matches_textbook_quotient(
    kind, mc_estimates, validation_moments, validation_config
):
    cfg = validation_config
    p = _powers(cfg)
    a = _weights(validation_moments, kind, p, cfg.noise_power)
    est = mc_estimates
    expected = textbook_sinr(
        est.u.mean, est.t.mean, est.d.mean.real, est.u_emi.mean.real, a, p, cfg.noise_power
    )
    got = uatf_sinr(est.moments(), a, p, cfg.noise_power)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_both_bundles_reject_misshapen_weights(
    mc_estimates, validation_moments, validation_config
):
    noise = validation_config.noise_power
    p = np.full(validation_config.n_ues, validation_config.p_max)
    ones = np.ones_like(validation_moments.d)
    for moments in (validation_moments, mc_estimates.moments()):
        for bad in (ones[:, :2], ones.T, ones[:, 0]):
            with pytest.raises(ValueError, match="weights must have shape"):
                uatf_sinr(moments, bad, p, noise)
        with pytest.raises(ValueError, match="powers must have shape"):
            uatf_sinr(moments, ones, p[:2], noise)


def test_dense_covariance_matches_ap_diagonal(validation_moments, validation_config):
    """The closed-form bundle with its cov expanded to M x M gives the same bound."""
    m = validation_moments
    t = dense_second_moment(m)
    dense = dataclasses.replace(m, cov=t - np.einsum("kim,kin->kimn", m.u, m.u.conj()))
    noise = validation_config.noise_power
    p = _powers(validation_config)
    diag_opt = optimal_lsfd_weights(m, p, noise)
    dense_opt = optimal_lsfd_weights(dense, p, noise)
    np.testing.assert_allclose(dense_opt.weights, diag_opt.weights, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(dense_opt.sinr, diag_opt.sinr, rtol=1e-12, atol=0.0)
    for got, want in zip(
        fixed_weight_form(dense, diag_opt.weights, noise),
        fixed_weight_form(m, diag_opt.weights, noise),
    ):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-30)


def test_lsfd_solves_a_wide_cell_free_drop():
    """LSFD on scenario 4 of a seed-1 run of 100 single-antenna APs on a
    2 km area. The APs' large-scale gains spread so widely that B_k has
    condition number 1.4e12, over the solve's guard; scaled to a unit
    diagonal it is well-posed, and every UE's SINR is finite and reaches
    the quotient's peak p_k u_kk^H a_k.
    """
    cfg = SystemConfig(
        n_aps=100,
        n_ues=40,
        n_ap_antennas=1,
        ris_width_elements=4,
        ris_height_elements=4,
        tau_p=10,
        area_side=2000.0,
    )
    moments = closed_form_moments(make_link(cfg, _scenario_rng(1, 4)))
    p = np.full(cfg.n_ues, cfg.p_max)
    opt = optimal_lsfd_weights(moments, p, cfg.noise_power)
    assert np.all(np.isfinite(opt.sinr))
    u_own = np.einsum("kkm->km", moments.u)
    peak = p * np.einsum("km,mk->k", u_own.conj(), opt.weights).real
    np.testing.assert_allclose(opt.sinr, peak, rtol=1e-9)
