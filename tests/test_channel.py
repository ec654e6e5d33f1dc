"""Aggregated channel statistics and the joint channel sampler."""
from dataclasses import replace

import numpy as np
import pytest

from riscf.channel import ChannelSampler, aggregated_covariance
from riscf.config import SystemConfig
from riscf.correlation import ris_sinc_correlation
from riscf.linalg import hermitize, sample_cn, sample_phases, standard_cn

from conftest import make_link, q_terms
from dense_reference import dense_nlos, draw


def _dense_nlos(link):
    return dense_nlos(link.surface, link.scenario, link.config, link.surface.r_m, "on")


def test_aggregated_mean_is_cascaded_los(tiny_link):
    link = tiny_link
    los = link.surface
    expect = np.einsum("mna,n,kn->mka", los.hbar.conj(), los.phi, los.zbar)
    assert np.allclose(link.stats.obar, expect)


def test_aggregated_covariance_pieces_are_psd(tiny_link):
    for arr in (tiny_link.stats.r_o, *q_terms(tiny_link.surface)):
        for m in range(arr.shape[0]):
            for k in range(arr.shape[1]):
                block = hermitize(arr[m, k])
                assert np.linalg.eigvalsh(block).min() > -1e-18


def test_aggregated_covariance_dominates_direct(tiny_link):
    """The cascade only adds variance on top of the direct link."""
    stats = tiny_link.stats
    extra = stats.r_o - stats.r_direct
    for m in range(extra.shape[0]):
        for k in range(extra.shape[1]):
            assert np.linalg.eigvalsh(hermitize(extra[m, k])).min() > -1e-18


def test_sampler_shapes_and_determinism(tiny_link):
    cfg = tiny_link.config
    sampler = ChannelSampler(tiny_link.stats, tiny_link.surface)
    a = draw(sampler, np.random.default_rng(3), 7)
    b = draw(sampler, np.random.default_rng(3), 7)
    m, k, l, n = cfg.n_aps, cfg.n_ues, cfg.n_ap_antennas, cfg.n_ris_elements
    assert a.g.shape == (7, m, k, l)
    assert a.h.shape == (7, m, n, l)
    assert a.z.shape == (7, k, n)
    assert a.o.shape == (7, m, k, l)
    assert np.array_equal(a.o, b.o)


@pytest.mark.parametrize("trials", [1, 9])
def test_draw_unreflected_keeps_the_stream(validation_link, trials):
    """The unreflected draw takes the phases, g's and z's white draws, in that
    order, and nothing else from the generator."""
    sampler = ChannelSampler(validation_link.stats, validation_link.surface)
    m, k, l, n = sampler.n_aps, sampler.n_ues, sampler.l, sampler.n
    rng = np.random.default_rng(17)
    phase, g, z = sampler.draw_unreflected(rng, trials)
    by_hand = np.random.default_rng(17)
    want_phase = sample_phases(by_hand, (trials, k))
    white = standard_cn(by_hand, (trials, m, k, l))
    sample_cn(by_hand, sampler.ris_factor, (trials, k))
    assert rng.bit_generator.state == by_hand.bit_generator.state
    assert np.array_equal(phase, want_phase)
    want_g = np.einsum("mkab,tmkb->tmka", sampler.g_factors, white)
    np.testing.assert_allclose(g, want_g, rtol=1e-13, atol=0.0)
    assert z.shape == (trials, k, n)


def test_sampler_aggregates_parts(tiny_link):
    """o must equal g + H^H Phi z element by element on the same draw."""
    sampler = ChannelSampler(tiny_link.stats, tiny_link.surface)
    real = draw(sampler, np.random.default_rng(4), 5)
    phi_z = tiny_link.surface.phi * real.z
    cascade = np.array(
        [[h_m.conj().T @ phi_z[t].T for h_m in h_t] for t, h_t in enumerate(real.h)]
    )
    assert np.allclose(real.o, real.g + cascade.swapaxes(2, 3))
    assert np.allclose(np.abs(real.phase), 1.0)


def test_sampler_first_moments(tiny_link):
    """Sample means converge on hbar, zbar, and the aggregated mean."""
    n_trials = 60000
    sampler = ChannelSampler(tiny_link.stats, tiny_link.surface)
    ones = np.ones((n_trials, tiny_link.config.n_ues))
    real = draw(sampler, np.random.default_rng(5), n_trials, phase=ones)
    rtilde_m, rtilde_k = _dense_nlos(tiny_link)
    se_h = np.sqrt(
        max(np.diagonal(rtilde_m, axis1=1, axis2=2).real.max(), 0.0)
        / n_trials
    )
    se_z = np.sqrt(
        np.diagonal(rtilde_k, axis1=1, axis2=2).real.max() / n_trials
    )
    se_o = np.sqrt(
        np.diagonal(tiny_link.stats.r_o, axis1=2, axis2=3).real.max() / n_trials
    )
    assert np.abs(real.h.mean(axis=0) - tiny_link.surface.hbar).max() < 6.0 * se_h
    assert np.abs(real.z.mean(axis=0) - tiny_link.surface.zbar).max() < 6.0 * se_z
    assert np.abs(real.o.mean(axis=0) - tiny_link.stats.obar).max() < 6.0 * se_o


def test_sampler_aggregated_second_moment(tiny_link):
    """Sample covariance of o matches the closed-form r_o within noise."""
    sampler = ChannelSampler(tiny_link.stats, tiny_link.surface)
    real = draw(sampler, np.random.default_rng(6), 120000, phase=np.ones((120000, 2)))
    centered = real.o - tiny_link.stats.obar
    sample = np.einsum("tmka,tmkb->mkab", centered, centered.conj()) / len(real.o)
    err = np.abs(sample - tiny_link.stats.r_o).max()
    scale = np.abs(tiny_link.stats.r_o).max()
    assert err < 0.03 * scale


def test_fixed_phase_is_honored(tiny_link):
    sampler = ChannelSampler(tiny_link.stats, tiny_link.surface)
    real = draw(sampler, np.random.default_rng(7), 4, phase=np.ones((4, 2)))
    assert np.allclose(real.phase, 1.0)


def test_aggregated_covariance_zero_ris_reduces_to_direct(tiny_link):
    off = tiny_link.surface.off()
    stats = aggregated_covariance(tiny_link.stats.r_direct, off)
    assert np.allclose(stats.r_o, tiny_link.stats.r_direct)
    assert np.allclose(stats.obar, 0.0)
    q1, q2 = q_terms(off)
    assert np.allclose(q1, 0.0)
    assert np.allclose(q2, 0.0)


def test_sampler_h_covariance_is_dense_kronecker(validation_link):
    """Sample covariance of vec(H_m - Hbar_m) matches the dense Kronecker one.

    Each entry of a circular-Gaussian sample covariance over T draws has
    standard error sqrt(C_ii C_jj / T).
    """
    link = validation_link
    n_trials = 40000
    sampler = ChannelSampler(link.stats, link.surface)
    real = draw(sampler, np.random.default_rng(8), n_trials)
    rtilde_m, _ = _dense_nlos(link)
    nlos_part = real.h - link.surface.hbar
    vec = nlos_part.transpose(0, 1, 3, 2).reshape(n_trials, link.config.n_aps, -1)
    for m in range(link.config.n_aps):
        sample = vec[:, m].T @ vec[:, m].conj() / n_trials
        var = np.diagonal(rtilde_m[m]).real
        std_err = np.sqrt(np.outer(var, var) / n_trials)
        assert np.all(np.abs(sample - rtilde_m[m]) < 5.0 * std_err)


@pytest.mark.parametrize("n_ap_antennas", [1, 2])
@pytest.mark.parametrize("config_name, seed", [("tiny_config", 5), ("validation_config", 1)])
def test_projected_reflection_reproduces_full_draw(request, config_name, seed, n_ap_antennas):
    """With V_m := conj(Q^H W_m) the projected formula reflects through the full draw's H.

    Y has the rows (Phi x_j)^H F_R and Y^H = Q R; every trial reflects
    K + tau_p + 1 vectors, the count a Monte Carlo trial reflects.
    """
    config = request.getfixturevalue(config_name).replace(n_ap_antennas=n_ap_antennas)
    link = make_link(config, seed)
    cfg = link.config
    sampler = ChannelSampler(link.stats, link.surface)
    rng = np.random.default_rng(9)
    trials, j, n = 6, cfg.n_ues + cfg.tau_p + 1, cfg.n_ris_elements
    real = draw(sampler, rng, trials)
    x = rng.standard_normal((trials, j, n)) + 1j * rng.standard_normal((trials, j, n))
    y = (link.surface.phi * x).conj() @ sampler.ris_factor
    q, r = np.linalg.qr(y.conj().swapaxes(1, 2))
    v = np.einsum("trk,mtrl->tkml", q, real.w.conj()).reshape(trials, q.shape[2], -1)
    got = sampler._reflect_projected(x, r, v)
    expect = real.reflect(x)
    assert got.shape == expect.shape == (trials, cfg.n_aps, j, cfg.n_ap_antennas)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def _reflection_covariance_checks(link):
    """Per AP, whether the NLoS reflections of ``draw_reflections`` have their law.

    For fixed vectors x_j the sample covariance of the NLoS reflections at
    each AP must match conj(G (x) A A^H), G the Gram matrix of the rows of
    Y, within 5 standard errors (C_ii C_jj / T per entry).
    """
    cfg = link.config
    sampler = ChannelSampler(link.stats, link.surface)
    rng = np.random.default_rng(10)
    j, n, l, trials = cfg.n_ues + cfg.tau_p + 1, cfg.n_ris_elements, cfg.n_ap_antennas, 40000
    x = rng.standard_normal((j, n)) + 1j * rng.standard_normal((j, n))
    x[-1] = 0.0  # a zero row, as with the EMI off
    got = sampler.draw_reflections(rng, np.broadcast_to(x, (trials, j, n)).copy())
    mean = np.einsum("mna,n,jn->mja", link.surface.hbar.conj(), link.surface.phi, x)
    y = (link.surface.phi * x).conj() @ sampler.ris_factor
    gram = y @ y.conj().T
    checks = []
    for m in range(cfg.n_aps):
        a = sampler.ap_factors[m]
        cov = np.kron(gram, a @ a.conj().T).conj()
        d = (got[:, m] - mean[m]).reshape(trials, j * l)
        sample = d.T @ d.conj() / trials
        var = np.diagonal(cov).real
        std_err = np.sqrt(np.outer(var, var) / trials)
        checks.append(np.all(np.abs(sample - cov) <= 5.0 * std_err + 1e-300))
    return checks


def test_projected_reflections_have_the_full_draws_covariance(validation_link):
    assert all(_reflection_covariance_checks(validation_link))


def test_covariance_check_catches_scaled_white_draws(validation_link, monkeypatch):
    """White draws V scaled by 1.2 (a 44% error in the NLoS reflection
    covariance) fail the covariance check at every AP."""
    reflect = ChannelSampler._reflect_projected

    def scaled(self, x, r_factor, v):
        return reflect(self, x, r_factor, 1.2 * v)

    monkeypatch.setattr(ChannelSampler, "_reflect_projected", scaled)
    assert not any(_reflection_covariance_checks(validation_link))


def test_ris_factor_moves_with_r_only_in_its_last_bits():
    """A 1e-13 Hermitian change of R moves F_R by at most 1e-10 relative.

    The sinc R of a 4x4 half-wavelength array has repeated eigenvalues, so
    an eigenvector factor of it can jump by O(1) on such a change; the
    Hermitian square root cannot.
    """
    cfg = SystemConfig(n_aps=2, n_ues=2, tau_p=2, shadow_std_db=0.0)
    link = make_link(cfg, 0)
    lam = cfg.wavelength
    R = ris_sinc_correlation(4, 4, lam / 2, lam / 2, lam)
    rng = np.random.default_rng(0)
    e = rng.standard_normal(R.shape) + 1j * rng.standard_normal(R.shape)
    nudge = 1e-13 * hermitize(e) / np.linalg.norm(hermitize(e))
    base, moved = (
        ChannelSampler(link.stats, replace(link.surface, R=r)).ris_factor
        for r in (R, R + nudge)
    )
    assert np.linalg.norm(moved - base) <= 1e-10 * np.linalg.norm(base)
