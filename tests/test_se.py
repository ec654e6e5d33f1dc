"""Closed-form effective SINR, decoding weights, and spectral efficiency."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riscf import se
from riscf.config import SystemConfig
from riscf.estimation import _coset_mask
from riscf.pipeline import build_link_statistics
from riscf.scenario import generate_scenario
from riscf.se import (
    build_sinr_terms,
    closed_form_t_matrices,
    closed_form_u,
    evaluate_closed_form,
    optimal_lsfd_weights,
    sinr_equal_weights,
    sinr_lsfd_closed_form,
    spectral_efficiency,
)


def full_powers(link):
    return np.full(link.config.n_ues, link.config.p_max)


def test_terms_shapes_and_reality(validation_terms, validation_config):
    t = validation_terms
    m, k = validation_config.n_aps, validation_config.n_ues
    assert t.z.shape == (m, k)
    assert t.xi.shape == (k, k, m)
    assert t.varpi.shape == (k, k, m)
    assert t.j2.shape == (m, k)
    assert t.w.shape == (m, k)
    assert np.all(t.z > 0)
    assert np.all(t.xi >= 0)
    assert np.all(t.j2 >= 0)
    assert np.all(t.w >= 0)


def test_varpi_vanishes_off_coset(validation_terms):
    t = validation_terms
    mask = _coset_mask(t.assignment)
    for k in range(mask.shape[0]):
        for i in range(mask.shape[1]):
            if not mask[k, i]:
                assert np.all(t.varpi[k, i] == 0)


def test_interference_exceeds_estimate_norm_for_self(validation_terms):
    """xi[k, k, m] >= z[m, k]^... the self term includes the full moment."""
    t = validation_terms
    for k in range(t.xi.shape[0]):
        assert np.all(t.xi[k, k] + 1e-30 >= t.j2[:, k])


def test_closed_form_u_diagonal_is_z(validation_terms):
    u = closed_form_u(validation_terms)
    for k in range(u.shape[0]):
        assert np.allclose(u[k, k], validation_terms.z[:, k])


def test_closed_form_t_hermitian(validation_terms):
    t = closed_form_t_matrices(validation_terms)
    swapped = t.conj().swapaxes(-1, -2)
    assert np.allclose(t, swapped)


def test_equal_weights_is_ones_path(validation_terms, validation_config):
    p = np.full(validation_config.n_ues, validation_config.p_max)
    ones = np.ones_like(validation_terms.z, dtype=float)
    a = sinr_equal_weights(validation_terms, p, validation_config.noise_power)
    b = sinr_lsfd_closed_form(
        validation_terms, ones, p, validation_config.noise_power
    )
    assert np.array_equal(a, b)


def test_optimal_weights_achieve_their_sinr(validation_terms, validation_config):
    p = np.full(validation_config.n_ues, validation_config.p_max)
    noise = validation_config.noise_power
    opt = optimal_lsfd_weights(validation_terms, p, noise)
    direct = sinr_lsfd_closed_form(validation_terms, opt.weights, p, noise)
    assert np.allclose(direct, opt.sinr, rtol=1e-9)


def test_optimal_weights_beat_perturbations(validation_terms, validation_config):
    """No perturbed weight vector may exceed the optimum."""
    p = np.full(validation_config.n_ues, validation_config.p_max)
    noise = validation_config.noise_power
    opt = optimal_lsfd_weights(validation_terms, p, noise)
    rng = np.random.default_rng(17)
    for _ in range(25):
        delta = rng.standard_normal(opt.weights.shape) + 1j * rng.standard_normal(
            opt.weights.shape
        )
        trial = opt.weights + 0.3 * delta * np.abs(opt.weights).mean()
        perturbed = sinr_lsfd_closed_form(validation_terms, trial, p, noise)
        assert np.all(perturbed <= opt.sinr * (1 + 1e-9))


def test_optimal_weights_beat_equal_weights(validation_terms, validation_config):
    p = np.full(validation_config.n_ues, validation_config.p_max)
    noise = validation_config.noise_power
    opt = optimal_lsfd_weights(validation_terms, p, noise)
    eq = sinr_equal_weights(validation_terms, p, noise)
    assert np.all(opt.sinr + 1e-15 >= eq)


def test_weights_scale_invariance(validation_terms, validation_config):
    """Scaling any UE's weight vector leaves its SINR unchanged."""
    p = np.full(validation_config.n_ues, validation_config.p_max)
    noise = validation_config.noise_power
    opt = optimal_lsfd_weights(validation_terms, p, noise)
    scaled = opt.weights * (2.0 - 0.5j)
    direct = sinr_lsfd_closed_form(validation_terms, scaled, p, noise)
    assert np.allclose(direct, opt.sinr, rtol=1e-9)


@given(st.lists(st.floats(min_value=1e-4, max_value=0.2), min_size=4, max_size=4))
@settings(max_examples=25, deadline=None)
def test_sinr_monotone_in_own_power(validation_terms, validation_config, base):
    """SINR_k never decreases when UE k raises its own power."""
    noise = validation_config.noise_power
    p = np.asarray(base)
    lo = sinr_equal_weights(validation_terms, p, noise)
    for k in range(len(p)):
        boosted = p.copy()
        boosted[k] *= 2.0
        hi = sinr_equal_weights(validation_terms, boosted, noise)
        assert hi[k] >= lo[k] * (1 - 1e-12)


def test_sinr_decreases_with_interferer_power(validation_terms, validation_config):
    noise = validation_config.noise_power
    p = full_powers_like(validation_terms, validation_config)
    base = sinr_equal_weights(validation_terms, p, noise)
    boosted = p.copy()
    boosted[1] *= 4.0
    after = sinr_equal_weights(validation_terms, boosted, noise)
    assert after[0] <= base[0] * (1 + 1e-12)


def full_powers_like(terms, config):
    return np.full(config.n_ues, config.p_max)


def test_spectral_efficiency_formula():
    se = spectral_efficiency(np.array([1.0, 3.0]), 0.985)
    assert se[0] == pytest.approx(0.985 * 1.0)
    assert se[1] == pytest.approx(0.985 * 2.0)


def test_spectral_efficiency_rejects_bad_values():
    with pytest.raises(ValueError):
        spectral_efficiency(np.array([-0.5]), 1.0)
    with pytest.raises(ValueError):
        spectral_efficiency(np.array([np.inf]), 1.0)


def test_evaluate_closed_form_lsfd_vs_mr(validation_link):
    p = full_powers(validation_link)
    lsfd = evaluate_closed_form(validation_link, p)
    mr = evaluate_closed_form(validation_link, p, combiner="mr")
    assert np.all(lsfd.sinr + 1e-15 >= mr.sinr)
    assert np.allclose(mr.weights, 1.0)


def test_no_interference_limit_increases_sinr(validation_config):
    """Removing the ambient field can only help."""
    quiet_cfg = validation_config.replace(rho_db=None)
    rng_a = np.random.default_rng(21)
    rng_b = np.random.default_rng(21)
    noisy = build_link_statistics(
        generate_scenario(validation_config, rng_a), validation_config
    )
    quiet = build_link_statistics(generate_scenario(quiet_cfg, rng_b), quiet_cfg)
    p = np.full(validation_config.n_ues, validation_config.p_max)
    s_noisy = evaluate_closed_form(noisy, p)
    s_quiet = evaluate_closed_form(quiet, p)
    assert np.all(s_quiet.sinr + 1e-15 >= s_noisy.sinr)


def test_plain_system_closed_form_dual_route():
    """Without the surface the SINR must follow from direct-link algebra.

    Rebuilds z, xi, varpi from the direct covariances alone and compares
    the resulting SINR with the production path.
    """
    cfg = SystemConfig(
        n_aps=3,
        n_ues=4,
        n_ap_antennas=2,
        ris_width_elements=2,
        ris_height_elements=2,
        tau_p=2,
        ris="off",
    )
    link = build_link_statistics(generate_scenario(cfg, np.random.default_rng(8)), cfg)
    terms = build_sinr_terms(link)

    tau, noise = cfg.tau_p, cfg.noise_power
    p_hat = link.pilot_powers
    r = link.stats.r_direct
    m_aps, k_ues = cfg.n_aps, cfg.n_ues
    eye = np.eye(cfg.n_ap_antennas)
    z = np.zeros((m_aps, k_ues))
    xi = np.zeros((k_ues, k_ues, m_aps))
    varpi = np.zeros((k_ues, k_ues, m_aps), dtype=complex)
    for k in range(k_ues):
        coset = link.assignment.coset(k)
        for m in range(m_aps):
            psi = sum(p_hat[i] * tau * r[m, i] for i in coset) + noise * eye
            omega = r[m, k] @ np.linalg.solve(psi, r[m, k])
            z[m, k] = (p_hat[k] * tau * np.trace(omega)).real
            for i in range(k_ues):
                xi[k, i, m] = (p_hat[k] * tau * np.trace(r[m, i] @ omega)).real
                if i in coset:
                    varpi[k, i, m] = np.trace(
                        r[m, i] @ np.linalg.solve(psi, r[m, k])
                    )
    assert np.allclose(terms.z, z, rtol=1e-9)
    assert np.allclose(terms.xi.reshape(-1), xi.reshape(-1), rtol=1e-9, atol=1e-30)
    assert np.allclose(terms.varpi, varpi, rtol=1e-9, atol=1e-30)
    assert np.allclose(terms.w, 0.0)
    assert np.allclose(terms.j2, 0.0)

    p = np.full(k_ues, cfg.p_max)
    opt = optimal_lsfd_weights(terms, p, noise)
    manual_sinr = np.zeros(k_ues)
    mask = _coset_mask(link.assignment)
    for k in range(k_ues):
        diag = np.einsum("i,im->m", p, xi[k]) + noise * z[:, k]
        b = np.diag(diag).astype(complex)
        for i in range(k_ues):
            if i == k or not mask[k, i]:
                continue
            b += p[i] * p_hat[k] * p_hat[i] * tau**2 * np.outer(
                varpi[k, i], varpi[k, i].conj()
            )
        manual_sinr[k] = (p[k] * z[:, k] @ np.linalg.solve(b, z[:, k])).real
    assert np.allclose(opt.sinr, manual_sinr, rtol=1e-9)


def _per_ue_lsfd(terms, powers, noise):
    """Reference: build each B_k alone and solve it alone."""
    n_aps, n_ues = terms.z.shape
    p_hat, tau = terms.pilot_powers, terms.tau_p
    mask = _coset_mask(terms.assignment)
    weights = np.zeros((n_aps, n_ues), dtype=complex)
    sinr = np.zeros(n_ues)
    for k in range(n_ues):
        diag = (
            np.einsum("i,im->m", powers, terms.xi[k])
            - powers[k] * terms.j2[:, k]
            + noise * terms.z[:, k]
            + terms.w[:, k]
        )
        b = np.diag(diag).astype(complex)
        for i in range(n_ues):
            if i != k and mask[k, i]:
                vp = terms.varpi[k, i]
                b += powers[i] * p_hat[k] * p_hat[i] * tau**2 * np.outer(vp, vp.conj())
        weights[:, k] = np.linalg.solve(b, terms.z[:, k].astype(complex))
        sinr[k] = powers[k] * (terms.z[:, k] @ weights[:, k]).real
    return weights, sinr


@pytest.mark.parametrize("powers", ["full", "random"])
def test_batched_lsfd_matches_per_ue_construction(
    powers, validation_terms, validation_config, monkeypatch
):
    """One stacked solve gives the per-UE weights and SINRs, coset terms included."""
    terms = validation_terms
    assert (_coset_mask(terms.assignment) - np.eye(terms.z.shape[1])).any()
    p = np.full(validation_config.n_ues, validation_config.p_max)
    if powers == "random":
        p = p * np.random.default_rng(3).uniform(0.05, 1.0, p.size)
    calls = []
    solve = se.solve_hermitian
    monkeypatch.setattr(
        se, "solve_hermitian", lambda a, b: calls.append(a.shape) or solve(a, b)
    )

    opt = optimal_lsfd_weights(terms, p, validation_config.noise_power)
    weights, sinr = _per_ue_lsfd(terms, p, validation_config.noise_power)
    assert calls == [(validation_config.n_ues,) + (validation_config.n_aps,) * 2]
    np.testing.assert_allclose(opt.weights, weights, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(opt.sinr, sinr, rtol=1e-12, atol=0.0)
