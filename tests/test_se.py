"""Closed-form effective SINR, decoding weights, and spectral efficiency."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riscf import uatf
from riscf.config import SystemConfig
from riscf.se import _real_part, closed_form_moments, spectral_efficiency
from riscf.uatf import combine, optimal_lsfd_weights, uatf_sinr
from closed_form_reference import paper_terms, terms_moments
from conftest import make_link
from uatf_reference import dense_second_moment


def full_powers(link):
    return np.full(link.config.n_ues, link.config.p_max)


def closed_sinr(link, powers):
    """SINR of a link under LSFD, in closed form."""
    moments = closed_form_moments(link)
    return combine(moments, "lsfd", powers, link.config.noise_power).sinr


def equal_sinr(moments, powers, noise):
    return uatf_sinr(moments, np.ones_like(moments.d), powers, noise)


def test_terms_shapes_and_reality(validation_link, validation_moments, validation_config):
    t = paper_terms(validation_link)
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
    for real in (validation_moments.cov, validation_moments.d, validation_moments.w):
        assert not np.iscomplexobj(real)


def test_varpi_vanishes_off_coset(validation_link):
    t = paper_terms(validation_link)
    mask = t.assignment.mask
    for k in range(mask.shape[0]):
        for i in range(mask.shape[1]):
            if not mask[k, i]:
                assert np.all(t.varpi[k, i] == 0)


def test_interference_exceeds_estimate_norm_for_self(validation_link):
    """xi[k, k, m] >= z[m, k]^... the self term includes the full moment."""
    t = paper_terms(validation_link)
    for k in range(t.xi.shape[0]):
        assert np.all(t.xi[k, k] + 1e-30 >= t.j2[:, k])


def test_closed_form_u_diagonal_is_z(validation_moments, validation_link):
    u = validation_moments.u
    z = paper_terms(validation_link).z
    for k in range(u.shape[0]):
        assert np.allclose(u[k, k], z[:, k])


def test_closed_form_t_hermitian(validation_moments):
    """The closed-form second moments are Hermitian and PSD."""
    t = dense_second_moment(validation_moments)
    swapped = t.conj().swapaxes(-1, -2)
    assert np.allclose(t, swapped)
    eig = np.linalg.eigvalsh(t)
    assert eig.min() >= -1e-12 * eig.max()


def _per_pair_second_moments(terms):
    """Reference: T[k, i] assembled one UE pair at a time from the terms."""
    n_aps, n_ues = terms.z.shape
    p_hat, tau = terms.pilot_powers, terms.tau_p
    mask = terms.assignment.mask
    t = np.zeros((n_ues, n_ues, n_aps, n_aps), dtype=complex)
    for k in range(n_ues):
        for i in range(n_ues):
            if i == k:
                t[k, i] = np.diag(terms.xi[k, k] - terms.j2[:, k])
                t[k, i] += np.outer(terms.z[:, k], terms.z[:, k])
            else:
                t[k, i] = np.diag(terms.xi[k, i])
                if mask[k, i]:
                    vp = terms.varpi[k, i]
                    t[k, i] += p_hat[k] * p_hat[i] * tau**2 * np.outer(vp, vp.conj())
    return t


def test_closed_form_moments_match_per_pair_second_moments(validation_link):
    """u u^H plus the AP-diagonal cov is the second moment, LoS term included."""
    got = dense_second_moment(closed_form_moments(validation_link))
    want = _per_pair_second_moments(paper_terms(validation_link))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "antennas, mode, random_los",
    [
        (2, {}, False),
        (2, {"ris": "off"}, False),
        (2, {"emi": "off"}, False),
        (1, {}, False),
        (4, {}, False),
        (1, {}, True),
        (2, {}, True),
        (4, {}, True),
    ],
    ids=["on", "off", "emi-off", "L1", "L4", "L1-random-los", "L2-random-los", "L4-random-los"],
)
def test_closed_form_moments_map_the_paper_terms(antennas, mode, random_los, validation_config):
    """The per-AP GEMMs on the flattened L^2 axis are the (u, cov, d, w) map
    of the entrywise terms: on the L = 2 validation link with the surface on
    and off and with EMI off, and at L = 1 (an L^2 axis of one) and L = 4.

    On these links the LoS means carry about 3e-8 of the channel energy and
    have no phase step across the antennas, so an error in the LoS forms, a
    conjugate among them, hides under the 1e-12 tolerance. The random-los
    cases replace them by means of random phase as strong as the NLoS part;
    the map is an identity in its inputs, so that link need not be physical.
    """
    link = make_link(validation_config.replace(n_ap_antennas=antennas), 1, **mode)
    if random_los:
        r_o = link.stats.r_o
        rng = np.random.default_rng(antennas)
        scale = np.sqrt(np.trace(r_o, axis1=-2, axis2=-1).real / antennas)
        obar = scale[..., None] * (
            rng.standard_normal(r_o.shape[:-1]) + 1j * rng.standard_normal(r_o.shape[:-1])
        )
        link = dataclasses.replace(link, stats=dataclasses.replace(link.stats, obar=obar))
    got = closed_form_moments(link)
    want = terms_moments(paper_terms(link))
    for name in ("u", "cov", "d", "w"):
        np.testing.assert_allclose(
            getattr(got, name), getattr(want, name), rtol=1e-12, atol=0.0, err_msg=name
        )


def test_planted_imaginary_residue_is_refused(validation_link):
    """An omega whose trace, and so tr D, carries an imaginary residue above
    1e-9 is refused.

    The statistics of this link lie far below unit magnitude, so the bound
    is 1e-9 absolute: a residue of 1e-12 per diagonal entry still passes.
    """
    est = validation_link.est
    eye = np.eye(est.omega.shape[-1])
    for residue, refused in ((1e-8, True), (1e-12, False)):
        omega = est.omega + 1j * residue * eye
        link = dataclasses.replace(validation_link, est=dataclasses.replace(est, omega=omega))
        if refused:
            with pytest.raises(ValueError, match="trace of D"):
                closed_form_moments(link)
        else:
            closed_form_moments(link)


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e3])
def test_real_part_bound_is_relative_above_unit_magnitude(scale):
    """The residue may reach 1e-9 times max(largest magnitude, 1), no more."""
    values = np.array([scale, -0.5 * scale, 0.0], dtype=complex)
    bound = 1e-9 * max(scale, 1.0)
    for sign in (1.0, -1.0):
        passed = values.copy()
        passed[2] += 1j * sign * 0.99 * bound
        np.testing.assert_array_equal(_real_part(passed, "x"), values.real)
        refused = values.copy()
        refused[2] += 1j * sign * 1.01 * bound
        with pytest.raises(ValueError, match="x has a non-negligible imaginary part"):
            _real_part(refused, "x")


def test_equal_weights_is_ones_path(validation_moments, validation_config):
    p = np.full(validation_config.n_ues, validation_config.p_max)
    noise = validation_config.noise_power
    ones = np.ones_like(validation_moments.d, dtype=float)
    mr = combine(validation_moments, "mr", p, noise)
    assert np.array_equal(mr.weights, ones)
    assert np.array_equal(mr.sinr, uatf_sinr(validation_moments, ones, p, noise))


def test_optimal_weights_achieve_their_sinr(validation_moments, validation_config):
    """At a_k = B_k^{-1} u_kk the quotient reaches its maximum p_k u_kk^H a_k."""
    p = np.full(validation_config.n_ues, validation_config.p_max)
    noise = validation_config.noise_power
    opt = optimal_lsfd_weights(validation_moments, p, noise)
    u_own = np.einsum("kkm->km", validation_moments.u)
    peak = p * np.einsum("km,mk->k", u_own.conj(), opt.weights).real
    assert np.allclose(opt.sinr, peak, rtol=1e-9)


def test_optimal_weights_beat_perturbations(validation_moments, validation_config):
    """No perturbed weight vector may exceed the optimum."""
    p = np.full(validation_config.n_ues, validation_config.p_max)
    noise = validation_config.noise_power
    opt = optimal_lsfd_weights(validation_moments, p, noise)
    rng = np.random.default_rng(17)
    for _ in range(25):
        delta = rng.standard_normal(opt.weights.shape) + 1j * rng.standard_normal(
            opt.weights.shape
        )
        trial = opt.weights + 0.3 * delta * np.abs(opt.weights).mean()
        perturbed = uatf_sinr(validation_moments, trial, p, noise)
        assert np.all(perturbed <= opt.sinr * (1 + 1e-9))


def test_optimal_weights_beat_equal_weights(validation_moments, validation_config):
    p = np.full(validation_config.n_ues, validation_config.p_max)
    noise = validation_config.noise_power
    opt = optimal_lsfd_weights(validation_moments, p, noise)
    eq = equal_sinr(validation_moments, p, noise)
    assert np.all(opt.sinr + 1e-15 >= eq)


def test_weights_scale_invariance(validation_moments, validation_config):
    """Scaling any UE's weight vector leaves its SINR unchanged."""
    p = np.full(validation_config.n_ues, validation_config.p_max)
    noise = validation_config.noise_power
    opt = optimal_lsfd_weights(validation_moments, p, noise)
    scaled = opt.weights * (2.0 - 0.5j)
    direct = uatf_sinr(validation_moments, scaled, p, noise)
    assert np.allclose(direct, opt.sinr, rtol=1e-9)


@given(st.lists(st.floats(min_value=1e-4, max_value=0.2), min_size=4, max_size=4))
@settings(max_examples=25, deadline=None)
def test_sinr_monotone_in_own_power(validation_moments, validation_config, base):
    """SINR_k never decreases when UE k raises its own power."""
    noise = validation_config.noise_power
    p = np.asarray(base)
    lo = equal_sinr(validation_moments, p, noise)
    for k in range(len(p)):
        boosted = p.copy()
        boosted[k] *= 2.0
        hi = equal_sinr(validation_moments, boosted, noise)
        assert hi[k] >= lo[k] * (1 - 1e-12)


def test_sinr_decreases_with_interferer_power(validation_moments, validation_config):
    noise = validation_config.noise_power
    p = np.full(validation_config.n_ues, validation_config.p_max)
    base = equal_sinr(validation_moments, p, noise)
    boosted = p.copy()
    boosted[1] *= 4.0
    after = equal_sinr(validation_moments, boosted, noise)
    assert after[0] <= base[0] * (1 + 1e-12)


def test_spectral_efficiency_formula():
    se = spectral_efficiency(np.array([1.0, 3.0]), 0.985)
    assert se[0] == pytest.approx(0.985 * 1.0)
    assert se[1] == pytest.approx(0.985 * 2.0)


def test_spectral_efficiency_rejects_bad_values():
    with pytest.raises(ValueError):
        spectral_efficiency(np.array([-0.5]), 1.0)
    with pytest.raises(ValueError):
        spectral_efficiency(np.array([np.inf]), 1.0)


def test_evaluate_closed_form_lsfd_vs_mr(validation_moments, validation_link):
    p = full_powers(validation_link)
    noise = validation_link.config.noise_power
    lsfd = combine(validation_moments, "lsfd", p, noise)
    mr = combine(validation_moments, "mr", p, noise)
    assert np.all(lsfd.sinr + 1e-15 >= mr.sinr)
    assert np.allclose(mr.weights, 1.0)
    with pytest.raises(ValueError, match="combiner"):
        combine(validation_moments, "zf", p, noise)


def test_no_interference_limit_increases_sinr(validation_config):
    """Removing the ambient field can only help."""
    noisy = make_link(validation_config, 21)
    quiet = make_link(validation_config, 21, emi="off")
    p = np.full(validation_config.n_ues, validation_config.p_max)
    assert np.all(closed_sinr(quiet, p) + 1e-15 >= closed_sinr(noisy, p))


def test_plain_system_closed_form_dual_route():
    """Without the surface the SINR must follow from direct-link algebra.

    Rebuilds z, xi, varpi from the direct covariances alone and compares
    their moments and the resulting SINR with the production path.
    """
    cfg = SystemConfig(
        n_aps=3,
        n_ues=4,
        n_ap_antennas=2,
        ris_width_elements=2,
        ris_height_elements=2,
        tau_p=2,
    )
    link = make_link(cfg, 8, ris="off")
    moments = closed_form_moments(link)

    tau, noise = cfg.tau_p, cfg.noise_power
    p_hat = np.full(cfg.n_ues, link.assignment.power)
    r = link.stats.r_direct
    m_aps, k_ues = cfg.n_aps, cfg.n_ues
    eye = np.eye(cfg.n_ap_antennas)
    z = np.zeros((m_aps, k_ues))
    xi = np.zeros((k_ues, k_ues, m_aps))
    varpi = np.zeros((k_ues, k_ues, m_aps), dtype=complex)
    for k in range(k_ues):
        coset = np.flatnonzero(link.assignment.mask[k])
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
    u = np.sqrt(np.outer(p_hat, p_hat))[:, :, None] * tau * varpi
    u[np.arange(k_ues), np.arange(k_ues)] = z.T
    assert np.allclose(moments.d, z, rtol=1e-9)
    assert np.allclose(moments.cov.reshape(-1), xi.reshape(-1), rtol=1e-9, atol=1e-30)
    assert np.allclose(moments.u, u, rtol=1e-9, atol=1e-30)
    assert np.allclose(moments.w, 0.0)

    p = np.full(k_ues, cfg.p_max)
    opt = optimal_lsfd_weights(moments, p, noise)
    manual_sinr = np.zeros(k_ues)
    mask = link.assignment.mask
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
    mask = terms.assignment.mask
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
    powers, validation_link, validation_moments, validation_config, monkeypatch
):
    """One stacked solve gives the per-UE weights and SINRs, coset terms included."""
    terms = paper_terms(validation_link)
    assert (terms.assignment.mask - np.eye(terms.z.shape[1])).any()
    p = np.full(validation_config.n_ues, validation_config.p_max)
    if powers == "random":
        p = p * np.random.default_rng(3).uniform(0.05, 1.0, p.size)
    calls = []
    solve = uatf.solve_hermitian
    monkeypatch.setattr(
        uatf, "solve_hermitian", lambda a, b: calls.append(a.shape) or solve(a, b)
    )

    opt = optimal_lsfd_weights(validation_moments, p, validation_config.noise_power)
    weights, sinr = _per_ue_lsfd(terms, p, validation_config.noise_power)
    assert calls == [(validation_config.n_ues,) + (validation_config.n_aps,) * 2]
    np.testing.assert_allclose(opt.weights, weights, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(opt.sinr, sinr, rtol=1e-12, atol=0.0)
