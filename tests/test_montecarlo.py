"""Simulation oracle: streaming moments and moment-based SINR assembly."""
import numpy as np
import pytest

from riscf.montecarlo import RunningMoments, UatfEstimates, estimate_uatf_terms
from riscf.se import build_sinr_terms, closed_form_moments
from riscf.uatf import optimal_lsfd_weights, uatf_sinr

from conftest import make_link
from dense_reference import dense_uatf_terms


def test_running_moments_match_numpy():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((1000, 3)) + 1j * rng.standard_normal((1000, 3))
    acc = RunningMoments((3,))
    for chunk in np.split(data, [100, 350, 900]):
        acc.update(chunk)
    est = acc.finalize()
    assert est.trials == 1000
    assert np.allclose(est.mean, data.mean(axis=0))
    se_re = data.real.std(axis=0, ddof=1) / np.sqrt(1000)
    se_im = data.imag.std(axis=0, ddof=1) / np.sqrt(1000)
    assert np.allclose(est.std_error.real, se_re, rtol=1e-10)
    assert np.allclose(est.std_error.imag, se_im, rtol=1e-10)


def test_running_moments_chunking_invariant():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((500, 2, 2))
    one = RunningMoments((2, 2))
    one.update(data)
    many = RunningMoments((2, 2))
    for chunk in np.array_split(data, 7):
        many.update(chunk)
    a, b = one.finalize(), many.finalize()
    assert np.allclose(a.mean, b.mean)
    assert np.allclose(a.std_error, b.std_error, rtol=1e-9)


def test_update_outer_matches_explicit_outer_products():
    """GEMM sums equal feeding every b b^H to update, across chunks."""
    rng = np.random.default_rng(2)
    data = rng.standard_normal((300, 2, 3, 4)) + 1j * rng.standard_normal((300, 2, 3, 4))
    outer = RunningMoments((2, 3, 4, 4))
    explicit = RunningMoments((2, 3, 4, 4))
    for chunk in np.array_split(data, 4):
        outer.update_outer(chunk)
        explicit.update(np.einsum("tjka,tjkb->tjkab", chunk, chunk.conj()))
    a, b = outer.finalize(), explicit.finalize()
    assert a.trials == b.trials == 300
    assert np.allclose(a.mean, b.mean, rtol=1e-12, atol=0)
    assert np.abs(a.std_error - b.std_error).max() <= 1e-8 * np.abs(b.std_error).max()
    diag = np.arange(4)
    assert np.all(a.std_error.imag[..., diag, diag] == 0.0)


def test_running_moments_requires_samples():
    with pytest.raises(ValueError):
        RunningMoments((2,)).finalize()


def test_estimate_uatf_terms_deterministic(tiny_link):
    a = estimate_uatf_terms(tiny_link, 512, rng=42)
    b = estimate_uatf_terms(tiny_link, 512, rng=42)
    assert np.array_equal(a.u.mean, b.u.mean)
    assert np.array_equal(a.t.mean, b.t.mean)
    assert np.array_equal(a.d.mean, b.d.mean)
    assert np.array_equal(a.u_emi.mean, b.u_emi.mean)


@pytest.mark.parametrize(
    "config_name, seed, modes",
    [
        ("tiny_config", 5, {}),
        ("tiny_config", 5, {"emi": "off"}),
        ("validation_config", 1, {}),
        ("validation_config", 1, {"emi": "off"}),
        ("validation_config", 1, {"ris": "off"}),
    ],
    ids=["tiny", "tiny-emi-off", "validation", "validation-emi-off", "validation-ris-off"],
)
def test_estimate_matches_dense_per_trial_loop(request, config_name, seed, modes):
    """Reflecting from W and GEMM-accumulated T reproduce the dense-H loop.

    Both run the same random stream over three chunks, the last one
    partial, so only the rounding of the sums may differ.
    """
    link = make_link(request.getfixturevalue(config_name).replace(**modes), seed)
    got = estimate_uatf_terms(link, 300, rng=6, chunk_size=128)
    ref = dense_uatf_terms(link, 300, rng=6, chunk_size=128)
    for name in ("u", "t", "d", "u_emi"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.trials == b.trials == 300
        assert np.allclose(a.mean, b.mean, rtol=1e-12, atol=0), name
        largest = np.abs(b.std_error).max()
        assert np.abs(a.std_error - b.std_error).max() <= 1e-8 * largest, name


def test_estimate_uatf_terms_validates_trials(tiny_link):
    with pytest.raises(ValueError):
        estimate_uatf_terms(tiny_link, 0, rng=1)


def test_estimated_selfterm_matches_combiner_norm(tiny_link):
    """E{v^H o} for the own UE equals E{||v||^2} up to noise."""
    est = estimate_uatf_terms(tiny_link, 8192, rng=3)
    for k in range(tiny_link.config.n_ues):
        u_kk = est.u.mean[k, k]
        d_k = est.d.mean[:, k]
        tol = 5.0 * (np.abs(est.u.std_error[k, k]) + np.abs(est.d.std_error[:, k]))
        assert np.all(np.abs(u_kk - d_k) <= tol + 1e-12 * np.abs(d_k))


def test_sinr_from_estimates_synthetic_assembly():
    """Hand-built estimates give the exact textbook quotient."""
    n_aps, n_ues = 2, 2
    u = np.zeros((n_ues, n_ues, n_aps), dtype=complex)
    t = np.zeros((n_ues, n_ues, n_aps, n_aps), dtype=complex)
    u[0, 0] = [1.0, 2.0]
    u[1, 1] = [1.5, 0.5]
    for k in range(n_ues):
        for i in range(n_ues):
            base = np.outer(u[k, i], u[k, i].conj())
            t[k, i] = base + 0.1 * np.eye(n_aps)
    d = np.full((n_aps, n_ues), 2.0)
    w_emi = np.full((n_aps, n_ues), 0.05)
    mk = lambda arr: type("E", (), {"mean": arr, "std_error": None, "trials": 1})()
    est = UatfEstimates(u=mk(u), t=mk(t), d=mk(d), u_emi=mk(w_emi))
    weights = np.ones((n_aps, n_ues))
    powers = np.array([0.2, 0.1])
    noise = 0.3
    got = uatf_sinr(est.moments(), weights, powers, noise)
    for k in range(n_ues):
        a = weights[:, k]
        signal = powers[k] * np.abs(a @ u[k, k]) ** 2
        total = sum(
            powers[i] * (a @ t[k, i] @ a).real for i in range(n_ues)
        )
        denom = total - signal + noise * (a @ d[:, k]) + a @ w_emi[:, k]
        assert got[k] == pytest.approx(signal / denom, rel=1e-12)


def test_closed_form_agrees_with_short_simulation(tiny_link):
    """Coarse agreement at modest trial counts ties the two routes."""
    cfg = tiny_link.config
    p = np.full(cfg.n_ues, cfg.p_max)
    opt = optimal_lsfd_weights(
        closed_form_moments(build_sinr_terms(tiny_link)), p, cfg.noise_power
    )
    est = estimate_uatf_terms(tiny_link, 20000, rng=9)
    sim = uatf_sinr(est.moments(), opt.weights, p, cfg.noise_power)
    assert np.abs(sim / opt.sinr - 1.0).max() < 0.05
