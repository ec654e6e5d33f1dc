"""Simulation oracle: streaming moments and moment-based SINR assembly."""
import dataclasses
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from riscf.channel import ChannelSampler
from riscf.config import SystemConfig, mode_from_mapping
from riscf import montecarlo
from riscf.linalg import one_blas_thread
from riscf.montecarlo import (
    CHUNK_BYTES,
    CHUNK_TRIALS,
    CHUNK_WORKERS,
    RunningMoments,
    bytes_per_trial,
    chunk_trials,
    estimate_uatf_terms,
)
from riscf.pipeline import build_drop_statistics, build_link_statistics
from riscf.scenario import generate_scenario
from riscf.se import closed_form_moments
from riscf.uatf import combine, optimal_lsfd_weights, uatf_sinr

from conftest import make_link
from dense_reference import DenseEstimates, dense_batch, dense_estimates, dense_uatf_terms


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


def test_running_moments_requires_samples():
    with pytest.raises(ValueError):
        RunningMoments((2,)).finalize()


def test_estimate_uatf_terms_deterministic(tiny_link):
    weights = np.ones((tiny_link.config.n_aps, tiny_link.config.n_ues))
    a = estimate_uatf_terms(tiny_link, 512, rng=np.random.default_rng(42), weights=weights)
    b = estimate_uatf_terms(tiny_link, 512, rng=np.random.default_rng(42), weights=weights)
    assert np.array_equal(a.u.mean, b.u.mean)
    assert np.array_equal(a.t.mean, b.t.mean)
    assert np.array_equal(a.d.mean, b.d.mean)
    assert np.array_equal(a.u_emi.mean, b.u_emi.mean)


@pytest.mark.parametrize(
    "counts, name",
    [
        ({"trials": 0}, "trials"),
        ({"trials": True}, "trials"),
        ({"trials": 2.5}, "trials"),
    ],
    ids=["trials-0", "trials-bool", "trials-float"],
)
def test_estimate_uatf_terms_validates_trials(tiny_link, counts, name):
    """Non-count or non-positive counts are refused up front, by name."""
    cfg = tiny_link.config
    weights = np.ones((cfg.n_aps, cfg.n_ues))
    kwargs = {"trials": 8, **counts}
    with pytest.raises(ValueError, match=name):
        estimate_uatf_terms(tiny_link, rng=np.random.default_rng(1), weights=weights, **kwargs)


def test_estimated_selfterm_matches_combiner_norm(tiny_link):
    """E{v^H o} for the own UE equals E{||v||^2} up to noise."""
    est = dense_uatf_terms(tiny_link, 8192, 3, 4096)
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
    est = DenseEstimates(u=mk(u), t=mk(t), d=mk(d), u_emi=mk(w_emi))
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
        closed_form_moments(tiny_link), p, cfg.noise_power
    )
    est = dense_uatf_terms(tiny_link, 20000, 9, 4096)
    sim = uatf_sinr(est.moments(), opt.weights, p, cfg.noise_power)
    assert np.abs(sim / opt.sinr - 1.0).max() < 0.05


@pytest.mark.parametrize("link_name", ["tiny_link", "validation_link"])
def test_small_links_keep_full_chunks(request, link_name):
    """A chunk is as many trials as fit its share of the budget,
    ``CHUNK_BYTES // CHUNK_WORKERS``, at most ``CHUNK_TRIALS``: the tiny
    link keeps full chunks, while the validation link (5.3 MiB at 1024
    trials) fills its 4 MiB share."""
    link = request.getfixturevalue(link_name)
    share = CHUNK_BYTES // CHUNK_WORKERS
    per_trial = bytes_per_trial(link.config)
    chunk = chunk_trials(link.config)
    assert chunk * per_trial <= share
    if link_name == "tiny_link":
        assert chunk == CHUNK_TRIALS
    else:
        assert chunk < CHUNK_TRIALS and (chunk + 1) * per_trial > share


@pytest.fixture(scope="module")
def oracle_link():
    """The shapes of the benchmark's Monte Carlo workload: M=10, K=5, L=4, N=64."""
    cfg = SystemConfig(
        n_aps=10, n_ues=5, n_ap_antennas=4, ris_width_elements=8, ris_height_elements=8
    )
    return make_link(cfg, 3)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_estimate_is_bit_identical_across_worker_counts(oracle_link, workers, monkeypatch):
    """Chunk i draws from child i of the caller's generator and the chunks
    enter the sums in chunk order, so the worker count changes no bit. The
    run has three full chunks and a partial one."""
    cfg = oracle_link.config
    trials = 3 * chunk_trials(cfg) + 5
    weights = np.ones((cfg.n_aps, cfg.n_ues), dtype=complex)

    def estimate():
        return estimate_uatf_terms(oracle_link, trials, np.random.default_rng(8), weights)

    monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
    one = estimate()
    monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
    threaded = estimate()
    for name in ("u", "t", "d", "u_emi"):
        a, b = getattr(one, name), getattr(threaded, name)
        assert a.trials == b.trials == trials
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.std_error, b.std_error)


def _no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was started")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_in_order_keeps_job_order_and_reraises(workers, monkeypatch):
    """Results come in job order whatever the worker count, and a job's
    exception reaches the caller. One worker runs every job on the caller's
    thread and starts no pool."""
    if workers == 1:
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _no_pool)
    ran_on = []

    def job(i, delay):
        ran_on.append(threading.get_ident())
        time.sleep(delay)
        if i == 5:
            raise ValueError("job 5")
        return i

    jobs = [(i, 0.002 * (i % 3 == 0)) for i in range(8)]
    assert list(montecarlo.in_order(job, jobs[:5], workers)) == list(range(5))
    results = montecarlo.in_order(job, jobs, workers)
    assert [next(results) for _ in range(5)] == list(range(5))
    with pytest.raises(ValueError, match="job 5"):
        next(results)
    if workers == 1:
        assert set(ran_on) == {threading.get_ident()}


def test_one_chunk_estimate_starts_no_thread(tiny_link, monkeypatch):
    """An estimate of one chunk runs it on the caller's thread, even where
    two chunk workers are usable."""
    cfg = tiny_link.config
    weights = np.ones((cfg.n_aps, cfg.n_ues), dtype=complex)
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _no_pool)
    est = estimate_uatf_terms(tiny_link, chunk_trials(cfg), np.random.default_rng(4), weights)
    assert est.u.trials == chunk_trials(cfg)
    with pytest.raises(AssertionError, match="thread pool"):
        estimate_uatf_terms(tiny_link, chunk_trials(cfg) + 1, np.random.default_rng(4), weights)


def _sums_bytes(cfg):
    """Bytes of the running sums: a complex sum and two real sums of squares per entry."""
    m, k = cfg.n_aps, cfg.n_ues
    return 32 * 2 * k * k + 32 * 2 * m * k


def _traced_peak(link, trials):
    """The tracemalloc peak of one ``estimate_uatf_terms`` call at the default chunk."""
    cfg = link.config
    weights = np.ones((cfg.n_aps, cfg.n_ues), dtype=complex)
    tracemalloc.start()
    try:
        est = estimate_uatf_terms(link, trials, rng=np.random.default_rng(0), weights=weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.u.trials == trials
    return peak


def test_chunk_working_set_stays_within_budget(oracle_link):
    """The traced peak of a budget-sized run stays within CHUNK_BYTES plus the sums."""
    cfg = oracle_link.config
    chunk = chunk_trials(cfg)
    assert chunk < 1000  # the budget, not the cap, sizes these chunks
    peak = _traced_peak(oracle_link, 2 * chunk + 1)
    assert peak <= CHUNK_BYTES + _sums_bytes(cfg)


@pytest.mark.parametrize(
    "shape",
    [
        dict(
            n_aps=100,
            n_ues=40,
            n_ap_antennas=4,
            ris_width_elements=16,
            ris_height_elements=16,
            tau_p=10,
        ),
        dict(n_aps=40, n_ues=20, n_ap_antennas=1, ris_width_elements=8, ris_height_elements=8),
        dict(n_aps=20, n_ues=10, n_ap_antennas=4, ris_width_elements=2, ris_height_elements=2),
    ],
    ids=["cell-free", "single-antenna-aps", "surface-smaller-than-reflected-vectors"],
)
def test_chunk_working_set_stays_within_budget_at_scale(shape):
    """Past the oracle's size, the traced peak stays within CHUNK_BYTES, the sums and the sampler.

    The sampler's factors are resident for the whole call and do not grow
    with the chunk, so they are counted apart: tracemalloc's current count
    right after constructing one. Work that does not scale with the chunk
    but is redone per chunk would break the bound at the cell-free size.
    """
    link = make_link(SystemConfig(shadow_std_db=0.0, **shape), 3)
    chunk = chunk_trials(link.config)
    assert chunk < CHUNK_TRIALS  # the budget, not the cap, sizes these chunks
    tracemalloc.start()
    try:
        sampler = ChannelSampler(link.stats, link.surface)
        resident = tracemalloc.get_traced_memory()[0]
        del sampler
    finally:
        tracemalloc.stop()
    peak = _traced_peak(link, 2 * chunk + 1)
    assert peak <= CHUNK_BYTES + _sums_bytes(link.config) + resident


def _closed_weights(link, combiner):
    cfg = link.config
    powers = np.full(cfg.n_ues, cfg.p_max)
    closed = combine(
        closed_form_moments(link), combiner, powers, cfg.noise_power
    )
    return closed.weights, powers


@pytest.mark.parametrize(
    "modes",
    [{}, {"emi": "off"}, {"ris": "off"}],
    ids=["modes-on", "emi-off", "ris-off"],
)
@pytest.mark.parametrize("combiner", ["lsfd", "mr"])
def test_projected_sinr_matches_dense_moments(validation_config, modes, combiner, monkeypatch):
    """Projecting one batch of (o, v, q) onto the weights gives its dense bound.

    The run path and the dense oracle draw differently, so the run path is
    fed the oracle's batch in place of its own draws.
    """
    link = make_link(validation_config, 1, **modes)
    cfg = link.config
    weights, powers = _closed_weights(link, combiner)
    sampler = ChannelSampler(link.stats, link.surface)
    batch = dense_batch(link, sampler, np.random.default_rng(6), 300)
    monkeypatch.setattr(montecarlo, "_trials", lambda *args: batch)
    dense = dense_estimates([batch], cfg.n_aps, cfg.n_ues)
    projected = estimate_uatf_terms(link, 300, rng=np.random.default_rng(0), weights=weights)
    expected = uatf_sinr(dense.moments(), weights, powers, cfg.noise_power)
    ones = np.ones((1, cfg.n_ues))
    got = uatf_sinr(projected.moments(), ones, powers, cfg.noise_power)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)
    assert np.array_equal(projected.d.mean, dense.d.mean)
    assert np.array_equal(projected.u_emi.mean, dense.u_emi.mean)


@pytest.mark.parametrize("modes", [{}, {"emi": "off"}], ids=["modes-on", "emi-off"])
def test_run_path_sinr_agrees_with_validation_path(validation_config, modes):
    """The projected draws of the run path and the dense oracle's full H give one law.

    On one link, each estimates every UE's SINR from 12 independent seeds of
    1500 trials; the two means agree within 4 combined standard errors of
    the mean (sample spread over seeds) for every UE.
    """
    link = make_link(validation_config, 1, **modes)
    cfg = link.config
    weights, powers = _closed_weights(link, "lsfd")
    ones = np.ones((1, cfg.n_ues))
    run, dense = [], []
    # One cap for the loop: a direct call caps BLAS on its own, and
    # OpenBLAS's idle threads spin between uncapped calls.
    with one_blas_thread():
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            est = estimate_uatf_terms(link, 1500, rng=rng, weights=weights)
            run.append(uatf_sinr(est.moments(), ones, powers, cfg.noise_power))
            est = dense_uatf_terms(link, 1500, 200 + seed, 4096)
            dense.append(uatf_sinr(est.moments(), weights, powers, cfg.noise_power))
    run, dense = np.array(run), np.array(dense)
    se = np.sqrt((run.var(axis=0, ddof=1) + dense.var(axis=0, ddof=1)) / len(run))
    assert np.all(np.abs(run.mean(axis=0) - dense.mean(axis=0)) <= 4.0 * se)


@pytest.mark.parametrize(
    "config_name, changes, mode",
    [
        ("validation_config", {}, {"emi": "off"}),
        ("validation_config", {}, {"ris": "off"}),
        ("tiny_config", {}, {}),
        ("tiny_config", {"tau_p": 3}, {}),
    ],
    ids=["emi-off", "ris-off", "surface-smaller-than-reflected-vectors", "unused-pilot"],
)
def test_run_path_degenerate_links_run_warning_free(
    request, config_name, changes, mode, monkeypatch
):
    """Zero EMI rows, zero RIS gains and K + tau_p + 1 > r reflect without warnings,
    in chunks of 64 trials, the last one partial. A link with no EMI power,
    EMI off or the surface off, samples no EMI."""
    link = make_link(request.getfixturevalue(config_name).replace(**changes), 1, **mode)
    weights, _ = _closed_weights(link, "lsfd")
    monkeypatch.setattr(montecarlo, "chunk_trials", lambda cfg: 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_uatf_terms(link, 200, rng=np.random.default_rng(3), weights=weights)
    for part in (est.u, est.t, est.d, est.u_emi):
        assert np.all(np.isfinite(part.mean)) and np.all(np.isfinite(part.std_error))
    assert np.all(est.d.mean.real > 0.0)
    if link.sigma_r2 == 0.0:
        assert np.all(est.u_emi.mean == 0.0)


def test_estimate_uatf_terms_validates_weights(tiny_link):
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="weights"):
        estimate_uatf_terms(tiny_link, 8, rng=rng, weights=np.ones((3, 2)))


#: Largest relative SINR gap |MC - closed| / closed allowed over the 15 UEs
#: of ``test_run_path_matches_closed_form_sinr``. With the direct links on,
#: the 4000-trial run path stays within 3.0% of the closed form.
CLOSED_FORM_GAP = 0.05


@pytest.mark.parametrize(
    "direct_scale",
    [
        1.0,
        pytest.param(
            0.0,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: the closed form keeps only the AP-diagonal "
                "cov, but every AP sees the same z_k and theta_k; without the "
                "direct links every UE's MC SINR falls 4-59% below it",
            ),
        ),
    ],
)
def test_run_path_matches_closed_form_sinr(direct_scale):
    """The run-path SINR at the closed form's full-power LSFD weights matches it.

    The direct links are scaled by ``direct_scale`` on the scenario, a
    test-side instrument rather than a config mode. Agreement statistic:
    the largest |MC - closed| / closed over the 5 UEs of scenarios 0-2,
    4000 trials each, bounded by ``CLOSED_FORM_GAP``.
    """
    cfg = SystemConfig(
        n_aps=10,
        n_ues=5,
        n_ap_antennas=2,
        ris_width_elements=4,
        ris_height_elements=4,
        tau_p=3,
        shadow_std_db=0.0,
    )
    powers = np.full(cfg.n_ues, cfg.p_max)
    gaps = []
    with one_blas_thread():
        for seed in range(3):
            scenario = generate_scenario(cfg, np.random.default_rng(seed))
            scenario = dataclasses.replace(scenario, beta_mk=direct_scale * scenario.beta_mk)
            link = build_link_statistics(
                build_drop_statistics(scenario, cfg), mode_from_mapping({})
            )
            closed = combine(closed_form_moments(link), "lsfd", powers, cfg.noise_power)
            est = estimate_uatf_terms(
                link, 4000, np.random.default_rng(seed), weights=closed.weights
            )
            mc = uatf_sinr(est.moments(), np.ones((1, cfg.n_ues)), powers, cfg.noise_power)
            gaps.append((mc - closed.sinr) / closed.sinr)
    gaps = np.concatenate(gaps)
    assert np.abs(gaps).max() <= CLOSED_FORM_GAP, gaps
