"""Power control: fractional heuristic, fixed-weight form, max-min fixed point."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linprog

from riscf import power
from riscf.config import SystemConfig
from riscf.power import (
    aggregate_gain,
    fractional_power_control,
    least_powers,
    maxmin_power_control,
    maxmin_powers,
)
from riscf.se import closed_form_moments
from riscf.uatf import combine, fixed_weight_form, optimal_lsfd_weights, uatf_sinr
from conftest import make_link
from uatf_reference import dense_second_moment, textbook_sinr


def _full(moments, combiner, config):
    """The combiner's ``combine`` at full power, whose weights max-min holds."""
    return combine(moments, combiner, np.full(config.n_ues, config.p_max), config.noise_power)


def test_fractional_exact_values():
    gains = np.array([4.0, 1.0, 16.0])
    powers = fractional_power_control(gains, 0.5, 0.2)
    assert powers == pytest.approx([0.1, 0.2, 0.05])


def test_fractional_weakest_gets_full_power():
    rng = np.random.default_rng(0)
    gains = rng.uniform(1e-9, 1e-6, 7)
    powers = fractional_power_control(gains, 0.6, 0.2)
    assert powers[np.argmin(gains)] == pytest.approx(0.2)
    assert np.all(powers <= 0.2 + 1e-15)


@given(
    st.lists(st.floats(min_value=1e-9, max_value=1e-5), min_size=2, max_size=8),
    st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=50)
def test_fractional_monotone_in_gain(gains, alpha):
    gains = np.asarray(gains)
    powers = fractional_power_control(gains, alpha, 0.2)
    order = np.argsort(gains)
    assert np.all(np.diff(powers[order]) <= 1e-15)


def test_fractional_alpha_zero_is_full_power():
    gains = np.array([1e-8, 5e-7, 2e-6])
    powers = fractional_power_control(gains, 0.0, 0.2)
    assert np.allclose(powers, 0.2)


def test_fractional_rejects_bad_gains():
    with pytest.raises(ValueError):
        fractional_power_control(np.array([1.0, 0.0]), 0.5, 0.2)
    with pytest.raises(ValueError):
        fractional_power_control(np.array([1.0, np.nan]), 0.5, 0.2)
    with pytest.raises(ValueError):
        fractional_power_control(np.array([1.0, 2.0]), -0.1, 0.2)


def test_aggregate_gain_positive(validation_link):
    gains = aggregate_gain(validation_link)
    assert gains.shape == (validation_link.config.n_ues,)
    assert np.all(gains > 0)


def test_decomposition_reproduces_closed_form(validation_moments, validation_config):
    """p_k num_k / (c_k . p + d_k) is the textbook quotient over dense T."""
    m = validation_moments
    noise = validation_config.noise_power
    p_full = np.full(validation_config.n_ues, validation_config.p_max)
    weights = optimal_lsfd_weights(m, p_full, noise).weights
    num, c, d = fixed_weight_form(m, weights, noise)
    t = dense_second_moment(m)
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = rng.uniform(0.01, 1.0, validation_config.n_ues) * validation_config.p_max
        direct = textbook_sinr(m.u, t, m.d, m.w, weights, p, noise)
        assembled = p * num / (c @ p + d)
        assert np.allclose(assembled, direct, rtol=1e-10)


def test_maxmin_improves_min_sinr(validation_moments, validation_config):
    noise = validation_config.noise_power
    p_max = validation_config.p_max
    full = _full(validation_moments, "lsfd", validation_config)
    alloc = maxmin_power_control(validation_moments, full, noise, p_max, tol=1e-3)
    assert np.all(alloc.powers >= -1e-12)
    assert np.all(alloc.powers <= p_max + 1e-12)

    achieved = uatf_sinr(validation_moments, alloc.weights, alloc.powers, noise)
    full_sinr = optimal_lsfd_weights(
        validation_moments, np.full(validation_config.n_ues, p_max), noise
    ).sinr
    assert achieved.min() >= full_sinr.min() - 1e-3
    assert achieved.min() >= alloc.target - 1e-8


def test_maxmin_iteration_bound(validation_moments, validation_config):
    noise = validation_config.noise_power
    p_max = validation_config.p_max
    full = _full(validation_moments, "lsfd", validation_config)
    alloc = maxmin_power_control(validation_moments, full, noise, p_max, tol=1e-3)
    weights = alloc.weights
    num, c, d = fixed_weight_form(validation_moments, weights, noise)
    t_hi = float(np.max(p_max * num / d))
    assert alloc.iterations <= math.ceil(math.log2(t_hi / 1e-3))


def test_maxmin_balances_sinrs(validation_moments, validation_config):
    """Max-min pushes the spread of achieved SINRs toward the target."""
    noise = validation_config.noise_power
    alloc = maxmin_power_control(
        validation_moments,
        _full(validation_moments, "lsfd", validation_config),
        noise,
        validation_config.p_max,
        tol=1e-4,
    )
    achieved = uatf_sinr(validation_moments, alloc.weights, alloc.powers, noise)
    full_sinr = optimal_lsfd_weights(
        validation_moments,
        np.full(validation_config.n_ues, validation_config.p_max),
        noise,
    ).sinr
    assert achieved.min() / full_sinr.min() > 1.0 or np.isclose(
        achieved.min(), full_sinr.min(), rtol=1e-3
    )
    assert achieved.min() >= alloc.target - 1e-8


def test_maxmin_tolerance_validation(validation_moments, validation_config):
    with pytest.raises(ValueError):
        maxmin_power_control(
            validation_moments,
            _full(validation_moments, "lsfd", validation_config),
            validation_config.noise_power,
            validation_config.p_max,
            tol=0.0,
        )
    with pytest.raises(ValueError):
        maxmin_power_control(
            validation_moments,
            _full(validation_moments, "lsfd", validation_config),
            validation_config.noise_power,
            -0.1,
            tol=1e-3,
        )


def test_power_policies_reject_zero_p_max(validation_moments, validation_config):
    with pytest.raises(ValueError, match="p_max"):
        fractional_power_control(np.array([1.0, 2.0]), 0.5, 0.0)
    with pytest.raises(ValueError, match="p_max"):
        maxmin_power_control(
            validation_moments,
            _full(validation_moments, "lsfd", validation_config),
            validation_config.noise_power,
            0.0,
        )


def _lp_feasible(num, c, d, t, p_max, minimize=False):
    """Reference: {p : (diag(num) - t c) p >= t d, 0 <= p <= p_max} by LP."""
    res = linprog(
        np.ones(num.size) if minimize else np.zeros(num.size),
        A_ub=-(np.diag(num) - t * c),
        b_ub=-t * d,
        bounds=[(0.0, p_max)] * num.size,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10},
    )
    assert res.status in (0, 2), res.message
    return res.status == 0, res.x


@st.composite
def _sinr_systems(draw):
    k = draw(st.integers(1, 5))
    floats = st.floats(min_value=0.05, max_value=5.0)
    num = np.array(draw(st.lists(floats, min_size=k, max_size=k)))
    d = np.array(draw(st.lists(floats, min_size=k, max_size=k)))
    c = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=k * k, max_size=k * k)))
    zero = np.array(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k)))
    c = np.where(zero, 0.0, c).reshape(k, k)
    t = draw(st.floats(min_value=0.01, max_value=20.0))
    p_max = draw(st.floats(min_value=0.1, max_value=10.0))
    return num, c, d, t, p_max


@given(_sinr_systems())
@example((np.array([0.05]), np.array([[0.0]]), np.array([0.05]), 0.1, 0.1))
@settings(max_examples=150, deadline=None)
def test_least_powers_verdict_matches_linprog(system):
    """The one-solve verdict is the LP's; its witness is the LP's least power."""
    num, c, d, t, p_max = system
    below, _ = _lp_feasible(num, c, d, t * (1 - 1e-6), p_max)
    above, _ = _lp_feasible(num, c, d, t * (1 + 1e-6), p_max)
    assume(below == above)  # skip targets within 1e-6 of the feasibility edge
    least = least_powers(num, c, d, t, p_max)
    assert (least is not None) == below
    if least is not None:
        _, x = _lp_feasible(num, c, d, t, p_max, minimize=True)
        np.testing.assert_allclose(least, x, rtol=1e-6, atol=1e-9 * p_max)
        sinr = least * num / (c @ least + d)
        assert sinr.min() >= t * (1 - 1e-9)


@pytest.fixture(scope="module")
def maxmin_ensemble():
    """Closed-form moments of the 25 default-config drops that criterion 7 uses."""
    cfg = SystemConfig()
    moments = []
    for index in range(25):
        link = make_link(cfg, np.random.SeedSequence([77, 0xA, index]))
        moments.append(closed_form_moments(link))
    return cfg, moments


def _perron_target(num, c, d, p_max):
    """Max-min SINR 1 / max_l rho(diag(1/num) (c + d e_l^T / p_max))."""
    radii = []
    for l in range(num.size):
        b = c.copy()
        b[:, l] += d / p_max
        radii.append(np.abs(np.linalg.eigvals(b / num[:, None])).max())
    return 1.0 / max(radii)


@st.composite
def _maxmin_systems(draw):
    k = draw(st.integers(1, 10))
    floats = st.floats(min_value=0.05, max_value=5.0)
    num = np.array(draw(st.lists(floats, min_size=k, max_size=k)))
    d = np.array(draw(st.lists(floats, min_size=k, max_size=k)))
    c = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=k * k, max_size=k * k)))
    zero = np.array(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k)))
    c = np.where(zero, 0.0, c).reshape(k, k)
    p_max = draw(st.floats(min_value=0.1, max_value=10.0))
    tol = draw(st.floats(min_value=1e-4, max_value=0.1))
    return num, c, d, p_max, tol


@given(_maxmin_systems())
# The plain fixed point takes 132 steps here, past the budget of 16.
@example(
    (np.array([4.56, 2.1]), np.array([[0.0, 0.4], [1.91, 0.0]]), np.array([0.74, 0.06]), 1.0, 1e-3)
)
# Full power is optimal, and the least powers at t* land ulps above p_max.
@example((np.array([4.29]), np.array([[1.46]]), np.array([0.22]), 1.0, 1e-3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_maxmin_powers_reach_the_perron_frobenius_target(system):
    """Within tol below t*, at equal SINRs in the box, inside the bisection budget."""
    num, c, d, p_max, tol = system
    t_hi = float(np.max(p_max * num / d))
    assume(t_hi >= tol)
    powers, iterations, target = maxmin_powers(num, c, d, p_max, tol)
    t_star = _perron_target(num, c, d, p_max)
    assert target <= t_star * (1 + 1e-9)
    assert t_star - target <= tol
    sinr = powers * num / (c @ powers + d)
    assert sinr.max() <= sinr.min() * (1 + 1e-9)
    assert sinr.min() >= target * (1 - 1e-9)
    assert np.all(powers > 0) and np.all(powers <= p_max)
    assert iterations <= math.ceil(math.log2(t_hi / tol))


def test_maxmin_target_matches_perron_frobenius(
    validation_moments, validation_config, maxmin_ensemble
):
    """The max-min target lies within tol below the Perron-Frobenius optimum."""
    cfg, ensemble = maxmin_ensemble
    cases = [(validation_moments, validation_config)] + [(m, cfg) for m in ensemble]
    for moments, config in cases:
        noise, p_max, tol = config.noise_power, config.p_max, config.maxmin_tol
        alloc = maxmin_power_control(moments, _full(moments, "lsfd", config), noise, p_max, tol=tol)
        num, c, d = fixed_weight_form(moments, alloc.weights, noise)
        t_star = _perron_target(num, c, d, p_max)
        assert alloc.target <= t_star * (1 + 1e-9)
        assert t_star - alloc.target <= tol


def test_interference_coefficients_nonnegative_and_guarded(maxmin_ensemble, monkeypatch):
    cfg, ensemble = maxmin_ensemble
    p_full = np.full(cfg.n_ues, cfg.p_max)
    for moments in ensemble:
        weights = optimal_lsfd_weights(moments, p_full, cfg.noise_power).weights
        _, c, _ = fixed_weight_form(moments, weights, cfg.noise_power)
        assert np.all(c >= 0)

    def one_negative(*args):
        num, c, d = fixed_weight_form(*args)
        c = c.copy()
        c[0, 1] = -1e-6 * np.abs(c).max()
        return num, c, d

    monkeypatch.setattr(power, "fixed_weight_form", one_negative)
    with pytest.raises(ValueError, match="non-negative"):
        maxmin_power_control(
            ensemble[0],
            _full(ensemble[0], "lsfd", cfg),
            cfg.noise_power,
            cfg.p_max,
            tol=cfg.maxmin_tol,
        )


def test_maxmin_under_mr_is_fair_for_unit_weights(
    validation_moments, validation_config, maxmin_ensemble
):
    """Under MR max-min certifies unit weights, the ones MR decodes with."""
    cfg, ensemble = maxmin_ensemble
    cases = [(validation_moments, validation_config)] + [(m, cfg) for m in ensemble]
    for moments, config in cases:
        noise, p_max = config.noise_power, config.p_max
        alloc = maxmin_power_control(
            moments, _full(moments, "mr", config), noise, p_max, tol=config.maxmin_tol
        )
        assert np.array_equal(alloc.weights, np.ones_like(moments.d))
        sinr = combine(moments, "mr", alloc.powers, noise).sinr
        floor = combine(moments, "mr", np.full(config.n_ues, p_max), noise).sinr.min()
        assert sinr.min() >= alloc.target * (1 - 1e-9)
        assert sinr.min() >= floor * (1 - 1e-9)
