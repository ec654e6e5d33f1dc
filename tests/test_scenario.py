"""Network drops: geometry, path loss, Rician factors, shadow fading."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riscf.config import SystemConfig
from riscf.scenario import (
    chordal_distance,
    correlated_shadow_fading,
    generate_scenario,
    path_loss_db,
    rician_factor,
    shadow_field_factor,
    torus_distance,
    wrap_displacement,
)


def test_path_loss_reference_values():
    assert path_loss_db(1.0) == pytest.approx(-30.18)
    assert path_loss_db(10.0) == pytest.approx(-56.18)
    assert path_loss_db(100.0) == pytest.approx(-82.18)


def test_path_loss_rejects_nonpositive():
    with pytest.raises(ValueError):
        path_loss_db(0.0)


def test_rician_factor_reference_values():
    assert rician_factor(0.0) == pytest.approx(10.0**1.3)
    assert rician_factor(100.0) == pytest.approx(10.0)
    assert rician_factor(1000.0 / 3.0) == pytest.approx(10.0**0.3)


@given(
    st.floats(min_value=-500.0, max_value=500.0),
    st.floats(min_value=1.0, max_value=400.0),
)
@settings(max_examples=60)
def test_wrap_displacement_bounds(delta, side):
    wrapped = wrap_displacement(np.array([delta]), side)[0]
    assert -side / 2 <= wrapped <= side / 2
    residue = (wrapped - delta) % side
    assert min(residue, side - residue) == pytest.approx(0.0, abs=1e-6 * side)


def test_torus_distance_wraps_corners():
    side = 100.0
    p = np.array([[1.0, 1.0]])
    q = np.array([[99.0, 99.0]])
    assert torus_distance(p, q, side)[0, 0] == pytest.approx(np.sqrt(8.0))


def test_torus_distance_symmetry_and_shape():
    rng = np.random.default_rng(0)
    p = rng.uniform(0, 100, (4, 2))
    d = torus_distance(p, p, 100.0)
    assert d.shape == (4, 4)
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)


def test_generate_scenario_shapes_and_ranges():
    cfg = SystemConfig(n_aps=6, n_ues=4)
    scen = generate_scenario(cfg, np.random.default_rng(3))
    assert scen.ap_positions.shape == (6, 3)
    assert scen.ue_positions.shape == (4, 3)
    assert scen.beta_mk.shape == (6, 4)
    assert scen.beta_m.shape == (6,)
    assert scen.beta_k.shape == (4,)
    assert np.all(scen.beta_mk > 0) and np.all(scen.beta_m > 0)
    assert np.all(scen.kappa_m > 0) and np.all(scen.kappa_k > 0)
    assert np.all(scen.ap_positions[:, 2] == cfg.ap_height)
    assert np.all(scen.ue_positions[:, 2] == cfg.ue_height)
    assert scen.ris_position[2] == cfg.ris_height


def test_generate_scenario_deterministic():
    cfg = SystemConfig()
    a = generate_scenario(cfg, np.random.default_rng(9))
    b = generate_scenario(cfg, np.random.default_rng(9))
    assert np.array_equal(a.ap_positions, b.ap_positions)
    assert np.array_equal(a.beta_mk, b.beta_mk)
    assert np.array_equal(a.shadow_mk, b.shadow_mk)


def test_ris_defaults_to_area_center():
    cfg = SystemConfig(area_side=100.0)
    scen = generate_scenario(cfg, np.random.default_rng(1))
    assert scen.ris_position[0] == pytest.approx(50.0)
    assert scen.ris_position[1] == pytest.approx(50.0)


def test_ris_position_override():
    cfg = SystemConfig(ris_position_xy=(10.0, 80.0))
    scen = generate_scenario(cfg, np.random.default_rng(1))
    assert scen.ris_position[0] == pytest.approx(10.0)
    assert scen.ris_position[1] == pytest.approx(80.0)


def test_rician_factors_follow_link_distance():
    cfg = SystemConfig()
    scen = generate_scenario(cfg, np.random.default_rng(4))
    assert np.allclose(scen.kappa_m, rician_factor(scen.d_m))
    assert np.allclose(scen.kappa_k, rician_factor(scen.d_k))


def test_beta_consistent_with_pathloss_and_shadowing():
    cfg = SystemConfig()
    scen = generate_scenario(cfg, np.random.default_rng(5))
    expect = 10.0 ** ((path_loss_db(scen.d_mk) + scen.shadow_mk) / 10.0)
    assert np.allclose(scen.beta_mk, expect, rtol=1e-12)
    expect_m = 10.0 ** ((path_loss_db(scen.d_m) + scen.shadow_m) / 10.0)
    assert np.allclose(scen.beta_m, expect_m, rtol=1e-12)


def test_los_nlos_split_sums_to_total():
    cfg = SystemConfig()
    scen = generate_scenario(cfg, np.random.default_rng(6))
    assert np.allclose(scen.beta_m_los + scen.beta_m_nlos, scen.beta_m)
    assert np.allclose(scen.beta_k_los + scen.beta_k_nlos, scen.beta_k)


def test_shadow_fading_common_endpoint_correlation():
    """Links sharing an AP are positively correlated; distant UEs less so."""
    cfg = SystemConfig(n_aps=2, n_ues=2)
    rng = np.random.default_rng(7)
    ap = np.array([[10.0, 10.0, 15.0], [90.0, 90.0, 15.0]])
    ue = np.array([[20.0, 20.0, 1.65], [80.0, 80.0, 1.65]])
    draws = np.array(
        [correlated_shadow_fading(ap, ue, cfg, rng)[2].ravel() for _ in range(4000)]
    )
    cov = np.cov(draws.T)
    var = np.diag(cov)
    assert np.allclose(var, cfg.shadow_std_db**2, rtol=0.15)
    corr_shared_ap = cov[0, 1] / np.sqrt(var[0] * var[1])
    assert corr_shared_ap > 0.3


def test_shadow_fields_deterministic_under_seed():
    cfg = SystemConfig(n_aps=3, n_ues=2)
    ap = np.random.default_rng(0).uniform(0, 100, (3, 3))
    ue = np.random.default_rng(1).uniform(0, 100, (2, 3))
    a = correlated_shadow_fading(ap, ue, cfg, np.random.default_rng(2))
    b = correlated_shadow_fading(ap, ue, cfg, np.random.default_rng(2))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_default_propagation_fields_reproduce_fixed_law():
    """Defaults give -30.18 - 26 log10(d) and 10^(1.3 - 0.003 d) bit for bit."""
    scen = generate_scenario(SystemConfig(), np.random.default_rng(12))
    for beta, d, shadow in (
        (scen.beta_m, scen.d_m, scen.shadow_m),
        (scen.beta_k, scen.d_k, scen.shadow_k),
        (scen.beta_mk, scen.d_mk, scen.shadow_mk),
    ):
        assert np.array_equal(beta, 10.0 ** ((-30.18 - 26.0 * np.log10(d) + shadow) / 10.0))
    assert np.array_equal(scen.kappa_m, 10.0 ** (1.3 - 0.003 * scen.d_m))
    assert np.array_equal(scen.kappa_k, 10.0 ** (1.3 - 0.003 * scen.d_k))


@pytest.mark.parametrize(
    "field, value, moved",
    [
        ("pl_const_db", -50.0, ("beta_m", "beta_k", "beta_mk")),
        ("pl_exp_db", 40.0, ("beta_m", "beta_k", "beta_mk")),
        ("rician_b0_db", 0.0, ("kappa_m", "kappa_k")),
        ("rician_slope_db", 0.1, ("kappa_m", "kappa_k")),
    ],
)
def test_propagation_fields_move_the_scenario(field, value, moved):
    """Each path-loss and Rician field reaches generate_scenario, and only
    the gains or factors it governs change."""
    base = generate_scenario(SystemConfig(), np.random.default_rng(12))
    cfg = SystemConfig(**{field: value})
    scen = generate_scenario(cfg, np.random.default_rng(12))
    for name in ("beta_m", "beta_k", "beta_mk", "kappa_m", "kappa_k"):
        same = np.array_equal(getattr(scen, name), getattr(base, name))
        assert same == (name not in moved), name
    assert np.array_equal(scen.shadow_mk, base.shadow_mk)
    pl = (cfg.pl_const_db, cfg.pl_exp_db)
    assert np.allclose(
        scen.beta_mk, 10.0 ** ((path_loss_db(scen.d_mk, *pl) + scen.shadow_mk) / 10.0)
    )
    rician = (cfg.rician_b0_db, cfg.rician_slope_db)
    assert np.allclose(scen.kappa_k, rician_factor(scen.d_k, *rician))


@pytest.mark.parametrize(
    "shape",
    [{"n_aps": 20}, {"n_ues": 40, "tau_p": 10}],
    ids=["20-aps", "40-ues"],
)
def test_correlated_shadowing_builds_many_aps_and_ues(shape):
    """Every accepted size builds: seeds 0-19 all give a drop."""
    cfg = SystemConfig(**shape)
    failed = {}
    for seed in range(20):
        try:
            generate_scenario(cfg, np.random.default_rng(seed))
        except ValueError as err:
            failed[seed] = str(err)
    assert not failed, f"{len(failed)}/20 seeds fail: {failed}"


def test_chordal_kernel_stays_near_the_wrap_around_kernel_at_short_range():
    """With d_w the wrap-around distance, sin x >= x (1 - x^2 / 6) puts the
    chordal distance d in [d_w (1 - (pi d_w / side)^2 / 6), d_w], so the
    kernel 2^(-d/decorr) lies at or above 2^(-d_w/decorr) and within the
    factor 2^(d_w (pi d_w / side)^2 / (6 decorr)) of it: 1.8% below a
    quarter of the side at the default side and decorrelation distance."""
    cfg = SystemConfig()
    side, decorr = cfg.area_side, cfg.shadow_decorr
    rng = np.random.default_rng(3)
    p = rng.uniform(0, side, (300, 2))
    d_w = torus_distance(p, p, side)
    d = chordal_distance(p, p, side)
    kernel, wrapped = np.exp2(-d / decorr), np.exp2(-d_w / decorr)
    assert np.all(d <= d_w * (1 + 1e-12))
    assert np.all(d >= d_w * (1 - (np.pi * d_w / side) ** 2 / 6) - 1e-9)
    excess = kernel / wrapped - 1.0
    assert np.all(excess >= -1e-12)
    assert np.all(excess <= np.exp2(d_w * (np.pi * d_w / side) ** 2 / (6 * decorr)) - 1 + 1e-12)
    near = d_w <= side / 4
    assert near.sum() > 1000 and excess[near].max() <= 0.018


def test_shadow_field_sample_correlation_matches_the_chordal_kernel():
    """The AP field's sample covariance over 20000 draws meets
    std^2 2^(-d/decorr) on chordal distances within 4.5 standard errors at
    every pair, among them pairs across the wrap and at half the side, where
    the wrap-around kernel would miss by more than 10."""
    cfg = SystemConfig()
    side, std, decorr = cfg.area_side, cfg.shadow_std_db, cfg.shadow_decorr
    pos = np.array(
        [[5.0, 5.0], [95.0, 5.0], [30.0, 70.0], [80.0, 20.0], [55.0, 55.0], [50.0, 5.0]]
    )
    draws = shadow_field_factor(pos, side, std, decorr) @ np.random.default_rng(9).standard_normal(
        (len(pos), 20000)
    )
    sample = draws @ draws.T / draws.shape[1]
    kernel = std**2 * np.exp2(-chordal_distance(pos, pos, side) / decorr)
    std_error = np.sqrt((kernel**2 + np.outer(np.diag(kernel), np.diag(kernel))) / draws.shape[1])
    assert np.all(np.abs(sample - kernel) <= 4.5 * std_error)
    wrapped = std**2 * np.exp2(-torus_distance(pos, pos, side) / decorr)
    assert np.max(np.abs(sample - wrapped) / std_error) > 10
