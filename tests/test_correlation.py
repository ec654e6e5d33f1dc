"""Spatial correlation models: sinc kernel, local scattering, the surface record."""
import dataclasses
import warnings

import numpy as np
import pytest
from scipy import integrate

from riscf.config import SystemConfig
from riscf.correlation import (
    _gram_and_trace,
    gaussian_local_scattering,
    ris_element_positions,
    ris_sinc_correlation,
    surface_statistics,
)
from riscf.scenario import generate_scenario

from conftest import make_link
from dense_reference import dense_nlos

LAM = 299792458.0 / 1.9e9


def _sinc(n_h, n_v, d_h, d_v):
    return ris_sinc_correlation(n_h, n_v, d_h, d_v, LAM)


def test_element_positions_grid():
    pos = ris_element_positions(2, 2, 0.1, 0.2)
    expect = np.array(
        [[0, 0.0, 0.0], [0, 0.1, 0.0], [0, 0.0, 0.2], [0, 0.1, 0.2]]
    )
    assert np.allclose(pos, expect)


def test_sinc_half_wavelength_linear_array_is_identity():
    assert np.allclose(_sinc(4, 1, LAM / 2, LAM / 2), np.eye(4), atol=1e-12)


def test_sinc_quarter_wavelength_adjacent_value():
    r = _sinc(4, 1, LAM / 4, LAM / 4)
    assert r[0, 1] == pytest.approx(2.0 / np.pi, rel=1e-12)
    assert np.allclose(np.diag(r), 1.0)


def test_sinc_matches_pairwise_distance_formula():
    """The lag-table R of a grid with unequal spacings, square or not, is
    the pairwise sinc of the element distances, exactly symmetric with a
    unit diagonal."""
    for n_h, n_v in [(3, 2), (3, 5), (5, 3), (1, 7), (7, 1)]:
        n = n_h * n_v
        pos = ris_element_positions(n_h, n_v, LAM / 4, LAM / 3)
        r = ris_sinc_correlation(n_h, n_v, LAM / 4, LAM / 3, LAM)
        for i in range(n):
            for j in range(n):
                d = np.linalg.norm(pos[i] - pos[j])
                x = 2.0 * d / LAM
                expect = 1.0 if x == 0 else np.sin(np.pi * x) / (np.pi * x)
                assert r[i, j] == pytest.approx(expect, rel=1e-12)
        assert np.array_equal(r, r.T)
        assert np.all(np.diag(r) == 1.0)


def test_sinc_correlation_symmetric_psd():
    r = _sinc(4, 4, LAM / 8, LAM / 8)
    assert np.allclose(r, r.T)
    assert np.linalg.eigvalsh(r).min() > -1e-10


def _elementwise_gram_and_trace(R, phi, hbar):
    """G_m^H (R G_m) as complex products and tr(Phi R Phi^H R) entrywise."""
    g = phi.conj()[None, :, None] * hbar
    gram = g.conj().transpose(0, 2, 1) @ (R @ g)
    trace = float(np.sum(phi[:, None] * R * phi.conj()[None, :] * R.T).real)
    return gram, trace


@pytest.mark.parametrize("side", [4, 12])
def test_gram_and_trace_match_the_elementwise_formulas(side):
    """The real-arithmetic Gram and trace are the complex entrywise ones at
    N = 16 and 144: on a drop's surface and with random phases and means,
    which the drop's uniform phases and equal antenna columns cannot tell
    apart from a conjugate or transpose."""
    cfg = SystemConfig(
        n_aps=3, n_ues=2, n_ap_antennas=3, ris_width_elements=side,
        ris_height_elements=side, ris_phase=0.7,
    )
    surface = surface_statistics(generate_scenario(cfg, np.random.default_rng(3)), cfg)
    gram, trace = _elementwise_gram_and_trace(surface.R, surface.phi, surface.hbar)
    np.testing.assert_allclose(surface.gram, gram, rtol=1e-13, atol=0.0)
    assert surface.trace == pytest.approx(trace, rel=1e-13)

    rng = np.random.default_rng(side)
    n = side * side
    phi = np.exp(2j * np.pi * rng.uniform(size=n))
    hbar = rng.standard_normal((3, n, 3)) + 1j * rng.standard_normal((3, n, 3))
    got_gram, got_trace = _gram_and_trace(surface.R, phi, hbar)
    gram, trace = _elementwise_gram_and_trace(surface.R, phi, hbar)
    np.testing.assert_allclose(got_gram, gram, rtol=1e-13, atol=1e-13 * np.abs(gram).max())
    assert got_trace == pytest.approx(trace, rel=1e-13)


def test_surface_element_area():
    cfg = SystemConfig(n_aps=3, n_ues=4, ris_spacing_h=0.25, ris_spacing_v=0.125)
    surface = surface_statistics(generate_scenario(cfg, np.random.default_rng(2)), cfg)
    assert surface.element_area == pytest.approx(LAM * LAM / 32, rel=1e-12)


def test_local_scattering_trace_and_structure():
    beta = 2.5e-8
    r = gaussian_local_scattering(beta, 0.7, np.deg2rad(15.0), 4, 0.5)
    assert np.trace(r).real == pytest.approx(4 * beta, rel=1e-12)
    assert np.allclose(r, r.conj().T)
    assert r[0, 1] == pytest.approx(r[1, 2], rel=1e-12)
    assert r[0, 2] == pytest.approx(r[1, 3], rel=1e-12)
    assert np.linalg.eigvalsh(r).min() > -1e-10 * beta


def _quad_row(theta, sigma, n_antennas, spacing):
    """Offset row of a unit-beta correlation by adaptive quadrature of each entry."""
    def entry(lag, part):
        def integrand(x):
            phase = 2 * np.pi * spacing * lag * np.sin(theta + x)
            density = np.exp(-(x**2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
            return part(phase) * density

        return integrate.quad(integrand, -12 * sigma, 12 * sigma, limit=400)[0]

    return np.array(
        [entry(lag, np.cos) + 1j * entry(lag, np.sin) for lag in range(n_antennas)]
    )


def test_local_scattering_matches_direct_quadrature():
    """Each entry is a Gaussian integral; adaptive quad is the oracle."""
    theta, sigma = 0.4, np.deg2rad(15.0)
    r = gaussian_local_scattering(1.0, theta, sigma, 3, 0.5)
    np.testing.assert_allclose(r[:, 0], _quad_row(theta, sigma, 3, 0.5), rtol=0, atol=1e-6)


@pytest.mark.parametrize("n_antennas", [1, 2, 4, 8, 16])
def test_local_scattering_powers_match_one_exponential_per_offset(n_antennas):
    """Powers of one exponential per node give every offset's row (order-240 reference).

    At 16 antennas the series runs to the longest tail of the recurrence
    (Q = 184 orders, powers of exp(j theta) up to 92).
    """
    theta = np.linspace(-3.0, 3.0, 7)
    sigma, spacing = np.deg2rad(15.0), 0.5
    r = gaussian_local_scattering(1.0, theta, sigma, n_antennas, spacing)
    nodes, weights = np.polynomial.hermite.hermgauss(240)
    angles = np.sin(theta[:, None] + np.sqrt(2.0) * sigma * nodes)
    offsets = np.arange(n_antennas)
    phases = np.exp(2j * np.pi * spacing * offsets[:, None] * angles[:, None, :])
    row = phases @ weights / np.sqrt(np.pi)
    np.testing.assert_allclose(r[:, :, 0], row, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n_antennas", [16, 64, 101])
def test_local_scattering_series_margin_grows_with_the_array(n_antennas):
    """At a spread too small to damp the high orders, the rows of long
    half-wavelength arrays meet the order-240 Gauss-Hermite reference
    to 1e-12: the aliased orders stay below rounding as a_max grows."""
    theta, sigma, spacing = 0.3, 1e-4, 0.5
    r = gaussian_local_scattering(1.0, theta, sigma, n_antennas, spacing)
    nodes, weights = np.polynomial.hermite.hermgauss(240)
    angles = np.sin(theta + np.sqrt(2.0) * sigma * nodes)
    phases = np.exp(2j * np.pi * spacing * np.arange(n_antennas)[:, None] * angles)
    np.testing.assert_allclose(r[:, 0], phases @ weights / np.sqrt(np.pi), rtol=0, atol=1e-12)


def test_local_scattering_small_spread_is_nearly_rank_one():
    r = gaussian_local_scattering(1.0, 0.3, 1e-4, 4, 0.5)
    eigvals = np.sort(np.linalg.eigvalsh(r))
    assert eigvals[-1] == pytest.approx(4.0, rel=1e-4)
    assert eigvals[-2] < 1e-4


def test_local_scattering_rejects_zero_spread():
    with pytest.raises(ValueError):
        gaussian_local_scattering(1.0, 0.0, 0.0, 2, 0.5)


def test_local_scattering_batch_matches_scalar_calls():
    """A batch equals a loop of 0-d calls; zero-beta pairs are zero."""
    rng = np.random.default_rng(7)
    sigma, n_ant, spacing = np.deg2rad(20.0), 7, 0.5
    beta = rng.uniform(1e-9, 1e-6, size=(4, 5))
    theta = rng.uniform(0.3, 1.5, size=(4, 5))
    beta[0, 1] = beta[3, 4] = 0.0
    theta[2, 2] = 0.0

    batch = gaussian_local_scattering(beta, theta, sigma, n_ant, spacing)
    assert batch.shape == (4, 5, n_ant, n_ant)
    for idx in np.ndindex(beta.shape):
        single = gaussian_local_scattering(
            float(beta[idx]), float(theta[idx]), sigma, n_ant, spacing
        )
        assert single.shape == (n_ant, n_ant)
        np.testing.assert_allclose(batch[idx], single, rtol=1e-15, atol=0.0)
    assert not batch[0, 1].any() and not batch[3, 4].any()


def test_local_scattering_large_spread_matches_quadrature_without_warnings():
    """At 40 degrees and 8 antennas, scalar or batched, every entry matches quad.

    The results are PSD and the call raises no warning.
    """
    sigma = np.deg2rad(40.0)
    expect = _quad_row(0.0, sigma, 8, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = gaussian_local_scattering(1.0, 0.0, sigma, 8, 0.5)
        batch = gaussian_local_scattering(np.array([1.0, 0.0]), 0.0, sigma, 8, 0.5)
    np.testing.assert_allclose(single[:, 0], expect, rtol=0, atol=1e-9)
    np.testing.assert_allclose(batch[0, :, 0], expect, rtol=0, atol=1e-9)
    assert not batch[1].any()
    for r in (single, *batch):
        assert np.linalg.eigvalsh(r).min() >= -1e-12


@pytest.mark.parametrize("n_antennas, asd_deg", [(8, 30.0), (8, 40.0), (4, 60.0)])
def test_large_spread_drops_build(n_antennas, asd_deg):
    """Wide angular spreads with several antennas build a link on every seed."""
    cfg = SystemConfig(n_ap_antennas=n_antennas, asd_deg=asd_deg, shadow_std_db=0.0)
    for seed in range(5):
        link = make_link(cfg, seed)
        traces = np.trace(link.stats.r_direct, axis1=-2, axis2=-1).real
        np.testing.assert_allclose(traces, n_antennas * link.scenario.beta_mk, rtol=1e-12)


@pytest.fixture(scope="module")
def drop():
    cfg = SystemConfig(n_aps=3, n_ues=4, n_ap_antennas=2)
    scen = generate_scenario(cfg, np.random.default_rng(2))
    return cfg, scen, surface_statistics(scen, cfg)


def test_los_magnitudes(drop):
    cfg, scen, los = drop
    assert np.allclose(np.abs(los.hbar), np.sqrt(scen.beta_m_los)[:, None, None])
    norms = np.sum(np.abs(los.zbar) ** 2, axis=1)
    assert np.allclose(norms, cfg.n_ris_elements * scen.beta_k_los)
    assert np.allclose(los.phi, np.exp(1j * cfg.ris_phase))


def test_los_zero_with_ris_off(drop):
    """The link stage zeroes the surface-on LoS means of the drop."""
    cfg, scen, _ = drop
    los = make_link(cfg, 2, ris="off").surface
    assert np.all(los.hbar == 0.0) and np.all(los.zbar == 0.0)
    assert np.allclose(los.phi, np.exp(1j * cfg.ris_phase))


def test_nlos_ap_side_factor_unit_trace(drop):
    cfg, scen, nlos = drop
    traces = np.trace(nlos.r_m, axis1=1, axis2=2).real
    assert np.allclose(traces, cfg.n_ap_antennas)


def _dense_rtilde_m(nlos):
    """Assemble gain_m (r_m^T kron R) per AP from the structured fields."""
    return np.stack(
        [g * np.kron(r.T, nlos.R) for g, r in zip(nlos.gain_m, nlos.r_m)]
    )


def test_nlos_trace_identities(drop):
    """tr rtilde_m = A_r / (1 + kappa_m); tr rtilde_k = N A_r beta_k_nlos."""
    cfg, scen, nlos = drop
    tr_m = nlos.gain_m * np.trace(nlos.r_m, axis1=1, axis2=2).real * np.trace(nlos.R)
    assert np.allclose(tr_m, nlos.element_area / (1.0 + scen.kappa_m), rtol=1e-12)
    tr_k = nlos.gain_k * np.trace(nlos.R)
    expect = cfg.n_ris_elements * nlos.element_area * scen.beta_k_nlos
    assert np.allclose(tr_k, expect, rtol=1e-12)


def test_nlos_kronecker_assembly(drop):
    cfg, scen, nlos = drop
    rtilde_m, rtilde_k = dense_nlos(nlos, scen, cfg, nlos.r_m, "on")
    assert np.allclose(_dense_rtilde_m(nlos), rtilde_m, rtol=1e-12)
    assert np.allclose(nlos.gain_k[:, None, None] * nlos.R, rtilde_k, rtol=1e-12)


def test_nlos_gains_vanish_with_ris_off(drop):
    """The link stage zeroes the gains and keeps the drop's AP-side factors."""
    cfg, scen, on = drop
    nlos = make_link(cfg, 2, ris="off").surface
    assert np.all(nlos.gain_m == 0.0) and np.all(nlos.gain_k == 0.0)
    assert np.array_equal(nlos.r_m, on.r_m)


def test_surface_off_zeroes_exactly_the_surface_terms(drop):
    """off() zeroes the LoS means, NLoS gains and Gram and keeps the rest."""
    on = drop[2]
    off = on.off()
    zeroed = {"hbar", "zbar", "gain_m", "gain_k", "gram"}
    for f in dataclasses.fields(on):
        got, want = getattr(off, f.name), getattr(on, f.name)
        if f.name in zeroed:
            assert np.all(got == 0.0) and np.shape(got) == np.shape(want), f.name
        else:
            assert got is want, f.name
    assert np.abs(on.gram).max() > 0.0


def test_nlos_covariances_psd(drop):
    cfg, scen, nlos = drop
    rtilde_m = _dense_rtilde_m(nlos)
    for m in range(cfg.n_aps):
        assert np.linalg.eigvalsh(rtilde_m[m]).min() > -1e-18
    for k in range(cfg.n_ues):
        assert np.linalg.eigvalsh(nlos.gain_k[k] * nlos.R).min() > -1e-18
