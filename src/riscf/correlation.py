"""The RIS of one drop: its correlation, phases and the statistics of both hops.

Covers the sinc-kernel RIS correlation, Gaussian local scattering at the
APs, and ``Surface``, the one record that the aggregated covariance, the
EMI covariance and every Monte Carlo reflection read: the steering-vector
LoS means, the Kronecker NLoS covariances of the RIS-to-AP channels and
the RIS-to-UE covariances, all kept in their shared structure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import SystemConfig
from .scenario import Scenario


@dataclass(frozen=True)
class Surface:
    """The RIS of one drop.

    R is the (N, N) sinc correlation of the elements, ``element_area`` A_r
    and phi the diagonal of the phase-shift matrix Phi. hbar (M, N, L) and
    zbar (K, N) are the LoS means of the RIS-to-AP and RIS-to-UE channels.
    Every NLoS covariance is a scalar times R: the column-major vectorized
    RIS-to-AP channel of AP m has covariance gain_m[m] (r_m[m]^T kron R),
    with r_m the (M, L, L) AP-side factors of trace L, and the RIS-to-UE
    channel of UE k has covariance gain_k[k] R; no (NL x NL) matrix is ever
    formed. ``gram`` is G_m^H R G_m with G_m = Phi^H Hbar_m, stacked to
    (M, L, L), and ``trace`` is tr(Phi R Phi^H R); ``reflection`` combines
    them.
    """

    R: np.ndarray
    element_area: float
    phi: np.ndarray
    hbar: np.ndarray
    zbar: np.ndarray
    r_m: np.ndarray
    gain_m: np.ndarray
    gain_k: np.ndarray
    gram: np.ndarray
    trace: float

    @property
    def reflection(self) -> np.ndarray:
        """C_m = G_m^H R G_m + gain_m tr(Phi R Phi^H R) R_m, (M, L, L).

        The covariance at AP m of a field with covariance R reflected by
        the surface: its LoS part through Hbar_m and its NLoS part through
        the Kronecker RIS-to-AP covariance. The cascade term plus Q2 is
        gain_k C_m, and the EMI covariance R_mm is sigma_r^2 A_r C_m.
        """
        return self.gram + (self.gain_m * self.trace)[:, None, None] * self.r_m

    def off(self) -> Surface:
        """The surface switched off: zero LoS means, NLoS gains and Gram."""
        zero = np.zeros_like
        return replace(
            self,
            hbar=zero(self.hbar),
            zbar=zero(self.zbar),
            gain_m=zero(self.gain_m),
            gain_k=zero(self.gain_k),
            gram=zero(self.gram),
        )


def ris_element_positions(n_h: int, n_v: int, d_h: float, d_v: float) -> np.ndarray:
    """Element centers on the RIS plane, row-major over the horizontal axis.

    Element x (0-based) sits at [0, (x mod N_H) d_H, floor(x / N_H) d_V]
    with spacings in meters; the surface occupies the y-z plane.
    """
    idx = np.arange(n_h * n_v)
    return np.column_stack(
        [np.zeros(idx.size), (idx % n_h) * d_h, (idx // n_h) * d_v]
    )


def ris_sinc_correlation(
    n_h: int, n_v: int, d_h: float, d_v: float, wavelength: float
) -> np.ndarray:
    """Isotropic-scattering RIS correlation R[i,j] = sinc(2 d_ij / lambda).

    The elements form the n_v x n_h grid of ``ris_element_positions`` with
    spacings d_h and d_v in meters. d_ij depends only on the row and column
    lags |r_i - r_j| and |c_i - c_j|, so sinc is evaluated once per lag on
    the (n_v, n_h) lag table and R, two-level Toeplitz, is gathered from
    it by the lags of every (row, column, row, column) quadruple: exactly
    symmetric with a unit diagonal.
    """
    v, h = np.arange(n_v), np.arange(n_h)
    table = np.sinc(2.0 * np.hypot(d_v * v[:, None], d_h * h) / wavelength)
    lag_v = np.abs(v[:, None] - v)[:, None, :, None]
    lag_h = np.abs(h[:, None] - h)[None, :, None, :]
    return table[lag_v, lag_h].reshape(n_h * n_v, n_h * n_v)


def gaussian_local_scattering(
    beta_nlos: float | np.ndarray,
    theta: float | np.ndarray,
    sigma_phi: float,
    n_antennas: int,
    spacing: float,
) -> np.ndarray:
    """ULA correlations under Gaussian angular deviation around theta.

    Entry (l, n) is beta_nlos E{exp(j 2 pi spacing (l - n) sin(theta + d))}
    with d ~ N(0, sigma_phi^2); spacing is in wavelengths and sigma_phi in
    radians. beta_nlos and theta broadcast against each other and the result
    has their broadcast shape + (L, L); zero-beta pairs give zero matrices.
    Entries depend on l - n only, so one offset row per pair suffices. By the
    Jacobi-Anger series exp(j a sin u) = sum_n J_n(a) exp(j n u) and
    E{exp(j n d)} = exp(-n^2 sigma_phi^2 / 2), offset l is beta_nlos
    sum_n J_n(2 pi spacing l) exp(-n^2 sigma_phi^2 / 2) exp(j n theta), and
    offset 0 is exactly beta_nlos, so one antenna needs no series. One FFT
    of exp(j a sin u) on Q points gives the J_n(a) of every offset; their
    aliases J_{n + iQ}(a) decay faster than exponentially for |n| > a, past
    a transition that widens like a^(1/3), so the margin grows with it:
    Q / 2 = ceil(a_max) + max(32, ceil(12 a_max^(1/3))). The largest alias,
    J_{Q/2}(a_max), is 8e-24 at 4 half-wavelength antennas, 3e-19 at 16 and
    2e-19 at 101. The Gaussian factors fold into that (offset, order)
    table. Each pair takes one exp(j theta) and its powers up to Q / 2 by a
    cumulative product; the negative orders are their conjugates. Each row
    is one ``einsum`` against the table, summed elementwise over the Q
    orders, so a pair's row does not depend on the batch around it.
    """
    if sigma_phi <= 0.0:
        raise ValueError("sigma_phi must be positive")
    beta_b, theta_b = np.broadcast_arrays(np.asarray(beta_nlos, dtype=float), theta)
    beta_flat, theta_flat = beta_b.ravel(), theta_b.ravel()
    rows = np.empty((beta_flat.size, n_antennas), dtype=complex)
    rows[:, 0] = beta_flat
    if n_antennas > 1:
        a = 2.0 * np.pi * spacing * np.arange(1, n_antennas)
        a_max = np.abs(a).max()
        half = int(np.ceil(a_max)) + max(32, int(np.ceil(12.0 * a_max ** (1 / 3))))
        q = 2 * half
        u = 2.0 * np.pi * np.arange(q) / q
        n = np.fft.fftfreq(q, 1.0 / q)
        bessel = np.fft.fft(np.exp(1j * a[:, None] * np.sin(u))).real / q
        bessel *= np.exp(-0.5 * (n * sigma_phi) ** 2)
        # Order n sits in column n mod Q: orders 1 .. Q/2 - 1 in columns
        # 1 .. Q/2 - 1, orders -1 .. -Q/2 in columns Q - 1 down to Q/2.
        table = np.zeros((2, a.size, half))
        table[0, :, :-1] = bessel[:, 1:half]
        table[1] = bessel[:, : half - 1 : -1]
        powers = np.cumprod(
            np.broadcast_to(np.exp(1j * theta_flat)[:, None], (theta_flat.size, half)),
            axis=1,
        )
        sums = np.einsum("pk,slk->spl", powers, table)
        rows[:, 1:] = beta_flat[:, None] * (bessel[:, 0] + sums[0] + np.conj(sums[1]))

    offsets = np.arange(n_antennas)
    l_idx = offsets[:, None] - offsets[None, :]
    lagged = rows[:, np.abs(l_idx)]
    matrix = np.where(l_idx >= 0, lagged, np.conj(lagged))
    return matrix.reshape(beta_b.shape + (n_antennas, n_antennas))


def _gram_and_trace(
    R: np.ndarray, phi: np.ndarray, hbar: np.ndarray
) -> tuple[np.ndarray, float]:
    """The Gram G_m^H R G_m, (M, L, L), and the trace tr(Phi R Phi^H R).

    G_m = Phi^H Hbar_m for ``hbar`` (M, N, L). R is real and symmetric, so
    both run in real arithmetic: R multiplies the real and imaginary parts
    of every AP's columns of G_m, laid side by side, in one real
    (N, N) @ (N, 2 M L) GEMM, and the trace is phi^T (R o R) conj(phi), the
    real quadratic form of R o R in the real and imaginary parts of phi.
    """
    g = np.ascontiguousarray((phi.conj()[None, :, None] * hbar).transpose(1, 0, 2))
    r_g = (R @ g.reshape(len(phi), -1).view(float)).view(complex).reshape(g.shape)
    parts = np.column_stack([phi.real, phi.imag])
    gram = g.conj().transpose(1, 2, 0) @ r_g.transpose(1, 0, 2)
    return gram, float(np.sum(parts * ((R * R) @ parts)))


def surface_statistics(scenario: Scenario, config: SystemConfig) -> Surface:
    """The surface of one drop, switched on.

    The element spacings in wavelengths give the element size in meters
    and with it A_r = d_h d_v. The RIS-to-AP mean progresses linearly over
    the element index with the horizontal spacing and the azimuth of the AP
    seen from the RIS; the RIS-to-UE mean is the planar-array response
    toward the UE. The RIS-to-AP covariance is Kronecker,
    (R_m^T kron R_r,m) / (L N beta_m) with the RIS-side factor
    R_r,m = beta_m^NLoS A_r R and a unit-trace-per-antenna AP-side factor
    R_m from local scattering toward the RIS, so
    gain_m = beta_m^NLoS A_r / (L N beta_m). The RIS-to-UE covariance is
    beta_k^NLoS A_r R, so gain_k = beta_k^NLoS A_r.

    R comes from its lag table (``ris_sinc_correlation``), and the Gram
    and phase trace from ``_gram_and_trace``, in real arithmetic.
    """
    cfg = config
    n, l = cfg.n_ris_elements, cfg.n_ap_antennas
    d_h, d_v = cfg.ris_spacing_h * cfg.wavelength, cfg.ris_spacing_v * cfg.wavelength
    grid = (cfg.ris_width_elements, cfg.ris_height_elements, d_h, d_v)
    positions = ris_element_positions(*grid)
    R = ris_sinc_correlation(*grid, cfg.wavelength)
    a_r = d_h * d_v

    delta_ap = scenario.ap_positions[:, :2] - scenario.ris_position[:2]
    theta_m = np.arctan2(delta_ap[:, 1], delta_ap[:, 0])
    progression = np.exp(
        2j * np.pi * cfg.ris_spacing_h * np.arange(n)[None, :] * np.sin(theta_m)[:, None]
    )
    hbar = (
        np.sqrt(scenario.beta_m_los)[:, None, None]
        * progression[:, :, None]
        * np.ones((1, 1, l))
    )
    towards_ue = scenario.ue_positions - scenario.ris_position[None, :]
    direction = towards_ue / np.linalg.norm(towards_ue, axis=1, keepdims=True)
    phase = (2.0 * np.pi / cfg.wavelength) * (positions @ direction.T)
    zbar = np.sqrt(scenario.beta_k_los)[:, None] * np.exp(1j * phase.T)
    phi = np.full(n, np.exp(1j * cfg.ris_phase))

    theta_to_ris = np.arctan2(-delta_ap[:, 1], -delta_ap[:, 0])
    r_m = gaussian_local_scattering(
        1.0, theta_to_ris, np.deg2rad(cfg.asd_deg), l, cfg.ap_antenna_spacing
    )
    gram, trace = _gram_and_trace(R, phi, hbar)
    return Surface(
        R=R,
        element_area=a_r,
        phi=phi,
        hbar=hbar,
        zbar=zbar,
        r_m=r_m,
        gain_m=scenario.beta_m_nlos * a_r / (l * n * scenario.beta_m),
        gain_k=scenario.beta_k_nlos * a_r,
        gram=gram,
        trace=trace,
    )
