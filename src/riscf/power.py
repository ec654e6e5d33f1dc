"""Uplink transmit power control.

Two policies: a fractional heuristic that hands weaker UEs relatively
more power, and max-min fairness solved by bisecting the common SINR
target of the UatF bound.  For fixed decoding weights the bound's
fixed-weight form (``uatf.fixed_weight_form``) turns the SINR constraints
of a target t into (diag(num) - t C) p >= t d with C >= 0 elementwise, so
one K x K linear solve for the least powers that meet them with equality
decides each candidate exactly (Yates, IEEE JSAC 1995).
Both policies give per-UE data powers in watts, capped at p_max; max-min
also returns the target it certifies and the weights it committed to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pipeline import LinkStatistics
from .uatf import UatfMoments, combine, fixed_weight_form, uatf_sinr


@dataclass(frozen=True)
class MaxMinAllocation:
    """Max-min powers, the bisection steps taken, and what they certify.

    ``target`` is the certified common SINR lower bound and ``weights``
    the decoding weights the solver committed to.
    """

    powers: np.ndarray
    iterations: int
    target: float
    weights: np.ndarray


def _check_p_max(p_max: float) -> None:
    if not p_max > 0:
        raise ValueError("p_max must be positive")


def aggregate_gain(link: LinkStatistics) -> np.ndarray:
    """Total average channel gain per UE, summed over APs."""
    return np.trace(link.stats.r_o, axis1=-2, axis2=-1).real.sum(axis=0)


def fractional_power_control(gains: np.ndarray, alpha: float, p_max: float) -> np.ndarray:
    """Powers p_k = p_max (min_i gain_i / gain_k)^alpha.

    alpha = 0 recovers full power; larger alpha compresses the received
    power spread, with the weakest UE always at p_max.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValueError("gains must be a non-empty vector")
    if np.any(gains <= 0) or not np.all(np.isfinite(gains)):
        raise ValueError("gains must be positive and finite")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    _check_p_max(p_max)
    eta = (gains.min() / gains) ** alpha
    return eta * p_max


def least_powers(
    num: np.ndarray, c: np.ndarray, d: np.ndarray, target: float, p_max: float
) -> np.ndarray | None:
    """Least powers giving every UE an SINR of at least ``target``.

    Solves (diag(num) - target c) p = target d, with c >= 0 elementwise and
    d > 0 as from ``uatf.fixed_weight_form``.  Returns None when the target is
    out of reach within 0 < p <= p_max (see ``maxmin_power_control``).
    """
    try:
        p = np.linalg.solve(np.diag(num) - target * c, target * d)
    except np.linalg.LinAlgError:
        return None
    return p if np.all(p > 0) and np.all(p <= p_max) else None


def maxmin_power_control(
    moments: UatfMoments,
    combiner: str,
    noise_power: float,
    p_max: float,
    tol: float = 1e-3,
) -> MaxMinAllocation:
    """Max-min fair powers by bisection on the common SINR target.

    Decoding weights are fixed to those of the ``combiner`` mode under full
    power (``uatf.combine``): the optimum for ``lsfd``, unit weights for
    ``mr``.  With them held, SINR_k >= t for every UE reads A(t) p >= t d
    with A(t) = diag(num) - t C, and C >= 0 makes A(t) a Z-matrix.  Each
    candidate t takes one solve of A(t) p = t d (``least_powers``).  If
    its solution is positive, A(t) is a nonsingular M-matrix, so
    A(t)^{-1} >= 0 and every p >= 0 meeting the constraints satisfies
    p >= A(t)^{-1} t d: that solution is the least power vector reaching
    t.  Conversely, any p >= 0 meeting them is positive and makes A(t) a
    nonsingular M-matrix.  Hence t is feasible iff the solve succeeds with
    0 < p <= p_max.  Bisection keeps a feasible witness at all times, so
    the returned allocation certifiably reaches ``target`` and never falls
    below the full-power minimum.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_p_max(p_max)
    p_full = np.full(moments.d.shape[1], p_max)
    full = combine(moments, combiner, p_full, noise_power)
    weights = full.weights
    num, c, d = fixed_weight_form(moments, weights, noise_power)
    if np.any(d <= 0):
        raise ValueError("SINR denominator offsets must be positive")
    if np.any(c < -1e-12 * np.abs(c).max()):
        raise ValueError("interference coefficients must be non-negative")
    t_lo = float(full.sinr.min())
    t_hi = float(np.max(p_max * num / d))
    powers = p_full
    iterations = 0
    while t_hi - t_lo > tol:
        t = 0.5 * (t_lo + t_hi)
        least = least_powers(num, c, d, t, p_max)
        iterations += 1
        if least is not None:
            t_lo, powers = t, least
        else:
            t_hi = t
    achieved = uatf_sinr(moments, weights, powers, noise_power)
    if achieved.min() < t_lo - 1e-8 * max(t_lo, 1.0):
        raise RuntimeError("bisection witness lost feasibility")
    return MaxMinAllocation(powers=powers, iterations=iterations, target=t_lo, weights=weights)
