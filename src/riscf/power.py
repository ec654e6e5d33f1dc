"""Uplink transmit power control.

Two policies: a fractional heuristic that hands weaker UEs relatively
more power, and max-min fairness at fixed decoding weights.  For fixed
weights the UatF bound's fixed-weight form (``uatf.fixed_weight_form``)
reads SINR_k = p_k / I_k(p) with I_k(p) = (c_k . p + d_k) / num_k and
c >= 0 elementwise, a standard interference function (Yates, IEEE JSAC
1995).  Max-min runs its normalized fixed point p <- p_max I(p) / max_j
I_j(p) (Krause, Nonlinear Analysis 2001), whose SINRs bracket the optimum
at every step, and certifies the result with one K x K linear solve for
the least powers that meet the bracket's lower end (``least_powers``).
Both policies give per-UE data powers in watts, capped at p_max; max-min
also returns the target it certifies and the weights it committed to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pipeline import LinkStatistics
from .uatf import Combining, UatfMoments, fixed_weight_form


@dataclass(frozen=True)
class MaxMinAllocation:
    """Max-min powers, the steps taken, and what they certify.

    ``iterations`` counts the fixed-point steps plus any bisection steps
    (see ``maxmin_powers``), ``target`` is the certified common SINR lower
    bound and ``weights`` the decoding weights the solver committed to.
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
    d > 0 as from ``uatf.fixed_weight_form``.  If the solution is positive,
    A = diag(num) - target c is a nonsingular M-matrix, so A^{-1} >= 0 and
    every p >= 0 meeting the targets satisfies p >= A^{-1} target d: the
    solution is the least power vector reaching ``target``, and it meets
    every target with equality.  Conversely any p >= 0 meeting them is
    positive and makes A a nonsingular M-matrix.  Returns None, the target
    being out of reach, unless the solve gives 0 < p <= p_max.
    """
    try:
        p = np.linalg.solve(np.diag(num) - target * c, target * d)
    except np.linalg.LinAlgError:
        return None
    return p if np.all(p > 0) and np.all(p <= p_max) else None


def maxmin_powers(
    num: np.ndarray, c: np.ndarray, d: np.ndarray, p_max: float, tol: float = 1e-3
) -> tuple[np.ndarray, int, float]:
    """Max-min fair powers of SINR_k = p_k num_k / (c_k . p + d_k), p <= p_max.

    Returns (powers, iterations, target).  The normalized fixed point
    p <- p_max I(p) / max_j I_j(p) starts from full power, with I_k(p) =
    (c_k . p + d_k) / num_k.  At any p with max_k p_k = p_max, which every
    step keeps, min_k SINR_k(p) <= t* <= max_k SINR_k(p) (Krause,
    Nonlinear Analysis 2001), so the bracket [t_lo, t_hi], the best of
    those bounds so far, holds the max-min SINR t* and only shrinks; t_lo
    starts at the full-power floor.  It stops once t_hi - t_lo <= tol.
    ``iterations`` never passes the budget ceil(log2(t_hi0 / tol)) that
    bisection from [0, t_hi0], t_hi0 = max_k p_max num_k / d_k, would
    take: when one more step could leave more bisection steps than the
    budget has left, the rest of the bracket is bisected with
    ``least_powers`` and each of those steps counts too; a step moves only
    t_lo or t_hi.  However the bracket closed, one last ``least_powers``
    solve at ``target`` = t_lo gives the powers, the least that reach it,
    so every UE ends at the same SINR.  Where t_lo is t* itself, rounding
    can put them a few ulps above p_max; they are then scaled back into
    the box, which moves each SINR by as little.  Should that solve fail,
    the fixed-point powers that certified t_lo are returned.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_p_max(p_max)
    if np.any(num <= 0):
        raise ValueError("useful-signal gains must be positive")
    if np.any(d <= 0):
        raise ValueError("SINR denominator offsets must be positive")
    if np.any(c < -1e-12 * np.abs(c).max()):
        raise ValueError("interference coefficients must be non-negative")
    t_hi = float(np.max(p_max * num / d))
    budget = math.ceil(math.log2(t_hi / tol))
    t_lo, iterations = 0.0, 0
    p = witness = np.full(num.size, float(p_max))
    while True:
        interference = c @ p + d
        sinr = p * num / interference
        if sinr.min() > t_lo:
            t_lo, witness = float(sinr.min()), p
        t_hi = min(t_hi, float(sinr.max()))
        width = t_hi - t_lo
        if width <= tol or iterations + 1 + math.ceil(math.log2(width / tol)) > budget:
            break
        p = interference / num
        p = p_max * (p / p.max())
        iterations += 1

    while t_hi - t_lo > tol:
        t = 0.5 * (t_lo + t_hi)
        iterations += 1
        if least_powers(num, c, d, t, p_max) is None:
            t_hi = t
        else:
            t_lo = t
    powers = least_powers(num, c, d, t_lo, p_max * (1 + 1e-9))
    powers = witness if powers is None else powers * min(1.0, p_max / powers.max())
    achieved = powers * num / (c @ powers + d)
    if achieved.min() < t_lo - 1e-8 * max(t_lo, 1.0):
        raise RuntimeError("max-min powers fall short of the certified target")
    return powers, iterations, t_lo


def maxmin_power_control(
    moments: UatfMoments,
    full: Combining,
    noise_power: float,
    p_max: float,
    tol: float = 1e-3,
) -> MaxMinAllocation:
    """Max-min fair powers at the decoding weights of a full-power combiner.

    ``full`` is the combiner mode's ``uatf.combine`` at full power p_max,
    so a caller that also reports full power shares its solve; its weights
    are held: the optimum for ``lsfd``, unit weights for ``mr``.  With them
    fixed the SINRs take the fixed-weight form (num, c, d), which
    ``maxmin_powers`` solves to within ``tol`` of the optimum, never below
    the full-power floor.
    """
    num, c, d = fixed_weight_form(moments, full.weights, noise_power)
    powers, iterations, target = maxmin_powers(num, c, d, p_max, tol)
    return MaxMinAllocation(
        powers=powers, iterations=iterations, target=target, weights=full.weights
    )
