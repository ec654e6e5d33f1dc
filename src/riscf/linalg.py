"""Shared dense linear-algebra helpers.

Everything here operates on small Hermitian matrices (RIS or antenna
dimension), so dense eigendecompositions and Cholesky-free solves are fine.
"""

from __future__ import annotations

import numpy as np


class IllConditionedError(ValueError):
    """Raised when a Hermitian solve meets a numerically singular matrix."""


#: Condition-number ceiling above which Hermitian solves are refused.
CONDITION_LIMIT = 1e12
#: Relative eigenvalue tolerance below which ``psd_factor`` clips to zero.
PSD_REL_TOL = 1e-12


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A^H)/2 of a square matrix."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _psd_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors V and root eigenvalues sqrt(Lambda) of a PSD Hermitian matrix.

    Eigenvalues within ``PSD_REL_TOL * max_eig`` of zero are clipped to zero so
    rank-deficient covariances (e.g. fully correlated RIS elements) factor
    cleanly.  A genuinely negative eigenvalue raises ValueError.
    """
    a = hermitize(np.asarray(a))
    eigvals, eigvecs = np.linalg.eigh(a)
    scale = float(eigvals[..., -1].max(initial=0.0))
    floor = -PSD_REL_TOL * max(scale, 1.0)
    if eigvals.min(initial=0.0) < floor:
        raise ValueError(
            f"matrix is not PSD: min eigenvalue {eigvals.min():.3e} "
            f"with max {scale:.3e}"
        )
    return eigvecs, np.sqrt(np.clip(eigvals, 0.0, None))


def psd_factor(a: np.ndarray) -> np.ndarray:
    """Factor a PSD Hermitian matrix as A = F F^H with F = V sqrt(Lambda)."""
    eigvecs, roots = _psd_eigh(a)
    return eigvecs * roots[..., None, :]


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """The Hermitian square root V sqrt(Lambda) V^H, a factor of A = S S^H.

    Unlike ``psd_factor`` it does not depend on the eigenvectors' signs and
    phases, which ``eigh`` picks freely, so it moves only as much as A does.
    """
    eigvecs, roots = _psd_eigh(a)
    return (eigvecs * roots[..., None, :]) @ eigvecs.conj().swapaxes(-1, -2)


def solve_hermitian(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for Hermitian positive-definite A with a condition guard.

    Accepts stacked systems (leading batch axes). Refuses any matrix whose
    2-norm condition number exceeds CONDITION_LIMIT instead of silently
    returning noise.
    """
    a = hermitize(np.asarray(a))
    eigvals = np.linalg.eigvalsh(a)
    lo, hi = eigvals[..., 0], eigvals[..., -1]
    if np.any(lo <= 0.0) or np.any(hi > CONDITION_LIMIT * lo):
        worst = np.where(lo <= 0.0, np.inf, hi / np.maximum(lo, 1e-300)).max()
        raise IllConditionedError(
            f"Hermitian solve refused: condition number {worst:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}"
        )
    return np.linalg.solve(a, b)


def standard_cn(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Draw i.i.d. CN(0, 1) entries, built as (x + jy)/sqrt(2).

    The (x, y) pairs are drawn as the trailing axis and reinterpreted in
    place as complex numbers, so no real-part or imaginary-part copies are
    made.
    """
    w = rng.standard_normal(shape + (2,)).view(np.complex128)[..., 0]
    w /= np.sqrt(2.0)
    return w


def sample_cn(rng: np.random.Generator, factor: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Draw CN(0, F F^H) vectors given a covariance factor F.

    ``factor`` has shape (n, r); the result has shape ``shape + (n,)``.
    The white draws meet the factor in one 2-D GEMM.
    """
    n, r = factor.shape
    white = standard_cn(rng, shape + (r,)).reshape(-1, r)
    return (white @ factor.T).reshape(shape + (n,))


def sample_phases(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Draw uniform phase factors e^{j theta} with theta ~ U[0, 2pi)."""
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=shape))

