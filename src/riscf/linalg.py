"""Shared dense linear-algebra helpers.

Everything here operates on small Hermitian matrices (RIS or antenna
dimension), so dense eigendecompositions and solves are fine; a Hermitian
solve is guarded by a Cholesky certificate and checks eigenvalues only
where that fails.
The same small sizes are why ``one_blas_thread`` holds OpenBLAS at one
thread during a run: its GEMMs are too small to split, and a second BLAS
thread only spins a core that a Monte Carlo chunk worker could use.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np


class IllConditionedError(ValueError):
    """Raised when a Hermitian solve meets a numerically singular matrix."""


#: Condition-number ceiling above which Hermitian solves are refused.
CONDITION_LIMIT = 1e12
#: Relative eigenvalue tolerance below which ``psd_factor`` clips to zero.
PSD_REL_TOL = 1e-12

#: OpenBLAS's thread-count entry points (getter, setter), by build: numpy's
#: scipy-openblas wheels, a 64-bit-integer build, and the plain library.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


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

    Accepts stacked systems (leading batch axes). Refuses the whole stack
    if any matrix's 2-norm condition number exceeds CONDITION_LIMIT instead
    of silently returning noise. The guard first tries a Cholesky factor of
    A - (tr A / CONDITION_LIMIT) I for every matrix at once: where it
    exists, lambda_min > tr A / CONDITION_LIMIT >= lambda_max /
    CONDITION_LIMIT, so the stack passes. Only where it does not are the
    eigenvalues computed (``eigvalsh``), and their condition numbers decide.
    The solve is the plain ``np.linalg.solve`` of the Hermitian part.
    """
    a = hermitize(np.asarray(a))
    shift = np.trace(a, axis1=-2, axis2=-1).real / CONDITION_LIMIT
    try:
        np.linalg.cholesky(a - shift[..., None, None] * np.eye(a.shape[-1]))
    except np.linalg.LinAlgError:
        eigvals = np.linalg.eigvalsh(a)
        lo, hi = eigvals[..., 0], eigvals[..., -1]
        if np.any(lo <= 0.0) or np.any(hi > CONDITION_LIMIT * lo):
            worst = np.where(lo <= 0.0, np.inf, hi / np.maximum(lo, 1e-300)).max()
            raise IllConditionedError(
                f"Hermitian solve refused: condition number {worst:.3e} exceeds "
                f"{CONDITION_LIMIT:.0e}"
            ) from None
    return np.linalg.solve(a, b)


def pair_matvec(
    a: np.ndarray, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """y[t, m, k] = A[m, k] x[t, m, k] for every trial t and (AP, UE) pair (m, k).

    ``a`` has shape (M, K, L, L) and ``x`` (T, M, K, L). Each pair's T
    trials meet its matrix in one GEMM, X_mk A_mk^T on the (T, L) rows
    X_mk of the pair, written through a strided view of ``out`` (a new
    (T, M, K, L) array when not given), so neither x nor y is copied to a
    pair-major layout. Returns ``out``.
    """
    if out is None:
        out = np.empty(x.shape, dtype=np.result_type(a, x))
    np.matmul(
        x.transpose(1, 2, 0, 3), a.swapaxes(-1, -2), out=out.transpose(1, 2, 0, 3)
    )
    return out


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


@functools.lru_cache(maxsize=None)
def openblas_threads() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """The (get, set) thread-count entry points of each OpenBLAS in the process.

    Found once, on first use, among the shared libraries mapped at that
    time (``/proc/self/maps``); empty where there is none, or no such map.
    """
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return ()
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    entries = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(library, get_name, None), getattr(library, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                entries.append((get, set_))
                break
    return tuple(entries)


class _BlasCap:
    """How many ``one_blas_thread`` blocks are open, and the counts they saved."""

    lock = threading.Lock()
    depth = 0
    saved: list[int] = []


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold every OpenBLAS in the process at one thread inside the block.

    The first block to open saves each library's thread count and sets it
    to 1; the last to close, also when it raises, restores the saved
    counts. Nested blocks, and blocks open at once in several threads,
    share the one cap. Without OpenBLAS the block does nothing.
    """
    entries = openblas_threads()
    with _BlasCap.lock:
        if _BlasCap.depth == 0:
            _BlasCap.saved = [get() for get, _ in entries]
            for _, set_ in entries:
                set_(1)
        _BlasCap.depth += 1
    try:
        yield
    finally:
        with _BlasCap.lock:
            _BlasCap.depth -= 1
            if _BlasCap.depth == 0:
                for (_, set_), count in zip(entries, _BlasCap.saved):
                    set_(count)
