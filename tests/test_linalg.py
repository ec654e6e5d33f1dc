"""Hermitian linear algebra, complex Gaussian sampling and the BLAS thread cap."""
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riscf import linalg
from riscf.linalg import (
    IllConditionedError,
    hermitize,
    one_blas_thread,
    pair_matvec,
    psd_factor,
    psd_sqrt,
    sample_cn,
    sample_phases,
    solve_hermitian,
)

from dense_reference import quadratic_block_trace


def random_hpd(rng, n, batch=()):
    b = rng.standard_normal(batch + (n, n)) + 1j * rng.standard_normal(batch + (n, n))
    return b @ b.conj().swapaxes(-1, -2) + n * np.eye(n)


def test_hermitize_is_hermitian_and_idempotent():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = hermitize(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(hermitize(h), h)


def test_psd_factor_reconstructs_matrix():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    a = b @ b.conj().T
    f = psd_factor(a)
    assert np.allclose(f @ f.conj().T, a, atol=1e-10 * np.abs(a).max())


def test_psd_factor_accepts_rank_deficient():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0] = 2.0
    f = psd_factor(a)
    assert np.allclose(f @ f.conj().T, a)


def test_psd_factor_rejects_indefinite():
    with pytest.raises(ValueError):
        psd_factor(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("rank", [6, 3])
def test_psd_sqrt_is_a_hermitian_root(rank):
    """S = S^H and S S = A within 1e-12 relative, full rank or not, stacked."""
    rng = np.random.default_rng(4)
    b = rng.standard_normal((2, 6, rank)) + 1j * rng.standard_normal((2, 6, rank))
    a = b @ b.conj().swapaxes(-1, -2)
    s = psd_sqrt(a)
    scale = np.abs(a).max()
    np.testing.assert_allclose(s, s.conj().swapaxes(-1, -2), rtol=0, atol=1e-12 * np.sqrt(scale))
    np.testing.assert_allclose(s @ s, a, rtol=0, atol=1e-12 * scale)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ValueError, match="not PSD"):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_solve_hermitian_matches_numpy_batch():
    rng = np.random.default_rng(2)
    a = random_hpd(rng, 4, batch=(3, 2))
    b = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
    x = solve_hermitian(a, b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)


def test_solve_hermitian_single_matrix():
    rng = np.random.default_rng(3)
    a = random_hpd(rng, 5)
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.allclose(a @ solve_hermitian(a, b), b, rtol=1e-9, atol=1e-10)


def test_solve_hermitian_accepts_condition_below_limit():
    x = solve_hermitian(np.diag([1.0, 1e-11]), np.eye(2))
    assert np.allclose(x, np.diag([1.0, 1e11]), rtol=1e-12)


@pytest.mark.parametrize(
    "a",
    [
        np.diag([1.0, 1e-13]),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.diag([1.0, -0.5]),
    ],
    ids=["above_limit", "singular", "indefinite"],
)
def test_solve_hermitian_refuses_ill_conditioned(a):
    with pytest.raises(IllConditionedError):
        solve_hermitian(a, np.eye(2))


def test_solve_hermitian_refuses_whole_stack_for_one_bad_matrix():
    rng = np.random.default_rng(6)
    a = random_hpd(rng, 2, batch=(4,))
    a[2] = np.diag([1.0, 1e-13])
    with pytest.raises(IllConditionedError):
        solve_hermitian(a, np.ones((4, 2, 2)))


def _spectrum_stack(rng, kappas, n, indefinite=False):
    """Random Hermitian matrices of size n, one per condition number in ``kappas``.

    Eigenvalues run from s down to s / kappa, the others log-uniform between,
    at a random scale s; with ``indefinite`` the smallest one is negated.
    """
    batch = (len(kappas),)
    g = rng.standard_normal(batch + (n, n)) + 1j * rng.standard_normal(batch + (n, n))
    q, _ = np.linalg.qr(g)
    span = np.log10(kappas)[:, None]
    exponents = np.concatenate(
        [np.zeros((len(kappas), 1)), -span * rng.random((len(kappas), n - 2)), -span], axis=1
    )
    eig = 10.0 ** (exponents + rng.uniform(-15.0, 5.0))
    if indefinite:
        eig[:, -1] *= -1.0
    return (q * eig[:, None, :]) @ q.conj().swapaxes(-1, -2)


def _eigvalsh_verdict(a):
    """Accept iff every matrix is positive definite within CONDITION_LIMIT, and each kappa."""
    eig = np.linalg.eigvalsh(hermitize(a))
    lo, hi = eig[..., 0], eig[..., -1]
    kappa = np.where(lo > 0.0, hi / np.maximum(lo, 1e-300), np.inf)
    return bool(np.all(kappa <= linalg.CONDITION_LIMIT)), kappa


def test_solve_hermitian_verdict_is_eigvalsh_verdict():
    """Near and far beyond the limit, the guard decides as eigvalsh does."""
    rng = np.random.default_rng(11)
    verdicts = set()
    for trial in range(300):
        n = int(rng.integers(2, 7))
        kappas = 10.0 ** rng.uniform(8.0, 16.0, int(rng.integers(1, 4)))
        a = _spectrum_stack(rng, kappas, n, indefinite=trial % 5 == 0)
        b = rng.standard_normal((len(kappas), n, 2)) + 1j * rng.standard_normal((len(kappas), n, 2))
        accept, kappa = _eigvalsh_verdict(a)
        if np.any(np.abs(np.log(kappa / linalg.CONDITION_LIMIT)) < np.log(1.01)):
            continue  # within 1% of the limit, rounding decides either way
        verdicts.add(accept)
        if accept:
            assert np.array_equal(solve_hermitian(a, b), np.linalg.solve(hermitize(a), b))
        else:
            with pytest.raises(IllConditionedError):
                solve_hermitian(a, b)
    assert verdicts == {True, False}


def test_solve_hermitian_certifies_well_conditioned_stacks_without_eigvalsh(monkeypatch):
    rng = np.random.default_rng(12)
    stacks = []
    for _ in range(100):
        n = int(rng.integers(2, 7))
        kappas = 10.0 ** rng.uniform(0.0, 8.0, int(rng.integers(1, 4)))
        a = _spectrum_stack(rng, kappas, n)
        stacks.append((a, rng.standard_normal((len(kappas), n)) + 0j))

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called on a certified stack")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for a, b in stacks:
        x = solve_hermitian(a, b[..., None])
        assert np.array_equal(x, np.linalg.solve(hermitize(a), b[..., None]))


def test_sample_cn_matches_target_covariance():
    rng = np.random.default_rng(4)
    cov = np.array([[2.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
    draws = sample_cn(rng, psd_factor(cov), (40000,))
    sample_cov = draws.T @ draws.conj() / len(draws)
    assert np.abs(draws.mean(axis=0)).max() < 0.05
    assert np.abs(sample_cov - cov).max() < 0.08


def test_sample_cn_is_circular():
    rng = np.random.default_rng(5)
    cov = np.eye(2)
    draws = sample_cn(rng, psd_factor(cov), (40000,))
    pseudo = draws.T @ draws / len(draws)
    assert np.abs(pseudo).max() < 0.05


@pytest.mark.parametrize("trials", [1, 94], ids=["one-trial", "chunk"])
@pytest.mark.parametrize("antennas", [1, 4])
def test_pair_matvec_is_the_per_pair_einsum(trials, antennas):
    """One GEMM per (AP, UE) pair at the mc_oracle pairs (M=10, K=5), for one
    trial and for a chunk, written into the array it is given."""
    rng = np.random.default_rng(antennas + trials)
    pairs = (10, 5, antennas)
    a = rng.standard_normal(pairs + (antennas,)) + 1j * rng.standard_normal(pairs + (antennas,))
    x = rng.standard_normal((trials,) + pairs) + 1j * rng.standard_normal((trials,) + pairs)
    want = np.einsum("mkab,tmkb->tmka", a, x)
    np.testing.assert_allclose(pair_matvec(a, x), want, rtol=1e-13, atol=0.0)
    out = np.empty_like(x)
    got = pair_matvec(a, x, out=out)
    assert np.shares_memory(got, out)
    np.testing.assert_allclose(out, want, rtol=1e-13, atol=0.0)


def test_sample_phases_unit_modulus_and_determinism():
    a = sample_phases(np.random.default_rng(6), (100, 3))
    b = sample_phases(np.random.default_rng(6), (100, 3))
    assert a.shape == (100, 3)
    assert np.allclose(np.abs(a), 1.0)
    assert np.array_equal(a, b)


@st.composite
def block_trace_case(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    l = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n, l, seed


@given(block_trace_case())
@settings(max_examples=30, deadline=None)
def test_quadratic_block_trace_matches_index_brute_force(case):
    """(X^H A X)[q,p] averages to sum_ab A[a,b] cov[p n + b, q n + a].

    The expectation follows entry by entry from the column-major vec
    layout, so an explicit double loop is an independent oracle.
    """
    n, l, seed = case
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = hermitize(a)
    cov = random_hpd(rng, n * l)
    got = quadratic_block_trace(a, cov, n, l)
    expect = np.zeros((l, l), dtype=complex)
    for q in range(l):
        for p in range(l):
            for row_a in range(n):
                for row_b in range(n):
                    expect[q, p] += a[row_a, row_b] * cov[p * n + row_b, q * n + row_a]
    assert np.allclose(got, expect, rtol=1e-11, atol=1e-11)


def test_quadratic_block_trace_matches_sampling():
    """The index convention agrees with averaging actual matrix draws."""
    n, l = 3, 2
    rng = np.random.default_rng(8)
    a = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    cov = random_hpd(rng, n * l)
    got = quadratic_block_trace(a, cov, n, l)
    vecs = sample_cn(rng, psd_factor(cov), (200000,))
    x = vecs.reshape(-1, l, n).swapaxes(-1, -2)
    expect = np.einsum("tna,nb,tbc->ac", x.conj(), a, x) / len(x)
    assert np.abs(got - expect).max() < 0.05 * np.abs(got).max()


def test_quadratic_block_trace_kronecker_identity():
    """Kronecker covariance reduces to tr(A R_right) R_left^T."""
    rng = np.random.default_rng(7)
    n, l = 3, 2
    r_right = hermitize(random_hpd(rng, n))
    r_left = hermitize(random_hpd(rng, l))
    cov = np.kron(r_left.T, r_right)
    a = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    got = quadratic_block_trace(a, cov, n, l)
    expect = np.trace(a @ r_right) * r_left
    assert np.allclose(got, expect, rtol=1e-10)


def test_quadratic_block_trace_shape_check():
    with pytest.raises(ValueError):
        quadratic_block_trace(np.eye(2), np.eye(5), 2, 2)


def test_one_blas_thread_restores_when_the_last_block_closes():
    """Blocks that overlap, as concurrent runs do, hold one cap: the count
    stays 1 until the last of them closes, which restores it."""
    entries = linalg.openblas_threads()
    if not entries:
        pytest.skip("no OpenBLAS is loaded, so there is no thread count to hold")
    get, set_ = entries[0]
    before = get()
    set_(2)
    try:
        first, second = one_blas_thread(), one_blas_thread()
        first.__enter__()
        second.__enter__()
        assert get() == 1
        first.__exit__(None, None, None)
        assert get() == 1
        second.__exit__(None, None, None)
        assert get() == 2
    finally:
        set_(before)


def test_one_blas_thread_holds_under_contention():
    """Eight threads open and close the cap 200 times each, with a short
    switch interval: every block sees one thread, and the count is restored
    once all have closed. A lost update of the open-block count would
    restore it early or never."""
    entries = linalg.openblas_threads()
    if not entries:
        pytest.skip("no OpenBLAS is loaded, so there is no thread count to hold")
    get, set_ = entries[0]
    before = get()
    seen = []

    def open_and_close():
        for _ in range(200):
            with one_blas_thread():
                seen.append(get())

    interval = sys.getswitchinterval()
    set_(2)
    try:
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=open_and_close) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        set_(before)
    assert seen == [1] * 1600


def test_one_blas_thread_without_openblas_does_nothing(monkeypatch):
    monkeypatch.setattr(linalg, "openblas_threads", lambda: ())
    with one_blas_thread():
        with one_blas_thread():
            pass
