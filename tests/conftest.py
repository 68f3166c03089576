import numpy as np
import pytest


def jordan_block(n, eigenvalue=0.0):
    """n x n upper bidiagonal block with the given eigenvalue."""
    return np.diag([complex(eigenvalue)] * n) + np.diag([1.0 + 0j] * (n - 1), 1)


def block_diag(*blocks):
    blocks = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in blocks]
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    k = 0
    for b in blocks:
        m = b.shape[0]
        out[k:k + m, k:k + m] = b
        k += m
    return out


def direction_mismatch(u, v):
    """sin of the angle between the rays of u and v (0 when parallel).

    Computed as the projection residual, which stays exact for nearly
    parallel vectors where sqrt(1 - cos^2) would lose half the digits.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return float(np.linalg.norm(u - v * np.vdot(v, u)))


def random_conditioned(rng, n, cond_cap):
    """Random invertible complex matrix with condition number under the cap."""
    while True:
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(v) < cond_cap:
            return v


def random_block_hamiltonian(rng, n):
    """BlockHamiltonian with random quadratic-polynomial generators."""
    from epkit.sublattice import BlockHamiltonian

    def poly(coeffs):
        def fn(q):
            x, y = q[..., 0, None, None], q[..., 1, None, None]
            monomials = [1.0, x, y, x ** 2, x * y, y ** 2]
            return sum(c * m for c, m in zip(coeffs, monomials))
        return fn

    def coeffs():
        return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(6)]

    return BlockHamiltonian(n, poly(coeffs()), poly(coeffs()), name="random")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def svd_calls(monkeypatch):
    """List that grows by one entry per numpy.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls
