"""Block-off-diagonal Hamiltonians, the reduced eigenproblem, and pairing.

A sublattice-symmetric Bloch Hamiltonian is carried as a pair of N x N
momentum-dependent generators (B, B') and assembled as

    H(q) = [[0, i B(q)], [-i B'(q), 0]],

which satisfies P H P = -H with P = diag(I, -I). Spectra are computed from
the N x N product B'(q) B(q): each nonzero eigenvalue lambda yields the
energy pair E = +-sqrt(lambda) with upper component psi = i B chi / E, and
the zero modes come straight from the kernels of B and B'.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import cmatrix
from .cmatrix import DEFAULT_TOL
from .errors import GeneratorFailureError, OddDimensionError


@dataclass(frozen=True)
class BlockHamiltonian:
    """Pair of momentum-dependent N x N block generators.

    Generators must be pure functions of q (no internal mutable state);
    all operations on the result are then thread-safe.
    """

    n: int
    block: Callable[[np.ndarray], np.ndarray]
    block_prime: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    q_star: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)

    def b(self, q) -> np.ndarray:
        return _eval_generator(self.block, q, self.n, "B")

    def b_prime(self, q) -> np.ndarray:
        return _eval_generator(self.block_prime, q, self.n, "B'")


def _eval_generator(fn, q, n, label) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(2)
    out = np.asarray(fn(q), dtype=np.complex128)
    if out.shape != (n, n):
        raise GeneratorFailureError(
            f"{label}(q) returned shape {out.shape}, expected ({n}, {n})"
        )
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise GeneratorFailureError(f"{label}(q) returned non-finite entries")
    return out


def assemble_blocks(b, bprime) -> np.ndarray:
    """2N x 2N Hamiltonian [[0, iB], [-iB', 0]] from explicit blocks."""
    b = cmatrix.as_square_matrix(b)
    bp = cmatrix.as_square_matrix(bprime)
    if b.shape != bp.shape:
        raise GeneratorFailureError("B and B' must have the same shape")
    n = b.shape[0]
    h = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    h[:n, n:] = 1j * b
    h[n:, :n] = -1j * bp
    return h


def assemble(bh: BlockHamiltonian, q) -> np.ndarray:
    """Assembled Hamiltonian H(q) of a BlockHamiltonian."""
    return assemble_blocks(bh.b(q), bh.b_prime(q))


def symmetry_residual(h) -> float:
    """Max-abs entry of P H P + H with P = diag(I, -I); 0 iff block off-diagonal."""
    a = cmatrix.as_square_matrix(h)
    if a.shape[0] % 2 != 0:
        raise OddDimensionError("sublattice symmetry needs an even dimension")
    n = a.shape[0] // 2
    p = np.diag(np.concatenate([np.ones(n), -np.ones(n)])).astype(np.complex128)
    return float(np.max(np.abs(p @ a @ p + a)))


def phase_gauge(v: np.ndarray) -> np.ndarray:
    """Rotate v so its largest-magnitude component is real and positive.

    Ties go to the first component of largest magnitude. This is the
    deterministic representative used for CSV output and continuation;
    quantum distances are gauge-invariant anyway.
    """
    v = np.asarray(v, dtype=np.complex128)
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if abs(pivot) == 0.0:
        return v.copy()
    return v * (pivot.conjugate() / abs(pivot))


@dataclass
class SublatticeState:
    """Eigenstate split into sublattice components (psi, chi) at energy E."""

    psi: np.ndarray
    chi: np.ndarray
    energy: complex

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.psi, self.chi])


def _make_state(psi, chi, energy) -> SublatticeState:
    full = np.concatenate([np.asarray(psi, dtype=np.complex128),
                           np.asarray(chi, dtype=np.complex128)])
    nrm = np.linalg.norm(full)
    if nrm == 0.0:
        raise GeneratorFailureError("attempted to build a zero state")
    full = phase_gauge(full / nrm)
    n = full.size // 2
    return SublatticeState(full[:n], full[n:], complex(energy))


def partner_state(s: SublatticeState) -> SublatticeState:
    """Sublattice partner (psi, -chi) at energy -E; an involution."""
    return SublatticeState(s.psi.copy(), -s.chi, -s.energy)


def factor_blocks(b, bprime, tol: float = DEFAULT_TOL):
    """One factorisation of each block, both cut against the pair.

    The cutoff is tol * scale with scale = max(||B||, ||B'||), the common
    magnitude of the pair, so a block that is tiny against its partner
    counts as zero even when it is not exactly zero. Returns
    ``(svd_b, svd_bprime, scale)``.
    """
    fb = cmatrix.factorize(b, tol)
    fbp = cmatrix.factorize(bprime, tol)
    scale = max(fb.norm, fbp.norm, cmatrix._ABS_FLOOR)
    return fb.recut(tol, scale), fbp.recut(tol, scale), scale


def zero_energy_states(b, bprime, tol: float = DEFAULT_TOL):
    """Zero modes from the kernels: (0, chi) for chi in ker B, then
    (psi, 0) for psi in ker B'.

    Kernel decisions are taken against the common magnitude of the pair
    (see :func:`factor_blocks`)."""
    b = cmatrix.as_square_matrix(b)
    fb, fbp, _ = factor_blocks(b, bprime, tol)
    n = b.shape[0]
    states = []
    for chi in fb.kernel.vectors.T:
        states.append(_make_state(np.zeros(n), chi, 0.0))
    for psi in fbp.kernel.vectors.T:
        states.append(_make_state(psi, np.zeros(n), 0.0))
    return states


def reduced_spectrum(bh: BlockHamiltonian, q, tol: float = DEFAULT_TOL):
    """Full set of sublattice states of H(q) via the reduced N x N problem.

    Eigenpairs (lambda, chi) of B'(q) B(q) with |lambda| above tol * ||B'B||
    produce the pair E = +-sqrt(lambda) (principal branch) with
    psi = i B chi / E; eigenvalues below the cutoff are replaced by the
    kernel-built zero modes. The zero detection happens on lambda rather
    than on E because sqrt amplifies noise near zero.
    """
    b = bh.b(q)
    bp = bh.b_prime(q)
    product = bp @ b
    scale = max(np.linalg.norm(product, 2), cmatrix._ABS_FLOOR)
    states = []
    n_zero = 0
    for lam, chi in cmatrix.eig(product):
        if abs(lam) <= tol * scale:
            n_zero += 1
            continue
        energy = np.sqrt(complex(lam))
        for sign in (1.0, -1.0):
            e = sign * energy
            psi = 1j * (b @ chi) / e
            states.append(_make_state(psi, chi, e))
    if n_zero:
        states.extend(zero_energy_states(b, bp, tol))
    return states
