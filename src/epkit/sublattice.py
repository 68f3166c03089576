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
from .errors import GeneratorFailureError, NonFiniteError, OddDimensionError


@dataclass(frozen=True)
class BlockHamiltonian:
    """Pair of momentum-dependent N x N block generators.

    A generator maps momenta ``q`` of shape ``(..., 2)`` to blocks of shape
    ``(..., N, N)``; a single point is the case ``q.shape == (2,)``. Output
    that broadcasts to that shape is accepted, so a constant generator may
    return one N x N matrix for any ``q``.

    ``grid``, when given, is the same pair on a rectilinear grid:
    ``grid(qx, qy)`` for 1-D ``qx`` (nx,) and ``qy`` (ny,) returns both
    blocks at every (qx[i], qy[j]), B's first, shape (2, nx, ny, N, N) or
    broadcastable to it. A separable model builds it from 1-D factors
    instead of one generator call on nx * ny momenta: every catalog model
    of :mod:`epkit.models` carries one, the abstract models' on the
    deviations qx - q*_x and qy - q*_y, the lattice models' on the phase
    factors e^{i qx}, e^{i qx / 2} and e^{i sqrt(3) qy / 2}; a model built
    without one takes one generator call per side. Only the grid of
    :func:`epkit.analysis.bz_scan` reads it (see :func:`_grid_blocks`). It
    must agree with the generators to rounding; the catalog's grid forms
    match theirs bit for bit. A copy made with ``dataclasses.replace`` that
    swaps a generator must swap or drop it.
    """

    n: int
    block: Callable[[np.ndarray], np.ndarray]
    block_prime: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    q_star: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)
    grid: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def b(self, q) -> np.ndarray:
        return _eval_generator(self.block, q, self.n, "B")

    def b_prime(self, q) -> np.ndarray:
        return _eval_generator(self.block_prime, q, self.n, "B'")


def _eval_generator(fn, q, n, label) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim == 0 or q.shape[-1] != 2:
        raise ValueError(f"momenta must have shape (..., 2), got {q.shape}")
    # an entry that overflows is refused below, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(fn(q), dtype=np.complex128)
    return _checked([out], q.shape[:-1] + (n, n), [label])[0]


def _checked(outs, shape, labels):
    """Each generator output of ``outs`` broadcast to ``shape``; the shapes
    of all are checked before the entries of any, each in the order of
    ``labels``."""
    shaped = []
    for out, label in zip(outs, labels):
        try:
            shaped.append(np.broadcast_to(out, shape))
        except ValueError:
            raise GeneratorFailureError(
                f"{label}(q) returned shape {out.shape}, expected {shape}"
            ) from None
    for out, label in zip(shaped, labels):
        if not np.all(np.isfinite(out)):
            raise GeneratorFailureError(f"{label}(q) returned non-finite entries")
    return shaped


def _grid_blocks(bh: BlockHamiltonian, qx, qy) -> np.ndarray:
    """Both blocks of ``bh`` at every (qx[i], qy[j]) of the 1-D momenta
    ``qx``, ``qy``, B's first: shape (2, nx, ny, N, N).

    A model with a grid form is read through it, with the checks and
    messages of :meth:`BlockHamiltonian.b`: the shape of each block, then
    its entries. A model without one is one call of each generator on the
    nx * ny momenta.
    """
    if bh.grid is None:
        q = np.stack(np.meshgrid(qx, qy, indexing="ij"), axis=-1)
        return np.stack([bh.b(q), bh.b_prime(q)])
    shape = (len(qx), len(qy), bh.n, bh.n)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(bh.grid(qx, qy), dtype=np.complex128)
    if out.ndim == 0 or len(out) != 2:
        raise GeneratorFailureError(
            f"grid returned shape {out.shape}, expected {(2,) + shape}")
    _checked(out, shape, ("B", "B'"))
    return np.broadcast_to(out, (2,) + shape)


def _fill(b, bp) -> np.ndarray:
    n = b.shape[-1]
    h = np.zeros(b.shape[:-2] + (2 * n, 2 * n), dtype=np.complex128)
    h[..., :n, n:] = 1j * b
    h[..., n:, :n] = -1j * bp
    return h


def _pair(b, bprime):
    """The validated pair as complex arrays of one square shape; a pair of
    two shapes raises ValueError."""
    b = cmatrix.as_square_matrix(b)
    bp = cmatrix.as_square_matrix(bprime)
    if b.shape != bp.shape:
        raise ValueError("B and B' must have matching shapes")
    return b, bp


def assemble_blocks(b, bprime) -> np.ndarray:
    """2N x 2N Hamiltonian [[0, iB], [-iB', 0]] from explicit blocks."""
    return _fill(*_pair(b, bprime))


def assemble(bh: BlockHamiltonian, q) -> np.ndarray:
    """Assembled Hamiltonian H(q) of a BlockHamiltonian, shape
    ``(..., 2N, 2N)`` for momenta of shape ``(..., 2)``."""
    return _fill(bh.b(q), bh.b_prime(q))


def symmetry_residual(h) -> float:
    """Max-abs entry of P H P + H with P = diag(I, -I); 0 iff block off-diagonal."""
    a = cmatrix.as_square_matrix(h)
    if a.shape[0] % 2 != 0:
        raise OddDimensionError("sublattice symmetry needs an even dimension")
    n = a.shape[0] // 2
    p = np.diag(np.concatenate([np.ones(n), -np.ones(n)])).astype(np.complex128)
    return float(np.max(np.abs(p @ a @ p + a)))


def phase_gauge(v: np.ndarray) -> np.ndarray:
    """Rotate each vector along the last axis so its largest-magnitude
    component is real and positive; an all-zero vector is left as it is.

    Ties go to the first component of largest magnitude. This is the
    deterministic representative used for CSV output and continuation;
    quantum distances are gauge-invariant anyway.
    """
    v = np.asarray(v, dtype=np.complex128)
    idx = np.argmax(np.abs(v), axis=-1)[..., None]
    pivot = np.take_along_axis(v, idx, axis=-1)
    size = np.hypot(pivot.real, pivot.imag)
    zero = size == 0.0
    return np.where(zero, v, v * (pivot.conj() / np.where(zero, 1.0, size)))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Rows divided by their norms, then phase-fixed."""
    return phase_gauge(rows / cmatrix.row_norms(rows)[:, None])


def _factor_pairs(b, bprime):
    """The full SVDs ``(u, s, vh)`` of both blocks of each pair of the
    validated stacks ``b``, ``bprime`` (..., N, N), in one stacked call,
    B's first: shape (2, ..., N, N) and (2, ..., N). Also returns the scale
    max(||B||, ||B'||) of each pair, floored at the absolute floor."""
    u, s, vh = np.linalg.svd(np.array([b, bprime]))
    return u, s, vh, np.maximum(s[..., 0].max(axis=0), cmatrix._ABS_FLOOR)


def _pow2_scales(b, bprime) -> np.ndarray:
    """:func:`pow2_scale` of each pair of the stacks ``b``, ``bprime`` of
    shape (..., N, N). The peak modulus is the elementwise maximum of the
    moduli of both blocks, then of its N^2 entry planes, each made one
    contiguous row: a reduction over the two trailing axes would run
    numpy's inner loop once per pair, over N^2 entries."""
    n = b.shape[-1]
    with np.errstate(over="ignore"):
        peak = np.maximum(np.abs(b), np.abs(bprime))
    planes = np.ascontiguousarray(peak.reshape(-1, n * n).T)
    return _pow2_above(planes.max(axis=0).reshape(peak.shape[:-2]))


def _pow2_above(peak) -> np.ndarray:
    """The power of two just above each modulus of ``peak``, kept within
    the normal range."""
    # a modulus from 2^1022 up, inf included, takes the top exponent, 1023
    exponent = np.frexp(np.minimum(peak, 2.0 ** 1022))[1]
    return np.ldexp(1.0, np.maximum(exponent, -1021))


def _pow2_rows(v) -> np.ndarray:
    """Vectors given from outside, the rows of ``v`` (..., n), each divided
    by :func:`_pow2_above` its peak, the largest modulus of a real or
    imaginary part (a modulus could overflow). The division is exact, and
    a nonzero row then peaks in [1/2, 1) whatever its scale, so no norm or
    overlap of it can overflow or underflow; an all-zero row stays zero. A
    non-finite entry raises NonFiniteError."""
    v = np.ascontiguousarray(v, dtype=np.complex128)
    peak = np.abs(v.view(np.float64)).max(axis=-1, keepdims=True, initial=0.0)
    if not peak.max(initial=0.0) < np.inf:  # NaN fails too
        raise NonFiniteError("vector contains NaN or Inf entries")
    return v / _pow2_above(peak)


def pow2_scale(b, bprime) -> float:
    """The power of two just above the largest entry of the pair, kept
    within the normal range; dividing by it is exact, and products of the
    divided blocks can neither underflow nor overflow."""
    return float(_pow2_scales(b, bprime))


def _zero_modes(b, bprime, tol):
    """The kernel-built zero modes of R pairs, for validated block stacks
    ``b``, ``bprime`` of shape (R, N, N).

    Returns ``(states, owner)``: unit, phase-fixed 2N-vector rows, pair
    after pair, (0, chi) for chi in ker B and then (psi, 0) for psi in
    ker B', and ``owner[i]``, the pair of row i. Both blocks of every pair
    come from one stacked SVD, each cut at tol * scale with scale =
    max(||B||, ||B'||), the common magnitude of its pair, so a block that
    is tiny against its partner counts as zero even when it is not exactly
    zero. A ``tol`` that is not positive raises ValueError, and then a
    pair whose norm leaves the double range raises NonFiniteError.
    """
    n = b.shape[-1]
    _, s, vh, scale = _factor_pairs(b, bprime)
    # a bad tol is refused before an overflowing norm
    cutoff = cmatrix._cutoffs(s[..., 0], tol, scale)
    if not np.isfinite(scale).all():
        raise NonFiniteError(cmatrix._NORM_OUT_OF_RANGE)
    kernel = s <= cutoff[..., None]
    # (pair, side, row of vh) of each kernel direction, B's side first
    owner, side, j = np.nonzero(kernel.swapaxes(0, 1))
    rows = np.zeros((len(owner), 2, n), dtype=np.complex128)
    # ker B fills the chi half of its state, ker B' the psi half
    rows[np.arange(len(owner)), 1 - side] = vh[side, owner, j].conj()
    return _unit_rows(rows.reshape(-1, 2 * n)), owner


def zero_energy_states(b, bprime, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Zero modes from the kernels, as unit 2N-vector rows: (0, chi) for
    chi in ker B, then (psi, 0) for psi in ker B'.

    Kernel decisions are taken against the common magnitude of the pair,
    max(||B||, ||B'||), so a block that is tiny against its partner counts
    as zero; a pair whose norm leaves the double range raises
    NonFiniteError. This is the one-pair case of the stacked reader that
    :func:`reduced_spectrum` runs on every pair whose spectrum drops an
    eigenvalue."""
    b, bp = _pair(b, bprime)
    return _zero_modes(b[None], bp[None], tol)[0]


def _spectra(b, bprime, tol):
    """The reduced spectra of R pairs in one pass, for block stacks ``b``,
    ``bprime`` of shape (R, N, N) with finite entries.

    Returns ``(energies, states, owner, scales)``: the rows that
    :func:`reduced_spectrum` gives for each pair, pair after pair,
    ``owner[i]``, the pair of row i, and the :func:`pow2_scale` (R,) that
    each pair's blocks are divided by. Each pair keeps its own scale and
    its own cutoff, and its eigenpairs keep LAPACK's order; the
    zero modes of all pairs that drop an eigenvalue come from one
    :func:`_zero_modes` call. ``tol`` is checked by the caller. Raises
    NonFiniteError when an energy or a state leaves the double range.
    """
    n = b.shape[-1]
    if n > cmatrix.MAX_DIM:
        raise cmatrix._too_large(n)
    scales = _pow2_scales(b, bprime)
    s = scales[:, None, None]
    product = (bprime / s) @ (b / s)
    # the spectral norm of each product, as np.linalg.norm(product, 2)
    norms = np.linalg.svd(product, compute_uv=False)[:, 0]
    cutoff = tol * np.maximum(norms, cmatrix._ABS_FLOOR)
    lam, vecs = np.linalg.eig(product)
    kept = np.hypot(lam.real, lam.imag) > cutoff[:, None]
    pair = np.nonzero(kept)[0]
    owner = np.repeat(pair, 2)
    chi = np.ascontiguousarray(vecs.swapaxes(1, 2))
    # B chi as one matrix-vector product per eigenvector (a matrix-matrix
    # product rounds differently), broadcast over each pair's block without
    # copying it; +E and -E share it
    bchi = np.repeat((b[:, None] @ chi[..., None])[..., 0][kept], 2, axis=0)
    chi = np.repeat(chi[kept], 2, axis=0)
    # -E as the complex product E * -1.0 (negation would flip signed zeros);
    # the range is checked once at the end
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        energies = (np.sqrt(lam[kept])[:, None] * s[pair, 0] * (1.0, -1.0)).ravel()
        psi = 1j * bchi / energies[:, None]
        states = _unit_rows(np.concatenate([psi, chi], axis=1))
    if not (np.isfinite(energies).all() and np.isfinite(states).all()):
        raise NonFiniteError("an energy or a state leaves the double range")
    dropped = np.flatnonzero(~kept.all(axis=1))
    if not len(dropped):
        return energies, states, owner, scales
    # each dropping pair's zero modes after its own rows
    zero_modes, zero_owner = _zero_modes(b[dropped], bprime[dropped], tol)
    owner = np.concatenate([owner, dropped[zero_owner]])
    order = np.argsort(owner, kind="stable")
    energies = np.concatenate([energies, np.zeros(len(zero_modes))])
    return (energies[order], np.concatenate([states, zero_modes])[order],
            owner[order], scales)


def reduced_spectrum(b, bprime, tol: float = DEFAULT_TOL):
    """All sublattice states of H = [[0, iB], [-iB', 0]] via the reduced
    N x N problem, as ``(energies, states)``: ``energies`` of shape (m,)
    and ``states`` of shape (m, 2N), each row a unit, phase-fixed
    (psi, chi).

    Eigenpairs (lambda, chi) of B' B with |lambda| above tol * ||B'B||_2
    produce the pair E = +-sqrt(lambda) (principal branch) with
    psi = i B chi / E, in that order and in LAPACK's order of lambda;
    eigenvalues below the cutoff are replaced by the kernel-built zero
    modes, which come last. The zero detection happens on lambda rather
    than on E because sqrt amplifies noise near zero. The product is formed
    from the blocks divided by :func:`pow2_scale`, so no magnitude of the
    pair can underflow or overflow it; an energy or state that leaves the
    double range raises NonFiniteError. This is the one-pair case of the
    kernel that :func:`epkit.analysis.path_scan` runs on a whole ray. A
    ``tol`` that is not positive raises ValueError once the blocks are
    validated, before any work.
    """
    b, bp = _pair(b, bprime)
    cmatrix._check_tol(tol)
    energies, states, _, _ = _spectra(b[None], bp[None], tol)
    return energies, states
