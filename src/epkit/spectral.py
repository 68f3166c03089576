"""Eigenvalue clustering, Jordan block detection, and chain construction.

Block sizes are read off the rank sequence r_k = rank((H - E)^k): the number
of blocks of size >= k equals r_{k-1} - r_k. (H - E) is factorised once; that
one SVD gives its kernel, its norm, and a unit-norm, denoised copy whose
powers 2..n are factorised together in one stacked SVD, each cut at
tol * max(sigma_max, 100 eps / tol). No overall magnitude of H can then
underflow or overflow a power. A stack of matrices takes the same two SVDs,
each stacked, as the classifier's cross-check reads the H of all its pairs.
The classifier reads the products of B and B' with the same denoising and
the same cut. One stacked reader, :func:`_weyr`, turns the rank drops of
every such sequence into chains (through the Weyr characteristic;
Kågström & Ruhe, ACM TOMS 6:398, 1980).

Chains are built bottom-up from a kernel seed, but each solve is restricted
to the image of the appropriate power of (H - E) so the chain is guaranteed
to extend to its full length; within that restriction the minimum-norm
solution is taken. This is the deterministic gauge all chain output carries:
generalized eigenvectors are defined only up to kernel additions, and the
image-restricted minimum-norm representative pins them down. Seeds come from
ker(H - E) ∩ im((H - E)^(k-1)), less the seeds of earlier blocks; each of
these subspace operations is one SVD whose singular values are
principal-angle sines, cut at the caller's ``tol``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import cmatrix
from .cmatrix import DEFAULT_TOL, as_square_matrix
from .errors import (
    ChainSolveFailedError,
    NonFiniteError,
    NotAnEigenvalueError,
    RankSequenceError,
    SeedNotInKernelError,
)

#: Cluster radius as a fraction of ||H||; looser than the rank tolerance
#: because eigenvalues of a near-defective matrix scatter as eps**(1/k).
DEFAULT_CLUSTER_FRACTION = 1e-7

#: Residual bound of the chain equation (H - E) x = e_{j-1}, as a
#: fraction of ||H - E|| * ||x||.
DEFAULT_CHAIN_FRACTION = 1e-6

#: Floating-point noise accumulated by k products of a unit-norm matrix
#: stays below 100 eps; singular values under that floor are fp debris.
_NOISE_FLOOR = 100 * np.finfo(float).eps


def _unit_denoised(s: np.ndarray, cutoff, scale) -> np.ndarray:
    """Singular values ``s`` with those at or under ``cutoff`` zeroed and
    the rest divided by ``scale``."""
    return np.where(s > cutoff, s / scale, 0.0)


def _cut_ranks(s: np.ndarray, tol: float) -> np.ndarray:
    """Ranks of stacked singular values ``s``, shape ``(K, ..., m)``; each
    of the K leading-axis groups is cut together at
    tol * max(sigma_max of the group, 100 eps / tol)."""
    sigma_max = s.reshape(len(s), -1).max(axis=1)
    cut = tol * np.maximum(sigma_max, _NOISE_FLOOR / tol)
    return (s > cut.reshape((-1,) + (1,) * (s.ndim - 1))).sum(axis=-1)


def _ladders(shifted: np.ndarray, tol: float):
    """The power ladders (see :class:`_PowerLadder`) of the stack
    ``shifted`` (K, n, n) of finite matrices, in one stacked SVD of the
    matrices and, when one of them is rank-deficient, one of the powers
    2..n of all of them.

    Returns ``(u, s, vh, cutoff, ranks, powers)``: the full SVD of each
    matrix and its cut, ``ranks`` (K, n + 1) the ranks r_0 = n, r_1..r_n
    of its powers (n throughout when no power is formed), and ``powers``
    the left singular vectors (n - 1, K, n, n) of the powers 2..n, or None.
    A norm beyond the double range raises NonFiniteError.
    """
    n = shifted.shape[-1]
    u, s, vh = np.linalg.svd(shifted)
    norm = s[:, 0]
    if not np.isfinite(norm).all():
        raise NonFiniteError(cmatrix._NORM_OUT_OF_RANGE)
    cutoff = cmatrix._cutoffs(norm, tol)
    unit = _unit_denoised(s, cutoff[:, None],
                          np.maximum(norm, cmatrix._ABS_FLOOR)[:, None])
    ranks = np.full((len(s), n + 1), n)
    ranks[:, 1] = _cut_ranks(unit[:, None], tol)[:, 0]
    powers = None
    if n > 1 and (ranks[:, 1] < n).any():
        first = (u * unit[:, None]) @ vh
        stack = [first]
        for _ in range(2, n + 1):
            stack.append(stack[-1] @ first)
        powers, ps, _ = np.linalg.svd(np.array(stack[1:]))
        ranks[:, 2:] = _cut_ranks(ps.reshape(-1, n), tol).reshape(n - 1, -1).T
    return u, s, vh, cutoff, ranks, powers


def _power_drops(ranks: np.ndarray) -> np.ndarray:
    """The drops (K, n, 1) of the ranks (K, n + 1) of :func:`_ladders`."""
    return (ranks[:, :-1] - ranks[:, 1:])[..., None]


def _weyr(drops: np.ndarray) -> list:
    """Read the rank drops ``drops`` (K, L, c) of K items at once. Row
    k - 1 of each column counts the chains of length >= k.

    An item is read up to its plateau, the first row where every column has
    stopped falling (L when none has). Item i is ``(plateau, chains, bad)``:
    ``chains`` the ``(length, column)`` of each chain, longest first and in
    column order at one length, and ``bad`` when a rank rises or fewer
    chains reach length k than k + 1.
    """
    live = np.logical_and.accumulate(drops.any(axis=2), axis=1)
    exactly = drops * live[..., None]
    exactly[:, :-1] -= exactly[:, 1:]
    # a count of length >= k sums exact counts, so it is >= 0 when they are
    bad = (exactly < 0).any(axis=(1, 2))
    return [(plateau, [(k, j) for k in range(len(counts), 0, -1)
                       for j, count in enumerate(counts[k - 1])
                       for _ in range(count)], flag)
            for plateau, counts, flag in zip(
                live.sum(axis=1).tolist(), exactly.tolist(), bad.tolist())]


def _read_powers(ranks: list[int], reading) -> tuple:
    """The ranks [r_1, r_2, ...] of one matrix's [r_0, ..., r_n] up to the
    first repeat, and, from its :func:`_weyr` ``reading``, its descending
    block sizes or the RankSequenceError of ranks that fit none (H^k cut
    against its own norm can rise when the scales of H differ by about
    the tolerance)."""
    plateau, chains, bad = reading
    ranks = ranks[1:plateau + 2]
    if bad:
        return ranks, RankSequenceError(
            f"ranks {ranks} of successive powers fit no Jordan structure")
    return ranks, [k for k, _ in chains]


class _PowerLadder:
    """Ranks and images of the powers of the unit-norm, denoised (H - E).

    One SVD of (H - E) gives its kernel and norm; the singular directions
    below tol * ||H - E|| are zeroed in it before it is divided by its norm,
    so directions the working tolerance declares zero (e.g. the residual
    coupling at a refined-but-inexact degeneracy point) are removed before
    any power can amplify or smear them. That factorisation is the first
    power's; when the first power is rank-deficient, powers 2..n are formed
    and factorised in one stacked SVD. Each power is cut by
    :func:`_cut_ranks`: self-relative, so that small but genuine powers of
    badly scale-mixed matrices keep their rank, and never below the
    rounding noise of k products, so that powers which vanish exactly count
    as zero. This is the one-matrix case of :func:`_ladders`.

    ``a`` is a matrix its caller has validated, so none of the arrays built
    from it is checked again; a non-finite shift E raises NonFiniteError
    before H - E is formed.
    """

    def __init__(self, a: np.ndarray, e: complex, tol: float):
        if not np.isfinite(complex(e)):
            raise NonFiniteError(f"the shift {e} is not finite")
        self.n = n = a.shape[0]
        self.tol = tol
        self.shifted = a - complex(e) * np.eye(n)
        u, s, vh, cutoff, ranks, powers = _ladders(self.shifted[None], tol)
        base = cmatrix.SVD(u[0], s[0], vh[0], float(cutoff[0]))
        self.norm = base.norm
        self.kernel = base.kernel
        self._ranks = ranks
        us = [base.u] if powers is None else [base.u, *powers[:, 0]]
        self._images = [np.eye(n, dtype=np.complex128)] + [
            u[:, :r] for u, r in zip(us, ranks[0, 1:].tolist())]

    def image(self, k: int) -> np.ndarray:
        """Orthonormal columns spanning im((H - E)^k); k = 0 gives I."""
        return self._images[k]

    def read(self) -> tuple:
        """:func:`_read_powers` of the ranks of the powers."""
        [reading] = _weyr(_power_drops(self._ranks))
        return _read_powers(self._ranks[0].tolist(), reading)


@dataclass
class EigenvalueCluster:
    """A group of numerically coincident eigenvalues."""

    center: complex
    algebraic_multiplicity: int
    member_indices: list[int]


@dataclass
class JordanStructure:
    """Jordan data of one eigenvalue: block sizes (descending) and chains.

    ``chains[i]`` is the list ``[e_1, ..., e_k]`` for the i-th block, with
    (H - E) e_1 = 0 and (H - E) e_j = e_{j-1}. e_1 is unit-norm; the later
    vectors keep the scale the chain equations dictate.
    """

    eigenvalue: complex
    block_sizes: list[int]
    chains: list[list[np.ndarray]] = field(default_factory=list)

    @property
    def algebraic_multiplicity(self) -> int:
        return sum(self.block_sizes)

    @property
    def geometric_multiplicity(self) -> int:
        return len(self.block_sizes)


@dataclass
class EPReport:
    """Full-spectrum report: one (cluster, JordanStructure) entry per cluster.

    ``flag`` is "simple" when exactly one nontrivial Jordan block exists in
    the whole spectrum, "compound" when there are two or more (also when both
    sit at the same eigenvalue, as for a doublet of 2-blocks at zero), and
    "none" when every block is trivial.
    """

    entries: list[tuple[EigenvalueCluster, JordanStructure]]
    flag: str


def cluster_eigenvalues(eigenvalues, cluster_tol: float) -> list[EigenvalueCluster]:
    """Single-linkage clustering of eigenvalues in the complex plane.

    Deterministic given input order: clusters are reported in order of
    their smallest member index, members in index order. The clusters are
    the connected components of the "at most ``cluster_tol`` apart" graph,
    found by squaring its reachability matrix until it stops growing.
    """
    if not cluster_tol > 0:
        raise ValueError("cluster_tol must be positive")
    values = np.array([complex(x) for x in eigenvalues], dtype=np.complex128)
    if not len(values):
        return []
    reach = np.abs(values[:, None] - values) <= cluster_tol
    np.fill_diagonal(reach, True)  # a NaN is its own cluster
    while True:
        grown = reach @ reach
        if (grown == reach).all():
            break
        reach = grown
    # each cluster is named by its smallest member index, its own root
    roots = reach.argmax(axis=1)
    clusters = []
    for root in np.flatnonzero(roots == np.arange(len(values))):
        members = np.flatnonzero(roots == root)
        center = complex(np.mean(values[members]))
        clusters.append(EigenvalueCluster(center, len(members), members.tolist()))
    return clusters


def rank_sequence(h, e: complex, tol: float = DEFAULT_TOL) -> list[int]:
    """Ranks [r_1, r_2, ...] of powers (H - E)^k until the plateau."""
    return _PowerLadder(as_square_matrix(h), e, tol).read()[0]


def _subspace_intersection(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of span(a) ∩ span(b); a, b have orthonormal columns.

    The singular values of (I - b b^H) a are the principal-angle sines
    between span(a) and span(b), so a direction of span(a) is shared when
    its sine is at most ``tol``, as in :func:`cmatrix.subspace_equal`.
    """
    if a.shape[1] == 0:
        return a
    outside = a - b @ (b.conj().T @ a)
    return a @ cmatrix._cut(*np.linalg.svd(outside), tol, 1.0).kernel


def _restricted_minnorm_solve(op: np.ndarray, rhs: np.ndarray, basis: np.ndarray):
    """Minimum-norm x in span(basis) with op @ x ~= rhs (least squares)."""
    coeff, _, _, _ = np.linalg.lstsq(op @ basis, rhs, rcond=None)
    if not np.all(np.isfinite(coeff)):
        raise ChainSolveFailedError("chain vector is not representable")
    x = basis @ coeff
    residual = float(np.linalg.norm(op @ x - rhs))
    return x, residual


def jordan_chain(h, e: complex, length: int, seed_vector=None,
                 tol: float = DEFAULT_TOL):
    """Generalized-eigenvector chain e_1..e_length at eigenvalue ``e``.

    The seed e_1 must lie in ker(H - E); if omitted it is chosen from
    ker(H - E) ∩ im((H - E)^(length-1)), the directions that admit a chain
    of the requested length. Each later vector is the minimum-norm solution
    of (H - E) x = e_{j-1} restricted to im((H - E)^(length-j)), so the
    result is deterministic, and each chain equation holds to
    DEFAULT_CHAIN_FRACTION * ||H - E|| * ||x||, a bound that scales with
    the chain vectors, which grow like ||H - E||^-(j-1).
    """
    a = as_square_matrix(h)
    n = a.shape[0]
    if not 1 <= length <= n:
        raise ChainSolveFailedError(f"chain length {length} out of range for n={n}")
    ladder = _PowerLadder(a, e, tol)
    if ladder.kernel.shape[1] == 0:
        raise NotAnEigenvalueError(f"{e} is not an eigenvalue at tol={tol}")
    return _chain(ladder, length, seed_vector)


def _chain(ladder: _PowerLadder, length: int, seed_vector):
    n = ladder.n
    # the residual bound of a chain vector of unit norm
    unit_tol = DEFAULT_CHAIN_FRACTION * ladder.norm
    if seed_vector is not None:
        seed = np.asarray(seed_vector, dtype=np.complex128).reshape(n)
        nrm = np.linalg.norm(seed)
        if nrm < 1e-14:
            raise SeedNotInKernelError("seed vector has zero norm")
        seed = seed / nrm
        resid = np.linalg.norm(ladder.shifted @ seed)
        if resid > max(unit_tol, 10 * ladder.tol * ladder.norm):
            raise SeedNotInKernelError(
                f"seed is not in ker(H - E): residual {resid:.3e}"
            )
    else:
        inter = _subspace_intersection(
            ladder.kernel, ladder.image(length - 1), ladder.tol)
        if inter.shape[1] == 0:
            raise ChainSolveFailedError(
                f"no kernel direction admits a chain of length {length}"
            )
        seed = inter[:, 0]

    chain = [seed]
    for j in range(2, length + 1):
        x, residual = _restricted_minnorm_solve(
            ladder.shifted, chain[-1], ladder.image(length - j))
        # hypot keeps the norm of a vector of a tiny H - E from overflowing
        chain_tol = unit_tol * math.hypot(*np.abs(x))
        if not residual <= chain_tol:  # a NaN residual fails too
            raise ChainSolveFailedError(
                f"chain equation at level {j} has residual {residual:.3e} "
                f"(chain_tol {chain_tol:.3e})"
            )
        chain.append(x)
    return chain


def jordan_structure(h, e: complex, tol: float = DEFAULT_TOL,
                     with_chains: bool = True) -> JordanStructure:
    """Block sizes and chains of the generalized eigenspace at ``e``."""
    a = as_square_matrix(h)
    n = a.shape[0]
    ladder = _PowerLadder(a, e, tol)
    ranks, sizes = ladder.read()
    if ranks[0] == n:
        raise NotAnEigenvalueError(f"{e} is not an eigenvalue at tol={tol}")
    if isinstance(sizes, RankSequenceError):
        raise sizes
    structure = JordanStructure(complex(e), sizes)
    if not with_chains:
        return structure

    kern = ladder.kernel
    used_seeds = np.zeros((n, 0), dtype=np.complex128)
    for size in sizes:
        if size == 1:
            candidates = kern
        else:
            candidates = _subspace_intersection(kern, ladder.image(size - 1), tol)
        # Remove directions already consumed by earlier (larger) blocks.
        if used_seeds.shape[1] and candidates.shape[1]:
            rest = candidates - used_seeds @ (used_seeds.conj().T @ candidates)
            candidates = cmatrix._cut(*np.linalg.svd(rest), tol, 1.0).image
        if candidates.shape[1] == 0:
            raise ChainSolveFailedError(
                f"could not find an independent seed for a block of size {size}"
            )
        seed = candidates[:, 0]
        structure.chains.append(_chain(ladder, size, seed))
        used_seeds = np.hstack([used_seeds, seed.reshape(-1, 1)])
    return structure


def ep_report(h, tol: float = DEFAULT_TOL) -> EPReport:
    """Cluster the spectrum within DEFAULT_CLUSTER_FRACTION * ||H|| and
    report the Jordan structure per cluster."""
    a = as_square_matrix(h)
    hnorm = max(np.linalg.norm(a, 2), cmatrix._ABS_FLOOR)
    w, v = cmatrix.eig(a)
    clusters = cluster_eigenvalues(w, DEFAULT_CLUSTER_FRACTION * hnorm)
    entries = []
    nontrivial_blocks = 0
    for cl in clusters:
        if cl.algebraic_multiplicity == 1:
            idx = cl.member_indices[0]
            structure = JordanStructure(cl.center, [1], [[v[:, idx]]])
        else:
            structure = jordan_structure(a, cl.center, tol)
        entries.append((cl, structure))
        nontrivial_blocks += sum(1 for s in structure.block_sizes if s > 1)
    if nontrivial_blocks == 0:
        flag = "none"
    elif nontrivial_blocks == 1:
        flag = "simple"
    else:
        flag = "compound"
    return EPReport(entries, flag)
