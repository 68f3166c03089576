"""Eigenvalue clustering, Jordan block detection, and chain construction.

Jordan structure at E is read by deflation, the nilpotent step of
Kågström & Ruhe (ACM TOMS 6:398, 1980) and of GUPTRI (Demmel & Kågström,
ACM TOMS 19, 1993): :func:`_staircase` factorises (H - E), counts its
kernel at tol * ||H - E||, compresses it onto the complement of that
kernel and factorises again, with that one cutoff, until no kernel is
left. Level k counts the blocks of size >= k (the Weyr characteristic),
so rank((H - E)^k) is n less the first k counts; as every level is cut
once, the counts fit a Jordan structure by construction. One stacked
reader, :func:`_weyr`, turns them into chains, for the classifier too.

Chains are built bottom-up from a kernel seed, but each solve is restricted
to the image of the appropriate power of (H - E) so the chain is guaranteed
to extend to its full length; within that restriction the minimum-norm
solution is taken. This is the deterministic gauge all chain output carries:
generalized eigenvectors are defined only up to kernel additions, and the
image-restricted minimum-norm representative pins them down. Seeds come
from ker(H - E) ∩ im((H - E)^(k-1)), less the seeds of earlier blocks.
Each image, intersection and seed removal is one SVD that keeps as many
directions as the staircase counts, so no second cut is made.
"""

import itertools
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
from .sublattice import _pow2_rows

#: Cluster radius as a fraction of ||H||; looser than the rank tolerance
#: because eigenvalues of a near-defective matrix scatter as eps**(1/k).
DEFAULT_CLUSTER_FRACTION = 1e-7

#: Residual bound of the chain equation (H - E) x = e_{j-1}, as a
#: fraction of ||H - E|| * ||x||; a rank tolerance above 1e-7 raises the
#: fraction to 10 * tol, as a block cut at tol * ||H - E|| needs.
DEFAULT_CHAIN_FRACTION = 1e-6


def _staircase(u, s, vh, cutoff, dims) -> np.ndarray:
    """Kernel counts, level by level, of the deflation of c stacks of K
    square matrices, from their full SVDs ``u, s, vh`` (c, K, n, n) and
    (c, K, n), cutoffs (c, K) and the dimensions ``dims`` of their domains,
    which broadcast to (c, K); a matrix on a smaller domain comes
    zero-padded to n x n.

    Matrix i maps into the domain of matrix c - 1 - i: H - E alone, the
    cycle (B, B'), or both cycles around an H, (B, H, B'). A level counts
    the kernel of each matrix on what is left of its domain, compresses it
    onto the complements of the kernels, M <- V_next^H M V, as one product
    of its singular factors with the deflated rows and columns zeroed, and
    factorises again; every level is cut at the first one's cutoff, until
    no kernel is left. Returns the counts (K, n, c), zero after the last
    level.
    """
    c, k, n = s.shape
    cutoff = cutoff[..., None]
    ranks = [np.zeros((c, k), dtype=int) + dims]
    live = ranks[0].ravel().tolist()
    while True:
        keep = s > cutoff
        ranks.append(keep.sum(axis=-1))
        left = ranks[-1].ravel().tolist()
        # what is left of every domain fits in the leading m coordinates
        m = max(left)
        if left == live or not m or len(ranks) > n:
            break
        live = left
        keep = keep[..., :m]
        u, s, vh = np.linalg.svd((vh[..., :m, :] * keep[..., None])[::-1]
                                 @ (u[..., :m] * (s[..., :m] * keep)[..., None, :]))
    ranks = np.array(ranks)
    counts = np.zeros((n, c, k), dtype=int)
    counts[:len(ranks) - 1] = ranks[:-1] - ranks[1:]
    return counts.transpose(2, 0, 1)


def _weyr(drops: np.ndarray) -> list:
    """Read the counts ``drops`` (K, L, c) of K items at once, such as the
    kernels of a staircase or the drops of a rank sequence. Row k - 1 of
    each column counts the chains of length >= k.

    An item is read up to its plateau, the first row where every column
    counts none (L when there is none). Item i is ``(plateau, chains,
    bad)``: ``chains`` the ``(length, column)`` of each chain, longest
    first and in column order at one length, and ``bad`` when a count is
    negative or fewer chains reach length k than k + 1.
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


def _read_powers(n: int, counts: np.ndarray, reading) -> tuple:
    """The ranks [r_1, r_2, ...] of the powers of an n x n matrix whose
    staircase counts ``counts`` (L,), up to the first repeat, and, from
    its :func:`_weyr` ``reading``, its descending block sizes or the
    RankSequenceError of counts that fit none (a count that grows)."""
    plateau, chains, bad = reading
    ranks = (n - np.cumsum(counts))[:plateau + 1].tolist()
    if bad:
        return ranks, RankSequenceError(
            f"ranks {ranks} of successive powers fit no Jordan structure")
    return ranks, [k for k, _ in chains]


class _PowerLadder:
    """Staircase counts, kernel and power images of (H - E).

    One SVD of (H - E) gives its kernel and norm and is the first level of
    :func:`_staircase`, cut at tol * ||H - E||; ``counts[k - 1]`` is the
    number of blocks of size >= k. Only chains need the images of the
    powers, so :meth:`image` forms the powers of (H - E) with the singular
    directions under its cutoff zeroed (the residual coupling at a
    refined-but-inexact degeneracy point, say, which a power would smear)
    and divided by its norm, so that none can underflow or overflow. The
    image of the k-th power is its leading rank((H - E)^k) left singular
    vectors, with the rank the staircase counts.

    ``a`` is a matrix its caller has validated, so none of the arrays built
    from it is checked again; a non-finite shift E raises NonFiniteError
    before H - E is formed.
    """

    def __init__(self, a: np.ndarray, e: complex, tol: float):
        if not np.isfinite(complex(e)):
            raise NonFiniteError(f"the shift {e} is not finite")
        self.n = n = a.shape[0]
        self.e, self.tol = e, tol
        self.shifted = a - complex(e) * np.eye(n)
        self._base = base = cmatrix._cut(*np.linalg.svd(self.shifted), tol)
        self.norm = base.norm
        self.kernel = base.kernel
        self.counts = _staircase(base.u[None, None], base.s[None, None],
                                 base.vh[None, None],
                                 np.array([[base.cutoff]]), n)[0, :, 0]
        self._ranks = n - np.cumsum(self.counts)
        self._images = [np.eye(n, dtype=np.complex128), base.image]

    def image(self, k: int) -> np.ndarray:
        """Orthonormal columns spanning im((H - E)^k); k = 0 gives I."""
        have = len(self._images)
        if k >= have:
            base = self._base
            unit = np.where(base.s > base.cutoff,
                            base.s / max(base.norm, cmatrix._ABS_FLOOR), 0.0)
            first = (base.u * unit) @ base.vh
            powers = [first]
            for _ in range(2, k + 1):
                powers.append(powers[-1] @ first)
            us = np.linalg.svd(np.array(powers[have - 1:]))[0]
            self._images += [u[:, :r] for u, r in
                             zip(us, self._ranks[have - 1:k].tolist())]
        return self._images[k]

    def read(self) -> tuple:
        """:func:`_read_powers` of the staircase counts."""
        [reading] = _weyr(self.counts[None, :, None])
        return _read_powers(self.n, self.counts, reading)


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
    """Ranks [r_1, r_2, ...] of powers (H - E)^k until the plateau, cut at
    tol * ||H - E||; like :func:`jordan_structure`, at a shift within that
    distance of the spectrum of a large block they read a block."""
    return _PowerLadder(as_square_matrix(h), e, tol).read()[0]


def _subspace_intersection(a: np.ndarray, b: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` orthonormal directions of span(a) nearest span(b);
    a, b have orthonormal columns.

    The singular values of (I - b b^H) a are the principal-angle sines
    between span(a) and span(b); the directions of the ``count`` smallest
    are kept. With ``count`` the dimension of span(a) ∩ span(b), as the
    staircase counts it, they span the intersection.
    """
    outside = a - b @ (b.conj().T @ a)
    return a @ np.linalg.svd(outside)[2][a.shape[1] - count:].conj().T


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
    of the requested length. A given seed is divided by the power of two
    above its largest real or imaginary part, which is exact, so its scale
    is free: only an all-zero seed is refused, and a non-finite entry
    raises NonFiniteError. Each later vector is the minimum-norm solution
    of (H - E) x = e_{j-1} restricted to im((H - E)^(length-j)), so the
    result is deterministic, and each chain equation holds to
    max(DEFAULT_CHAIN_FRACTION, 10 * tol) * ||H - E|| * ||x||, a bound
    that scales with the chain vectors, which grow like ||H - E||^-(j-1),
    and loosens with the cut that made the block; a given seed must hold
    (H - E) e_1 = 0 to the same bound at unit norm.
    """
    a = as_square_matrix(h)
    n = a.shape[0]
    if not 1 <= length <= n:
        raise ChainSolveFailedError(f"chain length {length} out of range for n={n}")
    ladder = _PowerLadder(a, e, tol)
    if ladder.kernel.shape[1] == 0:
        raise NotAnEigenvalueError(f"{e} is not an eigenvalue at tol={tol}")
    if seed_vector is not None:
        seed_vector = _pow2_rows(np.reshape(seed_vector, n))
    return _chain(ladder, length, seed_vector)


def _chain(ladder: _PowerLadder, length: int, seed_vector):
    # the residual bound of a chain vector of unit norm, the seed's too
    unit_tol = max(DEFAULT_CHAIN_FRACTION, 10 * ladder.tol) * ladder.norm
    if seed_vector is not None:
        nrm = np.linalg.norm(seed_vector)
        if nrm == 0:
            raise SeedNotInKernelError("seed vector has zero norm")
        seed = seed_vector / nrm
        resid = np.linalg.norm(ladder.shifted @ seed)
        if resid > unit_tol:
            raise SeedNotInKernelError(
                f"seed is not in ker(H - E): residual {resid:.3e}"
            )
    else:
        count = int(ladder.counts[length - 1])
        if count == 0:
            raise ChainSolveFailedError(
                f"no kernel direction admits a chain of length {length}"
            )
        seed = _subspace_intersection(
            ladder.kernel, ladder.image(length - 1), count)[:, 0]

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
    """Block sizes and chains of the generalized eigenspace at ``e``.

    The blocks are read at tol * ||H - E||, so a shift that is no
    eigenvalue but lies within that distance of the spectrum of a large
    block (a pseudo-eigenvalue) reads a block, not NotAnEigenvalueError;
    ask at the centres of eigenvalue clusters, as :func:`ep_report` does.
    """
    return _structure(_PowerLadder(as_square_matrix(h), e, tol), with_chains)


def _structure(ladder: _PowerLadder, with_chains: bool = True) -> JordanStructure:
    """:func:`jordan_structure` read from a ladder already built. The seed
    space of the blocks of size k, ker(H - E) ∩ im((H - E)^(k - 1)), of
    dimension counts[k - 1], is computed once for all of them; the seed
    of the i-th of them is the leading direction of that space less the
    i - 1 seeds before it, so one always exists."""
    ranks, sizes = ladder.read()
    if ranks[0] == ladder.n:
        raise NotAnEigenvalueError(
            f"{ladder.e} is not an eigenvalue at tol={ladder.tol}")
    if isinstance(sizes, RankSequenceError):
        raise sizes
    structure = JordanStructure(complex(ladder.e), sizes)
    if not with_chains:
        return structure

    used = np.zeros((ladder.n, 0), dtype=np.complex128)
    for size, blocks in itertools.groupby(sizes):
        space = ladder.kernel if size == 1 else _subspace_intersection(
            ladder.kernel, ladder.image(size - 1), int(ladder.counts[size - 1]))
        for _ in blocks:
            # less the directions of the seeds of earlier blocks
            rest = space - used @ (used.conj().T @ space)
            seed = (np.linalg.svd(rest)[0] if used.shape[1] else space)[:, 0]
            structure.chains.append(_chain(ladder, size, seed))
            used = np.hstack([used, seed[:, None]])
    return structure


def _spectrum(a: np.ndarray) -> tuple:
    """``(norm, w, v, clusters)`` of a validated square matrix ``a``: its
    spectral norm, floored at the absolute floor, its eigenvalues and
    unit eigenvectors from np.linalg.eig, and their clusters within
    DEFAULT_CLUSTER_FRACTION * norm."""
    norm = max(np.linalg.norm(a, 2), cmatrix._ABS_FLOOR)
    w, v = np.linalg.eig(a)
    return norm, w, v, cluster_eigenvalues(w, DEFAULT_CLUSTER_FRACTION * norm)


def ep_report(h, tol: float = DEFAULT_TOL) -> EPReport:
    """Cluster the spectrum within DEFAULT_CLUSTER_FRACTION * ||H|| and
    report the Jordan structure per cluster, read at its centre from H as
    validated once."""
    a = as_square_matrix(h)
    _, _, v, clusters = _spectrum(a)
    entries = [(cl, JordanStructure(cl.center, [1], [[v[:, cl.member_indices[0]]]])
                if cl.algebraic_multiplicity == 1
                else _structure(_PowerLadder(a, cl.center, tol)))
               for cl in clusters]
    nontrivial = sum(size > 1 for _, s in entries for size in s.block_sizes)
    return EPReport(entries, ("none", "simple", "compound")[min(nontrivial, 2)])
