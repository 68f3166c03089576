"""Eigenvalue clustering, Jordan block detection, and chain construction.

Block sizes are read off the rank sequence r_k = rank((H - E)^k): the number
of blocks of size >= k equals r_{k-1} - r_k. (H - E) is factorised once; that
one SVD gives its kernel, its norm, and a unit-norm, denoised copy whose
powers are each factorised once more, with the rank cutoff
tol * max(sigma_max, 100 eps / tol). No overall magnitude of H can then
underflow or overflow a power.

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

from dataclasses import dataclass, field

import numpy as np

from . import cmatrix
from .cmatrix import DEFAULT_TOL, as_square_matrix
from .errors import ChainSolveFailedError, NotAnEigenvalueError, SeedNotInKernelError

#: Cluster radius as a fraction of ||H||; looser than the rank tolerance
#: because eigenvalues of a near-defective matrix scatter as eps**(1/k).
DEFAULT_CLUSTER_FRACTION = 1e-7

#: Chain residual bound as a fraction of ||H||.
DEFAULT_CHAIN_FRACTION = 1e-6

#: Floating-point noise accumulated by k products of a unit-norm matrix
#: stays below 100 eps; singular values under that floor are fp debris.
_NOISE_FLOOR = 100 * np.finfo(float).eps


class _PowerLadder:
    """Powers of the unit-norm, denoised (H - E), each factorised once.

    One SVD of (H - E) gives its kernel and norm; the singular directions
    below tol * ||H - E|| are zeroed in it before it is divided by its norm,
    so directions the working tolerance declares zero (e.g. the residual
    coupling at a refined-but-inexact degeneracy point) are removed before
    any power can amplify or smear them. The k-th power is cut at
    tol * max(sigma_max, 100 eps / tol): self-relative, so that small but
    genuine powers of badly scale-mixed matrices keep their rank, and never
    below the rounding noise of k products, so that powers which vanish
    exactly count as zero.
    """

    def __init__(self, a: np.ndarray, e: complex, tol: float):
        self.n = a.shape[0]
        self.tol = tol
        self.shifted = a - complex(e) * np.eye(self.n)
        base = cmatrix.factorize(self.shifted, tol)
        self.norm = base.norm
        self.kernel = base.kernel
        kept = np.where(base.s > base.cutoff,
                        base.s / max(base.norm, cmatrix._ABS_FLOOR), 0.0)
        self._powers = [np.eye(self.n, dtype=np.complex128), (base.u * kept) @ base.vh]
        self._factors = {1: self._cut(cmatrix.SVD(base.u, kept, base.vh, 0.0))}

    def _cut(self, f: cmatrix.SVD) -> cmatrix.SVD:
        return f.recut(self.tol, max(f.norm, _NOISE_FLOOR / self.tol))

    def factor(self, k: int) -> cmatrix.SVD:
        """Factorisation of the k-th power (k >= 1), computed once."""
        while len(self._powers) <= k:
            self._powers.append(self._powers[-1] @ self._powers[1])
        if k not in self._factors:
            self._factors[k] = self._cut(cmatrix.factorize(self._powers[k], self.tol))
        return self._factors[k]

    def image(self, k: int) -> np.ndarray:
        """Orthonormal columns spanning im((H - E)^k); k = 0 gives I."""
        if k == 0:
            return np.eye(self.n, dtype=np.complex128)
        return self.factor(k).image.vectors

    def ranks(self) -> list[int]:
        """Ranks [r_1, r_2, ...] of the powers until the plateau."""
        ranks = []
        prev = self.n
        for k in range(1, self.n + 1):
            r = self.factor(k).rank
            ranks.append(r)
            if r == prev:
                break
            prev = r
        return ranks


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


def cluster_eigenvalues(eigenpairs, cluster_tol: float) -> list[EigenvalueCluster]:
    """Single-linkage clustering of eigenvalues in the complex plane.

    ``eigenpairs`` may be a list of (eigenvalue, eigenvector) pairs or plain
    eigenvalues. Deterministic given input order: clusters are reported in
    order of their smallest member index, ties in linkage broken by index.
    """
    if cluster_tol <= 0:
        raise ValueError("cluster_tol must be positive")
    values = []
    for item in eigenpairs:
        if isinstance(item, tuple):
            values.append(complex(item[0]))
        else:
            values.append(complex(item))
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= cluster_tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for root in sorted(groups):
        members = groups[root]
        center = complex(np.mean([values[i] for i in members]))
        clusters.append(EigenvalueCluster(center, len(members), members))
    return clusters


def rank_sequence(h, e: complex, tol: float = DEFAULT_TOL) -> list[int]:
    """Ranks [r_1, r_2, ...] of powers (H - E)^k until the plateau."""
    return _PowerLadder(as_square_matrix(h), e, tol).ranks()


def _block_sizes_from_ranks(n: int, ranks: list[int]) -> list[int]:
    """Descending block sizes; #blocks of size >= k is r_{k-1} - r_k."""
    full = [n] + list(ranks)
    while len(full) >= 2 and full[-1] == full[-2]:
        full.pop()
    # at_least[k-1] = number of blocks of size >= k
    at_least = [full[k - 1] - full[k] for k in range(1, len(full))]
    sizes = []
    for k in range(len(at_least), 0, -1):
        exactly_k = at_least[k - 1] - (at_least[k] if k < len(at_least) else 0)
        sizes.extend([k] * exactly_k)
    return sorted(sizes, reverse=True)


def _subspace_intersection(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of span(a) ∩ span(b); a, b have orthonormal columns.

    The singular values of (I - b b^H) a are the principal-angle sines
    between span(a) and span(b), so a direction of span(a) is shared when
    its sine is at most ``tol``, as in :func:`cmatrix.subspace_equal`.
    """
    if a.shape[1] == 0:
        return a
    outside = a - b @ (b.conj().T @ a)
    return a @ cmatrix.factorize(outside, tol, 1.0).kernel.vectors


def _restricted_minnorm_solve(op: np.ndarray, rhs: np.ndarray, basis: np.ndarray):
    """Minimum-norm x in span(basis) with op @ x ~= rhs (least squares)."""
    coeff, _, _, _ = np.linalg.lstsq(op @ basis, rhs, rcond=None)
    if not np.all(np.isfinite(coeff)):
        raise ChainSolveFailedError("chain vector is not representable")
    x = basis @ coeff
    residual = float(np.linalg.norm(op @ x - rhs))
    return x, residual


def _default_chain_tol(a: np.ndarray) -> float:
    return DEFAULT_CHAIN_FRACTION * max(np.linalg.norm(a, 2), cmatrix._ABS_FLOOR)


def jordan_chain(
    h,
    e: complex,
    length: int,
    seed_vector=None,
    tol: float = DEFAULT_TOL,
    chain_tol: float | None = None,
):
    """Generalized-eigenvector chain e_1..e_length at eigenvalue ``e``.

    The seed e_1 must lie in ker(H - E); if omitted it is chosen from
    ker(H - E) ∩ im((H - E)^(length-1)), the directions that admit a chain
    of the requested length. Each later vector is the minimum-norm solution
    of (H - E) x = e_{j-1} restricted to im((H - E)^(length-j)), so the
    chain equations hold to ``chain_tol`` and the result is deterministic.
    """
    a = as_square_matrix(h)
    n = a.shape[0]
    if not 1 <= length <= n:
        raise ChainSolveFailedError(f"chain length {length} out of range for n={n}")
    ladder = _PowerLadder(a, e, tol)
    if ladder.kernel.dim == 0:
        raise NotAnEigenvalueError(f"{e} is not an eigenvalue at tol={tol}")
    if chain_tol is None:
        chain_tol = _default_chain_tol(a)
    return _chain(ladder, length, seed_vector, chain_tol)


def _chain(ladder: _PowerLadder, length: int, seed_vector, chain_tol: float):
    n = ladder.n
    if seed_vector is not None:
        seed = np.asarray(seed_vector, dtype=np.complex128).reshape(n)
        nrm = np.linalg.norm(seed)
        if nrm < 1e-14:
            raise SeedNotInKernelError("seed vector has zero norm")
        seed = seed / nrm
        resid = np.linalg.norm(ladder.shifted @ seed)
        if resid > max(chain_tol, 10 * ladder.tol * ladder.norm):
            raise SeedNotInKernelError(
                f"seed is not in ker(H - E): residual {resid:.3e}"
            )
    else:
        inter = _subspace_intersection(
            ladder.kernel.vectors, ladder.image(length - 1), ladder.tol)
        if inter.shape[1] == 0:
            raise ChainSolveFailedError(
                f"no kernel direction admits a chain of length {length}"
            )
        seed = inter[:, 0]

    chain = [seed]
    for j in range(2, length + 1):
        x, residual = _restricted_minnorm_solve(
            ladder.shifted, chain[-1], ladder.image(length - j))
        if not residual <= chain_tol:  # a NaN residual fails too
            raise ChainSolveFailedError(
                f"chain equation at level {j} has residual {residual:.3e} "
                f"(chain_tol {chain_tol:.3e})"
            )
        chain.append(x)
    return chain


def jordan_structure(
    h,
    e: complex,
    tol: float = DEFAULT_TOL,
    chain_tol: float | None = None,
    with_chains: bool = True,
) -> JordanStructure:
    """Block sizes and chains of the generalized eigenspace at ``e``."""
    a = as_square_matrix(h)
    n = a.shape[0]
    ladder = _PowerLadder(a, e, tol)
    ranks = ladder.ranks()
    if ranks[0] == n:
        raise NotAnEigenvalueError(f"{e} is not an eigenvalue at tol={tol}")
    sizes = _block_sizes_from_ranks(n, ranks)
    structure = JordanStructure(complex(e), sizes)
    if not with_chains:
        return structure

    if chain_tol is None:
        chain_tol = _default_chain_tol(a)
    kern = ladder.kernel.vectors
    used_seeds = np.zeros((n, 0), dtype=np.complex128)
    for size in sizes:
        if size == 1:
            candidates = kern
        else:
            candidates = _subspace_intersection(kern, ladder.image(size - 1), tol)
        # Remove directions already consumed by earlier (larger) blocks.
        if used_seeds.shape[1] and candidates.shape[1]:
            rest = candidates - used_seeds @ (used_seeds.conj().T @ candidates)
            candidates = cmatrix.factorize(rest, tol, 1.0).image.vectors
        if candidates.shape[1] == 0:
            raise ChainSolveFailedError(
                f"could not find an independent seed for a block of size {size}"
            )
        seed = candidates[:, 0]
        structure.chains.append(_chain(ladder, size, seed, chain_tol))
        used_seeds = np.hstack([used_seeds, seed.reshape(-1, 1)])
    return structure


def ep_report(h, tol: float = DEFAULT_TOL, cluster_tol: float | None = None) -> EPReport:
    """Cluster the spectrum and report the Jordan structure per cluster."""
    a = as_square_matrix(h)
    hnorm = max(np.linalg.norm(a, 2), cmatrix._ABS_FLOOR)
    if cluster_tol is None:
        cluster_tol = DEFAULT_CLUSTER_FRACTION * hnorm
    pairs = cmatrix.eig(a)
    clusters = cluster_eigenvalues(pairs, cluster_tol)
    entries = []
    nontrivial_blocks = 0
    for cl in clusters:
        if cl.algebraic_multiplicity == 1:
            idx = cl.member_indices[0]
            structure = JordanStructure(cl.center, [1], [[pairs[idx][1]]])
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
