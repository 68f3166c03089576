"""Algebraic classifier for zero-energy exceptional structure.

H = [[0, iB], [-iB', 0]] is odd under P = diag(I, -I): it maps each
sublattice onto the other. So a Jordan basis of H at E = 0 can be chosen
sublattice-pure, and each chain alternates between the sublattices. A
chain's eigenvector is (0, chi) with chi in ker B or (psi, 0) with psi in
ker B'; its k-th vector lies on the eigenvector's sublattice for odd k and
on the other one for even k. On the lower sublattice H^k acts, up to a
phase, as the alternating product of k blocks whose rightmost factor is B
(B, B'B, BB'B, ...), and on the upper one as the product whose rightmost
factor is B'. H^k annihilates the first k vectors of every chain, so with
r_k and r'_k the ranks of the two k-th products, and r_0 = r'_0 = N,

    r_{k-1} - r_k    chains of length >= k with eigenvector in ker B for
                     odd k, in ker B' for even k
    r'_{k-1} - r'_k  chains of length >= k with eigenvector in ker B' for
                     odd k, in ker B for even k

The ranks of the products give every chain at zero with its sublattice,
for every N, and r_k + r'_k = rank H^k; the drops of all pairs are read in
one :func:`spectral._weyr` call, together with those of the powers of
their H. The chain lengths name the kind:

    no zero mode                         -> Nondegenerate
    only chains of length 1              -> Diabolic
    a lone chain of length 2             -> EP2
    N chains of length 2                 -> DoubletEP2
    a 4-chain, other chains of length 1  -> EP4
    a 3-chain beside chains of length 1  -> EP3Mixed
    anything else                        -> Unclassified

EP3Mixed is the paper's odd-order EP, a mixture of even-order ones: at
the canonical pair it reads one 3-chain in ker B and one 1-chain in
ker B'. Every verdict is cross-checked against the Jordan blocks that
:mod:`spectral` reads off the powers of the assembled H; disagreement
raises CrossCheckMismatchError. Unclassified is a first-class answer:
generic perturbed inputs legitimately fall outside the exact taxonomy.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import cmatrix, spectral
from .cmatrix import DEFAULT_TOL
from .errors import (
    CrossCheckMismatchError,
    DimensionTooLargeError,
    EpkitError,
    NonFiniteError,
    RankSequenceError,
    ZeroEigenvaluePresentError,
)
from .sublattice import _factor_pairs, _fill, _pair, pow2_scale


class EPKind(str, Enum):
    EP2 = "EP2"
    DOUBLET_EP2 = "DoubletEP2"
    EP4 = "EP4"
    EP3_MIXED = "EP3Mixed"
    DIABOLIC = "Diabolic"
    NONZERO_EP2_PAIR = "NonzeroEnergyEP2Pair"
    NONDEGENERATE = "Nondegenerate"
    UNCLASSIFIED = "Unclassified"


@dataclass
class EPClassification:
    """Classifier verdict plus the evidence it rests on."""

    kind: EPKind
    evidence: dict

    def __str__(self):
        blocks = self.evidence.get("jordan_blocks_at_zero")
        extra = f", blocks {blocks}" if blocks else ""
        return f"{self.kind.value}{extra}"


def _kind_of_blocks(blocks, n):
    """The kind that the Jordan blocks at E = 0 of the assembled 2N x 2N
    Hamiltonian name (see the module docstring)."""
    nontrivial = [s for s in blocks if s > 1]
    if not blocks:
        return EPKind.NONDEGENERATE
    if not nontrivial:
        return EPKind.DIABOLIC
    if blocks == [2]:
        return EPKind.EP2
    if nontrivial == [4]:
        return EPKind.EP4
    if nontrivial == [3] and 1 in blocks:
        return EPKind.EP3_MIXED
    if nontrivial == [2] * n:
        return EPKind.DOUBLET_EP2
    return EPKind.UNCLASSIFIED


def _product_ranks(u, s, vh, cutoff, scale, tol):
    """The ranks (r_k, r'_k), k = 0..2N, of the alternating products of B
    and B' (module docstring) of each pair, shape (K, 2N + 1, 2), from the
    full SVDs ``u, s, vh`` of the pairs' blocks, stacked (2, K, ...) with
    B's first, their cutoffs (2, K) and the pair scales (K,).

    Each block is rebuilt at unit scale from its factorisation with the
    singular values under its cutoff zeroed, as the power ladder of
    :mod:`spectral` denoises H, and with the same helper. The k-th products
    of both sublattices are cut together by the cut of H^k,
    tol * max(sigma_max of both, 100 eps / tol). The products of all pairs
    are factorised in one stacked SVD.
    """
    unit = spectral._unit_denoised(s, cutoff[..., None], scale[:, None])
    pair = (u * unit[..., None, :]) @ vh
    k, n = pair.shape[1], pair.shape[-1]
    # products[j - 1]: the j-factor products whose rightmost factor is B, B'
    products = [pair]
    for j in range(2, 2 * n + 1):
        products.append((pair[::-1] if j % 2 == 0 else pair) @ products[-1])
    sv = np.linalg.svd(np.array(products), compute_uv=False)
    ranks = np.full((k, 2 * n + 1, 2), n)
    # cut each product of each pair with its partner: groups (j, pair)
    ranks[:, 1:] = spectral._cut_ranks(
        sv.swapaxes(1, 2).reshape(-1, 2, n), tol).reshape(2 * n, k, 2).swapaxes(0, 1)
    return ranks


def _too_large(dim):
    return DimensionTooLargeError(
        f"dimension {dim} exceeds the cap of {cmatrix.MAX_DIM}")


def _classify_pairs(b, bprime, tol):
    """:func:`classify_point` of each pair of the stacks ``b``, ``bprime``
    (K, N, N) of finite complex blocks, all pairs in one pass: one stacked
    SVD of the blocks, one of the alternating products, one each of the
    bases and the powers of the cross-check's ladders, and one
    :func:`spectral._weyr` reading of the chains and of the powers.

    Item k is pair k's EPClassification, or the EpkitError that
    classify_point raises for it, with the same message; a pair that fails
    leaves the others as they are, and any other exception propagates.
    """
    k, n = b.shape[0], b.shape[-1]
    if n > cmatrix.MAX_DIM:
        return [_too_large(n) for _ in range(k)]
    out = [None] * k
    u, s, vh, scale = _factor_pairs(b, bprime)
    # pairs[j] is the pair in row j of the stacks. A pair whose norms
    # overflow leaves them; one whose chains fail stays in them, and its
    # reading of H is ignored
    pairs = list(range(k))
    finite = np.isfinite(scale)
    if not finite.all():
        for i in np.flatnonzero(~finite):
            out[i] = NonFiniteError(cmatrix._NORM_OUT_OF_RANGE)
        pairs = np.flatnonzero(finite).tolist()
        if not pairs:
            return out
        b, bprime, u, s, vh, scale = (b[pairs], bprime[pairs], u[:, pairs],
                                      s[:, pairs], vh[:, pairs], scale[pairs])
    cutoff = cmatrix._cutoffs(s[..., 0], tol, scale)
    ranks = _product_ranks(u, s, vh, cutoff, scale, tol)
    # drops[:, k - 1]: chains of length >= k in ker B and in ker B'; for
    # even k the products ending in B' count those in ker B
    drops = ranks[:, :-1] - ranks[:, 1:]
    drops[:, 1::2] = drops[:, 1::2, ::-1]
    fits = 2 * n <= cmatrix.MAX_DIM  # H is 2N x 2N
    if fits:
        # the powers of each H, in the first column, are read with the
        # chains; a block at the absolute floor is zero in H as in them
        scaled = np.array([b, bprime]) / scale[:, None, None]
        scaled[np.isinf(cutoff)] = 0
        powers = spectral._ladders(_fill(*scaled), tol)[4]
        drops = np.concatenate([drops, spectral._power_drops(powers) * [1, 0]])
    readings = spectral._weyr(drops)
    found = ([spectral._read_powers(r, reading)[1] for r, reading
              in zip(powers.tolist(), readings[len(pairs):])] if fits
             else [_too_large(2 * n) for _ in pairs])
    for j, (i, blocks) in enumerate(zip(pairs, found)):
        _, read, bad = readings[j]
        chains = [{"length": length, "in_ker": ("B", "B'")[side]}
                  for length, side in read]
        lengths = [c["length"] for c in chains]
        if bad:
            out[i] = RankSequenceError(
                f"ranks {ranks[j, :, 0].tolist()} and {ranks[j, :, 1].tolist()} "
                "of the alternating products of B and B' fit no Jordan structure")
        elif isinstance(blocks, EpkitError):
            out[i] = blocks
        elif lengths != blocks:
            out[i] = CrossCheckMismatchError(
                f"B and B' give chains of lengths {lengths} but H has "
                f"zero-energy blocks {blocks}")
        else:
            sides = [c["in_ker"] for c in chains]
            out[i] = EPClassification(_kind_of_blocks(blocks, n), {
                "n": n,
                "scale": float(scale[j]),
                "dim_ker_b": sides.count("B"),
                "dim_ker_bprime": sides.count("B'"),
                "jordan_blocks_at_zero": blocks,
                "chains": chains,
            })
    return out


def classify_point(b, bprime, tol: float = DEFAULT_TOL) -> EPClassification:
    """Zero-energy verdict for a block pair of any N.

    Both blocks are measured against their common magnitude
    max(sigma_max(B), sigma_max(B')), so that "zero" means small against
    the pair and not against one block, and are divided by it, so that no
    product can underflow or overflow. The chains at zero are read from
    the ranks of the alternating products of B and B' (module docstring)
    and name the kind. ``evidence["chains"]`` lists them, longest first,
    each as ``{"length": k, "in_ker": "B" or "B'"}``. The chain lengths
    must equal the Jordan blocks at zero of the assembled H, read as
    :func:`spectral.jordan_structure` reads them; otherwise
    CrossCheckMismatchError (a tolerance pathology, not a physics answer)
    is raised. This is the one-pair case of the stacked reading that
    :func:`epkit.analysis.bz_scan` runs on all its candidates at once.
    """
    b, bp = _pair(b, bprime)
    [result] = _classify_pairs(b[None], bp[None], tol)
    if isinstance(result, EpkitError):
        raise result
    return result


def classify_zero_energy(b, bprime, tol: float = DEFAULT_TOL) -> EPClassification:
    """The N = 2 case of :func:`classify_point`; other N raise ValueError."""
    if np.shape(b) != (2, 2):
        raise ValueError("classify_zero_energy handles N = 2; see classify_point")
    return classify_point(b, bprime, tol)


def check_ep2n(b, bprime, tol: float = DEFAULT_TOL) -> bool:
    """Highest-order condition for general N, a single 2N-block at E = 0:
    the chain list of :func:`classify_point`, cross-checked there, is one
    chain of length 2N."""
    evidence = classify_point(b, bprime, tol).evidence
    return [c["length"] for c in evidence["chains"]] == [2 * evidence["n"]]


def classify_nonzero_energy(b, bprime, tol: float = DEFAULT_TOL) -> EPClassification:
    """Detect the doublet of 2-blocks at +-sqrt(lambda) for nonzero lambda.

    Defectiveness of B B' at some eigenvalue lambda != 0 forces identical
    defectiveness at both energies +-sqrt(lambda) of the assembled H, so the
    verdict is always a pair. The product is formed from the blocks divided
    by s = :func:`sublattice.pow2_scale`, and its eigenvalues are reported
    as they are, together with ``eigenvalue_scale_log2``, the exponent of
    s^2: lambda = value * 2**eigenvalue_scale_log2, and every reported value
    is finite and keeps its precision whatever the scale of the pair. The
    eigenvalues are clustered within DEFAULT_CLUSTER_FRACTION * ||product||,
    and only clusters of two or more get their Jordan block sizes read; no
    chain is built.
    """
    b, bp = _pair(b, bprime)
    s = pow2_scale(b, bp)
    product = (b / s) @ (bp / s)
    scale = max(np.linalg.norm(product, 2), cmatrix._ABS_FLOOR)
    lams, _ = cmatrix.eig(product)
    if any(abs(lam) <= tol * scale for lam in lams):
        raise ZeroEigenvaluePresentError(
            "B B' has a (near-)zero eigenvalue; use classify_point"
        )
    clusters = spectral.cluster_eigenvalues(
        lams, spectral.DEFAULT_CLUSTER_FRACTION * scale)
    defective = [
        cl.center for cl in clusters if cl.algebraic_multiplicity > 1
        and max(spectral.jordan_structure(product, cl.center, tol,
                                          with_chains=False).block_sizes) > 1
    ]
    evidence = {
        "n": b.shape[0],
        "eigenvalues": lams.tolist(),
        "defective_lambdas": defective,
        "eigenvalue_scale_log2": 2 * (math.frexp(s)[1] - 1),
        "doublet_energies": [
            (np.sqrt(lam) * s, -np.sqrt(lam) * s) for lam in defective
        ],
    }
    kind = EPKind.NONZERO_EP2_PAIR if defective else EPKind.NONDEGENERATE
    return EPClassification(kind, evidence)


def mixed_limit_family(kind: str, epsilon: float) -> np.ndarray:
    """The two 4 x 4 one-parameter families whose eps -> 0 limit is the
    mixed-type 3-block matrix diag(J3(0), 0).

    "ViaEP2" stays in the 2-block stratum for eps != 0 (one 2-block at zero
    plus simple eigenvalues eps and 2 eps); "ViaEP4" stays in the 4-block
    stratum. Both converge entrywise linearly in eps.
    """
    eps = float(epsilon)
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 1] = 1.0
    m[1, 2] = 1.0
    if kind == "ViaEP2":
        m[2, 2] = eps
        m[3, 3] = 2 * eps
    elif kind == "ViaEP4":
        m[2, 3] = eps
    else:
        raise ValueError(f"unknown family kind {kind!r}; use 'ViaEP2' or 'ViaEP4'")
    return m
