"""Algebraic classifier for zero-energy exceptional structure.

H = [[0, iB], [-iB', 0]] is odd under P = diag(I, -I): it maps each
sublattice onto the other. So a Jordan basis of H at E = 0 can be chosen
sublattice-pure, and each chain alternates between the sublattices. A
chain's eigenvector is (0, chi) with chi in ker B or (psi, 0) with psi in
ker B'; its k-th vector lies on the eigenvector's sublattice for odd k and
on the other one for even k. The chains are read by deflating the pair
(:func:`spectral._staircase`): level 1 counts ker B and ker B', then B is
compressed onto the complements of both kernels, from the complement of
ker B into that of ker B', and B' the other way, and the next level counts
their kernels, until none is left. With c_k and c'_k the kernels of the
deflated B and B' at level k,

    c_k    chains of length >= k with eigenvector in ker B for odd k,
           in ker B' for even k
    c'_k   chains of length >= k with eigenvector in ker B' for odd k,
           in ker B for even k

as c_k + c'_k is the k-th count of the staircase of H, whose kernel splits
between the sublattices at every level. The counts give every chain at
zero with its sublattice, for every N; every level is cut once, at tol
times the pair scale, so the counts fit a Jordan structure by
construction. The staircase of the pair and that of H, from its own SVD,
run in one stacked pass, and the counts of all pairs are read in one
:func:`spectral._weyr` call. The chain lengths name the kind:

    no zero mode                         -> Nondegenerate
    only chains of length 1              -> Diabolic
    a lone chain of length 2             -> EP2
    N chains of length 2                 -> DoubletEP2
    a 4-chain, other chains of length 1  -> EP4
    a 3-chain beside chains of length 1  -> EP3Mixed
    anything else                        -> Unclassified

EP3Mixed is the paper's odd-order EP, a mixture of even-order ones: at
the canonical pair it reads one 3-chain in ker B and one 1-chain in
ker B'. Every verdict is cross-checked against the Jordan blocks of the
assembled H, read by its own staircase; disagreement raises
CrossCheckMismatchError. Unclassified is a first-class answer:
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


def _around(pair, of_h):
    """The factors ``pair`` (2, K, ...) of B and B', zero-padded to the
    shape of those of H, ``of_h`` (K, ...), stacked around them: reversed,
    the stack (B, H, B') maps each matrix into the domain of its next."""
    n = pair.shape[-1]
    stack = np.zeros((3, *of_h.shape), dtype=of_h.dtype)
    stack[(slice(None, None, 2), ...) + (slice(n),) * (pair.ndim - 2)] = pair
    stack[1] = of_h
    return stack


def _classify_pairs(b, bprime, tol, reference=None):
    """:func:`classify_point` of each pair of the stacks ``b``, ``bprime``
    (K, N, N) of finite complex blocks, all pairs in one pass: the
    staircase of the cycle (B, B') of each pair, whose first level is the
    stacked SVD of the blocks, and the staircase of its H, from its own
    SVD, run together in one :func:`spectral._staircase` (one stacked SVD
    per level), and one :func:`spectral._weyr` reading of the chains and of
    the blocks of H.

    Item k is pair k's EPClassification, or the EpkitError that
    classify_point raises for it, with the same message; a pair that fails
    leaves the others as they are, and any other exception propagates.
    A pair whose H, 2N x 2N, is over the cap is refused unread.

    ``reference``, when given, is a magnitude below which a block counts as
    zero whatever the pair's own scale, such as the scale of the scan that
    found the pair: B and B' are cut at tol * max(scale, reference), and H
    in the same units. Without it, or at or below the pair's scale, the
    cuts are those of :func:`classify_point`. ``evidence["scale"]`` is the
    pair's own scale either way.
    """
    k, n = b.shape[0], b.shape[-1]
    if 2 * n > cmatrix.MAX_DIM:
        return [cmatrix._too_large(n if n > cmatrix.MAX_DIM else 2 * n)
                for _ in range(k)]
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
    top = scale if reference is None else np.maximum(scale, reference)
    cutoff = cmatrix._cutoffs(s[..., 0], tol, top)
    # H divided by the pair scale; a block at the absolute floor is zero
    # in H as in the chains
    scaled = np.array([b, bprime]) / scale[:, None, None]
    scaled[np.isinf(cutoff)] = 0
    h = np.linalg.svd(_fill(*scaled))
    norm, h_scale = h[1][:, 0], None
    if reference is not None:
        # H is cut where the blocks are, in units of the pair scale: at its
        # norm times top / scale, exactly its norm where the pair's scale is
        # the top (a zero H is all kernel at any unit; 0 * inf would be NaN)
        with np.errstate(over="ignore"):
            h_scale = norm * np.where(norm > 0, top / scale, 1.0)
    cutoff = np.array([cutoff[0], cmatrix._cutoffs(norm, tol, h_scale), cutoff[1]])
    # counts[:, k - 1]: the kernels of the deflated B, H and B' at level k.
    # Those of B and B' count the chains of length >= k in ker B and in
    # ker B' for odd k, and in ker B' and ker B for even k; those of H
    # count its blocks of size >= k
    counts = spectral._staircase(*map(_around, (u, s, vh), h), cutoff,
                                 np.array([[n], [2 * n], [n]]))
    drops = counts[..., ::2].copy()
    drops[:, 1::2] = drops[:, 1::2, ::-1]
    readings = spectral._weyr(np.concatenate([drops, counts[..., 1:2] * [1, 0]]))
    for j, i in enumerate(pairs):
        _, read, bad = readings[j]
        blocks = spectral._read_powers(
            2 * n, counts[j, :, 1], readings[len(pairs) + j])[1]
        chains = [{"length": length, "in_ker": ("B", "B'")[side]}
                  for length, side in read]
        lengths = [c["length"] for c in chains]
        if bad:
            lower, upper = (
                [n, *r] for r in (n - counts[j, :, ::2].cumsum(axis=0)).T.tolist())
            out[i] = RankSequenceError(
                f"ranks {lower} and {upper} "
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
    the pair and not against one block. The chains at zero are read from
    the kernels of the deflated B and B' (module docstring) and name the
    kind. ``evidence["chains"]`` lists them, longest first, each as
    ``{"length": k, "in_ker": "B" or "B'"}``. The chain lengths
    must equal the Jordan blocks at zero of the assembled H, read as
    :func:`spectral.jordan_structure` reads them; otherwise
    CrossCheckMismatchError (a tolerance pathology, not a physics answer)
    is raised. This is the one-pair case of the stacked reading that
    :func:`epkit.analysis.bz_scan` runs on all its candidates at once.
    A ``tol`` that is not positive raises ValueError once the blocks are
    validated, before any work.
    """
    b, bp = _pair(b, bprime)
    cmatrix._check_tol(tol)
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
    and only clusters of two or more get their Jordan block sizes read, at
    their centres, from the product as it was formed; no chain is built.
    A ``tol`` that is not positive raises ValueError once the blocks are
    validated, before any work.
    """
    b, bp = _pair(b, bprime)
    cmatrix._check_tol(tol)
    s = pow2_scale(b, bp)
    product = (b / s) @ (bp / s)
    scale, lams, _, clusters = spectral._spectrum(product)
    if any(abs(lam) <= tol * scale for lam in lams):
        raise ZeroEigenvaluePresentError(
            "B B' has a (near-)zero eigenvalue; use classify_point"
        )
    defective = [
        cl.center for cl in clusters if cl.algebraic_multiplicity > 1
        and max(spectral._structure(spectral._PowerLadder(
            product, cl.center, tol), with_chains=False).block_sizes) > 1
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
