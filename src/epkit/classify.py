"""Algebraic classifier for zero-energy exceptional structure.

For N = 2 the decision procedure tests, in a fixed order, the kernel/image
relations between the blocks B and B':

    (a) both blocks full rank                -> Nondegenerate
    (b) B = 0 and B' proportional to I       -> DoubletEP2   (or the mirror)
    (c) dim ker B + dim ker B' = 1 and
        ker(B B') = im(B B')                 -> EP4
    (d) dim ker B = dim ker B' = 1 and
        im B' = ker B xor im B = ker B'      -> EP3Mixed
    (e) anything else                        -> Unclassified

The conditions are mutually exclusive in exact arithmetic; the fixed order
plus a Jordan-structure cross-check on the assembled 4 x 4 Hamiltonian makes
the numerical outcome reproducible. Unclassified is a first-class answer:
generic perturbed inputs legitimately fall outside the exact taxonomy.
"""

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import cmatrix, spectral
from .cmatrix import DEFAULT_TOL
from .errors import CrossCheckMismatchError, NotAnEigenvalueError, ZeroEigenvaluePresentError
from .sublattice import assemble_blocks, factor_blocks, pow2_scale


#: Smallest positive normal double; below it a value has lost precision.
_TINY = float(np.finfo(float).tiny)


class EPKind(str, Enum):
    DOUBLET_EP2 = "DoubletEP2"
    EP4 = "EP4"
    EP3_MIXED = "EP3Mixed"
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
    Hamiltonian name: no zero mode is Nondegenerate, a single 4-block EP4, a
    3-block beside a trivial zero mode EP3Mixed and N 2-blocks DoubletEP2."""
    nontrivial = [s for s in blocks if s > 1]
    if not blocks:
        return EPKind.NONDEGENERATE
    if nontrivial == [4]:
        return EPKind.EP4
    if nontrivial == [3] and 1 in blocks:
        return EPKind.EP3_MIXED
    if nontrivial == [2] * n:
        return EPKind.DOUBLET_EP2
    return EPKind.UNCLASSIFIED


def _unit_pair(b, bprime, tol):
    """``(b, bprime, svd_b, svd_bprime, scale, blocks)``: the validated
    pair divided by its scale, each block factorised once against the pair,
    and the Jordan block sizes at E = 0 of the assembled H ([] if none)."""
    b = cmatrix.as_square_matrix(b)
    bp = cmatrix.as_square_matrix(bprime)
    if b.shape != bp.shape:
        raise ValueError("B and B' must have matching shapes")
    fb, fbp, scale = factor_blocks(b, bp, tol)
    b, bp = b / scale, bp / scale
    try:
        blocks = spectral.jordan_structure(
            assemble_blocks(b, bp), 0.0, tol, with_chains=False).block_sizes
    except NotAnEigenvalueError:
        blocks = []
    return b, bp, fb, fbp, scale, blocks


def _proportional_to_identity(m, tol):
    """m = c I with |c| > tol, for a block of a unit-scale pair."""
    n = m.shape[0]
    mean = np.trace(m) / n
    dev = np.linalg.norm(m - mean * np.eye(n), 2)
    return dev <= tol and abs(mean) > tol


def classify_zero_energy(b, bprime, tol: float = DEFAULT_TOL) -> EPClassification:
    """Zero-energy EP taxonomy for N = 2 block pairs.

    All rank and kernel decisions share one magnitude scale,
    max(sigma_max(B), sigma_max(B')), so that "zero block" means small
    against the pair and not against itself, and the pair is divided by it
    so that no product can underflow or overflow. The verdict is
    cross-checked against the numerical Jordan blocks of the assembled
    Hamiltonian; disagreement raises CrossCheckMismatchError (a tolerance
    pathology, not a physics answer).
    """
    b, bp, fb, fbp, scale, blocks = _unit_pair(b, bprime, tol)
    if b.shape != (2, 2):
        raise ValueError("classify_zero_energy handles N = 2; see check_ep2n")

    ker_b, ker_bp = fb.kernel, fbp.kernel
    nul_b, nul_bp = ker_b.shape[1], ker_bp.shape[1]
    b_is_zero = fb.rank == 0
    bp_is_zero = fbp.rank == 0
    bp_prop_id = _proportional_to_identity(bp, tol)
    b_prop_id = _proportional_to_identity(b, tol)

    product = cmatrix.factorize(b @ bp, tol)
    ker_im_equal = cmatrix._same_span(product.kernel, product.image, tol)

    im_bp_eq_ker_b = cmatrix._same_span(fbp.image, ker_b, tol)
    im_b_eq_ker_bp = cmatrix._same_span(fb.image, ker_bp, tol)

    evidence = {
        "n": 2,
        "scale": float(scale),
        "dim_ker_b": nul_b,
        "dim_ker_bprime": nul_bp,
        "rank_b": fb.rank,
        "rank_bprime": fbp.rank,
        "relations": {
            "b_zero": bool(b_is_zero),
            "bprime_zero": bool(bp_is_zero),
            "b_prop_identity": bool(b_prop_id),
            "bprime_prop_identity": bool(bp_prop_id),
            "ker_bbp_eq_im_bbp": bool(ker_im_equal),
            "im_bprime_eq_ker_b": bool(im_bp_eq_ker_b),
            "im_b_eq_ker_bprime": bool(im_b_eq_ker_bp),
        },
        "jordan_blocks_at_zero": blocks,
    }

    if fb.rank == 2 and fbp.rank == 2:
        kind = EPKind.NONDEGENERATE
    elif b_is_zero and bp_prop_id:
        kind = EPKind.DOUBLET_EP2
    elif bp_is_zero and b_prop_id:
        kind = EPKind.DOUBLET_EP2
        evidence["relations"]["mirror"] = True
    elif nul_b + nul_bp == 1 and ker_im_equal:
        kind = EPKind.EP4
    elif nul_b == 1 and nul_bp == 1 and im_bp_eq_ker_b != im_b_eq_ker_bp:
        kind = EPKind.EP3_MIXED
        evidence["relations"]["mirror"] = bool(im_b_eq_ker_bp)
    else:
        kind = EPKind.UNCLASSIFIED

    named = _kind_of_blocks(blocks, 2)
    if kind not in (EPKind.UNCLASSIFIED, named):
        raise CrossCheckMismatchError(
            f"{kind.value} verdict but H has zero-energy blocks {blocks}, "
            f"which name {named.value}"
        )
    return EPClassification(kind, evidence)


def classify_nonzero_energy(b, bprime, tol: float = DEFAULT_TOL) -> EPClassification:
    """Detect the doublet of 2-blocks at +-sqrt(lambda) for nonzero lambda.

    Defectiveness of B B' at some eigenvalue lambda != 0 forces identical
    defectiveness at both energies +-sqrt(lambda) of the assembled H, so the
    verdict is always a pair. The product is formed from the blocks divided
    by :func:`sublattice.pow2_scale` and its eigenvalues are scaled back.
    """
    b = cmatrix.as_square_matrix(b)
    bp = cmatrix.as_square_matrix(bprime)
    s = pow2_scale(b, bp)
    product = (b / s) @ (bp / s)
    scale = max(np.linalg.norm(product, 2), cmatrix._ABS_FLOOR)
    lams, _ = cmatrix.eig(product)
    if any(abs(lam) <= tol * scale for lam in lams):
        raise ZeroEigenvaluePresentError(
            "B B' has a (near-)zero eigenvalue; use classify_zero_energy"
        )
    report = spectral.ep_report(product, tol)
    defective = [
        cl.center for cl, st in report.entries if any(k > 1 for k in st.block_sizes)
    ]

    def unscaled(lam):
        # real and imaginary parts apart: an overflow gives inf, never nan
        return complex(lam.real * s * s, lam.imag * s * s)

    evidence = {
        "n": b.shape[0],
        "eigenvalues": [unscaled(lam) for lam in lams.tolist()],
        "defective_lambdas": [unscaled(lam) for lam in defective],
        "doublet_energies": [
            (np.sqrt(lam) * s, -np.sqrt(lam) * s) for lam in defective
        ],
    }
    # every lambda is nonzero here, so an unscaled value that is not finite,
    # or whose larger part is below the normal range, has left the range;
    # the parts are compared apart, since abs() of a finite value can overflow
    if not all(cmath.isfinite(v) and max(abs(v.real), abs(v.imag)) >= _TINY
               for v in evidence["eigenvalues"] + evidence["defective_lambdas"]):
        evidence["out_of_range"] = True
    kind = EPKind.NONZERO_EP2_PAIR if defective else EPKind.NONDEGENERATE
    return EPClassification(kind, evidence)


def check_ep2n(b, bprime, tol: float = DEFAULT_TOL) -> bool:
    """Highest-order condition for general N: a single 2N-block at E = 0.

    Operationally: dim ker B + dim ker B' = 1 together with B'B similar to
    the nilpotent single block, i.e. rank((B'B)^k) = N - k for 1 <= k <= N.
    The answer is cross-checked against the Jordan structure of the
    assembled 2N x 2N Hamiltonian.
    """
    b, bp, fb, fbp, _, blocks = _unit_pair(b, bprime, tol)
    n = b.shape[0]
    verdict = (fb.kernel.shape[1] + fbp.kernel.shape[1] == 1
               and spectral.rank_sequence(bp @ b, 0.0, tol) == list(range(n - 1, -1, -1)))
    if verdict != (blocks == [2 * n]):
        raise CrossCheckMismatchError(
            f"EP2N algebra says {verdict} but assembled H has blocks {blocks}"
        )
    return verdict


def classify_point(b, bprime, tol: float = DEFAULT_TOL) -> EPClassification:
    """Classification entry point for arbitrary N (used by the BZ scanner).

    N = 2 goes through the Table-style procedure. Other N fall back to the
    kind that the Jordan blocks of the assembled Hamiltonian at E = 0 name
    (for N = 1 a single 2-block is the EP2 of the doublet family). Evidence
    carries the kernel dimensions and block sizes.
    """
    n = cmatrix.as_square_matrix(b).shape[0]
    if n == 2:
        return classify_zero_energy(b, bprime, tol)

    _, _, fb, fbp, scale, blocks = _unit_pair(b, bprime, tol)
    evidence = {
        "n": n,
        "scale": float(scale),
        "dim_ker_b": fb.kernel.shape[1],
        "dim_ker_bprime": fbp.kernel.shape[1],
        "jordan_blocks_at_zero": blocks,
        "generic_n_fallback": True,
    }
    return EPClassification(_kind_of_blocks(blocks, n), evidence)


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
