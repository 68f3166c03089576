"""Dense complex linear algebra for small matrices (dimension <= 16).

Thin, validated wrappers around LAPACK (via numpy) that fix the tolerance
conventions used everywhere else in the package: each matrix is factorised
once by :func:`factorize`, whose :class:`SVD` value reads rank, kernel,
image and norm off a single SVD with the relative cutoff ``tol * sigma_max``
(optionally against a caller-supplied scale). Kernels and images are
orthonormal singular-vector bases; subspaces are compared through principal
angles.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AmbientMismatchError,
    DimensionTooLargeError,
    NonFiniteError,
    NonSquareError,
)

#: Default relative tolerance for rank/kernel decisions. Halfway (on a log
#: scale) between machine epsilon and the 1e-2..1e-6 path radii used in scans.
DEFAULT_TOL = 1e-9

#: Dense-solver dimension cap; everything in this package is a small matrix.
MAX_DIM = 16

#: Absolute floor below which a matrix counts as identically zero.
_ABS_FLOOR = 1e-300


def as_matrix(m) -> np.ndarray:
    """Validate and convert input to a 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise NonSquareError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return a


def as_square_matrix(m) -> np.ndarray:
    """Like :func:`as_matrix` but additionally require a square matrix."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise DimensionTooLargeError(
            f"dimension {a.shape[0]} exceeds the cap of {MAX_DIM}"
        )
    return a


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of C^ambient_dim.

    ``vectors`` holds the basis as columns, shape ``(ambient_dim, dim)``.
    An empty basis (dim 0) represents the trivial subspace.
    """

    ambient_dim: int
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] != self.ambient_dim:
            raise AmbientMismatchError(
                f"basis shape {v.shape} does not match ambient dim {self.ambient_dim}"
            )
        if v.shape[1] > self.ambient_dim:
            raise AmbientMismatchError("more basis vectors than ambient dimension")
        if v.size:
            if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
                raise NonFiniteError("basis contains NaN or Inf entries")
            gram = v.conj().T @ v
            if np.max(np.abs(gram - np.eye(v.shape[1]))) > 1e-12:
                raise ValueError("basis vectors are not orthonormal to 1e-12")
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def eig(m):
    """Eigendecomposition of a small square complex matrix.

    Returns ``(w, v)``: the eigenvalues ``w``, counted with algebraic
    multiplicity, and unit-norm right eigenvectors as the columns of ``v``.
    Residuals are at the 1e-10 * ||M|| level for well-separated eigenvalues;
    near-defective eigenvalues can degrade to about 1e-6 * ||M||, which is
    why defective structure must be read off with the `spectral` module and
    never from raw eig output.
    """
    return np.linalg.eig(as_square_matrix(m))


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d complex array, rounded as
    ``np.linalg.norm`` rounds each row alone."""
    re, im = rows.real, rows.imag
    return np.sqrt(re[:, None, :] @ re[:, :, None]
                   + im[:, None, :] @ im[:, :, None])[:, 0, 0]


@dataclass(frozen=True, eq=False)
class SVD:
    """One full SVD ``u @ diag(s) @ vh``; singular values above ``cutoff``
    make up the rank, and rank, kernel, image and norm are read from it."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    cutoff: float

    @property
    def norm(self) -> float:
        return float(self.s[0])

    @property
    def rank(self) -> int:
        return int(np.sum(self.s > self.cutoff))

    @property
    def kernel(self) -> SubspaceBasis:
        return SubspaceBasis(self.vh.shape[1], self.vh[self.rank:].conj().T)

    @property
    def image(self) -> SubspaceBasis:
        return SubspaceBasis(self.u.shape[0], self.u[:, : self.rank])

    def recut(self, tol: float, scale: float) -> "SVD":
        """The same factorisation cut at ``tol * scale``; a matrix or scale
        below the absolute floor makes everything count as zero."""
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        zero = min(self.norm, scale) <= _ABS_FLOOR
        return replace(self, cutoff=np.inf if zero else tol * scale)


def factorize(m, tol: float = DEFAULT_TOL, scale: float | None = None) -> SVD:
    """Factorise ``m`` once, cutting at ``tol * scale``.

    ``scale`` defaults to the largest singular value of ``m`` itself, which
    makes the decision scale-invariant; callers comparing several matrices
    against a common magnitude (e.g. the assembled Hamiltonian norm) pass
    that magnitude explicitly.
    """
    u, s, vh = np.linalg.svd(as_matrix(m))
    return SVD(u, s, vh, 0.0).recut(tol, s[0] if scale is None else scale)


def svd_rank(m, tol: float = DEFAULT_TOL, scale: float | None = None) -> int:
    """Numerical rank: number of singular values above ``tol * scale``."""
    return factorize(m, tol, scale).rank


def kernel_basis(m, tol: float = DEFAULT_TOL, scale: float | None = None) -> SubspaceBasis:
    """Orthonormal basis of the numerical kernel (right null space) of ``m``."""
    return factorize(m, tol, scale).kernel


def image_basis(m, tol: float = DEFAULT_TOL, scale: float | None = None) -> SubspaceBasis:
    """Orthonormal basis of the numerical image (column space) of ``m``."""
    return factorize(m, tol, scale).image


def subspace_equal(u: SubspaceBasis, v: SubspaceBasis, tol: float = DEFAULT_TOL) -> bool:
    """True iff the two subspaces coincide up to principal-angle sines <= tol."""
    if u.ambient_dim != v.ambient_dim:
        raise AmbientMismatchError(
            f"ambient dims differ: {u.ambient_dim} vs {v.ambient_dim}"
        )
    if u.dim != v.dim:
        return False
    if u.dim == 0:
        return True
    # Largest principal-angle sine = || (I - U U^H) V ||_2.
    resid = v.vectors - u.vectors @ (u.vectors.conj().T @ v.vectors)
    return bool(np.linalg.norm(resid, 2) <= tol)
