"""Dense complex linear algebra for small matrices (dimension <= 16).

Thin, validated wrappers around LAPACK (via numpy) that fix the tolerance
conventions used everywhere else in the package: each matrix is factorised
once, and its :class:`SVD` value reads rank, kernel, image and norm off that
single SVD with the relative cutoff ``tol * sigma_max`` (optionally against
a caller-supplied scale). The cut is set where the factorisation is made,
by :func:`_cut`: :func:`factorize` validates a matrix given from outside
before it factorises it, while the package's own arrays, built from input
it has already validated, are factorised and cut without a second check.
A subspace is an ``(ambient, dim)`` array of orthonormal columns, kernels
and images are slices of the singular vectors, and subspaces are compared
through principal angles.
"""

import math
from dataclasses import dataclass
from functools import cached_property

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

#: What NonFiniteError says of a finite matrix whose norm overflows.
_NORM_OUT_OF_RANGE = "the norm of the matrix leaves the double range"


def as_matrix(m) -> np.ndarray:
    """Validate and convert input to a 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise NonSquareError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():  # a complex entry is finite when both parts are
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return a


def as_square_matrix(m) -> np.ndarray:
    """Like :func:`as_matrix` but additionally require a square matrix."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise _too_large(a.shape[0])
    return a


def _too_large(dim: int) -> DimensionTooLargeError:
    """The refusal of a matrix of dimension ``dim`` over MAX_DIM."""
    return DimensionTooLargeError(f"dimension {dim} exceeds the cap of {MAX_DIM}")


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
    make up the rank, and rank, kernel, image and norm are read from it.
    Made by :func:`_cut`, which sets the cutoff once."""

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    cutoff: float

    @property
    def norm(self) -> float:
        return float(self.s[0])

    @cached_property
    def rank(self) -> int:
        return int(np.sum(self.s > self.cutoff))

    @property
    def kernel(self) -> np.ndarray:
        return self.vh[self.rank:].conj().T

    @property
    def image(self) -> np.ndarray:
        return self.u[:, : self.rank]


def _check_tol(tol) -> None:
    """Refuse a tolerance that is not positive, NaN included."""
    if not tol > 0:
        raise ValueError("tol must be positive")


def _cutoffs(norm, tol: float, scale=None) -> np.ndarray:
    """The cutoffs ``tol * scale`` of finite matrices of norms ``norm``;
    ``scale`` defaults to the norm, and both may be arrays that broadcast.
    A norm or scale at or below the absolute floor makes everything count
    as zero."""
    _check_tol(tol)
    scale = norm if scale is None else scale
    return np.where(np.minimum(norm, scale) <= _ABS_FLOOR, np.inf, tol * scale)


def _cut(u, s, vh, tol: float, scale: float | None = None) -> SVD:
    """The factorisation ``u @ diag(s) @ vh`` of a finite matrix, cut at
    :func:`_cutoffs`; a norm beyond the double range raises
    NonFiniteError."""
    if not math.isfinite(s[0]):
        raise NonFiniteError(_NORM_OUT_OF_RANGE)
    return SVD(u, s, vh, float(_cutoffs(s[0], tol, scale)))


def factorize(m, tol: float = DEFAULT_TOL, scale: float | None = None) -> SVD:
    """Validate ``m`` and factorise it once, cutting at ``tol * scale``.

    ``scale`` defaults to the largest singular value of ``m`` itself, which
    makes the decision scale-invariant; callers comparing several matrices
    against a common magnitude (e.g. the assembled Hamiltonian norm) pass
    that magnitude explicitly.
    """
    return _cut(*np.linalg.svd(as_matrix(m)), tol, scale)


def svd_rank(m, tol: float = DEFAULT_TOL, scale: float | None = None) -> int:
    """Numerical rank: number of singular values above ``tol * scale``."""
    return factorize(m, tol, scale).rank


def kernel_basis(m, tol: float = DEFAULT_TOL, scale: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel of ``m``."""
    return factorize(m, tol, scale).kernel


def image_basis(m, tol: float = DEFAULT_TOL, scale: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning the numerical image of ``m``."""
    return factorize(m, tol, scale).image


def _orthonormal_columns(v) -> np.ndarray:
    """Validate a basis given from outside: a finite 2-d array whose columns
    are orthonormal to 1e-12, no more of them than rows."""
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] > v.shape[0]:
        raise AmbientMismatchError(f"basis shape {v.shape} is not (n, k), k <= n")
    if not np.isfinite(v).all():
        raise NonFiniteError("basis contains NaN or Inf entries")
    if v.size and np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) > 1e-12:
        raise ValueError("basis vectors are not orthonormal to 1e-12")
    return v


def subspace_equal(u, v, tol: float = DEFAULT_TOL) -> bool:
    """True iff the spans of the orthonormal columns of ``u`` and ``v``
    coincide up to principal-angle sines <= tol. A basis that is not 2-d or
    has more columns than rows, or bases of differing ambient dimension,
    raise AmbientMismatchError; NaN or Inf raises NonFiniteError, and
    columns not orthonormal to 1e-12 raise ValueError."""
    u, v = _orthonormal_columns(u), _orthonormal_columns(v)
    if u.shape[0] != v.shape[0]:
        raise AmbientMismatchError(
            f"ambient dims differ: {u.shape[0]} vs {v.shape[0]}"
        )
    if u.shape[1] != v.shape[1]:
        return False
    if u.shape[1] == 0:
        return True
    # Largest principal-angle sine = || (I - U U^H) V ||_2.
    resid = v - u @ (u.conj().T @ v)
    return bool(np.linalg.norm(resid, 2) <= tol)
