"""Catalog of concrete block Hamiltonians with known exceptional structure.

The abstract four-band models (doublet, square-root and quartic-root
four-fold coalescence, anisotropic mixed three-fold) are their leading-order
forms, taken as exact definitions at all deviations from the degeneracy
point. Angle dependence of a velocity coefficient v is v(theta) = v_x cos
theta + i v_y sin theta, so v(theta) r = v_x dq_x + i v_y dq_y at the
deviation dq = r (cos theta, sin theta); catalog models carrying a single
scalar v use v_x = v_y = v, i.e. v (dq_x + i dq_y).

The lattice models live on the triangular Bravais lattice with unit vectors
r1 = (1, 0) and r2 = (1/2, sqrt(3)/2); momenta are Cartesian, and
"reciprocal coordinates" q~ are the phases q.r1, q.r2 so that hoppings read
exp(i q~_j). Each lattice model states its entries once, on the 1-D phase
factors e^{i qx}, e^{i qx / 2} and e^{i sqrt(3) qy / 2} (:class:`_Phases`).

Every catalog model is built one way: :func:`_model` makes both its
generators and its grid form from one function of its rows of entries,
which the abstract models write on the deviation q - q_star
(:func:`_abstract_model`) and the lattice models on the phase factors
(:func:`_lattice_model`).
"""

import cmath
import dataclasses
import functools
import inspect
import math
from typing import Callable, NamedTuple

import numpy as np

from . import classify
from .cmatrix import DEFAULT_TOL
from .errors import ParamViolationError
from .sublattice import BlockHamiltonian, _fill, zero_energy_states

R1 = np.array([1.0, 0.0])
R2 = np.array([0.5, math.sqrt(3.0) / 2.0])

# Dual basis: B1 . R1 = 1, B1 . R2 = 0, etc. (no 2 pi factor; reciprocal
# coordinates are hopping phases directly).
B1 = np.array([1.0, -1.0 / math.sqrt(3.0)])
B2 = np.array([0.0, 2.0 / math.sqrt(3.0)])


def reciprocal_to_cartesian(q_tilde) -> np.ndarray:
    qt = np.asarray(q_tilde, dtype=float).reshape(2)
    return qt[0] * B1 + qt[1] * B2


def cartesian_to_reciprocal(q) -> np.ndarray:
    """Phases (q.r1, q.r2) of Cartesian momenta of shape (..., 2).

    Each dot product is written out elementwise, so a point's phases do not
    depend on the batch it is passed in (``q @ r`` rounds differently for
    one row than for three or more).
    """
    q = np.asarray(q, dtype=float)
    return np.stack([q[..., 0] * r[0] + q[..., 1] * r[1] for r in (R1, R2)],
                    axis=-1)


def _wrap_angle(a: float) -> float:
    """Wrap to [-pi, pi)."""
    return (a + math.pi) % (2 * math.pi) - math.pi


def _matrix(rows, out) -> np.ndarray:
    """Scalar or batched entries, given row by row, written into ``out``
    of shape (..., n, n)."""
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def _model(n, rows, q_star=None) -> BlockHamiltonian:
    """The model whose B (side 0) and B' (side 1) have the N rows of entries
    ``rows(side, x, y)`` at momenta (x, y) that broadcast.

    The generators evaluate the rows on their momenta as one 1-D batch, a
    single point as a batch of one (numpy's scalar arithmetic rounds
    differently from its array loops), and the grid form on ``qx[:, None]``,
    ``qy``, so each grid entry has the generators' bits at its point.
    """

    def generator(side):
        def block(q):
            q = np.asarray(q, dtype=float)
            x, y = np.reshape(q, (-1, 2)).T
            out = np.empty((len(x), n, n), dtype=np.complex128)
            return _matrix(rows(side, x, y), out).reshape(q.shape[:-1] + (n, n))
        return block

    def grid(qx, qy):
        out = np.empty((2, len(qx), len(qy), n, n), dtype=np.complex128)
        for side in (0, 1):
            _matrix(rows(side, np.asarray(qx)[:, None], np.asarray(qy)), out[side])
        return out

    return BlockHamiltonian(n, generator(0), generator(1), q_star=q_star, grid=grid)


def _require(cond: bool, message: str):
    if not cond:
        raise ParamViolationError(message)


class ModelSpec(NamedTuple):
    builder: Callable[..., BlockHamiltonian]
    params: dict
    description: str


MODEL_CATALOG: dict[str, ModelSpec] = {}


def _catalog(name: str, description: str):
    """Decorator that enters a builder in :data:`MODEL_CATALOG` as ``name``.

    The entry's parameters are the builder's keyword defaults, in signature
    order, with ``q_star``, which comes last, given as ``qstar_x``,
    ``qstar_y``. The builder is wrapped, so every model it returns is named
    ``name`` and carries the builder's bound arguments, defaults included
    and ``q_star`` left out, as ``params``.
    """
    def register(builder):
        signature = inspect.signature(builder)

        def arguments(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        @functools.wraps(builder)
        def build(*args, **kwargs):
            params = arguments(*args, **kwargs)
            params.pop("q_star", None)
            return dataclasses.replace(builder(*args, **kwargs), name=name,
                                       params=params)

        defaults = arguments()
        if "q_star" in defaults:
            defaults["qstar_x"], defaults["qstar_y"] = defaults.pop("q_star")
        MODEL_CATALOG[name] = ModelSpec(build, defaults, description)
        return build

    return register


def _abstract_model(rows, q_star) -> BlockHamiltonian:
    """The 2 x 2 model whose B (side 0) or B' (side 1) has the rows
    ``rows(side, dx, dy)`` at the deviation (dx, dy) = q - q_star."""
    qs = np.asarray(q_star, dtype=float).reshape(2)
    return _model(2, lambda side, x, y: rows(side, x - qs[0], y - qs[1]), qs)


@_catalog("doublet-ep2",
          "SU(2) doublet of 2-blocks; sqrt dispersion, two limit vectors")
def doublet_ep2_model(v_x=1.0, v_y=1.0, c=1.0, q_star=(0.0, 0.0)) -> BlockHamiltonian:
    """SU(2)-symmetric doublet of 2-blocks at q_star.

    B(q_star + dq) = v(theta) |dq| I_2 with v(theta) = v_x cos theta
    + i v_y sin theta, and B' = (c / -i) I_2, exactly at all dq. The
    assembled spectrum is E = +-sqrt(i c v(theta) |dq|), each branch doubly
    degenerate, and the four eigenvectors collapse pairwise onto
    (0, 0, 1, 0) and (0, 0, 0, 1).
    """
    _require(c != 0, "doublet model needs c != 0")
    _require(v_x != 0 or v_y != 0, "doublet model needs (v_x, v_y) != (0, 0)")

    def rows(side, dx, dy):
        if side:
            return (c / -1j) * np.eye(2)
        v = v_x * dx + 1j * v_y * dy
        return [[v, 0.0], [0.0, v]]

    return _abstract_model(rows, q_star)


@_catalog("ep4-sqrt",
          "4-block with sqrt dispersion; all eigenvectors collapse to e1")
def ep4_sqrt_model(b2=1.0, bp1=1.0, bp4=1.0, v1=0.9, v4=0.7, vp3=0.8,
                   q_star=(0.0, 0.0)) -> BlockHamiltonian:
    """Four-fold coalescence with square-root dispersion on every ray."""
    _require(b2 != 0 and bp1 != 0 and bp4 != 0,
             "ep4-sqrt model needs b2, bp1, bp4 != 0")

    def rows(side, dx, dy):
        v = dx + 1j * dy
        return ([[bp1, 0.0], [vp3 * v, bp4]] if side
                else [[v1 * v, b2], [0.0, v4 * v]])

    return _abstract_model(rows, q_star)


@_catalog("ep4-quartic", "4-block with quartic-root dispersion")
def ep4_quartic_model(b2=1.0, bp1=1.0, bp4=1.0, v3=0.9,
                      q_star=(0.0, 0.0)) -> BlockHamiltonian:
    """Four-fold coalescence with a quartic-root branch cut.

    The block product is an off-diagonal 2 x 2 matrix whose eigenvalues are
    lambda = +-sqrt(b2 bp1 bp4 v3(theta) |dq|), so E = sqrt(lambda) vanishes
    with exponent 1/4.
    """
    _require(b2 != 0 and bp1 != 0 and bp4 != 0 and v3 != 0,
             "ep4-quartic model needs b2, bp1, bp4, v3 != 0")

    def rows(side, dx, dy):
        return ([[bp1, 0.0], [0.0, bp4]] if side
                else [[0.0, b2], [v3 * (dx + 1j * dy), 0.0]])

    return _abstract_model(rows, q_star)


@_catalog("ep3", "mixed 3-block plus zero mode; path-dependent coalescence")
def ep3_model(b2=1.0, bp1=1.0, bp2=2.0, v1=1.0, v3=0.4, v4=0.6,
              vp3=0.9, vp4=0.5, rp3=0.3, rp4=-3.0,
              q_star=(0.0, 0.0)) -> BlockHamiltonian:
    """Anisotropic mixed-type three-fold coalescence at q_star.

    The lower row of B' interpolates between a linear deviation along
    theta = 0 and a quadratic one along theta = pi/2:

        w_j(dq) = vp_j cos(theta) |dq| + rp_j sin^2(theta) |dq|^2
                = vp_j dq_x + rp_j dq_y^2,

    the minimal smooth form matching both axis limits. Along theta = 0 all
    four eigenvectors collapse onto (0, 0, 1, 0); along theta = pi/2 only
    the sqrt-dispersing pair does, while the linearly dispersing pair stays
    a finite quantum distance away from both zero modes.
    """
    _require(b2 != 0 and bp1 != 0, "ep3 model needs b2, bp1 != 0")

    def rows(side, dx, dy):
        if side:
            quad = dy ** 2
            return [[bp1, bp2], [vp3 * dx + rp3 * quad, vp4 * dx + rp4 * quad]]
        v = dx + 1j * dy
        return [[v1 * v, b2], [v3 * v, v4 * v]]

    return _abstract_model(rows, q_star)


# --- honeycomb lattice models -------------------------------------------


class _Phases(NamedTuple):
    """The phase factors of momenta (x, y): e^{i q.r1} = e1 and
    e^{i q.r2} = e2 e3, with e1 = e^{i x}, e2 = e^{i x / 2} and
    e3 = e^{i sqrt(3) y / 2}; y is kept for mirrored points."""

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    y: np.ndarray


def _sides(x, y):
    """The factors of q = (x, y) and of -q, whose factors are the
    conjugates, each side with the other's: ((q, -q), (-q, q))."""
    here = _Phases(np.exp(1j * x), np.exp(0.5j * x), np.exp(1j * (R2[1] * y)), y)
    there = _Phases(here.e1.conj(), here.e2.conj(), here.e3.conj(), -y)
    return (here, there), (there, here)


def _lattice_model(n, entries, q_star=None) -> BlockHamiltonian:
    """The model whose B(q) has the N x N rows of entries
    ``entries(here, there)`` of the factors of q and of -q (:class:`_Phases`),
    and B'(q) = B(-q)^T: the transposed rows with the sides swapped."""

    def rows(side, x, y):
        b = entries(*_sides(x, y)[side])
        return list(zip(*b)) if side else b

    return _model(n, rows, q_star)


def _a_tilde(f, j1, j2, j3, phi1, phi2):
    """A~ = 2 (c1 e^{i q.r1} + c2 e^{i q.r2} + j3), c_k = j_k e^{i phi_k},
    on the factors ``f`` of q, summed as 2 ((c2 e2) e3 + (c1 e1 + j3))."""
    c1, c2 = j1 * cmath.exp(1j * phi1), j2 * cmath.exp(1j * phi2)
    # in place: a new grid-sized array per operation costs more than the sum
    a = (c2 * f.e2) * f.e3
    a += c1 * f.e1 + j3
    a *= 2.0
    return a


def _kitaev_blocks(j1, j2, j3, phi1, phi2, q_star=None) -> BlockHamiltonian:
    """B = [[A~(q)]], B' = [[A~(-q)]]."""
    return _lattice_model(
        1, lambda here, _: [[_a_tilde(here, j1, j2, j3, phi1, phi2)]], q_star)


def kitaev_bloch(q, j1=1.0, j2=1.0, j3=1.0, phi1=0.0, phi2=0.0) -> np.ndarray:
    """2 x 2 Majorana Bloch matrix [[0, i A(q)], [-i A(-q), 0]]."""
    bh = _kitaev_blocks(j1, j2, j3, phi1, phi2)
    return _fill(bh.block(q), bh.block_prime(q))


def _fold_sign(j, phi):
    """A negative real coupling ``j`` as the positive one at phase phi + pi."""
    return (-j, phi + math.pi) if j == -abs(j) != 0 else (j, phi)


def kitaev_ep_locations(j1=1.0, j2=1.0, j3=1.0, phi1=0.0, phi2=0.0):
    """Closed-form degeneracy locations of the Kitaev Bloch matrix.

    Solves |J1| e^{i(q~1 + phi1)} + |J2| e^{i(q~2 + phi2)} + J3 = 0 by the
    triangle construction; the two arccos branches are paired by the sine
    rule, which is enforced here by substituting candidates back into A and
    keeping the ones that actually vanish. Returns Cartesian momenta sorted
    lexicographically, wrapped to reciprocal coordinates in [-pi, pi);
    empty list in the gapped phase (arccos argument outside [-1, 1]) and
    when a coupling is zero or not finite.
    The couplings are first divided by the power of two at or under the
    largest |J|, which brings that |J| into [1, 2), so that no square below
    overflows; a coupling more than about 2^1022 below the largest may
    still round, or square to zero. A negative J1 or J2 is first folded
    into its phase, J e^{i phi} = |J| e^{i (phi + pi)}.
    """
    (j1, phi1), (j2, phi2) = _fold_sign(j1, phi1), _fold_sign(j2, phi2)
    unit = math.ldexp(1.0, math.frexp(max(abs(j1), abs(j2), abs(j3)))[1] - 1)
    j1, j2, j3 = j1 / unit, j2 / unit, j3 / unit
    a1, a2, a3 = abs(j1), abs(j2), abs(j3)
    if not all(0 < a < math.inf for a in (a1, a2, a3)):
        return []
    arg1 = (a2**2 - a1**2 - a3**2) / (2 * a1 * j3)
    arg2 = (a1**2 - a2**2 - a3**2) / (2 * a2 * j3)
    if abs(arg1) > 1.0 or abs(arg2) > 1.0:
        return []
    x = math.acos(arg1)
    y = math.acos(arg2)
    scale = 2.0 * (a1 + a2 + a3)
    bh = _kitaev_blocks(j1, j2, j3, phi1, phi2)
    found = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            qt = np.array([_wrap_angle(sx * x - phi1), _wrap_angle(sy * y - phi2)])
            q = reciprocal_to_cartesian(qt)
            if abs(bh.block(q)[0, 0]) > 1e-9 * scale:
                continue
            if any(np.max(np.abs(qt - prev)) < 1e-8 for prev in found):
                continue
            found.append(qt)
    out = [reciprocal_to_cartesian(qt) for qt in found]
    return sorted(out, key=lambda q: (q[0], q[1]))


@_catalog("kitaev", "one-flavour honeycomb Majorana model with complex couplings")
def kitaev_model(j1=1.0, j2=1.0, j3=1.0, phi1=0.0, phi2=0.0) -> BlockHamiltonian:
    """One-flavour honeycomb Majorana model as a BlockHamiltonian (N = 1)."""
    locations = kitaev_ep_locations(j1, j2, j3, phi1, phi2)
    return _kitaev_blocks(j1, j2, j3, phi1, phi2,
                          locations[0] if locations else None)


def _yao_lee_model(expected_kind, upper, jt, phi, j01, j02, j03):
    """diag(upper, A0) with the particle-hole pairing B'(q) = A(-q)^T.

    The degeneracy point is pinned to the arccos branch
    q~* = (2 pi / 3 - phi, -2 pi / 3) of the complexified couplings
    J1 = jt e^{i phi}, J2 = J3 = jt, the zero of A~ with those couplings.
    ``upper(here, there, g, h)`` gives the 2-flavour block as rows of
    entries from the factors of q and of -q (:class:`_Phases`) and the
    helper hoppings

        g(q) = e^{i q.r1 + i phi} + e^{i q~*_2} + 1,
        h(q) = e^{-i (q~*_1 + phi)} + e^{i q.r2} + 1,

    which satisfy g(q*) = h(-q*) = 0 for every phi, pinning the required
    entries at q*; ``h(f, mirrored=True)`` is h at the mirror image of q
    about q_y = q*_y, whose e3 is e^{i sqrt(3) (2 q*_y - q_y) / 2}. A0 is the
    real-coupling honeycomb band of (j01, j02, j03). The 2-flavour sub-block
    at q* must classify as ``expected_kind``, or ParamViolationError names
    the kind.
    """
    _require(jt > 0, "yao-lee model needs jt > 0")
    _require(phi != 0, "yao-lee model needs phi != 0 for non-Hermiticity")
    qt_star = np.array([2 * math.pi / 3 - phi, -2 * math.pi / 3])
    q_star = reciprocal_to_cartesian(qt_star)
    g1, g2 = cmath.exp(1j * phi), cmath.exp(1j * qt_star[1])
    h1 = cmath.exp(-1j * (qt_star[0] + phi))

    def g(f):
        return g1 * f.e1 + g2 + 1.0

    def h(f, mirrored=False):
        e3 = np.exp(1j * (R2[1] * (2 * q_star[1] - f.y))) if mirrored else f.e3
        return f.e2 * e3 + (h1 + 1.0)

    def entries(here, there):
        (a, b), (c, d) = upper(here, there, g, h)
        a0 = _a_tilde(here, j01, j02, j03, 0.0, 0.0)
        return [[a, b, 0.0], [c, d, 0.0], [0.0, 0.0, a0]]

    bh = _lattice_model(3, entries, q_star)
    result = classify.classify_zero_energy(
        bh.b(q_star)[:2, :2], bh.b_prime(q_star)[:2, :2], 1e-8)
    if result.kind is not expected_kind:
        raise ParamViolationError(
            "yao-lee model: 2-flavour sub-block at q* classifies as "
            f"{result.kind.value}, expected {expected_kind.value}; "
            "adjust the coupling constants"
        )
    return bh


@_catalog("yao-lee-ep4", "six-band spin-liquid construction hosting a 4-block")
def yao_lee_ep4_model(jt=1.0, phi=0.3, z1=0.1, z2=0.0, zp1=0.1, zp2=0.0,
                      j01=3.0, j02=1.0, j03=1.0) -> BlockHamiltonian:
    """Six-band spin-liquid construction whose 4 x 4 sub-block carries a
    single 4-block at its degeneracy point.

    The flavour-2 diagonal coupling is A~'(q) = A~(q) + zp1 g(q)
    + zp2 h(-q); both corrections vanish at q*, keeping the required zero,
    and generically not at -q*, keeping B' invertible there. The flavour-3
    band is an independent real-coupling honeycomb block (gapped for the
    default couplings) and never mixes.
    """

    def upper(here, there, g, h):
        a = _a_tilde(here, jt, jt, jt, phi, 0.0)
        w = z1 * g(there) + z2 * h(here)
        return [[a, w], [0.0, a + zp1 * g(here) + zp2 * h(there)]]

    return _yao_lee_model(classify.EPKind.EP4, upper, jt, phi, j01, j02, j03)


@_catalog("yao-lee-ep3",
          "six-band spin-liquid construction hosting a mixed 3-block")
def yao_lee_ep3_model(jt=1.0, phi=0.3, z1=0.1, z2=0.0, zp1=0.1, zp2=0.0,
                      j01=3.0, j02=1.0, j03=1.0) -> BlockHamiltonian:
    """Six-band construction whose 4 x 4 sub-block carries a mixed 3-block.

    The inter-flavour coupling is mirror-symmetrized about the line
    q_y = q*_y, f1(q) + f1(q_x, 2 q*_y - q_y) with f1(q) = z1 g(-q)
    + z2 h(q), which kills its linear q_y derivative at q* and produces the
    anisotropy of the mixed-type point. The flavour-2 diagonal coupling is
    switched off entirely: it would have to vanish at both +-q*, which no
    single mirrored honeycomb hopping does. z2 must stay 0 here for the
    same reason (checked at construction).
    """

    def upper(here, there, g, h):
        w_top = (z1 * g(there) + z2 * h(here)
                 + (z1 * g(there) + z2 * h(here, mirrored=True)))
        w_bottom = zp1 * g(here) + zp2 * h(there)
        return [[_a_tilde(here, jt, jt, jt, phi, 0.0), w_top], [w_bottom, 0.0]]

    return _yao_lee_model(classify.EPKind.EP3_MIXED, upper, jt, phi,
                          j01, j02, j03)


def zero_targets(bh: BlockHamiltonian, tol: float = DEFAULT_TOL):
    """Labeled zero modes e1, e2, ... of a model at its q_star.

    Kernel-of-B states (support on the lower sublattice) come first, so for
    the catalog models e1 is the chain-bearing eigenvector.
    """
    if bh.q_star is None:
        raise ParamViolationError(f"model {bh.name!r} has no degeneracy point")
    states = zero_energy_states(bh.b(bh.q_star), bh.b_prime(bh.q_star), tol)
    return [(f"e{i + 1}", row) for i, row in enumerate(states)]


def build_model(name: str, params: dict | None = None) -> BlockHamiltonian:
    """Instantiate a catalog model by identifier with parameter overrides."""
    if name not in MODEL_CATALOG:
        raise ParamViolationError(
            f"unknown model {name!r}; known: {', '.join(sorted(MODEL_CATALOG))}"
        )
    spec = MODEL_CATALOG[name]
    values = dict(spec.params)
    for key, val in (params or {}).items():
        if key not in values:
            raise ParamViolationError(f"model {name!r} has no parameter {key!r}")
        values[key] = val
    if "qstar_x" in values:
        values["q_star"] = values.pop("qstar_x"), values.pop("qstar_y")
    return spec.builder(**values)
