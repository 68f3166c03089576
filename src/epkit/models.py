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
exp(i q~_j).
"""

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np

from . import classify
from .cmatrix import DEFAULT_TOL
from .errors import ParamViolationError
from .sublattice import BlockHamiltonian, zero_energy_states

R1 = np.array([1.0, 0.0])
R2 = np.array([0.5, math.sqrt(3.0) / 2.0])
R3 = R1 - R2

# Dual basis: B1 . R1 = 1, B1 . R2 = 0, etc. (no 2 pi factor; reciprocal
# coordinates are hopping phases directly).
B1 = np.array([1.0, -1.0 / math.sqrt(3.0)])
B2 = np.array([0.0, 2.0 / math.sqrt(3.0)])


def reciprocal_to_cartesian(q_tilde) -> np.ndarray:
    qt = np.asarray(q_tilde, dtype=float).reshape(2)
    return qt[0] * B1 + qt[1] * B2


def cartesian_to_reciprocal(q) -> np.ndarray:
    """Phases (q.r1, q.r2) of Cartesian momenta of shape (..., 2)."""
    q = np.asarray(q, dtype=float)
    return np.stack([q @ R1, q @ R2], axis=-1)


def _wrap_angle(a: float) -> float:
    """Wrap to [-pi, pi)."""
    return (a + math.pi) % (2 * math.pi) - math.pi


def _matrix(rows) -> np.ndarray:
    """Stack scalar or batched entries, given row by row, into an array of
    shape (..., n, n)."""
    entries = np.broadcast_arrays(
        *(np.asarray(e, dtype=np.complex128) for row in rows for e in row))
    n = len(rows)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (n, n))


def _complex_offset(q, q_star):
    """dq_x + i dq_y for the deviation dq = q - q_star."""
    dq = q - q_star
    return dq[..., 0] + 1j * dq[..., 1]


def _require(cond: bool, message: str):
    if not cond:
        raise ParamViolationError(message)


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
    qs = np.asarray(q_star, dtype=float).reshape(2)

    def block(q):
        dq = q - qs
        v = v_x * dq[..., 0] + 1j * v_y * dq[..., 1]
        return _matrix([[v, 0.0], [0.0, v]])

    def block_prime(q):
        return (c / -1j) * np.eye(2)

    return BlockHamiltonian(
        2, block, block_prime, name="doublet-ep2", q_star=qs,
        params={"v_x": v_x, "v_y": v_y, "c": c},
    )


def ep4_sqrt_model(b2=1.0, bp1=1.0, bp4=1.0, v1=0.9, v4=0.7, vp3=0.8,
                   q_star=(0.0, 0.0)) -> BlockHamiltonian:
    """Four-fold coalescence with square-root dispersion on every ray."""
    _require(b2 != 0 and bp1 != 0 and bp4 != 0,
             "ep4-sqrt model needs b2, bp1, bp4 != 0")
    qs = np.asarray(q_star, dtype=float).reshape(2)

    def block(q):
        v = _complex_offset(q, qs)
        return _matrix([[v1 * v, b2], [0.0, v4 * v]])

    def block_prime(q):
        v = _complex_offset(q, qs)
        return _matrix([[bp1, 0.0], [vp3 * v, bp4]])

    return BlockHamiltonian(
        2, block, block_prime, name="ep4-sqrt", q_star=qs,
        params={"b2": b2, "bp1": bp1, "bp4": bp4, "v1": v1, "v4": v4, "vp3": vp3},
    )


def ep4_quartic_model(b2=1.0, bp1=1.0, bp4=1.0, v3=0.9,
                      q_star=(0.0, 0.0)) -> BlockHamiltonian:
    """Four-fold coalescence with a quartic-root branch cut.

    The block product is an off-diagonal 2 x 2 matrix whose eigenvalues are
    lambda = +-sqrt(b2 bp1 bp4 v3(theta) |dq|), so E = sqrt(lambda) vanishes
    with exponent 1/4.
    """
    _require(b2 != 0 and bp1 != 0 and bp4 != 0 and v3 != 0,
             "ep4-quartic model needs b2, bp1, bp4, v3 != 0")
    qs = np.asarray(q_star, dtype=float).reshape(2)

    def block(q):
        v = _complex_offset(q, qs)
        return _matrix([[0.0, b2], [v3 * v, 0.0]])

    def block_prime(q):
        return np.diag([bp1, bp4]).astype(np.complex128)

    return BlockHamiltonian(
        2, block, block_prime, name="ep4-quartic", q_star=qs,
        params={"b2": b2, "bp1": bp1, "bp4": bp4, "v3": v3},
    )


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
    qs = np.asarray(q_star, dtype=float).reshape(2)

    def block(q):
        v = _complex_offset(q, qs)
        return _matrix([[v1 * v, b2], [v3 * v, v4 * v]])

    def block_prime(q):
        lin, quad = q[..., 0] - qs[0], (q[..., 1] - qs[1]) ** 2
        return _matrix(
            [[bp1, bp2], [vp3 * lin + rp3 * quad, vp4 * lin + rp4 * quad]]
        )

    return BlockHamiltonian(
        2, block, block_prime, name="ep3", q_star=qs,
        params={"b2": b2, "bp1": bp1, "bp2": bp2, "v1": v1, "v3": v3, "v4": v4,
                "vp3": vp3, "vp4": vp4, "rp3": rp3, "rp4": rp4},
    )


# --- honeycomb lattice models -------------------------------------------


def _a_tilde(q, j1, j2, j3, phi1, phi2):
    qt = cartesian_to_reciprocal(q)
    return 2.0 * (
        j1 * np.exp(1j * (qt[..., 0] + phi1))
        + j2 * np.exp(1j * (qt[..., 1] + phi2))
        + j3
    )


def kitaev_bloch(q, j1=1.0, j2=1.0, j3=1.0, phi1=0.0, phi2=0.0) -> np.ndarray:
    """2 x 2 Majorana Bloch matrix [[0, i A(q)], [-i A(-q), 0]]."""
    a = _a_tilde(q, j1, j2, j3, phi1, phi2)
    am = _a_tilde(-np.asarray(q, dtype=float), j1, j2, j3, phi1, phi2)
    return _matrix([[0.0, 1j * a], [-1j * am, 0.0]])


def kitaev_ep_locations(j1=1.0, j2=1.0, j3=1.0, phi1=0.0, phi2=0.0):
    """Closed-form degeneracy locations of the Kitaev Bloch matrix.

    Solves |J1| e^{i(q~1 + phi1)} + |J2| e^{i(q~2 + phi2)} + J3 = 0 by the
    triangle construction; the two arccos branches are paired by the sine
    rule, which is enforced here by substituting candidates back into A and
    keeping the ones that actually vanish. Returns Cartesian momenta sorted
    lexicographically, wrapped to reciprocal coordinates in [-pi, pi);
    empty list in the gapped phase (arccos argument outside [-1, 1]).
    """
    a1, a2, a3 = abs(j1), abs(j2), abs(j3)
    if a1 == 0 or a2 == 0 or a3 == 0:
        return []
    arg1 = (a2**2 - a1**2 - a3**2) / (2 * a1 * j3)
    arg2 = (a1**2 - a2**2 - a3**2) / (2 * a2 * j3)
    if abs(arg1) > 1.0 or abs(arg2) > 1.0:
        return []
    x = math.acos(arg1)
    y = math.acos(arg2)
    scale = 2.0 * (a1 + a2 + a3)
    found = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            qt = np.array([_wrap_angle(sx * x - phi1), _wrap_angle(sy * y - phi2)])
            q = reciprocal_to_cartesian(qt)
            if abs(_a_tilde(q, j1, j2, j3, phi1, phi2)) > 1e-9 * scale:
                continue
            if any(np.max(np.abs(qt - prev)) < 1e-8 for prev in found):
                continue
            found.append(qt)
    out = [reciprocal_to_cartesian(qt) for qt in found]
    return sorted(out, key=lambda q: (q[0], q[1]))


def kitaev_model(j1=1.0, j2=1.0, j3=1.0, phi1=0.0, phi2=0.0) -> BlockHamiltonian:
    """One-flavour honeycomb Majorana model as a BlockHamiltonian (N = 1)."""
    locations = kitaev_ep_locations(j1, j2, j3, phi1, phi2)
    q_star = locations[0] if locations else None

    def block(q):
        return _matrix([[_a_tilde(q, j1, j2, j3, phi1, phi2)]])

    def block_prime(q):
        return _matrix([[_a_tilde(-q, j1, j2, j3, phi1, phi2)]])

    return BlockHamiltonian(
        1, block, block_prime, name="kitaev", q_star=q_star,
        params={"j1": j1, "j2": j2, "j3": j3, "phi1": phi1, "phi2": phi2},
    )


def _yao_lee_pieces(jt, phi):
    """Shared ingredients of the six-band constructions.

    The degeneracy point is pinned to the arccos branch
    q~* = (2 pi / 3 - phi, -2 pi / 3) of the complexified couplings
    J1 = jt e^{i phi}, J2 = J3 = jt, the zero of
    A~(q) = _a_tilde(q, jt, jt, jt, phi, 0). The helper hoppings

        g(q) = e^{i q.r1 + i phi} + e^{i q~*_2} + 1,
        h(q) = e^{-i (q~*_1 + phi)} + e^{i q.r2} + 1

    satisfy g(q*) = h(-q*) = 0 for every phi, which is what pins the
    required matrix entries at the degeneracy point.
    """
    _require(jt > 0, "yao-lee model needs jt > 0")
    _require(phi != 0, "yao-lee model needs phi != 0 for non-Hermiticity")
    qt_star = np.array([2 * math.pi / 3 - phi, -2 * math.pi / 3])
    q_star = reciprocal_to_cartesian(qt_star)
    g2 = cmath.exp(1j * qt_star[1])
    h1 = cmath.exp(-1j * (qt_star[0] + phi))

    def g(q):
        return np.exp(1j * (cartesian_to_reciprocal(q)[..., 0] + phi)) + g2 + 1.0

    def h(q):
        return h1 + np.exp(1j * cartesian_to_reciprocal(q)[..., 1]) + 1.0

    return q_star, g, h


def _yao_lee_model(name, expected_kind, upper, q_star, public):
    """diag(upper(q), A0(q)) with the particle-hole pairing B'(q) = A(-q)^T.

    ``upper(q)`` gives the 2-flavour block as rows of entries; A0 is the
    real-coupling honeycomb band of (j01, j02, j03). The 2-flavour
    sub-block at q* must classify as ``expected_kind``.
    """
    j01, j02, j03 = public["j01"], public["j02"], public["j03"]

    def block(q):
        (a, b), (c, d) = upper(q)
        a0 = _a_tilde(q, j01, j02, j03, 0.0, 0.0)
        return _matrix([[a, b, 0.0], [c, d, 0.0], [0.0, 0.0, a0]])

    def block_prime(q):
        return np.swapaxes(block(-q), -1, -2)

    bh = BlockHamiltonian(3, block, block_prime, name=name, q_star=q_star,
                          params=public)
    result = classify.classify_zero_energy(
        bh.b(q_star)[:2, :2], bh.b_prime(q_star)[:2, :2], 1e-8)
    if result.kind is not expected_kind:
        raise ParamViolationError(
            f"{name}: 2-flavour sub-block at q* classifies as "
            f"{result.kind.value}, expected {expected_kind.value}; "
            "adjust the coupling constants"
        )
    return bh


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
    q_star, g, h = _yao_lee_pieces(jt, phi)

    def upper(q):
        a = _a_tilde(q, jt, jt, jt, phi, 0.0)
        w = z1 * g(-q) + z2 * h(q)
        a_prime = a + zp1 * g(q) + zp2 * h(-q)
        return [[a, w], [0.0, a_prime]]

    public = {"jt": jt, "phi": phi, "z1": z1, "z2": z2, "zp1": zp1, "zp2": zp2,
              "j01": j01, "j02": j02, "j03": j03}
    return _yao_lee_model("yao-lee-ep4", classify.EPKind.EP4, upper, q_star,
                          public)


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
    q_star, g, h = _yao_lee_pieces(jt, phi)
    qsy = q_star[1]

    def f1(q):
        return z1 * g(-q) + z2 * h(q)

    def upper(q):
        mirrored = np.stack([q[..., 0], 2 * qsy - q[..., 1]], axis=-1)
        w_top = f1(q) + f1(mirrored)
        w_bottom = zp1 * g(q) + zp2 * h(-q)
        return [[_a_tilde(q, jt, jt, jt, phi, 0.0), w_top], [w_bottom, 0.0]]

    public = {"jt": jt, "phi": phi, "z1": z1, "z2": z2, "zp1": zp1, "zp2": zp2,
              "j01": j01, "j02": j02, "j03": j03}
    return _yao_lee_model("yao-lee-ep3", classify.EPKind.EP3_MIXED, upper,
                          q_star, public)


def zero_targets(bh: BlockHamiltonian, tol: float = DEFAULT_TOL):
    """Labeled zero modes e1, e2, ... of a model at its q_star.

    Kernel-of-B states (support on the lower sublattice) come first, so for
    the catalog models e1 is the chain-bearing eigenvector.
    """
    if bh.q_star is None:
        raise ParamViolationError(f"model {bh.name!r} has no degeneracy point")
    states = zero_energy_states(bh.b(bh.q_star), bh.b_prime(bh.q_star), tol)
    return [(f"e{i + 1}", s.vector) for i, s in enumerate(states)]


class ModelSpec(NamedTuple):
    builder: Callable[..., BlockHamiltonian]
    params: dict
    description: str


def _abstract_params(extra):
    out = dict(extra)
    out.update({"qstar_x": 0.0, "qstar_y": 0.0})
    return out


MODEL_CATALOG: dict[str, ModelSpec] = {
    "doublet-ep2": ModelSpec(
        doublet_ep2_model,
        _abstract_params({"v_x": 1.0, "v_y": 1.0, "c": 1.0}),
        "SU(2) doublet of 2-blocks; sqrt dispersion, two limit vectors",
    ),
    "ep4-sqrt": ModelSpec(
        ep4_sqrt_model,
        _abstract_params({"b2": 1.0, "bp1": 1.0, "bp4": 1.0,
                          "v1": 0.9, "v4": 0.7, "vp3": 0.8}),
        "4-block with sqrt dispersion; all eigenvectors collapse to e1",
    ),
    "ep4-quartic": ModelSpec(
        ep4_quartic_model,
        _abstract_params({"b2": 1.0, "bp1": 1.0, "bp4": 1.0, "v3": 0.9}),
        "4-block with quartic-root dispersion",
    ),
    "ep3": ModelSpec(
        ep3_model,
        _abstract_params({"b2": 1.0, "bp1": 1.0, "bp2": 2.0, "v1": 1.0,
                          "v3": 0.4, "v4": 0.6, "vp3": 0.9, "vp4": 0.5,
                          "rp3": 0.3, "rp4": -3.0}),
        "mixed 3-block plus zero mode; path-dependent coalescence",
    ),
    "kitaev": ModelSpec(
        kitaev_model,
        {"j1": 1.0, "j2": 1.0, "j3": 1.0, "phi1": 0.0, "phi2": 0.0},
        "one-flavour honeycomb Majorana model with complex couplings",
    ),
    "yao-lee-ep4": ModelSpec(
        yao_lee_ep4_model,
        {"jt": 1.0, "phi": 0.3, "z1": 0.1, "z2": 0.0, "zp1": 0.1, "zp2": 0.0,
         "j01": 3.0, "j02": 1.0, "j03": 1.0},
        "six-band spin-liquid construction hosting a 4-block",
    ),
    "yao-lee-ep3": ModelSpec(
        yao_lee_ep3_model,
        {"jt": 1.0, "phi": 0.3, "z1": 0.1, "z2": 0.0, "zp1": 0.1, "zp2": 0.0,
         "j01": 3.0, "j02": 1.0, "j03": 1.0},
        "six-band spin-liquid construction hosting a mixed 3-block",
    ),
}


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
        qx = values.pop("qstar_x")
        qy = values.pop("qstar_y")
        return spec.builder(**values, q_star=(qx, qy))
    return spec.builder(**values)
