"""Correctness oracles built apart from epkit.

Nothing here imports epkit. Every expected answer comes from the paper's
closed forms or from exact arithmetic:

* the zeros of the Kitaev hopping A(q) from the law of cosines;
* Jordan block sizes at E = 0 from exact rank sequences of H^k over the
  Gaussian rationals (sympy), which is the zero-energy part of the exact
  Jordan form;
* dispersion exponents from the leading-order theory of each model.

Each check raises ``OracleError`` with a message saying what was wrong.
"""

import math

import numpy as np

#: Triangular Bravais lattice vectors of the honeycomb models.
R1 = np.array([1.0, 0.0])
R2 = np.array([0.5, math.sqrt(3.0) / 2.0])

#: The Kitaev Brillouin-zone window: q.r1 in [-pi, pi], q.r2 likewise
#: up to the sheared qy range.
KITAEV_WINDOW = ((-math.pi, math.pi),
                 (-math.sqrt(3.0) * math.pi, math.sqrt(3.0) * math.pi))

#: Zero-energy block sizes of the algebraic taxonomy.
KIND_BLOCKS = {
    "DoubletEP2": [2, 2],
    "EP4": [4],
    "EP3Mixed": [3, 1],
    "Nondegenerate": [],
}

#: Leading-order dispersion exponents of every branch, sorted, per model
#: and ray. Models other than ep3 are isotropic, so ``None`` stands for
#: every angle.
EXPONENTS = {
    ("doublet-ep2", None): [0.5, 0.5, 0.5, 0.5],
    ("ep4-sqrt", None): [0.5, 0.5, 0.5, 0.5],
    ("ep4-quartic", None): [0.25, 0.25, 0.25, 0.25],
    ("ep3", 0.0): [0.5, 0.5, 0.5, 0.5],
    ("ep3", math.pi / 2): [0.5, 0.5, 1.0, 1.0],
}

EXPONENT_TOL = 0.05


class OracleError(AssertionError):
    """The program's output contradicts an independent fact."""


def require(cond, message):
    if not cond:
        raise OracleError(message)


# --- Kitaev honeycomb hopping --------------------------------------------


def kitaev_a(q, j1, j2, j3, phi1, phi2):
    """A(q) = 2 (J1 e^{i(q.r1 + phi1)} + J2 e^{i(q.r2 + phi2)} + J3)."""
    q = np.asarray(q, dtype=float)
    return 2.0 * (j1 * np.exp(1j * (q @ R1 + phi1))
                  + j2 * np.exp(1j * (q @ R2 + phi2)) + j3)


def kitaev_zeros(j1, j2, j3, phi1, phi2, window=KITAEV_WINDOW):
    """Every zero of A(q) inside ``window``.

    With alpha = q.r1 + phi1 and beta = q.r2 + phi2 the zero condition
    J1 e^{i alpha} + J3 = -J2 e^{i beta} fixes cos(alpha) by the law of
    cosines, and then e^{i beta} follows from alpha directly. Each of the
    two solutions is repeated over the reciprocal lattice. Couplings are
    positive reals; the gapped phase returns [].
    """
    cos_a = (j2 * j2 - j1 * j1 - j3 * j3) / (2.0 * j1 * j3)
    if abs(cos_a) > 1.0:
        return []
    (x0, x1), (y0, y1) = window
    zeros = []
    for alpha in (math.acos(cos_a), -math.acos(cos_a)):
        beta = np.angle(-(j3 + j1 * np.exp(1j * alpha)) / j2)
        t1, t2 = alpha - phi1, beta - phi2
        for n1 in range(-3, 4):
            for n2 in range(-3, 4):
                a1 = t1 + 2 * math.pi * n1
                a2 = t2 + 2 * math.pi * n2
                # q.r1 = a1 and q.r2 = a2 solved for Cartesian q.
                q = np.array([a1, (2.0 * a2 - a1) / math.sqrt(3.0)])
                if x0 <= q[0] <= x1 and y0 <= q[1] <= y1:
                    zeros.append(q)
    return zeros


def check_kitaev_scan(rows, couplings, tol, window=KITAEV_WINDOW,
                      expect_blocks=None):
    """Hold BZ-scan rows of the Kitaev model to the closed-form zeros.

    ``rows`` are (q, blocks) pairs, ``blocks`` being the reported Jordan
    block sizes at E = 0 or None when the output does not carry them.
    Every zero of A(q) inside the window must be found within 1e-4, and
    every row must sit on a zero of A(q) or A(-q) to tol * 2 (J1 + J2 + J3).
    """
    j1, j2, j3, phi1, phi2 = couplings
    scale = 2.0 * (abs(j1) + abs(j2) + abs(j3))
    found = [np.asarray(q, dtype=float) for q, _ in rows]
    zeros = kitaev_zeros(j1, j2, j3, phi1, phi2, window)
    require(zeros, f"no zeros of A(q) in the window for {couplings}")
    for z in zeros:
        best = min((np.max(np.abs(q - z)) for q in found), default=math.inf)
        require(best <= 1e-4,
                f"zero of A at {z.tolist()} missed by {best:.3g} for {couplings}")
    for q, blocks in rows:
        resid = min(abs(kitaev_a(q, *couplings)), abs(kitaev_a(-q, *couplings)))
        require(resid <= tol * scale,
                f"candidate {q.tolist()} has min|A(+-q)| = {resid:.3g} "
                f"> {tol * scale:.3g} for {couplings}")
        if expect_blocks is not None:
            require(blocks == expect_blocks,
                    f"candidate {q.tolist()} has zero-energy blocks {blocks}, "
                    f"expected {expect_blocks} for {couplings}")


def yao_lee_qstar(phi):
    """Degeneracy point of the six-band constructions: q~* =
    (2 pi / 3 - phi, -2 pi / 3) in reciprocal coordinates."""
    a1, a2 = 2 * math.pi / 3 - phi, -2 * math.pi / 3
    return np.array([a1, (2.0 * a2 - a1) / math.sqrt(3.0)])


# --- exact Jordan blocks at zero -----------------------------------------


def _qq_i():
    from sympy import QQ_I
    from sympy.polys.matrices import DomainMatrix
    return QQ_I, DomainMatrix


def gaussian_matrix(rows):
    """Exact matrix over the Gaussian rationals from nested lists of ints
    or (re, im) int pairs."""
    qq_i, dm = _qq_i()
    entries = [[qq_i(*e) if isinstance(e, tuple) else qq_i(e) for e in row]
               for row in rows]
    return dm(entries, (len(rows), len(rows[0])), qq_i)


def exact_assemble(b, bprime):
    """H = [[0, i B], [-i B', 0]] over the Gaussian rationals."""
    qq_i, dm = _qq_i()
    n = b.shape[0]
    zero = dm.zeros((n, n), qq_i)
    i = qq_i(0, 1)
    return zero.hstack(b * i).vstack((bprime * (-i)).hstack(zero))


def exact_zero_blocks(h):
    """Jordan block sizes at eigenvalue 0, descending, from exact ranks.

    The number of blocks of size >= k is rank(H^(k-1)) - rank(H^k).
    """
    n = h.shape[0]
    ranks = [n]
    power = h
    while True:
        ranks.append(power.rank())
        if ranks[-1] == ranks[-2]:
            break
        power = power * h
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    sizes = []
    for k in range(len(at_least), 0, -1):
        nxt = at_least[k] if k < len(at_least) else 0
        sizes.extend([k] * (at_least[k - 1] - nxt))
    return sorted(sizes, reverse=True)


def to_complex(m):
    """Float complex128 array of an exact Gaussian-rational matrix."""
    rows = m.to_Matrix().tolist()
    return np.array([[complex(e) for e in row] for row in rows],
                    dtype=np.complex128)


# --- ray scans -----------------------------------------------------------


def expected_exponents(model, theta):
    key = (model, None) if (model, None) in EXPONENTS else (model, theta)
    require(key in EXPONENTS, f"no theory exponents for {model} at {theta}")
    return EXPONENTS[key]


def check_exponents(model, theta, exponents):
    want = expected_exponents(model, theta)
    got = sorted(exponents)
    require(len(got) == len(want)
            and all(abs(g - w) <= EXPONENT_TOL for g, w in zip(got, want)),
            f"{model} at theta={theta:.6g}: exponents {got}, theory {want}")


def check_pairing(energies, h_norm, rel=1e-9):
    """Every E has a partner -E to rel * ||H||."""
    e = np.asarray(energies, dtype=complex)
    for x in e:
        gap = np.min(np.abs(e + x))
        require(gap <= rel * h_norm,
                f"energy {x} has no -E partner (gap {gap:.3g}, "
                f"||H|| = {h_norm:.3g})")


def check_distances(d2):
    d2 = np.asarray(d2, dtype=float)
    require(np.all(np.isfinite(d2)) and np.all((d2 >= 0.0) & (d2 <= 2.0)),
            f"quantum distances outside [0, 2]: [{d2.min()}, {d2.max()}]")
