"""Ray scans toward candidate degeneracies, coalescence profiling,
power-law dispersion fits, and a BZ search for the zeros of det B and det B'.

Branches along a ray are identified by eigenvector overlap, not by energy
ordering: near a degeneracy the energies cross and collide, and the states
are the only stable label. The matching between adjacent radii solves the
assignment problem maximizing total |overlap|. When the row-wise maxima of
the overlap matrix fall in distinct columns, that permutation is optimal (no
assignment beats the sum of the row maxima), so the row maxima of all steps
of a ray, read in one pass, decide those steps at once; only where they
collide does an O(n^3) shortest-augmenting-path solver (Kuhn-Munkres in the
form of Jonker & Volgenant, 1987) run, on plain lists, n = 2N being small.
"""

from dataclasses import dataclass, field

import numpy as np

from . import classify as _classify
from . import cmatrix
from .cmatrix import DEFAULT_TOL
from .errors import EpkitError, NoiseFloorReachedError, ZeroVectorError
from .sublattice import (BlockHamiltonian, _grid_blocks, _pow2_above,
                         _pow2_rows, _pow2_scales, _spectra)

#: 12 log-spaced radii across the asymptotic window. Below ~1e-6 the
#: conditioning of near-defective eigenproblems starts eating the signal.
DEFAULT_RADII = np.geomspace(1e-2, 1e-6, 12)

#: Settings of :func:`bz_scan`, described there (BZ_TOL is its default
#: tol); the blocks of a grid chunk take at most GRID_CHUNK_ENTRIES // 2
#: complex128 entries (32 MiB).
BZ_TOL = 1e-6
COARSE_FRACTION = 0.25
NEWTON_STEPS = 60
GRID_CHUNK_ENTRIES = 2 ** 22

CONVERGES = "ConvergesToZero"
BOUNDED = "BoundedAway"
INDETERMINATE = "Indeterminate"


def _distances(states: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """D^2 of every row of ``states`` (m, n) to every row of ``targets``
    (t, n), shape (m, t), from one overlap product; see
    :func:`quantum_distance`."""
    ns, nt = cmatrix.row_norms(states), cmatrix.row_norms(targets)
    if np.any(ns < 1e-150) or np.any(nt < 1e-150):
        raise ZeroVectorError("quantum distance of a zero vector is undefined")
    # one dot product per pair, as np.vdot rounds it (a matrix product
    # rounds differently)
    overlap = (states.conj()[:, None, None, :] @ targets[:, :, None])[..., 0, 0]
    overlap = np.hypot(overlap.real, overlap.imag) / (ns[:, None] * nt)
    return np.clip(2.0 - 2.0 * overlap, 0.0, 2.0)


def quantum_distance(u, v) -> float:
    """Squared quantum distance 2 - 2 |<u|v>|, clamped to [0, 2].

    Gauge-invariant: insensitive to the phases of both states. Inputs are
    normalized internally, after each is divided by the power of two above
    its largest real or imaginary part (:func:`sublattice._pow2_rows`,
    exact), so their scales are free: vectors scaled by powers of two give
    the same bits. An all-zero vector raises ZeroVectorError, and one with
    a non-finite entry NonFiniteError.
    """
    u = _pow2_rows(np.reshape(u, (1, -1)))
    v = _pow2_rows(np.reshape(v, (1, -1)))
    return float(_distances(u, v)[0, 0])


@dataclass
class PathScan:
    """Branch-resolved spectrum along a ray q_star + r (cos theta, sin theta).

    ``energies[b, k]`` is branch b at radius index k; ``states[b, k, :]`` is
    the corresponding gauge-fixed 2N-vector. Radii are strictly descending;
    radii where the sample was degenerate are recorded in ``skipped_radii``
    and absent from ``radii``. ``scale`` is the largest power-of-two pair
    scale (:func:`sublattice.pow2_scale`) of the ray's samples, the unit
    of :func:`scaling_exponent`'s noise floor.
    """

    q_star: np.ndarray
    theta: float
    radii: np.ndarray
    energies: np.ndarray
    states: np.ndarray
    skipped_radii: list = field(default_factory=list)
    branch_switches: list = field(default_factory=list)
    min_overlap: float = 1.0
    scale: float = 1.0

    @property
    def n_branches(self) -> int:
        return self.energies.shape[0]


def _validate_radii(radii) -> np.ndarray:
    r = np.asarray(radii, dtype=float).reshape(-1)
    if r.size < 4:
        raise ValueError("need at least 4 radii")
    if not np.isfinite(r).all():
        raise ValueError("radii must be finite")
    if np.any(r <= 0) or np.any(np.diff(r) >= 0):
        raise ValueError("radii must be positive and strictly descending")
    if r[0] / r[-1] < 99.0:
        raise ValueError("radii must span at least two decades")
    return r


def _max_weight_assignment(w) -> np.ndarray:
    """Permutation p maximizing sum_i w[i, p[i]] over a square real matrix."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("assignment weights must be a square matrix")
    n = w.shape[0]
    if not np.isfinite(w).all():
        raise ValueError("assignment weights must be finite")
    # Shortest augmenting paths on the cost -w, one row at a time, keeping
    # reduced costs cost[i][j] - u[i] - v[j] >= 0. Column n is the virtual
    # start of each path; row_of[j] is the row assigned to column j.
    cost = (-w).tolist()
    inf = float("inf")
    u = [0.0] * n
    v = [0.0] * (n + 1)
    row_of = [-1] * (n + 1)
    for i in range(n):
        row_of[n] = i
        dist = [inf] * n
        prev = [n] * n
        used = [False] * (n + 1)
        j0 = n
        while True:
            used[j0] = True
            i0 = row_of[j0]
            row, ui = cost[i0], u[i0]
            delta, j1 = inf, -1
            for j in range(n):
                if not used[j]:
                    reduced = row[j] - ui - v[j]
                    if reduced < dist[j]:
                        dist[j], prev[j] = reduced, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(n + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
            if row_of[j0] < 0:
                break
        while j0 != n:
            row_of[j0] = row_of[prev[j0]]
            j0 = prev[j0]
    perm = np.empty(n, dtype=int)
    perm[row_of[:n]] = np.arange(n)
    return perm


def path_scan(bh: BlockHamiltonian, q_star, theta: float, radii=None,
              tol: float = DEFAULT_TOL) -> PathScan:
    """Track all 2N branches along a ray toward q_star.

    Samples where the reduced spectrum does not resolve 2N distinct states
    (e.g. an accidental degeneracy crossing the ray) are flagged and
    skipped. Adjacent radii are linked by maximal-overlap assignment; a
    matched overlap below 0.9 is recorded as a branch-switch diagnostic.

    The ray is one batched pass: the blocks are evaluated once, the reduced
    spectra of all radii come from one kernel (see
    :func:`epkit.sublattice.reduced_spectrum`, its one-pair case), and the
    overlaps of all adjacent radii from one product. Every step whose row
    maxima fall in distinct columns is decided by them, all steps in one
    reading; the assignment solver runs only at the steps where they
    collide, and step by step remains only the composition of each step's
    permutation with the branch order before it. Raises NonFiniteError
    when an energy or a state of the ray leaves the double range.
    """
    qs = np.asarray(q_star, dtype=float).reshape(2)
    if not np.isfinite(qs).all():
        raise ValueError("q_star must be finite")
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    cmatrix._check_tol(tol)
    r_all = _validate_radii(DEFAULT_RADII if radii is None else radii)
    direction = np.array([np.cos(theta), np.sin(theta)])
    two_n = 2 * bh.n
    ray = qs + r_all[:, None] * direction

    energies, states, owner, scales = _spectra(bh.b(ray), bh.b_prime(ray), tol)
    complete = np.bincount(owner, minlength=len(r_all)) == two_n
    kept_radii = r_all[complete]
    if len(kept_radii) < 2:
        raise NoiseFloorReachedError("fewer than two usable radii in the scan")
    rows = complete[owner]
    energies = energies[rows].reshape(-1, two_n)
    states = states[rows].reshape(-1, two_n, two_n)

    # |<state i at radius k-1 | state j at radius k>| for every step, in
    # the order of the states. Step k reads its rows in the branch order
    # perms[k - 1], which moves no row's maximum: where the row maxima fall
    # in distinct columns, each branch goes to its row's argmax and the
    # worst matched overlap is the smallest row maximum. Only the steps
    # whose maxima collide go to the solver, rows in branch order, as its
    # tie-breaking depends on that order
    overlaps = np.abs(states[:-1].conj() @ states[1:].swapaxes(1, 2))
    best = overlaps.argmax(axis=2)
    worst = overlaps.max(axis=2).min(axis=1)
    ordered = np.sort(best, axis=1)
    collide = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
    branches = np.arange(two_n)
    perms = np.empty((len(kept_radii), two_n), dtype=int)
    perms[0] = branches
    for k, hit in enumerate(collide.tolist(), start=1):
        if hit:
            overlap = overlaps[k - 1][perms[k - 1]]
            perms[k] = _max_weight_assignment(overlap)
            worst[k - 1] = overlap[branches, perms[k]].min()
        else:
            perms[k] = best[k - 1][perms[k - 1]]
    min_overlap = min(1.0, float(worst.min()))
    switches = [{"radius": float(kept_radii[k]), "overlap": float(worst[k - 1])}
                for k in np.flatnonzero(worst < 0.9) + 1]
    steps = np.arange(len(kept_radii))
    return PathScan(qs, float(theta), kept_radii, energies[steps, perms.T],
                    states[steps, perms.T], r_all[~complete].tolist(),
                    switches, min_overlap, float(scales.max()))


@dataclass
class CoalescenceProfile:
    """Quantum distances of every branch to every target, with verdicts.

    ``distances[b, k, t]`` is D^2(branch b at radius k, target t). The
    verdict per (branch, target) is ConvergesToZero when the distance at
    the smallest radius is below the convergence threshold and the last
    three samples decrease monotonically; BoundedAway when the final
    distance exceeds the bounded-away threshold; Indeterminate in between
    (deliberately: the qualitative limits should not fabricate a sharp
    boundary).
    """

    target_labels: list
    targets: np.ndarray
    distances: np.ndarray
    verdicts: np.ndarray
    converge_threshold: float
    bounded_threshold: float


def coalescence_profile(scan: PathScan, targets,
                        converge_threshold: float = 1e-3,
                        bounded_threshold: float = 0.05) -> CoalescenceProfile:
    """Profile how each branch approaches each labeled target vector.

    Each target is divided by the power of two above its largest real or
    imaginary part (:func:`sublattice._pow2_rows`, exact) before its
    overlaps are taken,
    so targets scaled by powers of two give the same bits and any nonzero
    scale the same verdicts; an all-zero target raises ZeroVectorError,
    and one with a non-finite entry NonFiniteError. ``targets`` in the
    profile are the vectors as given.
    """
    labels = [label for label, _ in targets]
    nb, nr, two_n = scan.states.shape
    tvecs = np.array([v for _, v in targets], dtype=np.complex128)
    tvecs = tvecs.reshape(len(labels), two_n)
    dist = _distances(scan.states.reshape(nb * nr, two_n), _pow2_rows(tvecs))
    dist = dist.reshape(nb, nr, len(labels))
    final = dist[:, -1]
    converges = (final < converge_threshold) & np.all(
        np.diff(dist[:, -3:], axis=1) <= 0, axis=1)
    verdicts = np.select([converges, final > bounded_threshold],
                         [CONVERGES, BOUNDED], INDETERMINATE).astype(object)
    return CoalescenceProfile(labels, tvecs, dist, verdicts,
                              converge_threshold, bounded_threshold)


def scaling_exponent(scan: PathScan, branch_index: int,
                     noise_floor: float = 1e-12):
    """Least-squares slope of log |E| against log |dq| for one branch.

    Returns (exponent, r_squared). Radii where |E| is at or below
    ``noise_floor * scan.scale`` are excluded, the floor in units of the
    ray's largest pair scale, so the fit does not depend on the overall
    scale of the blocks; if fewer than two remain the fit is refused.
    """
    e = np.abs(scan.energies[branch_index])
    mask = e > noise_floor * scan.scale
    if np.sum(mask) < 2:
        raise NoiseFloorReachedError(
            f"branch {branch_index}: fewer than two energies above the noise floor"
        )
    x = np.log(scan.radii[mask])
    y = np.log(e[mask])
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r_squared)


@dataclass
class BZCandidate:
    """One refined degeneracy candidate from a BZ scan."""

    q_grid: np.ndarray
    q_refined: np.ndarray
    sigma_min: float
    classification: _classify.EPClassification


def _newton_roots(dets, starts, lo, hi):
    """Gauss-Newton on (Re f, Im f) from the starts of every side in one
    lockstep, each start exactly as alone: ``starts[i]`` (K_i, 2) are the
    starts of side i, whose f is ``dets[i]``. A step calls each side's
    ``det`` once, on the (k, 5, 2) momenta of that side's active starts
    and their neighbours at +-w, and the rest of the step runs once for
    the starts of all sides. A start moves by -m pinv(J) (Re f, Im f)
    clipped to the box [lo, hi]; J is the central difference over w.

    m is the order of the start's zero, 1 until two plain steps in a row
    have each kept the same share (0.4 to 0.95, within 0.05) of the one
    before: at a zero of order m, f ~ c dq^m, so J dq = m f and a plain
    step keeps 1 - 1/m of the distance. From then on the start takes
    Schroeder's m-fold step, which converges quadratically again, as long
    as |f| falls: a start whose |f| did not fall since its last evaluation
    goes back to m = 1 (and may settle on an order again), as a step of the
    wrong order jumps across a simple zero and back. w is
    h = cbrt(eps) * max(hi - lo) until m is known, then the start's last
    move clipped to [sqrt(eps) * max|lo, hi|, h]: near a multiple zero J
    is as small as the distance, and a fixed h would bias it. A start
    whose steps shrink faster, as near any simple zero, keeps m = 1 and
    w = h and takes the plain Gauss-Newton steps.

    A start stops when its plain step is below the resolution
    eps * max|lo, hi|, when its step leaves the box (its zero lies
    outside), or after NEWTON_STEPS steps. It also stops, without taking
    the step, when its plain step is no smaller than the one before for
    the second step in a row: it has reached det's rounding noise, and from
    there it would only wander. Returns the final points, side after
    side."""
    eps = np.finfo(float).eps
    h = np.cbrt(eps) * np.max(hi - lo)
    reach = np.max(np.abs([lo, hi]))
    resolution, narrowest = eps * reach, np.sqrt(eps) * reach
    units = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                      [0.0, -1.0]])
    q = np.concatenate([np.asarray(s, dtype=float).reshape(-1, 2)
                        for s in starts])
    # the starts of side i are rows ends[i]:ends[i + 1] of q; active stays
    # sorted, so the active starts of each side are one run of it
    ends = np.cumsum([0] + [len(s) for s in starts])
    active = np.arange(len(q))
    width, order = np.full(len(q), h), np.ones(len(q))
    last, kept_before = np.full(len(q), np.inf), np.zeros(len(q))
    last_f = np.full(len(q), np.inf)
    stalls = np.zeros(len(q), dtype=int)
    for _ in range(NEWTON_STEPS):
        if not len(active):
            break
        w = width[active]
        points = q[active, None] + w[:, None, None] * units
        runs = np.searchsorted(active, ends).tolist()
        f = np.concatenate([det(points[a:z]) for det, a, z
                            in zip(dets, runs, runs[1:]) if z > a])
        slope = (f[:, [1, 3]] - f[:, [2, 4]]) / (2 * w[:, None])
        jac = np.stack([slope.real, slope.imag], axis=1)
        residual = np.stack([f[:, 0].real, f[:, 0].imag], axis=-1)
        size_f = np.abs(f[:, 0])
        order[active[size_f >= last_f[active]]] = 1
        last_f[active] = size_f
        step = (np.linalg.pinv(jac, rcond=1e-12) @ residual[..., None])[..., 0]
        size = np.max(np.abs(step), axis=-1)
        # the share of the previous step that this one kept; only a share
        # below 0.95 can fix m, so 1 / (1 - kept) stays finite
        kept = size / last[active]
        settled = ((order[active] == 1) & (kept >= 0.4) & (kept < 0.95)
                   & (np.abs(kept - kept_before[active]) < 0.05))
        order[active[settled]] = np.rint(1 / (1 - kept[settled]))
        kept_before[active] = kept
        stalls[active] = np.where(size >= last[active], stalls[active] + 1, 0)
        last[active] = size
        moving = stalls[active] < 2
        active, step, size = active[moving], step[moving], size[moving]
        m = order[active]
        target = q[active] - m[:, None] * step
        q[active] = np.clip(target, lo, hi)
        width[active] = np.where(m == 1, h, np.clip(m * size, narrowest, h))
        inside = np.all((target >= lo) & (target <= hi), axis=-1)
        active = active[inside & (size > resolution)]
    return q


def _grid_minima(sig, threshold):
    """Indices (i, j), in row-major order, of the points of ``sig`` that are
    at most ``threshold`` and no larger than any of their (up to eight)
    neighbours."""
    padded = np.pad(sig, 1, constant_values=np.inf)
    # the 3 x 3 minimum as a 3-point minimum down the rows, then across
    rows = np.minimum(np.minimum(padded[:-2], padded[1:-1]), padded[2:])
    neighbourhood = np.minimum(np.minimum(rows[:, :-2], rows[:, 1:-1]),
                               rows[:, 2:])
    return np.argwhere((sig <= threshold) & (sig <= neighbourhood))


def _abs_dets(a):
    """|det| of every matrix of the stack ``a`` (..., N, N), by cofactors
    for N = 2 and 3 and by np.linalg.det from N = 4, where it is the only
    path. np.linalg.det runs an LU factorisation per matrix and returns
    sign * exp(log |det|); the cofactors are a few elementwise products of
    the stack's entry planes, and agree with it to rounding. They also
    stay finite where every entry is subnormal, and the LU's division by
    a subnormal pivot can make np.linalg.det NaN."""
    n = a.shape[-1]
    if n == 2:
        det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    elif n == 3:
        (p, q, r), (s, t, u), (v, w, x) = (
            [a[..., i, j] for j in range(3)] for i in range(3))
        det = p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)
    else:
        det = np.linalg.det(a)
    return np.abs(det)


def bz_scan(bh: BlockHamiltonian, grid, bounds, tol: float = BZ_TOL):
    """Locate and classify degeneracy points of H(q) over a momentum window.

    H is singular exactly where det B or det B' vanishes, and its singular
    values are those of B and B', so H is never formed. Each grid row chunk
    takes both blocks from :func:`sublattice._grid_blocks`: the model's grid
    form when it has one (the lattice models' outer products of 1-D phase
    factors), else one generator call per side. A side's objective is
    |det(blocks / s)|^(1/N) * s, s the pair's :func:`sublattice.pow2_scale`,
    and ``scale`` is the largest s; |det| comes from the cofactors at N = 2
    and 3 and from np.linalg.det from N = 4 (:func:`_abs_dets`). At N = 1
    the objective is the modulus of the entry itself, and ``scale`` the
    power of two of the grid's peak modulus: np.linalg.det would run an LU
    factorisation and a log-sum on every 1 x 1 matrix, and no entry needs
    dividing. The grid minima of
    both sides below COARSE_FRACTION * scale (B first, row-major) start
    one lockstep of :func:`_newton_roots`, each on det(blocks / scale) of
    its own side from the pointwise generators, which takes m-fold steps
    at a zero of order m (a double zero at doublet-ep2, ep4-sqrt and
    yao-lee-ep4). The grid only chooses the starts and the scale, so a
    grid form or the cofactors move a point only where their rounding
    moves a grid minimum or the scale's power of two. A point is kept when
    sigma_min = min(sigma_min(B), sigma_min(B')) <= tol * scale and then
    deduplicated. The kept points are classified together, from the blocks
    evaluated for sigma_min, in one stacked pass whose one-pair case is
    :func:`classify.classify_point`, except that a block counts as zero
    below tol * max(its pair's scale, ``scale``), the cut that kept the
    point: where both blocks vanish to rounding, as at a Hermitian Kitaev
    Dirac point (|A(q*)| ~ 1e-15), the point reads Diabolic, not
    Nondegenerate as against the pair's own tiny scale. A verdict is thus
    relative to the window's peak: a block that is nonzero but below
    tol * ``scale`` reads as zero, so a wider window, whose peak is higher,
    can read such a point as less defective. The points are
    sorted by (qx, qy); a point whose classification raises an EpkitError
    is kept as Unclassified with ``evidence["error"]``, and the others keep
    their verdicts.
    """
    nx, ny = int(grid[0]), int(grid[1])
    if nx < 16 or ny < 16:
        raise ValueError("grid must be at least 16 points per axis")
    (qx_min, qx_max), (qy_min, qy_max) = bounds
    if not np.isfinite([qx_min, qx_max, qy_min, qy_max]).all():
        raise ValueError("bounds must be finite")
    if not (qx_min < qx_max and qy_min < qy_max):
        raise ValueError("bounds must be increasing per axis")
    cmatrix._check_tol(tol)

    qx = np.linspace(qx_min, qx_max, nx)
    qy = np.linspace(qy_min, qy_max, ny)
    rows = max(1, GRID_CHUNK_ENTRIES // (ny * (2 * bh.n) ** 2))
    sig = np.empty((2, nx, ny))
    scale = 0.0
    for start in range(0, nx, rows):
        chunk = slice(start, start + rows)
        blocks = _grid_blocks(bh, qx[chunk], qy)
        if bh.n == 1:
            sig[:, chunk] = np.abs(blocks[..., 0, 0])
            continue
        s = _pow2_scales(*blocks)
        dets = _abs_dets(blocks / s[..., None, None])
        sig[:, chunk] = dets ** (1 / bh.n) * s
        scale = max(scale, float(s.max()))
    if bh.n == 1:
        # the largest s: the power of two of the grid's peak modulus
        scale = float(_pow2_above(sig.max()))

    lo, hi = np.array(bounds, dtype=float).T
    minima = [_grid_minima(side_sig, COARSE_FRACTION * scale) for side_sig in sig]
    if not any(len(m) for m in minima):
        return []
    starts = [np.stack([qx[m[:, 0]], qy[m[:, 1]]], axis=-1) for m in minima]
    sides = (bh.b, bh.b_prime)
    roots = _newton_roots(
        [lambda q, side=side: np.linalg.det(side(q) / scale) for side in sides],
        starts, lo, hi)
    starts = np.concatenate(starts)
    b, bp = (side(roots) for side in sides)
    sigma = np.linalg.svd(np.stack([b, bp]) / scale,
                          compute_uv=False)[..., -1].min(axis=0) * scale

    kept = []
    for i, (q_ref, f_ref) in enumerate(zip(roots, sigma)):
        if f_ref > tol * scale:
            continue
        if any(np.max(np.abs(q_ref - roots[j])) < 1e-6 for j in kept):
            continue
        kept.append(i)
    if not kept:
        return []
    results = _classify._classify_pairs(b[kept], bp[kept], tol, scale)
    candidates = [BZCandidate(starts[i], roots[i], float(sigma[i]), _verdict(r))
                  for i, r in zip(kept, results)]
    candidates.sort(key=lambda c: (c.q_refined[0], c.q_refined[1]))
    return candidates


def _verdict(result):
    """A candidate's classification, or Unclassified with
    ``evidence["error"]`` for the EpkitError of a tolerance pathology at an
    inexact point."""
    if isinstance(result, EpkitError):
        return _classify.EPClassification(
            _classify.EPKind.UNCLASSIFIED, {"error": str(result)})
    return result
