"""Ray scans toward candidate degeneracies, coalescence profiling,
power-law dispersion fits, and Brillouin-zone minimum-singular-value search.

Branches along a ray are identified by eigenvector overlap, not by energy
ordering: near a degeneracy the energies cross and collide, and the states
are the only stable label. The matching between adjacent radii solves the
assignment problem maximizing total |overlap|. When the row-wise maxima of
the overlap matrix fall in distinct columns, that permutation is optimal (no
assignment beats the sum of the row maxima) and decides the match at once;
otherwise an O(n^3) shortest-augmenting-path solver (Kuhn-Munkres in the
form of Jonker & Volgenant, 1987) runs on plain lists, n = 2N being small.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import classify as _classify
from . import cmatrix
from .cmatrix import DEFAULT_TOL
from .errors import EpkitError, NoiseFloorReachedError, ZeroVectorError
from .sublattice import BlockHamiltonian, _spectra, assemble

#: 12 log-spaced radii across the asymptotic window. Below ~1e-6 the
#: conditioning of near-defective eigenproblems starts eating the signal.
DEFAULT_RADII = np.geomspace(1e-2, 1e-6, 12)

#: Settings of :func:`bz_scan`, described there; 2**22 complex128 entries
#: of H take 64 MiB.
COARSE_FRACTION = 0.5
MAX_EVALS = 200
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
    normalized internally; zero vectors are rejected.
    """
    u = np.asarray(u, dtype=np.complex128).reshape(1, -1)
    v = np.asarray(v, dtype=np.complex128).reshape(1, -1)
    return float(_distances(u, v)[0, 0])


@dataclass
class PathScan:
    """Branch-resolved spectrum along a ray q_star + r (cos theta, sin theta).

    ``energies[b, k]`` is branch b at radius index k; ``states[b, k, :]`` is
    the corresponding gauge-fixed 2N-vector. Radii are strictly descending;
    radii where the sample was degenerate are recorded in ``skipped_radii``
    and absent from ``radii``.
    """

    q_star: np.ndarray
    theta: float
    radii: np.ndarray
    energies: np.ndarray
    states: np.ndarray
    skipped_radii: list = field(default_factory=list)
    branch_switches: list = field(default_factory=list)
    min_overlap: float = 1.0

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
    best = w.argmax(axis=1)
    if len(set(best.tolist())) == n:
        return best
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
    overlaps of all adjacent radii from one product; only the assignment
    runs step by step. Raises NonFiniteError when an energy or a state of
    the ray leaves the double range.
    """
    qs = np.asarray(q_star, dtype=float).reshape(2)
    if not np.isfinite(qs).all():
        raise ValueError("q_star must be finite")
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    r_all = _validate_radii(DEFAULT_RADII if radii is None else radii)
    direction = np.array([np.cos(theta), np.sin(theta)])
    two_n = 2 * bh.n
    ray = qs + r_all[:, None] * direction

    energies, states, owner = _spectra(bh.b(ray), bh.b_prime(ray), tol)
    complete = np.bincount(owner, minlength=len(r_all)) == two_n
    kept_radii = r_all[complete]
    if len(kept_radii) < 2:
        raise NoiseFloorReachedError("fewer than two usable radii in the scan")
    rows = complete[owner]
    energies = energies[rows].reshape(-1, two_n)
    states = states[rows].reshape(-1, two_n, two_n)

    # |<state i at radius k-1 | state j at radius k>| for every step; the
    # rows of step k are then taken in the branch order of radius k-1
    overlaps = np.abs(states[:-1].conj() @ states[1:].swapaxes(1, 2))
    branches = np.arange(two_n)
    perms = np.empty((len(kept_radii), two_n), dtype=int)
    perms[0] = branches
    min_overlap = 1.0
    switches = []
    for k, overlap in enumerate(overlaps, start=1):
        overlap = overlap[perms[k - 1]]
        perms[k] = _max_weight_assignment(overlap)
        worst = float(overlap[branches, perms[k]].min())
        min_overlap = min(min_overlap, worst)
        if worst < 0.9:
            switches.append({"radius": float(kept_radii[k]), "overlap": worst})
    steps = np.arange(len(kept_radii))
    return PathScan(qs, float(theta), kept_radii, energies[steps, perms.T],
                    states[steps, perms.T], r_all[~complete].tolist(),
                    switches, min_overlap)


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
    """Profile how each branch approaches each labeled target vector."""
    labels = [label for label, _ in targets]
    nb, nr, two_n = scan.states.shape
    tvecs = np.array([v for _, v in targets], dtype=np.complex128)
    tvecs = tvecs.reshape(len(labels), two_n)
    dist = _distances(scan.states.reshape(nb * nr, two_n), tvecs)
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

    Returns (exponent, r_squared). Radii where |E| has fallen below the
    noise floor are excluded; if fewer than two remain the fit is refused.
    """
    e = np.abs(scan.energies[branch_index])
    mask = e > noise_floor
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


def _coordinate_search(objective, starts, step, max_evals, lo, hi):
    """Derivative-free minimization from each of ``starts`` (shape (K, 2)):
    axis moves with shrinking steps, constrained to the box [lo, hi].

    The starts run in lockstep. Each sweep tries the slots (axis, sign) in
    order, and ``objective`` maps the (k, 2) trial points of one slot to k
    values in one call. A start moves exactly as it would alone: it stops
    after ``max_evals`` evaluations or once its step is at most 1e-10, skips
    trials outside the box, accepts a trial that lowers its value and halves
    its step after a sweep without improvement. Returns the best points,
    their values and each start's evaluation count.
    """
    best_q = np.array(starts, dtype=float)
    best_f = np.asarray(objective(best_q), dtype=float)
    steps = np.full(len(best_q), float(step))
    evals = np.ones(len(best_q), dtype=int)
    active = (evals < max_evals) & (steps > 1e-10)
    while np.any(active):
        improved = np.zeros(len(best_q), dtype=bool)
        for axis in (0, 1):
            for sign in (1.0, -1.0):
                trial = best_q.copy()
                trial[:, axis] += sign * steps
                t = trial[:, axis]
                idx = np.flatnonzero(active & (evals < max_evals)
                                     & ~((t < lo[axis]) | (t > hi[axis])))
                if not len(idx):
                    continue
                f = np.asarray(objective(trial[idx]), dtype=float)
                evals[idx] += 1
                better = f < best_f[idx]
                moved = idx[better]
                best_f[moved] = f[better]
                best_q[moved] = trial[moved]
                improved[moved] = True
        steps[active & ~improved] *= 0.5
        active = (evals < max_evals) & (steps > 1e-10)
    return best_q, best_f, evals


def _grid_minima(sig, threshold):
    """Indices (i, j), in row-major order, of the points of ``sig`` that are
    at most ``threshold`` and no larger than any of their (up to eight)
    neighbours."""
    padded = np.pad(sig, 1, constant_values=np.inf)
    neighbourhood = sliding_window_view(padded, (3, 3)).min(axis=(-2, -1))
    return np.argwhere((sig <= threshold) & (sig <= neighbourhood))


def bz_scan(bh: BlockHamiltonian, grid, bounds, tol: float = 1e-6):
    """Locate and classify degeneracy points of H(q) over a momentum window.

    The objective is the smallest singular value of H(q), which vanishes
    exactly at zero-energy degeneracies; the grid is evaluated in row
    chunks of at most GRID_CHUNK_ENTRIES entries of H. Grid local minima
    below COARSE_FRACTION * scale are refined together by a lockstep
    coordinate search: each trial move is one batched sigma_min evaluation
    over every minimum that makes it, and each minimum takes at most
    MAX_EVALS evaluations and follows the moves it would take alone.
    Refined points, in grid row-major order, are kept when
    sigma_min <= tol * scale, deduplicated, classified, and returned sorted
    by (qx, qy). A classification that raises an EpkitError is kept as
    Unclassified with the message in ``evidence["error"]``.
    """
    nx, ny = int(grid[0]), int(grid[1])
    if nx < 16 or ny < 16:
        raise ValueError("grid must be at least 16 points per axis")
    (qx_min, qx_max), (qy_min, qy_max) = bounds
    if not np.isfinite([qx_min, qx_max, qy_min, qy_max]).all():
        raise ValueError("bounds must be finite")
    if not (qx_min < qx_max and qy_min < qy_max):
        raise ValueError("bounds must be increasing per axis")

    qx = np.linspace(qx_min, qx_max, nx)
    qy = np.linspace(qy_min, qy_max, ny)
    rows = max(1, GRID_CHUNK_ENTRIES // (ny * (2 * bh.n) ** 2))
    sig = np.empty((nx, ny))
    scale = cmatrix._ABS_FLOOR
    for start in range(0, nx, rows):
        chunk = np.stack(np.meshgrid(qx[start:start + rows], qy, indexing="ij"),
                         axis=-1)
        svals = np.linalg.svd(assemble(bh, chunk), compute_uv=False)
        sig[start:start + rows] = svals[..., -1]
        scale = max(scale, float(np.max(svals[..., 0])))
    minima = _grid_minima(sig, COARSE_FRACTION * scale)
    if not len(minima):
        return []

    def sigma_min(q):
        return np.linalg.svd(assemble(bh, q), compute_uv=False)[..., -1]

    starts = np.stack([qx[minima[:, 0]], qy[minima[:, 1]]], axis=-1)
    step0 = max(qx[1] - qx[0], qy[1] - qy[0])
    lo = np.array([qx_min, qy_min])
    hi = np.array([qx_max, qy_max])
    refined, values, _ = _coordinate_search(sigma_min, starts, step0,
                                            MAX_EVALS, lo, hi)
    candidates = []
    for q0, q_ref, f_ref in zip(starts, refined, values):
        if f_ref > tol * scale:
            continue
        if any(np.max(np.abs(q_ref - c.q_refined)) < 1e-6 for c in candidates):
            continue
        result = _classify_candidate(bh, q_ref, tol)
        candidates.append(BZCandidate(q0, q_ref, float(f_ref), result))
    candidates.sort(key=lambda c: (c.q_refined[0], c.q_refined[1]))
    return candidates


def _classify_candidate(bh, q, tol):
    try:
        return _classify.classify_point(bh.b(q), bh.b_prime(q), tol)
    except EpkitError as exc:  # tolerance pathology at an inexact point
        return _classify.EPClassification(
            _classify.EPKind.UNCLASSIFIED, {"error": str(exc)}
        )
