"""Ray scans toward candidate degeneracies, coalescence profiling,
power-law dispersion fits, and Brillouin-zone minimum-singular-value search.

Branches along a ray are identified by eigenvector overlap, not by energy
ordering: near a degeneracy the energies cross and collide, and the states
are the only stable label. The matching between adjacent radii solves the
assignment problem maximizing total |overlap|.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import linear_sum_assignment

from . import classify as _classify
from . import cmatrix
from .cmatrix import DEFAULT_TOL
from .errors import EpkitError, NoiseFloorReachedError, ZeroVectorError
from .sublattice import BlockHamiltonian, assemble, reduced_spectrum

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


def quantum_distance(u, v) -> float:
    """Squared quantum distance 2 - 2 |<u|v>|, clamped to [0, 2].

    Gauge-invariant: insensitive to the phases of both states. Inputs are
    normalized internally; zero vectors are rejected.
    """
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-150 or nv < 1e-150:
        raise ZeroVectorError("quantum distance of a zero vector is undefined")
    overlap = abs(np.vdot(u, v)) / (nu * nv)
    return float(min(2.0, max(0.0, 2.0 - 2.0 * overlap)))


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
    if np.any(r <= 0) or np.any(np.diff(r) >= 0):
        raise ValueError("radii must be positive and strictly descending")
    if r[0] / r[-1] < 99.0:
        raise ValueError("radii must span at least two decades")
    return r


def match_branches(prev_states: np.ndarray, new_states: np.ndarray):
    """Permutation p maximizing sum_b |<prev[b] | new[p[b]]>|."""
    overlap = np.abs(prev_states.conj() @ new_states.T)
    rows, cols = linear_sum_assignment(-overlap)
    perm = np.empty(len(cols), dtype=int)
    perm[rows] = cols
    matched = overlap[rows, cols]
    return perm, float(np.min(matched))


def path_scan(bh: BlockHamiltonian, q_star, theta: float, radii=None,
              tol: float = DEFAULT_TOL) -> PathScan:
    """Track all 2N branches along a ray toward q_star.

    Samples where the reduced spectrum does not resolve 2N distinct states
    (e.g. an accidental degeneracy crossing the ray) are flagged and
    skipped. Adjacent radii are linked by maximal-overlap assignment; a
    matched overlap below 0.9 is recorded as a branch-switch diagnostic.
    The blocks are evaluated once for the whole ray.
    """
    qs = np.asarray(q_star, dtype=float).reshape(2)
    r_all = _validate_radii(DEFAULT_RADII if radii is None else radii)
    direction = np.array([np.cos(theta), np.sin(theta)])
    two_n = 2 * bh.n
    ray = qs + r_all[:, None] * direction

    kept_radii = []
    kept_energies = []
    kept_states = []
    skipped = []
    for r, b, bp in zip(r_all, bh.b(ray), bh.b_prime(ray)):
        states = reduced_spectrum(b, bp, tol)
        if len(states) != two_n:
            skipped.append(float(r))
            continue
        kept_radii.append(float(r))
        kept_energies.append(np.array([s.energy for s in states]))
        kept_states.append(np.array([s.vector for s in states]))
    if len(kept_radii) < 2:
        raise NoiseFloorReachedError("fewer than two usable radii in the scan")

    energies = np.empty((two_n, len(kept_radii)), dtype=np.complex128)
    vectors = np.empty((two_n, len(kept_radii), two_n), dtype=np.complex128)
    energies[:, 0] = kept_energies[0]
    vectors[:, 0] = kept_states[0]
    min_overlap = 1.0
    switches = []
    for k in range(1, len(kept_radii)):
        perm, worst = match_branches(vectors[:, k - 1], kept_states[k])
        energies[:, k] = kept_energies[k][perm]
        vectors[:, k] = kept_states[k][perm]
        min_overlap = min(min_overlap, worst)
        if worst < 0.9:
            switches.append({"radius": kept_radii[k], "overlap": worst})
    return PathScan(qs, float(theta), np.array(kept_radii), energies, vectors,
                    skipped, switches, min_overlap)


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
    tvecs = np.array([np.asarray(v, dtype=np.complex128) for _, v in targets])
    nb, nr = scan.energies.shape
    nt = len(labels)
    dist = np.empty((nb, nr, nt))
    for b in range(nb):
        for k in range(nr):
            for t in range(nt):
                dist[b, k, t] = quantum_distance(scan.states[b, k], tvecs[t])
    verdicts = np.empty((nb, nt), dtype=object)
    for b in range(nb):
        for t in range(nt):
            tail = dist[b, -3:, t]
            final = dist[b, -1, t]
            if final < converge_threshold and np.all(np.diff(tail) <= 0):
                verdicts[b, t] = CONVERGES
            elif final > bounded_threshold:
                verdicts[b, t] = BOUNDED
            else:
                verdicts[b, t] = INDETERMINATE
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


def _coordinate_search(objective, start, step, max_evals, lo, hi):
    """Derivative-free minimization: axis moves with shrinking steps,
    constrained to the box [lo, hi]."""
    best_q = np.asarray(start, dtype=float).copy()
    best_f = objective(best_q)
    evals = 1
    while evals < max_evals and step > 1e-10:
        improved = False
        for axis in (0, 1):
            for sign in (1.0, -1.0):
                if evals >= max_evals:
                    break
                trial = best_q.copy()
                trial[axis] += sign * step
                if trial[axis] < lo[axis] or trial[axis] > hi[axis]:
                    continue
                f = objective(trial)
                evals += 1
                if f < best_f:
                    best_f, best_q = f, trial
                    improved = True
        if not improved:
            step *= 0.5
    return best_q, best_f


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
    below COARSE_FRACTION * scale are refined by coordinate search (at most
    MAX_EVALS objective evaluations each); refined points are kept when
    sigma_min <= tol * scale, deduplicated, classified, and returned sorted
    by (qx, qy). A classification that raises an EpkitError is kept as
    Unclassified with the message in ``evidence["error"]``.
    """
    nx, ny = int(grid[0]), int(grid[1])
    if nx < 16 or ny < 16:
        raise ValueError("grid must be at least 16 points per axis")
    (qx_min, qx_max), (qy_min, qy_max) = bounds
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

    def objective(q):
        h = assemble(bh, q)
        return float(np.linalg.svd(h, compute_uv=False)[-1])

    step0 = max(qx[1] - qx[0], qy[1] - qy[0])
    lo = np.array([qx_min, qy_min])
    hi = np.array([qx_max, qy_max])
    candidates = []
    for i, j in minima:
        q0 = np.array([qx[i], qy[j]])
        q_ref, f_ref = _coordinate_search(objective, q0, step0, MAX_EVALS, lo, hi)
        if f_ref > tol * scale:
            continue
        if any(np.max(np.abs(q_ref - c.q_refined)) < 1e-6 for c in candidates):
            continue
        result = _classify_candidate(bh, q_ref, tol)
        candidates.append(BZCandidate(q0, q_ref, f_ref, result))
    candidates.sort(key=lambda c: (c.q_refined[0], c.q_refined[1]))
    return candidates


def _classify_candidate(bh, q, tol):
    try:
        return _classify.classify_point(bh.b(q), bh.b_prime(q), tol)
    except EpkitError as exc:  # tolerance pathology at an inexact point
        return _classify.EPClassification(
            _classify.EPKind.UNCLASSIFIED, {"error": str(exc)}
        )
