import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def jordan_block(n, eigenvalue=0.0):
    """n x n upper bidiagonal block with the given eigenvalue."""
    return np.diag([complex(eigenvalue)] * n) + np.diag([1.0 + 0j] * (n - 1), 1)


def block_diag(*blocks):
    blocks = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in blocks]
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    k = 0
    for b in blocks:
        m = b.shape[0]
        out[k:k + m, k:k + m] = b
        k += m
    return out


def assert_same_bits(got, want):
    """Equal shape, dtype and bytes: signed zeros and last bits included."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def direction_mismatch(u, v):
    """sin of the angle between the rays of u and v (0 when parallel).

    Computed as the projection residual, which stays exact for nearly
    parallel vectors where sqrt(1 - cos^2) would lose half the digits.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return float(np.linalg.norm(u - v * np.vdot(v, u)))


#: Blocks about 1e-5 apart in scale: at tol = 1e-6 the ranks of H^k, each
#: cut against its own norm, read [5, 4, 3, 4, 2, 0], and those of the
#: products of B and B' rise too.
RISING_PAIR = (300 * np.array([[0, 1, -1j], [1j, -1j, 0], [0, 0, 0]]),
               0.0015 * np.array([[1j, -1, 0], [1, 1j, 1j], [1j, -1j, -1j]]))


def rising_model(name="rising"):
    """BlockHamiltonian that is the rising pair at q = 0 and regular away
    from it: both blocks gain 300 |q|^2 I."""
    from epkit.sublattice import BlockHamiltonian

    b0, bp0 = RISING_PAIR

    def bump(q):
        return 300 * (q[..., 0] ** 2 + q[..., 1] ** 2)[..., None, None] * np.eye(3)

    return BlockHamiltonian(3, lambda q: b0 + bump(q), lambda q: bp0 + bump(q),
                            name=name, q_star=np.zeros(2))


def plant_counts(monkeypatch, plant):
    """Make every staircase of epkit.spectral return ``plant(counts)``
    for the counts (K, n, c) it reads."""
    from epkit import spectral

    staircase = spectral._staircase
    monkeypatch.setattr(spectral, "_staircase",
                        lambda *args: plant(staircase(*args)))


def rising_chains(counts):
    """The classifier's counts (K, 2N, 3) of B, H and B' with those of B
    and B' replaced by one chain in ker B of which two have length >= 2,
    which no Jordan structure has."""
    counts = counts.copy()
    counts[..., ::2] = 0
    counts[:, :2, ::2] = [[1, 0], [0, 2]]
    return counts


# The readings of rank drops before spectral._weyr read them all in one
# stacked call; kept as the references of that reader.

def reference_up_to_repeat(n, ranks):
    """Ranks [r_1, r_2, ...] up to the first that repeats the one before
    it (r_0 = n)."""
    full = [n] + ranks
    stop = next((k for k in range(1, len(full)) if full[k] == full[k - 1]),
                len(ranks))
    return ranks[:stop]


def reference_block_sizes_from_ranks(n, ranks):
    """Descending block sizes; #blocks of size >= k is r_{k-1} - r_k. A
    sequence that rises, or whose drops grow, raises RankSequenceError."""
    from epkit.errors import RankSequenceError

    full = [n] + list(ranks)
    while len(full) >= 2 and full[-1] == full[-2]:
        full.pop()
    # at_least[k-1] = number of blocks of size >= k
    at_least = [full[k - 1] - full[k] for k in range(1, len(full))] + [0]
    exactly = [at_least[k - 1] - at_least[k] for k in range(1, len(at_least))]
    if min(at_least + exactly) < 0:
        raise RankSequenceError(
            f"ranks {list(ranks)} of successive powers fit no Jordan structure")
    return [k for k in range(len(exactly), 0, -1) for _ in range(exactly[k - 1])]


def reference_chains_from_ranks(ranks):
    """The chains at E = 0, longest first, "B" first at one length, from
    one pair's rows (r_k, r'_k) of the ranks of the alternating products,
    read until both stop falling; ranks that fit no Jordan structure
    raise RankSequenceError."""
    from epkit.errors import RankSequenceError

    ranks = np.asarray(ranks)
    drops = ranks[:-1] - ranks[1:]
    drops[1::2] = drops[1::2, ::-1]
    plateau = np.append(drops.any(axis=1), False).argmin()
    at_least = np.vstack([drops[:plateau], [0, 0]])
    exactly = at_least[:-1] - at_least[1:]
    if (at_least < 0).any() or (exactly < 0).any():
        raise RankSequenceError(
            f"ranks {ranks[:, 0].tolist()} and {ranks[:, 1].tolist()} of the "
            "alternating products of B and B' fit no Jordan structure")
    return [{"length": k, "in_ker": side} for k in range(len(exactly), 0, -1)
            for side, count in zip(("B", "B'"), exactly[k - 1].tolist())
            for _ in range(count)]


def all_rank_tables(n, rows, columns):
    """Every table of ``rows`` rows of ``columns`` ranks in 0..n below the
    row r_0 = n, shape (count, rows + 1, columns)."""
    tables = np.array(list(itertools.product(range(n + 1), repeat=rows * columns)))
    tables = tables.reshape(-1, rows, columns)
    return np.concatenate([np.full((len(tables), 1, columns), n), tables], axis=1)


def ranks_of_blocks(n, blocks):
    """The ranks r_0..r_n of the powers of an n x n matrix whose Jordan
    blocks at zero are ``blocks``."""
    return [n - sum(min(size, k) for size in blocks) for k in range(n + 1)]


#: Overall scales of the signed Kitaev coupling sets: the unit, far into
#: both ends of the double range, and 5e307 / 3, at which the largest
#: |A~| = 2 (|J1| + |J2| + |J3|) of a set comes within 2 of overflow.
KITAEV_SCALES = (1.0, 1e-200, 1e200, 2.0 ** -1000, 5e307 / 3)


def signed_kitaev_couplings(rng):
    """One Kitaev coupling set (j1, j2, j3, phi1, phi2) with signed J:
    |J1|, |J2| in [0.8, 1.2] and J3 = +-1, and, a third of the draws each,
    zero phases (Hermitian), small phases (|phi| in [0.005, 0.06]) or
    phases up to 0.5."""
    j1, j2 = rng.uniform(0.8, 1.2, 2) * rng.choice([-1.0, 1.0], 2)
    j3 = rng.choice([-1.0, 1.0])
    kind = rng.integers(3)
    if kind == 0:
        phases = np.zeros(2)
    else:
        high = 0.06 if kind == 1 else 0.5
        phases = rng.uniform(0.005, high, 2) * rng.choice([-1.0, 1.0], 2)
    return tuple(float(x) for x in (j1, j2, j3, *phases))


#: Window half-width and grid of a planted-EP scan.
PLANTED_HALF_WIDTH = 0.4
PLANTED_GRID = (64, 64)


def planted_kinds():
    """The canonical pairs of perfbench/classify_taxonomy.py, read-only:
    kind -> (B0, B0', Jordan blocks of H at zero, flag)."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import classify_taxonomy

    return classify_taxonomy.CANONICAL


def planted_model(rng, kind):
    """A model with the canonical pair ``kind`` planted at a random q*.

    At q* the blocks are (P B0 Q^-1, Q B0' P^-1) for random complex P, Q of
    condition number under 10, which conjugates H by diag(P, Q) and keeps
    its Jordan structure; each block gains its own random complex linear
    terms in dq = q - q*. q* is uniform in [-2, 2]^2. Returns ``(bh,
    window, kind)``: the model, the window q* +- PLANTED_HALF_WIDTH and the
    EPKind its Jordan blocks name.
    """
    from epkit.classify import _kind_of_blocks
    from epkit.sublattice import BlockHamiltonian

    b0, bp0, blocks, _ = planted_kinds()[kind]
    b0, bp0 = np.array(b0, dtype=complex), np.array(bp0, dtype=complex)
    n = len(b0)
    p, q = (random_conditioned(rng, n, 10.0) for _ in range(2))
    q_star = rng.uniform(-2.0, 2.0, 2)
    slopes = rng.standard_normal((2, 2, n, n)) + 1j * rng.standard_normal((2, 2, n, n))

    def generator(at_star, slope):
        def fn(qs):
            dq = np.asarray(qs) - q_star
            return (at_star + dq[..., 0, None, None] * slope[0]
                    + dq[..., 1, None, None] * slope[1])
        return fn

    bh = BlockHamiltonian(n, generator(p @ b0 @ np.linalg.inv(q), slopes[0]),
                          generator(q @ bp0 @ np.linalg.inv(p), slopes[1]),
                          name=f"planted {kind}", q_star=q_star)
    window = tuple((float(c - PLANTED_HALF_WIDTH), float(c + PLANTED_HALF_WIDTH))
                   for c in q_star)
    return bh, window, _kind_of_blocks(blocks, n)


def outcome(fn):
    """What ``fn()`` returns, or the type and text of the EpkitError it raises."""
    from epkit.errors import EpkitError

    try:
        return fn()
    except EpkitError as exc:
        return type(exc), str(exc)


def random_conditioned(rng, n, cond_cap):
    """Random invertible complex matrix with condition number under the cap."""
    while True:
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(v) < cond_cap:
            return v


def random_block_hamiltonian(rng, n):
    """BlockHamiltonian with random quadratic-polynomial generators."""
    from epkit.sublattice import BlockHamiltonian

    def poly(coeffs):
        def fn(q):
            x, y = q[..., 0, None, None], q[..., 1, None, None]
            monomials = [1.0, x, y, x ** 2, x * y, y ** 2]
            return sum(c * m for c, m in zip(coeffs, monomials))
        return fn

    def coeffs():
        return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for _ in range(6)]

    return BlockHamiltonian(n, poly(coeffs()), poly(coeffs()), name="random")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def svd_calls(monkeypatch):
    """List that grows by one entry per numpy.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls
