"""classify-taxonomy: the N = 2 taxonomy and the N = 3 single-block test.

Every input starts from an exact canonical pair (B0, B0') whose kind is
known. A random Gaussian-integer basis change U, V (U = V for the
doublets) maps it to B = U B0 V^-1, B' = V B0' U^-1, which conjugates H by
diag(U, V) and so keeps its Jordan structure; kernels and images move
together, so the kind is kept too. A random complex overall scale and a
random mirror (B <-> B') follow. Random full-rank Gaussian-integer pairs
make the Nondegenerate share.

The two fault operations classify the canonical EP3Mixed pair at the
scales 1e-200 (underflow, CrossCheckMismatchError) and 1e160 (overflow,
NonFiniteError, plus LAPACK messages on stderr). They do not depend on the
seed and fail in every run until the scale defect is mended.

``final_check`` verifies every constructed pair once per run in exact
arithmetic: the float inputs equal the exact matrices, and the exact
Jordan blocks of H at zero are those of the kind.
"""

import numpy as np

from common import Op, Workload
from oracles import (exact_assemble, exact_zero_blocks,
                     gaussian_matrix, require, to_complex)

J2 = [[0, 1], [0, 0]]
I2 = [[1, 0], [0, 1]]
Z2 = [[0, 0], [0, 0]]

#: kind -> (B0, B0', Jordan blocks at zero, basis change needs U = V)
CANONICAL = {
    "DoubletEP2": (Z2, I2, [2, 2], True),
    "EP4": (J2, I2, [4], False),
    "EP3Mixed": (J2, [[1, 2], [0, 0]], [3, 1], False),
    "EP6": ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]], [6], False),
    "EP4+gap": ([[0, 1, 0], [0, 0, 0], [0, 0, 1]],
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [4], False),
    "EP3Mixed+gap": ([[0, 1, 0], [0, 0, 0], [0, 0, 1]],
                     [[1, 2, 0], [0, 0, 0], [0, 0, 1]], [3, 1], False),
    "DoubletEP2x3": ([[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                     [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [2, 2, 2], True),
}
#: Kind label classify_point must give, where the taxonomy names one.
N3_LABEL = {"EP4+gap": "EP4", "EP3Mixed+gap": "EP3Mixed",
            "DoubletEP2x3": "DoubletEP2", "Nondegenerate": "Nondegenerate"}

N2_PER_KIND = 30
N3_PER_KIND = 4
#: Overall scales are 10**x with x uniform in +-SCALE_DECADES.
SCALE_DECADES = 8
#: Basis changes are rejected above this condition number.
COND_MAX = 10.0
FAULT_SCALES = (1e-200, 1e160)


def gaussian_integers(rng, n, lo=-2, hi=2):
    return [[(int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)))
             for _ in range(n)] for _ in range(n)]


def as_array(rows):
    return np.array([[complex(*e) if isinstance(e, tuple) else complex(e)
                      for e in row] for row in rows])


def invertible(rng, n):
    """Random Gaussian-integer matrix with condition number <= COND_MAX."""
    while True:
        rows = gaussian_integers(rng, n)
        if np.linalg.cond(as_array(rows)) <= COND_MAX:
            return rows


class Pair:
    """A constructed input: exact recipe plus its float blocks."""

    def __init__(self, kind, b0, bp0, u, v, scale, mirror):
        self.kind, self.b0, self.bp0 = kind, b0, bp0
        self.u, self.v, self.scale, self.mirror = u, v, scale, mirror
        b, bp = as_array(b0), as_array(bp0)
        if u is not None:
            uf, vf = as_array(u), as_array(v)
            b = uf @ b @ np.linalg.inv(vf)
            bp = vf @ bp @ np.linalg.inv(uf)
        if mirror:
            b, bp = bp, b
        self.b, self.bp = b * scale, bp * scale

    def exact(self):
        """(B, B') over the Gaussian rationals, before the float scale."""
        b0, bp0 = gaussian_matrix(self.b0), gaussian_matrix(self.bp0)
        if self.u is not None:
            u, v = gaussian_matrix(self.u), gaussian_matrix(self.v)
            b0, bp0 = u * b0 * v.inv(), v * bp0 * u.inv()
        return (bp0, b0) if self.mirror else (b0, bp0)

    @property
    def blocks(self):
        return [] if self.kind == "Nondegenerate" else CANONICAL[self.kind][2]


def make_pair(rng, kind, n):
    scale = 10.0 ** rng.uniform(-SCALE_DECADES, SCALE_DECADES) \
        * np.exp(1j * rng.uniform(0, 2 * np.pi))
    mirror = bool(rng.integers(2))
    if kind == "Nondegenerate":
        return Pair(kind, invertible(rng, n), invertible(rng, n), None, None,
                    scale, mirror)
    b0, bp0, _, same = CANONICAL[kind]
    u = invertible(rng, n)
    v = u if same else invertible(rng, n)
    return Pair(kind, b0, bp0, u, v, scale, mirror)


class ClassifyTaxonomy(Workload):
    def __init__(self, ops, pairs):
        super().__init__(ops)
        self.pairs = pairs

    def check(self, op, out):
        fn, pair = op.expect
        if fn == "check_ep2n":
            want = pair.kind == "EP6"
            require(out is want, f"check_ep2n gave {out}, expected {want}")
            return "ok"
        blocks = out.evidence.get("jordan_blocks_at_zero")
        require(blocks == pair.blocks,
                f"{pair.kind}: blocks {blocks}, expected {pair.blocks}")
        want = pair.kind if fn == "classify_zero_energy" else N3_LABEL.get(pair.kind)
        if want is not None:
            require(out.kind.value == want,
                    f"{pair.kind}: kind {out.kind.value}, expected {want}")
        return "ok"

    def final_check(self):
        for pair in self.pairs:
            b, bp = pair.exact()
            for got, exact in ((pair.b, b), (pair.bp, bp)):
                ref = to_complex(exact) * pair.scale
                tol = 1e-12 * np.max(np.abs(ref), initial=abs(pair.scale))
                require(np.allclose(got, ref, rtol=0, atol=tol),
                        f"{pair.kind}: float input drifted from the exact pair")
            blocks = exact_zero_blocks(exact_assemble(b, bp))
            require(blocks == pair.blocks,
                    f"{pair.kind}: exact blocks {blocks}, expected {pair.blocks}")


def setup(seed):
    from epkit import classify

    rng = np.random.default_rng([seed, 2])
    pairs = []
    ops = []
    for kind in ("DoubletEP2", "EP4", "EP3Mixed", "Nondegenerate"):
        for _ in range(N2_PER_KIND):
            p = make_pair(rng, kind, 2)
            pairs.append(p)
            ops.append(Op(f"classify_zero_energy {kind}",
                          lambda p=p: classify.classify_zero_energy(p.b, p.bp),
                          ("classify_zero_energy", p)))
    for kind in ("EP6", "EP4+gap", "EP3Mixed+gap", "DoubletEP2x3", "Nondegenerate"):
        for _ in range(N3_PER_KIND):
            p = make_pair(rng, kind, 3)
            pairs.append(p)
            ops.append(Op(f"check_ep2n {kind}",
                          lambda p=p: classify.check_ep2n(p.b, p.bp),
                          ("check_ep2n", p)))
            ops.append(Op(f"classify_point {kind}",
                          lambda p=p: classify.classify_point(p.b, p.bp),
                          ("classify_point", p)))
    # Interleave so that no kind sits in one long stretch of the round.
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    b0, bp0, _, _ = CANONICAL["EP3Mixed"]
    for scale in FAULT_SCALES:
        p = Pair("EP3Mixed", b0, bp0, None, None, scale, False)
        ops.append(Op(f"classify_zero_energy EP3Mixed at scale {scale:g}",
                      lambda p=p: classify.classify_zero_energy(p.b, p.bp),
                      ("classify_zero_energy", p), fault=True))
    return ClassifyTaxonomy(ops, pairs)
