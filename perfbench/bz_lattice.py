"""bz-lattice: full-zone Kitaev BZ scans plus the six-band EP4 window.

A round is one 128 x 128 ``bz_scan`` per seeded complex-phase coupling
set, two of fixed Hermitian couplings, and one 64 x 64 scan of the
``yao-lee-ep4`` window around its degeneracy point.

The Hermitian scans (phi1 = phi2 = 0) are the known fault: H(q) is
numerically zero at the degeneracy, every rank cutoff is relative to H
itself, and the candidates come back "Nondegenerate". Their inputs do not
depend on the seed, so they fail in every run; each counts as failed while
any of its candidates carries that label. They are the unit couplings at
overall scales 1 and 2: a power-of-two scale changes no rounding, so both
scans do the same work (7 979 refinement evaluations each), and they are
the slowest scans of the round. Two of nine put the 90th percentile of a
run's operation times inside their group instead of on its edge.
"""

import time

import numpy as np

from common import Op, Workload
from oracles import KITAEV_WINDOW, check_kitaev_scan, require, yao_lee_qstar

GRID = (128, 128)
YAO_LEE_GRID = (64, 64)
YAO_LEE_HALF_WIDTH = 0.4
COMPLEX_SCANS = 6
#: Fixed Hermitian couplings: gapless (|cos| = 1/2), phases zero.
HERMITIAN = [(1.0, 1.0, 1.0, 0.0, 0.0), (2.0, 2.0, 2.0, 0.0, 0.0)]
#: bz_scan's default acceptance tolerance.
EP_TOL = 1e-6
#: Phase magnitudes are kept at least this far from zero: with both
#: phases below about 0.05 the zeros of A(q) and A(-q) fall into one grid
#: basin and a 128^2 scan finds only one of them.
MIN_PHASE = 0.15


def draw_couplings(rng):
    """Gapless complex-phase couplings as in the acceptance suite."""
    j1, j2 = rng.uniform(0.8, 1.2, 2)
    phases = rng.uniform(MIN_PHASE, 0.5, 2) * rng.choice([-1.0, 1.0], 2)
    return (float(j1), float(j2), 1.0, float(phases[0]), float(phases[1]))


class BZLattice(Workload):
    def check(self, op, out):
        kind, params = op.expect
        rows = [(np.asarray(c.q_refined, dtype=float),
                 c.classification.evidence.get("jordan_blocks_at_zero"))
                for c in out]
        if kind == "kitaev":
            hermitian = params[3] == 0.0 and params[4] == 0.0
            if op.fault and any(c.classification.kind.value == "Nondegenerate"
                                for c in out):
                return "failed"
            check_kitaev_scan(rows, params, EP_TOL, KITAEV_WINDOW,
                              expect_blocks=[1, 1] if hermitian else [2])
        else:
            q_star = yao_lee_qstar(params["phi"])
            require(len(rows) == 1, f"yao-lee-ep4 window: {len(rows)} candidates")
            q, blocks = rows[0]
            require(np.max(np.abs(q - q_star)) <= 1e-4,
                    f"yao-lee-ep4 candidate {q.tolist()} is not q* {q_star.tolist()}")
            require(blocks == [4], f"yao-lee-ep4 blocks {blocks}, expected [4]")
        return "ok"


def setup(seed):
    from epkit import analysis, models

    rng = np.random.default_rng([seed, 1])
    sets = [draw_couplings(rng) for _ in range(COMPLEX_SCANS)]
    t0 = time.perf_counter()
    built = [(p, models.kitaev_model(*p)) for p in sets + HERMITIAN]
    yao = models.build_model("yao-lee-ep4")
    build_s = time.perf_counter() - t0

    ops = []
    for params, bh in built:
        ops.append(Op(
            f"bz_scan kitaev {params}",
            lambda bh=bh: analysis.bz_scan(bh, GRID, KITAEV_WINDOW),
            ("kitaev", params),
            fault=params in HERMITIAN,
        ))
    qs = yao_lee_qstar(yao.params["phi"])
    window = ((qs[0] - YAO_LEE_HALF_WIDTH, qs[0] + YAO_LEE_HALF_WIDTH),
              (qs[1] - YAO_LEE_HALF_WIDTH, qs[1] + YAO_LEE_HALF_WIDTH))
    ops.append(Op("bz_scan yao-lee-ep4",
                  lambda: analysis.bz_scan(yao, YAO_LEE_GRID, window),
                  ("yao-lee-ep4", yao.params)))
    workload = BZLattice(ops)
    workload.build_s = build_s
    return workload

