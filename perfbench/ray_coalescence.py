"""ray-coalescence: the paper's eigenvector-coalescence measurement.

Each operation scans one ray toward a degeneracy with ``path_scan`` over
48 radii from 1e-2 to 1e-6, profiles the quantum distances to the zero
modes with ``coalescence_profile``, and fits every branch's dispersion
exponent with ``scaling_exponent``. A round covers doublet-ep2, ep4-sqrt
and ep4-quartic at seeded angles, and ep3 along both of its axes.

The zero-mode targets are the paper's, written out here: at q* = 0 every
catalog model has ker B(q*) spanned by (1, 0) (the doublet by all of C^2),
so e1 = (0, 0, 1, 0); ep3 also has ker B'(q*) = (2, -1) / sqrt(5).
"""

import math
import time

import numpy as np

from common import Op, Workload
from oracles import (check_distances, check_exponents, check_pairing,
                     expected_exponents, require)

RADII = np.geomspace(1e-2, 1e-6, 48)
ANGLES_PER_MODEL = 4
ISOTROPIC = ("doublet-ep2", "ep4-sqrt", "ep4-quartic")
#: ep3 along its quadratic axis needs a tighter cutoff: lambda ~ r^2 falls
#: below 1e-9 ||B'B|| inside the window.
EP3_AXES = ((0.0, 1e-9), (math.pi / 2, 1e-13))

E1 = np.array([0, 0, 1, 0], dtype=complex)
TARGETS = {
    "doublet-ep2": [("e1", E1), ("e2", np.array([0, 0, 0, 1], dtype=complex))],
    "ep4-sqrt": [("e1", E1)],
    "ep4-quartic": [("e1", E1)],
    "ep3": [("e1", E1),
            ("e2", np.array([2, -1, 0, 0], dtype=complex) / math.sqrt(5.0))],
}
CONVERGES, BOUNDED = "ConvergesToZero", "BoundedAway"


class RayCoalescence(Workload):
    def __init__(self, ops, models):
        super().__init__(ops)
        self.models = models

    def check(self, op, out):
        name, theta = op.expect
        scan, profile, fits = out
        bh = self.models[name]
        direction = np.array([math.cos(theta), math.sin(theta)])
        require(len(scan.radii) >= 2, f"{name}: {len(scan.radii)} radii kept")
        for k, r in enumerate(scan.radii):
            q = r * direction
            h_norm = max(np.linalg.norm(bh.b(q), 2), np.linalg.norm(bh.b_prime(q), 2))
            check_pairing(scan.energies[:, k], h_norm)
        exponents = [e for e, _ in fits]
        check_exponents(name, theta, exponents)
        check_distances(profile.distances)
        verdicts = profile.verdicts
        if name == "ep4-sqrt":
            require(all(v == CONVERGES for v in verdicts[:, 0]),
                    f"ep4-sqrt at {theta:.6g}: verdicts {verdicts[:, 0].tolist()}")
        elif name == "ep3":
            # The branches with the smallest exponents are the sqrt pair.
            n_sqrt = expected_exponents(name, theta).count(0.5)
            by_exponent = np.argsort(exponents, kind="stable")
            for rank, b in enumerate(by_exponent):
                if rank < n_sqrt:
                    want = (CONVERGES, BOUNDED)
                else:
                    want = (BOUNDED, BOUNDED)
                require(tuple(verdicts[b]) == want,
                        f"ep3 at {theta:.6g}, branch {b}: verdicts "
                        f"{tuple(verdicts[b])}, expected {want}")
        return "ok"


def setup(seed):
    from epkit import analysis, models

    rng = np.random.default_rng([seed, 3])
    t0 = time.perf_counter()
    built = {name: models.build_model(name) for name in ISOTROPIC + ("ep3",)}
    build_s = time.perf_counter() - t0
    q_star = np.zeros(2)

    def ray(name, theta, tol):
        bh, targets = built[name], TARGETS[name]

        def run():
            scan = analysis.path_scan(bh, q_star, theta, RADII, tol=tol)
            profile = analysis.coalescence_profile(scan, targets)
            fits = [analysis.scaling_exponent(scan, b) for b in range(scan.n_branches)]
            return scan, profile, fits
        return Op(f"ray {name} theta={theta:.6g}", run, (name, theta))

    ops = []
    for name in ISOTROPIC:
        for theta in rng.uniform(0.0, 2 * math.pi, ANGLES_PER_MODEL):
            ops.append(ray(name, float(theta), 1e-9))
    for theta, tol in EP3_AXES:
        ops.append(ray("ep3", theta, tol))
    workload = RayCoalescence(ops, built)
    workload.build_s = build_s
    return workload
