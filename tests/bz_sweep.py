"""Regression sweep of ``bz_scan``: one line per scan with the exact bits
of every refined point.

    PYTHONPATH=src python tests/bz_sweep.py [--seeds 0-39] > sweep.txt

Run it on two source trees and ``diff`` the outputs: an empty diff says
that every scan kept its points, ``sigma_min`` and kinds bit for bit. A
line reads ``label | window | grid | qx qy sigma_min kind; ...`` with the
floats in hex. The scans are

- the rounds of the ``bz-lattice`` benchmark workload for the given seeds
  (nine scans each, drawn by perfbench/bz_lattice.py itself);
- 40 Kitaev coupling sets with small phases, |phi| in [0.005, 0.06], over
  the full zone at 128 x 128, where the zeros of A(q) and A(-q) lie close;
- 40 Kitaev coupling sets with signed J (Hermitian, small or larger
  phases), each at the overall scales 1, 1e-200, 1e200, 2^-1000 and
  5e307 / 3, over the full zone at 128 x 128;
- the q* +- 0.4 window of every catalog model at 16^2, 32^2, 64^2 and
  33 x 47;
- 20 planted EPs of each canonical pair of perfbench/classify_taxonomy.py
  (``conftest.planted_model``), each over its q* +- 0.4 window at 64^2.
"""

import sys
from pathlib import Path

import numpy as np

from epkit.analysis import bz_scan
from epkit.models import MODEL_CATALOG, build_model, kitaev_model
from conftest import (KITAEV_SCALES, PLANTED_GRID, planted_kinds, planted_model,
                      signed_kitaev_couplings)
from sweeps import run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import bz_lattice  # noqa: E402
from oracles import KITAEV_WINDOW, yao_lee_qstar  # noqa: E402

SMALL_PHASE_SETS = 40
SIGNED_SETS = 40
CATALOG_GRIDS = [(16, 16), (32, 32), (64, 64), (33, 47)]
HALF_WIDTH = 0.4
PLANTED_DRAWS = 20


def _window(centre, half_width):
    return tuple((float(c - half_width), float(c + half_width)) for c in centre)


def lattice_scans(seed):
    """The nine scans of one ``bz-lattice`` round, as (label, bh, grid,
    window)."""
    rng = np.random.default_rng([seed, 1])
    sets = [bz_lattice.draw_couplings(rng)
            for _ in range(bz_lattice.COMPLEX_SCANS)]
    for params in sets + bz_lattice.HERMITIAN:
        yield (f"lattice {seed} kitaev {params}", kitaev_model(*params),
               bz_lattice.GRID, KITAEV_WINDOW)
    yao = build_model("yao-lee-ep4")
    yield (f"lattice {seed} yao-lee-ep4", yao, bz_lattice.YAO_LEE_GRID,
           _window(yao_lee_qstar(yao.params["phi"]),
                   bz_lattice.YAO_LEE_HALF_WIDTH))


def small_phase_scans():
    rng = np.random.default_rng(0)
    for k in range(SMALL_PHASE_SETS):
        j1, j2 = rng.uniform(0.8, 1.2, 2)
        phases = rng.uniform(0.005, 0.06, 2) * rng.choice([-1.0, 1.0], 2)
        params = (float(j1), float(j2), 1.0, *(float(p) for p in phases))
        yield (f"small-phase {k} kitaev {params}", kitaev_model(*params),
               (128, 128), KITAEV_WINDOW)


def signed_scans():
    rng = np.random.default_rng(1)
    for k in range(SIGNED_SETS):
        *j, phi1, phi2 = signed_kitaev_couplings(rng)
        for scale in KITAEV_SCALES:
            params = (*(scale * x for x in j), phi1, phi2)
            yield (f"signed {k} kitaev {params}", kitaev_model(*params),
                   (128, 128), KITAEV_WINDOW)


def catalog_scans():
    for name in MODEL_CATALOG:
        bh = build_model(name)
        for grid in CATALOG_GRIDS:
            yield name, bh, grid, _window(bh.q_star, HALF_WIDTH)


def planted_scans():
    rng = np.random.default_rng(2)
    for kind in planted_kinds():
        for k in range(PLANTED_DRAWS):
            bh, window, _ = planted_model(rng, kind)
            yield f"planted {kind} {k}", bh, PLANTED_GRID, window


def scans(seeds):
    for seed in seeds:
        yield from lattice_scans(seed)
    yield from small_phase_scans()
    yield from signed_scans()
    yield from catalog_scans()
    yield from planted_scans()


def line(label, bh, grid, window):
    """Run one scan and format its result."""
    points = "; ".join(
        f"{c.q_refined[0].hex()} {c.q_refined[1].hex()} "
        f"{c.sigma_min.hex()} {c.classification.kind.value}"
        for c in bz_scan(bh, grid, window))
    return f"{label} | {window} | {grid[0]}x{grid[1]} | {points}"


def main(argv=None):
    run(__doc__, lambda seeds: (line(*scan) for scan in scans(seeds)), argv,
        seeds=("bz-lattice", "0-39"))


if __name__ == "__main__":
    main()
