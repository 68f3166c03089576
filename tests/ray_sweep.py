"""Regression sweep of ``path_scan``: one line per ray with the exact bits
of its result.

    PYTHONPATH=src python tests/ray_sweep.py [--seeds 0-9] > sweep.txt

Run it on two source trees and ``diff`` the outputs: an empty diff says
that every ray kept its radii, energies, states, skipped radii, branch
switches and worst overlap bit for bit. A line reads
``label | radii energies states | skipped | switches | min_overlap``: the
three arrays as the first 16 hex digits of the SHA-256 of their shape,
dtype and bytes (the bytes themselves would make a line of tens of
kilobytes), every float in hex. A ray that raises reads
``label | error: <class> <message>``. The rays are

- the rounds of the ``ray-coalescence`` benchmark workload for the given
  seeds (14 rays each, drawn by perfbench/ray_coalescence.py itself);
- every catalog model with a degeneracy point at 30 angles, tol 1e-6,
  1e-9 and 1e-13, and three radius grids: the default 12 radii, 48 radii
  from 3e-2 and the workload's 48 radii from 1e-2, all down to 1e-6.
"""

import inspect
import itertools
import sys
from pathlib import Path

import numpy as np

from epkit.analysis import DEFAULT_RADII, path_scan
from epkit.errors import EpkitError
from epkit.models import MODEL_CATALOG, build_model
from sweeps import _digest, run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import ray_coalescence  # noqa: E402

CATALOG_ANGLES = np.linspace(0.0, 2 * np.pi, 30, endpoint=False)
CATALOG_TOLS = (1e-6, 1e-9, 1e-13)
RADIUS_GRIDS = {"default": DEFAULT_RADII,
                "48-from-3e-2": np.geomspace(3e-2, 1e-6, 48),
                "workload": ray_coalescence.RADII}


def coalescence_rays(seed):
    """The 14 rays of one ``ray-coalescence`` round, as (label, bh,
    q_star, theta, radii, tol), read off the workload's own operations."""
    for op in ray_coalescence.setup(seed).ops:
        ray = inspect.getclosurevars(op.fn).nonlocals
        name, theta, tol = op.expect[0], ray["theta"], ray["tol"]
        yield (f"coalescence {seed} {name} theta={theta.hex()} tol={tol!r}",
               ray["bh"], ray["q_star"], theta, ray_coalescence.RADII, tol)


def catalog_rays():
    for name in MODEL_CATALOG:
        bh = build_model(name)
        for (grid, radii), tol, theta in itertools.product(
                RADIUS_GRIDS.items(), CATALOG_TOLS, CATALOG_ANGLES):
            yield (f"{name} {grid} theta={float(theta).hex()} tol={tol!r}",
                   bh, bh.q_star, float(theta), radii, tol)


def rays(seeds):
    for seed in seeds:
        yield from coalescence_rays(seed)
    yield from catalog_rays()


def line(label, bh, q_star, theta, radii, tol):
    """Run one ray and format its result."""
    try:
        scan = path_scan(bh, q_star, theta, radii, tol=tol)
    except (EpkitError, ValueError) as exc:
        return f"{label} | error: {type(exc).__name__} {exc}"
    arrays = " ".join(_digest(a) for a in (scan.radii, scan.energies, scan.states))
    skipped = " ".join(r.hex() for r in scan.skipped_radii)
    switches = " ".join(f"{s['radius'].hex()}:{s['overlap'].hex()}"
                        for s in scan.branch_switches)
    return f"{label} | {arrays} | {skipped} | {switches} | {scan.min_overlap.hex()}"


def main(argv=None):
    run(__doc__, lambda seeds: (line(*ray) for ray in rays(seeds)), argv,
        seeds=("ray-coalescence", "0-9"))


if __name__ == "__main__":
    main()
