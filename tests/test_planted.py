"""Planted EPs for ``bz_scan``: each canonical pair of
perfbench/classify_taxonomy.py, conjugated by random (P, Q) and given
random linear terms in dq at a random q* (``conftest.planted_model``), is
scanned over q* +- 0.4 at 64^2. Every point listed within 1e-10 of q* must
carry the kind the pair's Jordan blocks name (EP6 reads Unclassified), and
the number of draws whose q* is missed is pinned."""

import numpy as np

from epkit.analysis import bz_scan

from conftest import PLANTED_GRID, planted_kinds, planted_model

DRAWS = 10

#: Draws of each kind, of DRAWS, whose q* no listed point comes within
#: 1e-10 of. Each DoubletEP2x3 miss is the known fault on zeros of order 3
#: or more (a FOUND line of CHANGES.md; ROADMAP, "Smaller items"): B
#: vanishes at q* and is linear in dq, so det B has a triple zero there,
#: and _newton_roots ends 5.8e-10 to 1.4e-8 from it. None is defect 5
#: (ROADMAP, "Known defects"), and none is untraced.
MISSES = {"DoubletEP2": 0, "EP4": 0, "EP3Mixed": 0, "EP6": 0, "EP4+gap": 0,
          "EP3Mixed+gap": 0, "DoubletEP2x3": 10}


def test_planted_eps_are_found_with_their_kind(rng):
    misses = {}
    for kind in planted_kinds():
        misses[kind] = 0
        for _ in range(DRAWS):
            bh, window, want = planted_model(rng, kind)
            found = bz_scan(bh, PLANTED_GRID, window)
            off = [np.max(np.abs(c.q_refined - bh.q_star)) for c in found]
            near = [c for c, d in zip(found, off) if d <= 1e-10]
            assert [c.classification.kind for c in near] == [want] * len(near)
            if not near:
                misses[kind] += 1
                # found, but not to 1e-10: a multiple zero's end point
                assert min(off, default=np.inf) < 1e-7, kind
    assert misses == MISSES
