"""Regression sweep of the zero-energy classifier: one line per block pair
with the exact bits of its verdict, its Jordan chains and its zero modes.

    PYTHONPATH=src python tests/classify_sweep.py [--seeds 0-9] > sweep.txt

Run it on two source trees and ``diff`` the outputs: an empty diff says
that every pair kept its verdict, chains and zero modes bit for bit. A
line reads ``label | verdict | jordan | zero_modes``:

- ``verdict``: ``classify_point``'s kind, its blocks at zero, its chains
  as ``length:kernel``, ``dim ker B``, ``dim ker B'`` and its scale in hex;
- ``jordan``: the block sizes of ``jordan_structure`` at E = 0 on the
  assembled H, and the first 16 hex digits of the SHA-256 of the shape,
  dtype and bytes of its chain vectors, stacked in order;
- ``zero_modes``: the same digest of ``zero_energy_states``.

A call that raises reads ``error: <class> <message>`` in its place. The
last line counts the pairs whose outcome differs when each round's pairs
are classified together, in one ``_classify_pairs`` call per (N, tol),
from ``classify_point``'s on the pair alone: it reads 0 when every stacked
pair has the same verdict and evidence, or the same error class and text.
The pairs are

- those of the ``classify-taxonomy`` benchmark workload's rounds for the
  given seeds (140 pairs and the two fault pairs each, drawn by
  perfbench/classify_taxonomy.py's own ``setup``), at the default tol;
- every catalog model at q* + d (1, 0.3) for d in 0, 1e-12, 1e-9, 1e-6 and
  1e-3, at tol 1e-6 and 1e-9.
"""

import itertools
import sys
from pathlib import Path

import numpy as np

from epkit.classify import _classify_pairs, classify_point
from epkit.cmatrix import DEFAULT_TOL
from epkit.errors import EpkitError
from epkit.models import MODEL_CATALOG, build_model
from epkit.spectral import jordan_structure
from epkit.sublattice import assemble_blocks, zero_energy_states
from sweeps import _digest, run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import classify_taxonomy  # noqa: E402

CATALOG_OFFSETS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3)
CATALOG_TOLS = (1e-6, 1e-9)
DIRECTION = np.array([1.0, 0.3])


def taxonomy_pairs(seed):
    """The pairs of one ``classify-taxonomy`` round, each once and in the
    order of the round's operations, as (label, b, bprime, tol)."""
    seen = set()
    for op in classify_taxonomy.setup(seed).ops:
        pair = op.expect[1]
        if id(pair) not in seen:
            seen.add(id(pair))
            yield (f"taxonomy {seed} {len(seen) - 1} {pair.kind} n={len(pair.b)}",
                   pair.b, pair.bp, DEFAULT_TOL)


def catalog_pairs():
    for name in MODEL_CATALOG:
        bh = build_model(name)
        for d, tol in itertools.product(CATALOG_OFFSETS, CATALOG_TOLS):
            q = bh.q_star + d * DIRECTION
            yield f"{name} d={d!r} tol={tol!r}", bh.b(q), bh.b_prime(q), tol


def rounds(seeds):
    """The pairs of each taxonomy round, then those of the catalog."""
    for seed in seeds:
        yield list(taxonomy_pairs(seed))
    yield list(catalog_pairs())


def _verdict(b, bprime, tol):
    c = classify_point(b, bprime, tol)
    ev = c.evidence
    chains = ",".join(f"{ch['length']}:{ch['in_ker']}" for ch in ev["chains"])
    return (f"{c.kind.value} {ev['jordan_blocks_at_zero']} [{chains}] "
            f"{ev['dim_ker_b']} {ev['dim_ker_bprime']} {ev['scale'].hex()}")


def _jordan(b, bprime, tol):
    structure = jordan_structure(assemble_blocks(b, bprime), 0.0, tol)
    vectors = np.array([v for chain in structure.chains for v in chain])
    return f"{structure.block_sizes} {_digest(vectors)}"


def _zero_modes(b, bprime, tol):
    return _digest(zero_energy_states(b, bprime, tol))


def _part(fn, *args):
    try:
        return fn(*args)
    except (EpkitError, ValueError) as exc:
        return f"error: {type(exc).__name__} {exc}"


def _outcome(result):
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return result


def _alone(b, bprime, tol):
    try:
        return classify_point(b, bprime, tol)
    except (EpkitError, ValueError) as exc:
        return exc


def stacked_mismatches(pairs):
    """The number of ``pairs`` whose outcome in one ``_classify_pairs``
    call per (N, tol) differs from ``classify_point``'s alone."""
    groups = {}
    for _, b, bprime, tol in pairs:
        groups.setdefault((len(b), tol), []).append((b, bprime))
    differ = 0
    for (_, tol), group in groups.items():
        b, bprime = (np.array(side, dtype=np.complex128) for side in zip(*group))
        stacked = _classify_pairs(b, bprime, tol)
        differ += sum(_outcome(got) != _outcome(_alone(*pair, tol))
                      for got, pair in zip(stacked, group))
    return differ


def line(label, b, bprime, tol):
    """Classify one pair and format the result."""
    parts = (_part(fn, b, bprime, tol) for fn in (_verdict, _jordan, _zero_modes))
    return " | ".join((label, *parts))


def lines(seeds):
    """The line of every pair, round after round, then the stacked count."""
    differ = total = 0
    for pairs in rounds(seeds):
        for pair in pairs:
            yield line(*pair)
        differ += stacked_mismatches(pairs)
        total += len(pairs)
    yield f"stacked: {differ} of {total} pairs differ from classify_point alone"


def main(argv=None):
    run(__doc__, lines, argv, seeds=("classify-taxonomy", "0-9"))


if __name__ == "__main__":
    main()
