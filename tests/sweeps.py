"""What the four regression sweeps share, and a runner that diffs them
against another source tree.

    python tests/sweeps.py PARENT_TREE

runs tests/bz_sweep.py, ray_sweep.py, classify_sweep.py and cli_sweep.py
with their default arguments in this source tree and in ``PARENT_TREE``,
each tree's sweeps on its own ``src/``, and prints only the lines that
differ: ``<sweep> - <line>`` for a line of ``PARENT_TREE`` and
``<sweep> + <line>`` for one of this tree. It exits 0 when every sweep
gave the same lines, 1 when some differ, and 2 when a sweep failed.
"""

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SWEEPS = ("bz", "ray", "classify", "cli")


def _seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _digest(array):
    """The first 16 hex digits of the SHA-256 of an array's shape, dtype
    and bytes."""
    array = np.ascontiguousarray(array)
    head = f"{array.shape} {array.dtype}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()[:16]


def run(doc, lines, argv=None, seeds=None):
    """The main program of a sweep whose module docstring is ``doc``: print
    each line of ``lines(seeds)`` as it comes. ``seeds`` is the workload
    and the default range of a ``--seeds FIRST-LAST`` option, such as
    ``("bz-lattice", "0-39")``; without it the sweep takes no option and
    ``lines()`` no argument."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    if seeds is not None:
        workload, default = seeds
        parser.add_argument("--seeds", type=_seed_range, default=_seed_range(default),
                            help=f"{workload} seeds, as FIRST-LAST (default {default})")
    args = parser.parse_args(argv)
    for text in lines() if seeds is None else lines(args.seeds):
        print(text, flush=True)


def _sweep(tree, name):
    """Start sweep ``name`` in source tree ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    return subprocess.Popen(
        [sys.executable, str(Path(tree, "tests", f"{name}_sweep.py").resolve())],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def differing(name, old, new):
    """The lines of ``old`` and ``new`` that differ, as ``name - line``
    and ``name + line``."""
    return [f"{name} {text[0]} {text[1:]}" for text in difflib.unified_diff(
                old, new, lineterm="", n=0)
            if text[:1] in "-+" and text[:3] not in ("---", "+++")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the source tree to diff against")
    args = parser.parse_args(argv)
    code = 0
    for name in SWEEPS:
        # both trees run at once, each in one process
        procs = [_sweep(tree, name) for tree in (args.parent, HERE.parent)]
        (old, old_err), (new, new_err) = (p.communicate() for p in procs)
        for tree, proc, err in zip((args.parent, HERE.parent), procs,
                                   (old_err, new_err)):
            if proc.returncode:
                print(f"{name} failed in {tree}:\n{err}", file=sys.stderr)
                code = 2
        lines = differing(name, old.splitlines(), new.splitlines())
        for text in lines:
            print(text, flush=True)
        if lines:
            code = max(code, 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
