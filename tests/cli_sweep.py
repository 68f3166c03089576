"""Regression sweep of the command-line interface: one line per invocation
with its exit code and the SHA-256 of everything it wrote.

    PYTHONPATH=src python tests/cli_sweep.py > sweep.txt

Run it on two source trees and ``diff`` the outputs: an empty diff says
that every invocation kept its stdout, stderr, exit code and ``--out``
file byte for byte. A line reads
``label | exit | stdout | stderr | out``, each stream as its SHA-256 in
hex, and ``out`` as ``-`` when no file was written. Each invocation runs
``epkit.cli.main`` in this process with stdout and stderr redirected; its
scratch directory is written ``{tmp}`` in both streams, so a line does not
depend on where it ran. An exception that escapes ``main`` reads
``label | raised <class> <message>``. The invocations are

- every shipped config, as text, ``--json``, ``--out`` and ``--json --out``;
- ``models`` as text, ``--json`` and ``--out``;
- for every catalog model, ``classify --json``, ``path-scan`` and ``fit``
  at its degeneracy point, and ``bz-scan`` as CSV and ``--json`` over the
  command's default window;
- one ``bz-scan`` at a loose ``ep_tol``, as CSV, ``--json`` and
  ``--out``;
- bad input: one invocation for each way of getting exit 2 or a
  command-specific refusal, in the order the CLI checks them.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

import test_cli
from epkit import cli
from epkit.models import MODEL_CATALOG
from sweeps import run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = ("classify", "path-scan", "fit", "bz-scan")

#: Invocations that must fail, as CLI arguments; ``{tmp}`` is the scratch
#: directory. Those of tests/test_cli.py::test_bad_input_gives_one_error_line
#: come first.
BAD_INPUTS = {
    **test_cli.BAD_INPUTS,
    "no-command": [],
    "unknown-command": ["nope"],
    "models-with-configuration": ["models", "--model", "ep3"],
    "missing-model": ["classify"],
    "unknown-model": ["fit", "--model", "nope"],
    "bad-override": ["path-scan", "--model", "ep3", "tol"],
    "at-qstar-with-point": ["classify", "--model", "ep3", "--at-qstar",
                            "qx=0.1", "qy=0"],
    "at-qstar-before-model": ["fit", "--model", "nope", "--at-qstar", "qx=1"],
    "at-qstar-bz-scan": ["bz-scan", "--model", "kitaev", "--at-qstar"],
    "model-before-keys": ["classify", "--model", "ep3", "b2=1.0.0", "bogus=1"],
    "keys-before-values": ["fit", "--model", "ep3", "bogus=1", "tol=-1"],
    "bz-scan-tol": ["bz-scan", "--model", "kitaev", "tol=0.5"],
    "qx-alone": ["classify", "--model", "ep3", "qx=0.1"],
    "complex-tol": ["classify", "--model", "ep3", "tol=1+1i"],
    "non-positive-tol": ["path-scan", "--model", "ep3", "tol=0"],
    "radii-reversed": ["path-scan", "--model", "ep3", "radii_min=1",
                       "radii_max=0.1"],
    "non-integer-count": ["fit", "--model", "ep3", "radii_count=4.5"],
    "complex-theta": ["fit", "--model", "ep3", "theta=0,1i"],
    "noise-floor": ["fit", "--config", str(CONFIG_DIR / "fit-ep3-path2.cfg"),
                    "tol=1e300"],
    "bounds-apart": ["bz-scan", "--model", "kitaev", "qx_min=0"],
    "bounds-reversed": ["bz-scan", "--model", "ep3", "qx_min=1", "qx_max=0",
                        "qy_min=0", "qy_max=1"],
    "small-grid": ["bz-scan", "--model", "ep3", "grid_nx=8"],
}


def invocations():
    """Every invocation as (label, args); ``{out}`` in args is a file in
    the scratch directory."""
    for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
        command = next(c for c in COMMANDS if cfg.name.startswith(c))
        args = [command, "--config", str(cfg)]
        yield f"config {cfg.name}", args
        yield f"config {cfg.name} --json", [*args, "--json"]
        yield f"config {cfg.name} --out", [*args, "--out", "{out}"]
        yield f"config {cfg.name} --json --out", [*args, "--json", "--out", "{out}"]
    yield "models", ["models"]
    yield "models --json", ["models", "--json"]
    yield "models --out", ["models", "--out", "{out}"]
    for name in MODEL_CATALOG:
        yield f"classify {name} --json", ["classify", "--model", name, "--json"]
        yield f"path-scan {name}", ["path-scan", "--model", name]
        yield f"fit {name}", ["fit", "--model", name]
        yield f"bz-scan {name}", ["bz-scan", "--model", name]
        yield f"bz-scan {name} --json", ["bz-scan", "--model", name, "--json"]
    # a candidate classified at a loose ep_tol
    loose = ["bz-scan", "--model", "yao-lee-ep4", "ep_tol=1e-2"]
    yield "loose-ep-tol", loose
    yield "loose-ep-tol --json", [*loose, "--json"]
    yield "loose-ep-tol --out", [*loose, "--out", "{out}"]
    for label, args in BAD_INPUTS.items():
        yield f"bad {label}", args


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def line(label, args):
    """Run one invocation and format what it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp, "out.txt")
        argv = [a.format(tmp=tmp, out=out_path) for a in args]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception as exc:
            return f"{label} | raised {type(exc).__name__} {exc}"
        out = _sha(out_path.read_bytes()) if out_path.exists() else "-"
        streams = [_sha(s.getvalue().replace(tmp, "{tmp}").encode())
                   for s in (stdout, stderr)]
        return f"{label} | {code} | {' | '.join(streams)} | {out}"


def main(argv=None):
    # argparse wraps its usage lines to the terminal width
    os.environ["COLUMNS"] = "80"
    run(__doc__, lambda: (line(*invocation) for invocation in invocations()), argv)


if __name__ == "__main__":
    main()
