"""Lines of src/epkit that neither tier-1 nor the benchmark's workloads run.

    python tests/trace_lines.py

Run from the root of the source tree; the program is this tree's src/,
in this process and in those the tests start. It traces every line of src/epkit
that runs, with ``sys.settrace`` (no coverage package is needed), while
this one interpreter runs the tier-1 suite (pytest on the whole tree, as
ROADMAP.md gives it) and then one round of each perfbench workload's
in-process operations (``Workload.traced_ops``, set up with seed 0;
cli-configs runs ``cli.main`` in process). It prints, per
module, the lines that none of them ran:

    cli.py: 3 of 301 lines not run: 120, 204-205

Code run only in subprocesses is not seen: the CLI tests that start
``python -m epkit``, and the fresh interpreters of cli-configs, run the
program in other processes, so a line that only they reach is listed as
not run. A line counts when the compiled code of its module lists it, so
blank, comment and docstring lines are never listed. The exit code is
pytest's.
"""

import importlib
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "epkit"


def code_lines(code):
    """Every line number that ``code`` and the code objects nested in it
    list."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def executable_lines():
    """The executable lines of each module file of the package."""
    return {str(path): code_lines(compile(path.read_text(), str(path), "exec"))
            for path in sorted(PACKAGE.glob("*.py"))}


class LineTrace:
    """The lines run in the files of ``files``, absolute paths, per file."""

    def __init__(self, files):
        self.files = set(files)
        self.hits = defaultdict(set)
        # each code file name seen, as given, to its absolute path or None
        self.known = {}

    def __call__(self, frame, event, arg):
        # called on each new frame; only the package's frames are followed
        name = frame.f_code.co_filename
        if name not in self.known:
            path = os.path.abspath(name)
            self.known[name] = path if path in self.files else None
        if self.known[name] is None:
            return None
        seen = self.hits[self.known[name]]

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    def install(self):
        threading.settrace(self)
        sys.settrace(self)

    def uninstall(self):
        sys.settrace(None)
        threading.settrace(None)


def run_workloads():
    """One round of each perfbench workload's in-process operations, set up
    with seed 0."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from worker import WORKLOADS

    for name, module in WORKLOADS.items():
        workload = importlib.import_module(module).setup(0)
        for op in workload.traced_ops:
            try:
                op.fn()
            except Exception as exc:  # a fault op; its lines count all the same
                print(f"{name}: {op.label}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)


def ranges(lines, executable):
    """The sorted ``lines`` as comma-separated runs ``a-b`` of lines that
    follow each other among the sorted ``executable`` ones."""
    index = {line: i for i, line in enumerate(sorted(executable))}
    out = []
    for line in lines:
        if out and index[out[-1][1]] + 1 == index[line]:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main():
    # this tree's program, here and in the subprocesses of the tests
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    executable = executable_lines()
    trace = LineTrace(executable)
    trace.install()
    try:
        import pytest

        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors", str(ROOT)])
        run_workloads()
    finally:
        trace.uninstall()
    for path, lines in executable.items():
        missed = sorted(lines - trace.hits[path])
        if missed:
            print(f"{Path(path).name}: {len(missed)} of {len(lines)} lines "
                  f"not run: {ranges(missed, lines)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
