"""Per-layer tracing by wrapping epkit's functions from outside.

Each wrapped function is replaced, in every module namespace its callers
look it up in, by a wrapper that counts calls and measures self time: the
CPU time of the calling thread spent in the call, less the time spent in
wrapped functions it called on the same thread. CPU time rather than wall
time because ``bz_scan`` fills its grid on a thread pool: a thread waiting
for the interpreter lock or for its pool burns no CPU, so self times add
up across threads instead of counting the same wall interval twice.

The tracer is installed only around the timed operations of a traced
round and removed before the outputs are checked.
"""

import threading
import time
from collections import defaultdict

# (module attribute path, metric name). One function can be reachable
# under several module names; all of them are wrapped under one metric.
SELF_TIMED = [
    ("sublattice.assemble", "sublattice.assemble"),
    ("analysis.assemble", "sublattice.assemble"),
    ("sublattice.reduced_spectrum", "sublattice.reduced_spectrum"),
    ("analysis.reduced_spectrum", "sublattice.reduced_spectrum"),
    ("cmatrix.svd_rank", "cmatrix.svd_rank"),
    ("cmatrix.kernel_basis", "cmatrix.kernel_basis"),
    ("cmatrix.image_basis", "cmatrix.image_basis"),
    ("cmatrix.eig", "cmatrix.eig"),
    ("spectral.rank_sequence", "spectral.rank_sequence"),
    ("spectral.jordan_structure", "spectral.jordan_structure"),
    ("classify.classify_zero_energy", "classify.classify_zero_energy"),
    ("classify.classify_point", "classify.classify_point"),
    ("cli.classify_point", "classify.classify_point"),
    ("classify.check_ep2n", "classify.check_ep2n"),
    ("analysis.bz_scan", "analysis.bz_scan"),
    ("analysis.path_scan", "analysis.path_scan"),
    ("analysis.match_branches", "analysis.match_branches"),
    ("analysis.quantum_distance", "analysis.quantum_distance"),
    ("analysis.coalescence_profile", "analysis.coalescence_profile"),
    ("analysis.scaling_exponent", "analysis.scaling_exponent"),
    ("numpy.linalg.svd", "numpy.linalg.svd"),
]

# Functions whose inclusive wall time is what matters (model building).
INCLUSIVE = [
    ("models.build_model", "models.build"),
    ("cli.build_model", "models.build"),
]


def _resolve(path):
    import importlib

    head, attr = path.rsplit(".", 1)
    module = importlib.import_module(head if head == "numpy.linalg"
                                     else f"epkit.{head}")
    return module, attr


class Tracer:
    """Counters and self times, summed over every call while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, fn, name):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.thread_time() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += dt - child
        return wrapper

    def _inclusive(self, fn, name):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self.inclusive_s[name] += time.perf_counter() - t0
        return wrapper

    def _bz_counts(self, fn):
        """Grid points and candidates of every ``bz_scan`` call."""
        def wrapper(bh, grid, *args, **kwargs):
            result = fn(bh, grid, *args, **kwargs)
            with self._lock:
                self.counters["analysis.bz.grid_points"] += int(grid[0]) * int(grid[1])
                self.counters["analysis.bz.candidates"] += len(result)
            return result
        return wrapper

    def _refine_counts(self, fn):
        """Objective evaluations of the refinement search: the assemble
        calls a scan makes beyond its grid. Reads a private seam of
        ``analysis``; if it is renamed the counter reads 0."""
        def wrapper(objective, *args, **kwargs):
            def counted(q):
                with self._lock:
                    self.counters["analysis.bz.refine_evals"] += 1
                return objective(q)
            return fn(counted, *args, **kwargs)
        return wrapper

    def install(self):
        wrappers = {}
        for path, name in SELF_TIMED:
            module, attr = _resolve(path)
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            self._saved.append((module, attr, orig))
            # Wrap each distinct function once so aliases share a wrapper.
            key = (id(orig), name)
            if key not in wrappers:
                wrapped = self._timed(orig, name)
                if path == "analysis.bz_scan":
                    wrapped = self._bz_counts(wrapped)
                wrappers[key] = wrapped
            setattr(module, attr, wrappers[key])
        for path, name in INCLUSIVE:
            module, attr = _resolve(path)
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._inclusive(orig, name))
        module, attr = _resolve("analysis._coordinate_search")
        orig = getattr(module, attr, None)
        if orig is not None:
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._refine_counts(orig))

    def uninstall(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)
