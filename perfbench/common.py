"""Shared pieces of the workloads."""

import resource
from typing import Any, Callable, NamedTuple

from oracles import OracleError


class Op(NamedTuple):
    """One timed operation: ``fn()`` is timed, ``expect`` feeds the oracle.

    ``fault`` marks an operation on the fixed, seed-independent inputs of a
    known program fault: it is counted as failed while the fault lasts.
    """

    label: str
    fn: Callable[[], Any]
    expect: Any
    fault: bool = False


class Workload:
    """A fixed round of operations plus the oracle that judges them."""

    #: Seconds spent building models during set-up.
    build_s = 0.0
    #: Set-up time measured by the workload itself (None: from process start).
    setup_s = None

    def __init__(self, ops):
        self.ops = ops

    @property
    def traced_ops(self):
        """The ops of a traced round: those the tracer can see."""
        return self.ops

    def judge(self, op, out, err):
        """'failed' for a fault op that failed, 'ok' for a correct output;
        raises OracleError for a wrong output or an unexpected error."""
        if err is not None:
            if op.fault:
                return "failed"
            raise OracleError(f"raised {type(err).__name__}: {err}")
        return self.check(op, out)

    def check(self, op, out):
        raise NotImplementedError

    def final_check(self):
        """Checks made once per run, outside every timed region."""

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def cli_layers(self, tally, plain_wall):
        """The cli layer's metrics, given the median untraced round time.

        Only cli-configs exercises the cli layer; the others read 0.
        """
        return {"cli.main_s": (0.0, "s"), "cli.startup_share": (0.0, "ratio")}
