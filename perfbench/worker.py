"""One benchmark run in a fresh interpreter; started by run.py.

Sets up the named workload, then runs whole rounds of its operations until
``--seconds`` have passed, checks every round's outputs against the
oracles, and prints one JSON line. ``setup_end`` is a CLOCK_MONOTONIC
reading that run.py subtracts from its own reading taken just before it
spawned this process. End-to-end times are scaled to a reference machine
speed with the probe in speed.py; ``setup_factor`` is the scale for the
set-up, from a probe taken right after it.

With ``--trace 1`` untraced and traced rounds alternate, so the tracing
overhead is measured under the same conditions as the per-layer numbers.
"""

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time

import speed
from tracer import SELF_TIMED, Tracer

WORKLOADS = {
    "bz-lattice": "bz_lattice",
    "classify-taxonomy": "classify_taxonomy",
    "ray-coalescence": "ray_coalescence",
    "cli-configs": "cli_configs",
}

BZ_COUNTERS = ["analysis.bz.grid_points", "analysis.bz.refine_evals",
               "analysis.bz.candidates"]
IMPORT_SAMPLES = 3


class Tally:
    """Operation counts and every correctness failure seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_round(self, workload, ops, tracer=None, scaled=False):
        """Run every op once, then judge the outputs.

        Returns the round's time, the sum of its ops' times, and each op's
        time; only the ops themselves are timed. With ``scaled`` a speed
        probe runs before the round, after it, and before each op that
        starts at least PROBE_EVERY_S after the last probe, and every op's
        time is scaled by the mean factor of the probes just before and
        just after it.
        """
        outputs, times, probes = [], [], []
        if tracer is not None:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                if scaled and (not probes or time.perf_counter() - last_probe
                               >= speed.PROBE_EVERY_S):
                    probes.append((i, speed.probe()))
                    last_probe = time.perf_counter()
                t0 = time.perf_counter()
                try:
                    out, err = op.fn(), None
                except Exception as exc:  # judged below, with the outputs
                    out, err = None, exc
                times.append(time.perf_counter() - t0)
                outputs.append((out, err))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if scaled:
            probes.append((len(ops), speed.probe()))
            times = [t * scale_at(probes, i) for i, t in enumerate(times)]
        for op, (out, err) in zip(ops, outputs):
            self.attempted += 1
            try:
                status = workload.judge(op, out, err)
            except AssertionError as exc:
                self.errors.append(f"{op.label}: {exc}")
                status = "failed" if err is not None else "ok"
            if status == "failed":
                self.failed += 1
        return sum(times), times


def scale_at(probes, i):
    """Mean speed factor of the probes just before and just after op i."""
    before = [p for j, p in probes if j <= i][-1]
    after = next(p for j, p in probes if j > i)
    return (speed.factor(before) + speed.factor(after)) / 2.0


def import_seconds(module):
    """Median wall time of ``import module`` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        samples.append(float(out.split()[-1]))
    return statistics.median(samples)


def untraced(workload, seconds, tally):
    """End-to-end metrics, at the reference speed."""
    rounds, op_times = [], []
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        wall, times = tally.run_round(workload, workload.ops, scaled=True)
        rounds.append(wall)
        op_times.extend(times)
    return {
        "wall_s": (statistics.median(rounds), "s"),
        "op_p50_ms": (1e3 * statistics.median(op_times), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(op_times, n=10,
                                                  method="inclusive")[8], "ms"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024.0, "MB"),
    }


def traced(workload, seconds, tally):
    tracer = Tracer()
    plain, with_trace = [], []
    begin = time.perf_counter()
    while not with_trace or time.perf_counter() - begin < seconds:
        wall, _ = tally.run_round(workload, workload.traced_ops)
        plain.append(wall)
        wall, _ = tally.run_round(workload, workload.traced_ops, tracer)
        with_trace.append(wall)
    n = len(with_trace)
    m = {
        "import.epkit_s": (import_seconds("epkit"), "s"),
        "import.scipy_optimize_s": (import_seconds("scipy.optimize"), "s"),
        "models.build_s": (workload.build_s + tracer.inclusive_s["models.build"] / n,
                           "s"),
    }
    for name in dict.fromkeys(name for _, name in SELF_TIMED):
        m[f"{name}.calls"] = (tracer.calls[name] / n, "count")
        m[f"{name}.self_s"] = (tracer.self_s[name] / n, "s")
    m["numpy.linalg.svd.per_op"] = (
        tracer.calls["numpy.linalg.svd"] / n / len(workload.traced_ops), "count")
    for name in BZ_COUNTERS:
        m[name] = (tracer.counters[name] / n, "count")
    plain_wall = statistics.median(plain)
    m.update(workload.cli_layers(tally, plain_wall))
    traced_wall = statistics.median(with_trace)
    m["trace.untraced_wall_s"] = (plain_wall, "s")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.overhead"] = (traced_wall / plain_wall - 1.0, "ratio")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    module = importlib.import_module(WORKLOADS[args.workload])
    # default_rng takes non-negative seeds; map every integer onto one.
    workload = module.setup(args.seed % 2**64)
    setup_end = time.monotonic()
    setup_factor = speed.factor(speed.probe())

    tally = Tally()
    if args.trace:
        metrics = traced(workload, args.seconds, tally)
    else:
        metrics = untraced(workload, args.seconds, tally)
    try:
        workload.final_check()
    except AssertionError as exc:
        tally.errors.append(f"final check: {exc}")
    for line in tally.errors[:20]:
        print(f"oracle: {line}", file=sys.stderr)
    print(json.dumps({
        "setup_end": setup_end,
        "setup_s": workload.setup_s,
        "setup_factor": setup_factor,
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
