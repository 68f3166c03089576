"""epkit benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an epkit source tree; the program is imported from
``src/`` as it stands, nothing is installed. The run happens in a fresh
worker interpreter so that ``setup_s`` covers interpreter start-up,
``import epkit``, model construction and input generation. The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: A run ends well inside three minutes even with one round of overshoot.
TIMEOUT_S = 170
#: Result files and command outputs, relative to the source tree root.
OUT_DIR = Path(".perfbench_out")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path("src")
    if not (src / "epkit" / "__init__.py").is_file() or not Path("configs").is_dir():
        print("error: run from the root of an epkit source tree "
              "(src/epkit and configs/ not found)", file=sys.stderr)
        return 2

    env = os.environ.copy()
    # The program's own default thread count is what users get.
    env.pop("EPKIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src.resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]

    spawned = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3

    result = None
    for line in out.splitlines():
        if line.startswith('{"setup_end"'):
            result = json.loads(line)
        elif line.strip():
            # LAPACK's error handler writes to standard output.
            print(line, file=sys.stderr)
    if proc.returncode != 0 or result is None:
        print(f"error: worker exited with {proc.returncode} and no result",
              file=sys.stderr)
        return proc.returncode or 1

    metrics = result["metrics"]
    if not args.trace:
        setup_s = result["setup_s"]
        if setup_s is None:
            setup_s = result["setup_end"] - spawned
        metrics["setup_s"] = {"value": setup_s * result["setup_factor"], "unit": "s"}
    line = json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
