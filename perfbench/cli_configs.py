"""cli-configs: every shipped configs/*.cfg through ``python -m epkit``.

Each operation runs one config in a fresh interpreter and writes its
output with ``--out``; the seed fixes the order of the configs in a round.
Set-up time is the wall time of one fresh ``python -m epkit models``, the
start-up a user pays on every invocation. Peak memory is that of the
largest child process.

Every output is parsed and held to facts known apart from the program:
exact Jordan blocks for classify, theory exponents for fit, the closed-form
zeros of A(q) for the Kitaev scan, q* of the six-band model for its scan,
and row structure and distance ranges for path-scan.

The traced run calls ``epkit.cli.main`` in process on the same configs,
which gives the in-process time of ``main``; one fresh-process round after
it gives the share of start-up.
"""

import csv
import io
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import Op, Workload
from oracles import (KIND_BLOCKS, check_exponents, check_kitaev_scan,
                     exact_assemble, exact_zero_blocks, gaussian_matrix,
                     require, yao_lee_qstar)
from ray_coalescence import TARGETS

CONFIG_DIR = Path("configs")
OUT_DIR = Path(".perfbench_out")
COMMANDS = ("path-scan", "bz-scan", "classify", "fit")

#: Blocks (B, B') of the catalog models at q* = 0 with default parameters,
#: as the paper writes them. The doublet's B' is (c / -i) I = i I.
AT_QSTAR = {
    "doublet-ep2": ([[0, 0], [0, 0]], [[(0, 1), 0], [0, (0, 1)]]),
    "ep4-sqrt": ([[0, 1], [0, 0]], [[1, 0], [0, 1]]),
    "ep3": ([[0, 1], [0, 0]], [[1, 2], [0, 0]]),
}
KITAEV_DEFAULTS = {"j1": 1.0, "j2": 1.0, "j3": 1.0, "phi1": 0.0, "phi2": 0.0}
YAO_LEE_DEFAULT_PHI = 0.3


def read_config(path):
    """The flat key = value format of the shipped configs."""
    raw = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            raw[key.strip()] = value.strip()
    return raw


def command_of(path):
    return next(c for c in COMMANDS if path.name.startswith(c))


def csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    require(rows, "empty CSV output")
    header, body = rows[0], rows[1:]
    for row in body:
        require(len(row) == len(header),
                f"row has {len(row)} fields, header {len(header)}: {header}")
    return header, body


class CliConfigs(Workload):
    def __init__(self, ops, configs):
        super().__init__(ops)
        self.configs = configs
        self._exact_blocks = {}
        self._in_process = None

    @property
    def traced_ops(self):
        if self._in_process is None:
            from epkit import cli

            def op(cfg, out):
                def run():
                    out.unlink(missing_ok=True)
                    code = cli.main([command_of(cfg), "--config", str(cfg),
                                     "--out", str(out)])
                    return code, out.read_text(encoding="utf-8"), ""
                return Op(f"main {cfg.name}", run, cfg)
            self._in_process = [op(cfg, OUT_DIR / f"{cfg.stem}.main.txt")
                                for cfg in self.configs]
        return self._in_process

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def cli_layers(self, tally, plain_wall):
        """In-process ``main`` per config, and the share of start-up in
        one fresh-process round of the same configs."""
        fresh_wall, _ = tally.run_round(self, self.ops)
        return {"cli.main_s": (plain_wall / len(self.configs), "s"),
                "cli.startup_share": (1.0 - plain_wall / fresh_wall, "ratio")}

    def exact_blocks(self, model):
        if model not in self._exact_blocks:
            b, bp = (gaussian_matrix(m) for m in AT_QSTAR[model])
            self._exact_blocks[model] = exact_zero_blocks(exact_assemble(b, bp))
        return self._exact_blocks[model]

    def check(self, op, out):
        cfg = op.expect
        code, text, stderr = out
        require(code == 0, f"{cfg.name}: exit code {code}: {stderr.strip()[-300:]}")
        raw = read_config(cfg)
        model = raw["model"]
        getattr(self, "check_" + command_of(cfg).replace("-", "_"))(cfg, raw, model, text)
        return "ok"

    def check_classify(self, cfg, raw, model, text):
        require(set(raw) <= {"model", "tol"} and model in AT_QSTAR,
                f"{cfg.name}: no exact blocks for this configuration")
        m = re.match(r"(\w+), blocks \[([\d, ]*)\]", text)
        require(m, f"{cfg.name}: unreadable classify output {text[:80]!r}")
        blocks = [int(x) for x in m.group(2).split(",") if x.strip()]
        want = self.exact_blocks(model)
        require(blocks == want, f"{cfg.name}: blocks {blocks}, exact {want}")
        require(KIND_BLOCKS.get(m.group(1)) == want,
                f"{cfg.name}: kind {m.group(1)} does not name blocks {want}")

    def check_fit(self, cfg, raw, model, text):
        header, body = csv_rows(text)
        require(header == ["theta", "branch", "exponent", "r_squared"],
                f"{cfg.name}: header {header}")
        by_theta = {}
        for theta, _, exponent, _ in body:
            by_theta.setdefault(float(theta), []).append(float(exponent))
        require(by_theta, f"{cfg.name}: no fits")
        for theta, exponents in by_theta.items():
            check_exponents(model, theta, exponents)

    def check_bz_scan(self, cfg, raw, model, text):
        header, body = csv_rows(text)
        require(header == ["qx", "qy", "sigma_min", "kind"], f"{cfg.name}: header {header}")
        rows = [(np.array([float(r[0]), float(r[1])]), None) for r in body]
        window = ((float(raw["qx_min"]), float(raw["qx_max"])),
                  (float(raw["qy_min"]), float(raw["qy_max"])))
        tol = float(raw.get("ep_tol", 1e-6))
        if model == "kitaev":
            params = tuple(float(raw.get(k, v)) for k, v in KITAEV_DEFAULTS.items())
            check_kitaev_scan(rows, params, tol, window)
        else:
            require(model == "yao-lee-ep4" and set(raw) <= {
                "model", "grid_nx", "grid_ny", "qx_min", "qx_max", "qy_min", "qy_max"},
                f"{cfg.name}: no oracle for this configuration")
            q_star = yao_lee_qstar(YAO_LEE_DEFAULT_PHI)
            require(len(body) == 1 and np.max(np.abs(rows[0][0] - q_star)) <= 1e-4
                    and body[0][3] == "EP4",
                    f"{cfg.name}: expected one EP4 at {q_star.tolist()}, got {body}")

    def check_path_scan(self, cfg, raw, model, text):
        header, body = csv_rows(text)
        n_targets = len(TARGETS[model])
        want_header = (["radius", "theta", "branch", "re_E", "im_E"]
                       + [f"d2_e{i + 1}" for i in range(n_targets)])
        require(header == want_header, f"{cfg.name}: header {header}")
        thetas = [float(t) for t in raw.get("theta", "0").split(",")]
        count = int(raw.get("radii_count", 12))
        r_min = float(raw.get("radii_min", 1e-6))
        r_max = float(raw.get("radii_max", 1e-2))
        two_n = 4
        for theta in thetas:
            rows = [r for r in body if float(r[1]) == theta]
            kept = len(rows) // two_n
            require(len(rows) % two_n == 0 and 0.75 * count <= kept <= count,
                    f"{cfg.name}: {len(rows)} rows at theta={theta}, radii_count {count}")
            for k in range(kept):
                group = rows[k * two_n:(k + 1) * two_n]
                require([int(r[2]) for r in group] == list(range(1, two_n + 1))
                        and len({r[0] for r in group}) == 1,
                        f"{cfg.name}: malformed radius group {group}")
                radius = float(group[0][0])
                require(r_min * (1 - 1e-12) <= radius <= r_max * (1 + 1e-12),
                        f"{cfg.name}: radius {radius} outside [{r_min}, {r_max}]")
        d2 = np.array([[float(x) for x in r[5:]] for r in body])
        require(np.all((d2 >= 0.0) & (d2 <= 2.0)),
                f"{cfg.name}: D^2 outside [0, 2]: [{d2.min()}, {d2.max()}]")


def fresh_process(argv):
    """Run argv in a fresh interpreter; returns (code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "epkit"] + argv,
                          capture_output=True, text=True, env=os.environ.copy())
    return proc.returncode, proc.stdout, proc.stderr


def setup(seed):
    rng = np.random.default_rng([seed, 4])
    configs = sorted(CONFIG_DIR.glob("*.cfg"))
    require(configs, "no configs/*.cfg in the working directory")
    configs = [configs[i] for i in rng.permutation(len(configs))]
    OUT_DIR.mkdir(exist_ok=True)

    t0 = time.perf_counter()
    code, listing, err = fresh_process(["models"])
    setup_s = time.perf_counter() - t0
    require(code == 0 and listing.startswith("doublet-ep2:"),
            f"epkit models failed ({code}): {err.strip()[-300:]}")

    def op(cfg):
        out = OUT_DIR / f"{cfg.stem}.txt"

        def run():
            out.unlink(missing_ok=True)
            code, _, err = fresh_process([command_of(cfg), "--config", str(cfg),
                                          "--out", str(out)])
            text = out.read_text(encoding="utf-8") if code == 0 else ""
            return code, text, err
        return Op(f"python -m epkit {cfg.name}", run, cfg)

    workload = CliConfigs([op(cfg) for cfg in configs], configs)
    workload.setup_s = setup_s
    return workload

