"""Command-line front end.

Subcommands: classify, path-scan, fit, bz-scan, models. Configuration is a
flat ``key = value`` text file (``#`` comments, complex literals written as
``a+bi``) merged with ``key=value`` overrides from the command line; unknown
keys are rejected. Floating-point output uses 17 significant digits so CSV
round-trips binary doubles, and repeated runs produce byte-identical files.

Exit codes: 0 ok; 2 bad input: a configuration error, an unwritable
``--out`` path, a matrix whose norm leaves the double range, numerical
ranks that fit no Jordan structure at the given ``tol``, or a size numpy
cannot allocate; 3 cross-check mismatch; 4 degraded scan (more than a
quarter of the radii skipped).
"""

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import analysis
from .classify import classify_point
from .cmatrix import DEFAULT_TOL
from .errors import (
    ConfigError,
    CrossCheckMismatchError,
    EpkitError,
    NoiseFloorReachedError,
)
from .models import MODEL_CATALOG, build_model, zero_targets

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CROSSCHECK = 3
EXIT_DEGRADED = 4

def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def parse_number(text: str):
    """Parse a real or complex literal; complex uses the a+bi form."""
    s = text.strip()
    try:
        value = float(s)
    except ValueError:
        try:
            value = complex(s.replace("i", "j").replace(" ", ""))
        except ValueError:
            raise ConfigError(f"cannot parse number {text!r}")
    if not cmath.isfinite(value):  # abs() of a finite value can overflow
        raise ConfigError(f"number {text!r} is not finite")
    return value


def load_config(path: str) -> dict:
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = stripped.split("=", 1)
                raw[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return raw


def merge_overrides(raw: dict, overrides) -> dict:
    out = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _validate_keys(keys, raw: dict, model_params) -> None:
    """Refuse a key that is neither ``model``, one of the command's
    ``keys`` nor a parameter of the model."""
    allowed = {"model"} | keys | set(model_params)
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")


def _build_from_config(raw: dict):
    name = raw.get("model")
    if not name:
        raise ConfigError("missing required key 'model'")
    if name not in MODEL_CATALOG:
        raise ConfigError(
            f"unknown model {name!r}; run 'epkit models' for the catalog"
        )
    schema = MODEL_CATALOG[name].params
    params = {k: parse_number(v) for k, v in raw.items() if k in schema}
    try:
        return build_model(name, params)
    except EpkitError as exc:
        raise ConfigError(str(exc))


def _get_float(raw, key, default=None, positive=False):
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    value = parse_number(raw[key])
    if isinstance(value, complex):
        raise ConfigError(f"{key} must be real, got {raw[key]!r}")
    if positive and value <= 0:
        raise ConfigError(f"{key} must be positive, got {value}")
    return float(value)


def _get_int(raw, key, default):
    value = _get_float(raw, key, default)
    if value != int(value):
        raise ConfigError(f"{key} must be an integer, got {raw[key]!r}")
    return int(value)


def _scan_point(raw, bh):
    if "qx" in raw or "qy" in raw:
        if not ("qx" in raw and "qy" in raw):
            raise ConfigError("qx and qy must be given together")
        return np.array([_get_float(raw, "qx"), _get_float(raw, "qy")])
    if bh.q_star is None:
        raise ConfigError(
            f"model {bh.name!r} has no default degeneracy point; pass qx, qy"
        )
    return bh.q_star


def _check_at_qstar(command, raw):
    """``--at-qstar`` names the model's degeneracy point, the default of the
    point commands; an explicit point or a scan window contradicts it."""
    if command == "bz-scan":
        raise ConfigError("bz-scan scans a window; --at-qstar does not apply")
    given = sorted({"qx", "qy"} & set(raw))
    if given:
        raise ConfigError(f"--at-qstar conflicts with {' and '.join(given)}")


def _radii(raw):
    default = analysis.DEFAULT_RADII
    r_min = _get_float(raw, "radii_min", default[-1], positive=True)
    r_max = _get_float(raw, "radii_max", default[0], positive=True)
    count = _get_int(raw, "radii_count", len(default))
    if not (r_min < r_max and count >= 4):
        raise ConfigError("radii spec needs radii_min < radii_max and count >= 4")
    return np.geomspace(r_max, r_min, count)


def _thetas(raw):
    if "theta" not in raw:
        return [0.0]
    out = []
    for part in raw["theta"].split(","):
        value = parse_number(part)
        if isinstance(value, complex):
            raise ConfigError("theta values must be real")
        out.append(float(value))
    return out


def _write_lines(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out_path}: {exc}")
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return fmt_float(value)


def _table(rows, fields, as_json):
    """Output lines of ``rows``, each a dict: one sorted-key JSON object per
    row with all its keys, or a CSV header of ``fields`` and one line of
    those fields per row."""
    if as_json:
        return [json.dumps(row, sort_keys=True) for row in rows]
    return [",".join(fields)] + [",".join(_cell(row[f]) for f in fields)
                                 for row in rows]


def _dump_json(payload, out_path):
    _write_lines(_table([payload], None, True), out_path)


def cmd_classify(bh, raw, as_json, out_path) -> int:
    tol = _get_float(raw, "tol", DEFAULT_TOL, positive=True)
    q = _scan_point(raw, bh)
    result = classify_point(bh.b(q), bh.b_prime(q), tol)
    if as_json:
        _dump_json({
            "model": bh.name,
            "q": [q[0], q[1]],
            "kind": result.kind.value,
            "evidence": result.evidence,
        }, out_path)
        return EXIT_OK
    lines = [f"{result.kind.value}, blocks {result.evidence.get('jordan_blocks_at_zero', [])}"]
    lines.append(f"  model: {bh.name} at q = ({fmt_float(q[0])}, {fmt_float(q[1])})")
    lines.append(f"  dim ker B = {result.evidence.get('dim_ker_b')}, "
                 f"dim ker B' = {result.evidence.get('dim_ker_bprime')}")
    for chain in result.evidence["chains"]:
        lines.append(f"  chain of {chain['length']}, "
                     f"eigenvector in ker {chain['in_ker']}")
    _write_lines(lines, out_path)
    return EXIT_OK


def _scans(bh, raw, q_star):
    """``(theta, scan)`` for each requested theta, and whether any scan
    skipped more than a quarter of its radii."""
    radii = _radii(raw)
    tol = _get_float(raw, "tol", DEFAULT_TOL, positive=True)
    scans = [(theta, analysis.path_scan(bh, q_star, theta, radii, tol=tol))
             for theta in _thetas(raw)]
    degraded = any(
        len(scan.skipped_radii) > 0.25 * (len(scan.radii) + len(scan.skipped_radii))
        for _, scan in scans)
    return scans, degraded


def cmd_path_scan(bh, raw, as_json, out_path) -> int:
    q_star = _scan_point(raw, bh)
    targets = zero_targets(bh)
    scans, degraded = _scans(bh, raw, q_star)
    fields = ["radius", "theta", "branch", "re_E", "im_E"]
    fields += [f"d2_{label}" for label, _ in targets]
    rows = []
    for theta, scan in scans:
        profile = analysis.coalescence_profile(scan, targets)
        for k, r in enumerate(scan.radii):
            for b in range(scan.n_branches):
                row = {
                    "radius": float(r),
                    "theta": theta,
                    "branch": b + 1,
                    "re_E": scan.energies[b, k].real,
                    "im_E": scan.energies[b, k].imag,
                }
                for t, label in enumerate(profile.target_labels):
                    row[f"d2_{label}"] = profile.distances[b, k, t]
                rows.append(row)
    _write_lines(_table(rows, fields, as_json), out_path)
    return EXIT_DEGRADED if degraded else EXIT_OK


def cmd_fit(bh, raw, as_json, out_path) -> int:
    scans, degraded = _scans(bh, raw, _scan_point(raw, bh))
    records = []
    for theta, scan in scans:
        for b in range(scan.n_branches):
            try:
                exponent, r2 = analysis.scaling_exponent(scan, b)
            except NoiseFloorReachedError as exc:
                # named as the output rows number the branches, from 1
                raise NoiseFloorReachedError(
                    f"theta={fmt_float(theta)} branch {b + 1}: fewer than two "
                    "energies above the noise floor") from exc
            records.append({"theta": theta, "branch": b + 1,
                            "exponent": exponent, "r_squared": r2})
    if as_json or out_path:
        lines = _table(records, ["theta", "branch", "exponent", "r_squared"],
                       as_json)
    else:
        lines = [
            f"theta={fmt_float(r['theta'])} branch={r['branch']} "
            f"exponent={fmt_float(r['exponent'])} r_squared={fmt_float(r['r_squared'])}"
            for r in records
        ]
    _write_lines(lines, out_path)
    return EXIT_DEGRADED if degraded else EXIT_OK


def _default_bounds(bh):
    if bh.name == "kitaev":
        return (-math.pi, math.pi), (-math.sqrt(3) * math.pi, math.sqrt(3) * math.pi)
    if bh.q_star is not None:
        qs = bh.q_star
        return (qs[0] - 0.4, qs[0] + 0.4), (qs[1] - 0.4, qs[1] + 0.4)
    raise ConfigError("model has no default window; pass qx_min/qx_max/qy_min/qy_max")


def cmd_bz_scan(bh, raw, as_json, out_path) -> int:
    nx = _get_int(raw, "grid_nx", 64)
    ny = _get_int(raw, "grid_ny", 64)
    if {"qx_min", "qx_max", "qy_min", "qy_max"} <= set(raw):
        bounds = ((_get_float(raw, "qx_min"), _get_float(raw, "qx_max")),
                  (_get_float(raw, "qy_min"), _get_float(raw, "qy_max")))
    elif {"qx_min", "qx_max", "qy_min", "qy_max"} & set(raw):
        raise ConfigError("bounds keys must be given all together")
    else:
        bounds = _default_bounds(bh)
    ep_tol = _get_float(raw, "ep_tol", analysis.BZ_TOL, positive=True)
    rows = []
    for c in analysis.bz_scan(bh, (nx, ny), bounds, tol=ep_tol):
        row = {"qx": c.q_refined[0], "qy": c.q_refined[1],
               "sigma_min": c.sigma_min, "kind": c.classification.kind.value}
        error = c.classification.evidence.get("error")
        if error is not None:
            row["error"] = error
            if not as_json:
                print(f"warning: candidate ({fmt_float(row['qx'])}, "
                      f"{fmt_float(row['qy'])}) not classified: {error}",
                      file=sys.stderr)
        rows.append(row)
    _write_lines(_table(rows, ["qx", "qy", "sigma_min", "kind"], as_json),
                 out_path)
    return EXIT_OK


_RAY_KEYS = {"theta", "radii_min", "radii_max", "radii_count", "qx", "qy", "tol"}

#: Each command's handler and its own configuration keys; ``model`` and the
#: model's parameters are accepted by every command.
_COMMANDS = {
    "classify": (cmd_classify, {"qx", "qy", "tol"}),
    "path-scan": (cmd_path_scan, _RAY_KEYS),
    "fit": (cmd_fit, _RAY_KEYS),
    "bz-scan": (cmd_bz_scan, {"grid_nx", "grid_ny", "qx_min", "qx_max",
                              "qy_min", "qy_max", "ep_tol"}),
}


def cmd_models(as_json, out_path) -> int:
    if as_json:
        payload = {
            name: {"description": spec.description, "params": spec.params}
            for name, spec in sorted(MODEL_CATALOG.items())
        }
        _dump_json(payload, out_path)
        return EXIT_OK
    lines = []
    for name, spec in sorted(MODEL_CATALOG.items()):
        lines.append(f"{name}: {spec.description}")
        for key, default in spec.params.items():
            lines.append(f"  {key} = {default}")
    _write_lines(lines, out_path)
    return EXIT_OK


def _parser():
    parser = argparse.ArgumentParser(
        prog="epkit",
        description="exceptional-point toolkit for sublattice-symmetric models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "models"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--model", help="model identifier (same as model=NAME)")
        p.add_argument("--at-qstar", action="store_true",
                       help="evaluate at the model's degeneracy point (the "
                            "default; excludes qx and qy)")
        p.add_argument("overrides", nargs="*", metavar="key=value")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        if args.command == "models":
            if args.config or args.model or args.overrides or args.at_qstar:
                raise ConfigError("models takes no configuration")
            return cmd_models(args.json, args.out)
        raw = load_config(args.config) if args.config else {}
        raw = merge_overrides(raw, args.overrides)
        if args.model:
            raw["model"] = args.model
        if args.at_qstar:
            _check_at_qstar(args.command, raw)
        handler, keys = _COMMANDS[args.command]
        bh = _build_from_config(raw)
        _validate_keys(keys, raw, MODEL_CATALOG[bh.name].params)
        return handler(bh, raw, args.json, args.out)
    except CrossCheckMismatchError as exc:
        print(f"error: cross-check mismatch: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except (ConfigError, EpkitError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
