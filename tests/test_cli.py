import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epkit import cli
from epkit.errors import CrossCheckMismatchError
from epkit.models import kitaev_ep_locations

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_epkit(*args):
    return subprocess.run([sys.executable, "-m", "epkit", *args],
                          capture_output=True, text=True)


def read_csv(text):
    rows = list(csv.DictReader(text.splitlines()))
    return rows


class TestClassifyCommand:
    @pytest.mark.parametrize("model,expected", [
        ("ep3", "EP3Mixed, blocks [3, 1]"),
        ("ep4-sqrt", "EP4, blocks [4]"),
        ("doublet-ep2", "DoubletEP2, blocks [2, 2]"),
    ])
    def test_kinds(self, model, expected):
        proc = run_epkit("classify", "--model", model, "--at-qstar")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == expected

    def test_json_matches_human(self):
        human = run_epkit("classify", "--model", "ep3")
        machine = run_epkit("classify", "--model", "ep3", "--json")
        assert machine.returncode == 0
        payload = json.loads(machine.stdout)
        assert payload["kind"] == human.stdout.split(",")[0]
        assert payload["evidence"]["jordan_blocks_at_zero"] == [3, 1]

    def test_config_file(self):
        proc = run_epkit("classify", "--config", str(CONFIG_DIR / "classify-ep3.cfg"))
        assert proc.returncode == 0
        assert proc.stdout.startswith("EP3Mixed")

    def test_unknown_key_rejected(self):
        proc = run_epkit("classify", "--model", "ep3", "bogus=1")
        assert proc.returncode == 2
        assert "bogus" in proc.stderr

    def test_unknown_model_rejected(self):
        proc = run_epkit("classify", "--model", "not-a-model")
        assert proc.returncode == 2

    def test_missing_model_rejected(self):
        proc = run_epkit("classify")
        assert proc.returncode == 2

    def test_param_override(self):
        proc = run_epkit("classify", "--model", "ep3", "bp2=0.5", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kind"] == "EP3Mixed"

    def test_away_from_degeneracy_point(self):
        proc = run_epkit("classify", "--model", "ep3", "qx=0.2", "qy=0.1",
                         "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kind"] == "Nondegenerate"


class TestPathScanCommand:
    def test_csv_shape_and_header(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_epkit("path-scan", "--model", "ep4-sqrt", "--out", str(out),
                         "radii_count=8")
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "radius,theta,branch,re_E,im_E,d2_e1"
        assert len(lines) == 1 + 8 * 4

    def test_rows_match_header_without_zero_targets(self):
        # the Hermitian Kitaev default has no zero targets, so no d2_ columns
        proc = run_epkit("path-scan", "--model", "kitaev", "radii_count=4")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "radius,theta,branch,re_E,im_E"
        assert {len(line.split(",")) for line in lines} == {5}

    def test_fourfold_distances_fall(self, tmp_path):
        out = tmp_path / "scan.csv"
        run_epkit("path-scan", "--model", "ep4-sqrt", "--out", str(out))
        rows = read_csv(out.read_text())
        smallest = min(float(r["radius"]) for r in rows)
        finals = [float(r["d2_e1"]) for r in rows
                  if float(r["radius"]) == smallest]
        assert len(finals) == 4
        assert all(d < 1e-3 for d in finals)

    def test_mixed_model_axis_split(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_epkit("path-scan", "--config",
                         str(CONFIG_DIR / "path-scan-ep3.cfg"), "--out", str(out))
        assert proc.returncode == 0
        rows = read_csv(out.read_text())
        smallest = min(float(r["radius"]) for r in rows)
        for theta, count in (("0", 4), ("1.5707963267948966", 2)):
            finals = [float(r["d2_e1"]) for r in rows
                      if float(r["radius"]) == smallest and r["theta"] == theta]
            assert len(finals) == 4
            assert sum(d < 1e-3 for d in finals) == count

    def test_json_rows_match_csv(self, tmp_path):
        out_csv = tmp_path / "scan.csv"
        out_json = tmp_path / "scan.jsonl"
        run_epkit("path-scan", "--model", "ep3", "--out", str(out_csv),
                  "radii_count=6")
        run_epkit("path-scan", "--model", "ep3", "--json", "--out",
                  str(out_json), "radii_count=6")
        rows = read_csv(out_csv.read_text())
        json_rows = [json.loads(line) for line in out_json.read_text().splitlines()]
        assert len(rows) == len(json_rows)
        for a, b in zip(rows, json_rows):
            assert float(a["re_E"]) == b["re_E"]
            assert float(a["d2_e1"]) == b["d2_e1"]


class TestFitCommand:
    def _exponents(self, *args):
        proc = run_epkit("fit", "--json", *args)
        assert proc.returncode == 0, proc.stderr
        return [json.loads(line)["exponent"] for line in proc.stdout.splitlines()]

    def test_quartic(self):
        exps = self._exponents("--config", str(CONFIG_DIR / "fit-ep4-quartic.cfg"))
        assert all(abs(e - 0.25) < 0.05 for e in exps)

    def test_doublet(self):
        exps = self._exponents("--config", str(CONFIG_DIR / "fit-doublet-ep2.cfg"))
        assert all(abs(e - 0.5) < 0.05 for e in exps)

    def test_mixed_quadratic_axis(self):
        exps = sorted(self._exponents("--config",
                                      str(CONFIG_DIR / "fit-ep3-path2.cfg")))
        np.testing.assert_allclose(exps, [0.5, 0.5, 1.0, 1.0], atol=0.05)

    def test_human_output_one_line_per_branch(self):
        proc = run_epkit("fit", "--model", "doublet-ep2")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 4
        assert all("exponent=" in l and "r_squared=" in l for l in lines)


class TestBZScanCommand:
    def test_kitaev_two_rows_match_closed_form(self, tmp_path):
        out = tmp_path / "bz.csv"
        proc = run_epkit("bz-scan", "--config",
                         str(CONFIG_DIR / "bz-scan-kitaev.cfg"), "--out", str(out))
        assert proc.returncode == 0
        rows = read_csv(out.read_text())
        assert len(rows) == 2
        locs = kitaev_ep_locations(1.1, 0.9, 1.0, 0.3, 0.1)
        recip = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        for row in rows:
            q = np.array([float(row["qx"]), float(row["qy"])])
            # compare modulo reciprocal-lattice translations
            best = min(
                np.max(np.abs((recip @ (q - l) + np.pi) % (2 * np.pi) - np.pi))
                for l in locs
            )
            assert best < 1e-4
            assert float(row["sigma_min"]) < 1e-6

    def test_yao_lee_single_row(self, tmp_path):
        out = tmp_path / "bz.csv"
        proc = run_epkit("bz-scan", "--config",
                         str(CONFIG_DIR / "bz-scan-yao-lee-ep4.cfg"),
                         "--out", str(out))
        assert proc.returncode == 0
        rows = read_csv(out.read_text())
        assert len(rows) == 1
        assert rows[0]["kind"] == "EP4"

    @pytest.mark.parametrize("fail", [False, True])
    def test_classification_error_reported(self, fail, monkeypatch, capsys):
        def mismatch(*args, **kwargs):
            raise CrossCheckMismatchError("planted mismatch")

        if fail:
            monkeypatch.setattr("epkit.classify.classify_point", mismatch)
        argv = ["bz-scan", "--model", "ep4-sqrt", "grid_nx=24", "grid_ny=24"]
        assert cli.main(argv + ["--json"]) == 0
        [row] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert row.get("error") == ("planted mismatch" if fail else None)
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        warnings = captured.err.splitlines()
        assert len(warnings) == (1 if fail else 0)
        if fail:
            assert warnings[0].startswith("warning: candidate (")
            assert warnings[0].endswith("not classified: planted mismatch")

    def test_gapped_kitaev_empty(self):
        proc = run_epkit("bz-scan", "--model", "kitaev", "j1=3", "grid_nx=24",
                         "grid_ny=24")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["qx,qy,sigma_min,kind"]


class TestExitCodes:
    def test_degraded_scan_exits_four(self):
        # default zero-cutoff drops the small radii of the quadratic branch
        proc = run_epkit("fit", "--model", "ep3",
                         "theta=1.5707963267948966")
        assert proc.returncode == 4

    def test_tighter_tolerance_keeps_all_radii(self):
        proc = run_epkit("fit", "--model", "ep3",
                         "theta=1.5707963267948966", "tol=1e-13")
        assert proc.returncode == 0


class TestModelsCommand:
    def test_catalog_listing(self):
        proc = run_epkit("models")
        assert proc.returncode == 0
        for name in ("doublet-ep2", "ep4-sqrt", "ep4-quartic", "ep3",
                     "kitaev", "yao-lee-ep4", "yao-lee-ep3"):
            assert name in proc.stdout

    def test_json_listing(self):
        proc = run_epkit("models", "--json")
        payload = json.loads(proc.stdout)
        assert payload["ep3"]["params"]["bp2"] == 2.0

    @pytest.mark.parametrize("args", [
        ["j1=1"],
        ["--model", "ep3"],
        ["--config", str(CONFIG_DIR / "classify-ep3.cfg")],
        ["--at-qstar"],
    ])
    def test_configuration_rejected(self, args, capsys):
        assert cli.main(["models", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "models takes no configuration" in err


class TestKeysPerCommand:
    def test_bz_scan_rejects_tol(self, capsys):
        # bz-scan reads ep_tol only; tol would be accepted and ignored
        assert cli.main(["bz-scan", "--model", "kitaev", "tol=0.5"]) == 2
        assert "unknown configuration keys: tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "path-scan", "fit"])
    def test_tol_accepted(self, command, tmp_path):
        out = tmp_path / "out.txt"
        assert cli.main([command, "--model", "doublet-ep2", "tol=1e-8",
                         "--out", str(out)]) == 0
