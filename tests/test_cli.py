import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epkit import cli
from epkit.errors import CrossCheckMismatchError
from epkit.models import MODEL_CATALOG, build_model, kitaev_ep_locations

from conftest import plant_counts, rising_chains, rising_model

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

    def test_chain_lines(self):
        proc = run_epkit("classify", "--model", "ep3")
        assert proc.stdout.splitlines()[2:] == [
            "  dim ker B = 1, dim ker B' = 1",
            "  chain of 3, eigenvector in ker B",
            "  chain of 1, eigenvector in ker B'",
        ]
        machine = json.loads(run_epkit("classify", "--model", "ep3", "--json").stdout)
        assert machine["evidence"]["chains"] == [{"in_ker": "B", "length": 3},
                                                 {"in_ker": "B'", "length": 1}]

    def test_rising_ranks_give_one_error_line(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_model", lambda name, params: rising_model(name))
        plant_counts(monkeypatch, rising_chains)
        assert cli.main(["classify", "--model", "ep3", "tol=1e-6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ranks ")

    def test_kitaev_point_at_any_coupling_scale(self, capsys):
        # the closed-form point once overflowed (1e200) or divided by zero
        # (1e-200) in its triangle law
        first = []
        for j in ("1e-200", "1e-100", "1", "1e100", "1e200", "1e300"):
            couplings = [f"j{i}={j}" for i in (1, 2, 3)]
            assert cli.main(["classify", "--model", "kitaev", *couplings,
                             "phi1=0.3", "phi2=-0.2"]) == 0
            first.append(capsys.readouterr().out.splitlines()[:2])
        assert first[0][0] == "EP2, blocks [2]"
        assert first == first[:1] * len(first)

    def test_loose_tolerance_at_yao_lee_ep4(self, capsys):
        # the products of B and B', each cut by itself, once read drops that
        # fit no Jordan structure here
        assert cli.main(["classify", "--model", "yao-lee-ep4", "tol=1e-2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "EP4, blocks [4]"

    def test_negative_kitaev_coupling(self, capsys):
        # a negative J2 is the positive one at phase phi2 + pi
        assert cli.main(["classify", "--model", "kitaev", "j1=0.9", "j2=-1.1",
                         "phi1=0.3", "phi2=0.1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "EP2, blocks [2]"

    def test_pair_at_the_absolute_floor(self):
        # both blocks at or under 1e-300 count as zero, in H as in the chains
        proc = run_epkit("classify", "--model", "doublet-ep2", "c=1e-320")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "Diabolic, blocks [1, 1, 1, 1]"

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

    def test_noise_floor_names_the_branch_as_the_rows_do(self):
        # at tol = 1e300 every radius keeps only zero modes, so the first
        # branch, numbered 1 in the output, has no energy to fit
        proc = run_epkit("fit", "--config", str(CONFIG_DIR / "fit-ep3-path2.cfg"),
                         "tol=1e300")
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert lines == ["error: theta=1.5707963267948966 branch 1: fewer "
                         "than two energies above the noise floor"]


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
        def mismatch(b, bprime, tol, reference):
            return [CrossCheckMismatchError("planted mismatch")] * len(b)

        if fail:
            monkeypatch.setattr("epkit.classify._classify_pairs", mismatch)
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


@pytest.mark.parametrize("model", sorted(MODEL_CATALOG))
def test_bz_scan_default_window_of_every_model(model, capsys):
    # in process, so a numpy RuntimeWarning fails the run
    assert cli.main(["bz-scan", "--model", model]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    found = [np.array([float(row["qx"]), float(row["qy"])])
             for row in read_csv(captured.out)]
    assert found
    # known defect: the yao-lee-ep3 scan lists two points off its q*
    if model != "yao-lee-ep3":
        q_star = build_model(model).q_star
        assert min(np.max(np.abs(q - q_star)) for q in found) < 1e-4


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


class TestAtQstar:
    @pytest.mark.parametrize("command", ["classify", "path-scan", "fit"])
    @pytest.mark.parametrize("point", [["qx=0.3", "qy=0.1"], ["qx=0.3"], ["qy=0.1"]])
    def test_rejects_explicit_point(self, command, point, capsys):
        assert cli.main([command, "--model", "ep3", "--at-qstar", *point]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--at-qstar conflicts with" in err

    def test_rejects_point_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("model = ep3\nqx = 0.3\nqy = 0.1\n")
        assert cli.main(["classify", "--config", str(cfg), "--at-qstar"]) == 2
        assert "--at-qstar conflicts with qx and qy" in capsys.readouterr().err

    def test_bz_scan_rejects_flag(self, capsys):
        assert cli.main(["bz-scan", "--model", "kitaev", "--at-qstar"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--at-qstar does not apply" in err

    @pytest.mark.parametrize("command", ["classify", "path-scan", "fit"])
    def test_flag_alone_is_the_default(self, command, tmp_path):
        with_flag, without = tmp_path / "a.txt", tmp_path / "b.txt"
        assert cli.main([command, "--model", "ep4-sqrt", "--at-qstar",
                         "--out", str(with_flag)]) == 0
        assert cli.main([command, "--model", "ep4-sqrt", "--out", str(without)]) == 0
        assert with_flag.read_bytes() == without.read_bytes()


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


#: Bad inputs, each as CLI arguments; ``{tmp}`` is a fresh directory. The
#: sizes are far beyond any address space, so numpy refuses them at once.
BAD_INPUTS = {
    "complex-modulus-overflow": ["classify", "--model", "doublet-ep2",
                                 "c=1.5e308+1.5e308i"],
    "complex-modulus-overflow-ep3": ["classify", "--model", "ep3",
                                     "b2=1.5e308+1.5e308i"],
    "unwritable-out-models": ["models", "--out", "{tmp}/missing/x.txt"],
    "unwritable-out-classify": ["classify", "--model", "ep3",
                                "--out", "{tmp}/missing/x.txt"],
    "unallocatable-grid": ["bz-scan", "--model", "ep3", "grid_nx=16",
                           "grid_ny=1e15"],
    "unallocatable-radii": ["path-scan", "--model", "ep3", "radii_count=1e15"],
    "unknown-key": ["classify", "--model", "ep3", "bogus=1"],
    "unparsable-number": ["classify", "--model", "ep3", "b2=1.0.0"],
    "missing-config": ["classify", "--config", "{tmp}/missing.cfg"],
    "kitaev-coupling-overflow": ["classify", "--model", "kitaev", "j1=1.7e308",
                                 "j2=1.7e308", "j3=1.7e308", "phi1=0.3",
                                 "phi2=-0.2"],
    "bz-scan-kitaev-coupling-overflow": ["bz-scan", "--model", "kitaev",
                                         "j1=1.7e308", "j2=1.7e308",
                                         "j3=1.7e308", "phi1=0.3", "phi2=-0.2"],
}

#: the exact error line of the bad inputs whose message is pinned
ERROR_LINES = {
    # the grid form refuses its blocks as the pointwise generators do
    "bz-scan-kitaev-coupling-overflow": "error: B(q) returned non-finite entries",
}


@pytest.mark.parametrize("name", BAD_INPUTS, ids=BAD_INPUTS.keys())
def test_bad_input_gives_one_error_line(name, tmp_path):
    proc = run_epkit(*(a.format(tmp=tmp_path) for a in BAD_INPUTS[name]))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if name in ERROR_LINES:
        assert lines == [ERROR_LINES[name]]
