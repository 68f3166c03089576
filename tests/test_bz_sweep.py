"""Smoke test of the bz_scan regression sweep (tests/bz_sweep.py)."""

import itertools

import bz_sweep


def test_a_subset_prints_the_same_lines_twice():
    subset = [next(bz_sweep.lattice_scans(7)),
              *itertools.islice(bz_sweep.small_phase_scans(), 1),
              *[s for s in bz_sweep.catalog_scans()
                if s[0] == "yao-lee-ep4" and s[2] == (16, 16)]]
    assert len(subset) == 3
    first = [bz_sweep.line(*scan) for scan in subset]
    assert first == [bz_sweep.line(*scan) for scan in subset]
    for text, scan in zip(first, subset):
        label, window, grid, points = text.split(" | ")
        assert (label, grid) == (scan[0], "x".join(map(str, scan[2])))
        assert points
        for point in points.split("; "):
            qx, qy, sigma, kind = point.split()
            float.fromhex(qx), float.fromhex(qy), float.fromhex(sigma)
    assert first[2].endswith(" EP4")


def test_seed_ranges(monkeypatch, capsys):
    monkeypatch.setattr(bz_sweep, "scans", lambda seeds: [(seeds,)])
    monkeypatch.setattr(bz_sweep, "line", str)
    bz_sweep.main(["--seeds", "3"])
    bz_sweep.main([])
    assert capsys.readouterr().out.splitlines() == ["range(3, 4)", "range(0, 40)"]
