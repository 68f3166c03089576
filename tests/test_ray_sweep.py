"""Smoke test of the path_scan regression sweep (tests/ray_sweep.py)."""

import itertools

import ray_sweep


def test_a_subset_prints_the_same_lines_twice():
    subset = [*itertools.islice(ray_sweep.coalescence_rays(7), 2),
              *[r for r in ray_sweep.catalog_rays()
                if r[0].startswith("ep3 default theta=0x0.0p+0 ")]]
    assert len(subset) == 5
    first = [ray_sweep.line(*ray) for ray in subset]
    assert first == [ray_sweep.line(*ray) for ray in subset]
    for text, ray in zip(first, subset):
        label, arrays, skipped, switches, worst = text.split(" | ")
        assert label == ray[0]
        assert [len(a) for a in arrays.split()] == [16, 16, 16]
        for radius in skipped.split():
            float.fromhex(radius)
        for switch in switches.split():
            radius, overlap = map(float.fromhex, switch.split(":"))
            assert overlap < 0.9 and overlap >= float.fromhex(worst)
        assert float.fromhex(worst) <= 1.0
    # along theta = 0 at tol 1e-6, one of ep3's energy pairs falls below
    # the cutoff at the two smallest radii and gives way to the
    # kernel-built zero modes: the step into them records a switch
    assert any(text.split(" | ")[3] for text in first[2:])


def test_a_raising_ray_gives_an_error_line():
    label, bh, q_star, theta, radii, tol = next(ray_sweep.catalog_rays())
    text = ray_sweep.line(label, bh, q_star, theta, radii[:4], tol)
    assert text == f"{label} | error: ValueError radii must span at least two decades"


def test_seed_ranges(monkeypatch, capsys):
    monkeypatch.setattr(ray_sweep, "rays", lambda seeds: [(seeds,)])
    monkeypatch.setattr(ray_sweep, "line", str)
    ray_sweep.main(["--seeds", "3"])
    ray_sweep.main([])
    assert capsys.readouterr().out.splitlines() == ["range(3, 4)", "range(0, 10)"]
