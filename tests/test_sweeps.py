"""Tests of the helpers the regression sweeps share (tests/sweeps.py)."""

import numpy as np

import sweeps


def test_seed_range():
    assert sweeps._seed_range("3") == range(3, 4)
    assert sweeps._seed_range("0-39") == range(40)


def test_digest_reads_shape_dtype_and_bytes():
    zeros = np.zeros((0, 4), dtype=complex)
    assert len(sweeps._digest(zeros)) == 16
    assert sweeps._digest(zeros) != sweeps._digest(np.zeros((4, 0), dtype=complex))
    assert sweeps._digest(np.eye(2)) == sweeps._digest(np.eye(2).T.copy())
    assert sweeps._digest(np.eye(2)) != sweeps._digest(np.eye(2, dtype=complex))


def test_only_the_lines_that_differ():
    old = ["a | 1", "b | 2", "c | 3"]
    new = ["a | 1", "b | 5", "c | 3", "d | 4"]
    assert sweeps.differing("cli", old, new) == [
        "cli - b | 2", "cli + b | 5", "cli + d | 4"]
    assert sweeps.differing("cli", old, old) == []


def fake_tree(root, lines):
    """A source tree whose four sweeps each print ``lines`` with their name."""
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    for name in sweeps.SWEEPS:
        (root / "tests" / f"{name}_sweep.py").write_text(
            "".join(f"print('{name} {text}')\n" for text in lines))
    return root


def test_the_runner_prints_the_lines_that_differ(tmp_path, monkeypatch, capsys):
    here = fake_tree(tmp_path / "here", ["1", "2"])
    parent = fake_tree(tmp_path / "parent", ["1", "2"])
    monkeypatch.setattr(sweeps, "HERE", here / "tests")
    assert sweeps.main([str(parent)]) == 0
    assert capsys.readouterr().out == ""
    (parent / "tests" / "ray_sweep.py").write_text("print('ray 1')\nprint('ray 3')\n")
    assert sweeps.main([str(parent)]) == 1
    assert capsys.readouterr().out.splitlines() == ["ray - ray 3", "ray + ray 2"]
    (parent / "tests" / "cli_sweep.py").write_text("raise SystemExit(3)\n")
    assert sweeps.main([str(parent)]) == 2
