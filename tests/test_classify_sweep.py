"""Smoke test of the classifier regression sweep (tests/classify_sweep.py)."""

import itertools

import numpy as np

import classify_sweep


def test_a_subset_prints_the_same_lines_twice():
    subset = [*itertools.islice(classify_sweep.taxonomy_pairs(7), 3),
              *[p for p in classify_sweep.catalog_pairs()
                if p[0].startswith("ep4-sqrt d=0.0 ")]]
    assert len(subset) == 5
    first = [classify_sweep.line(*pair) for pair in subset]
    assert first == [classify_sweep.line(*pair) for pair in subset]
    for text, pair in zip(first, subset):
        label, verdict, jordan, zero_modes = text.split(" | ")
        assert label == pair[0]
        float.fromhex(verdict.split()[-1])
        assert len(zero_modes) == 16
    # the exact EP4 of ep4-sqrt at q*: one 4-chain in ker B, scale 1
    for text in first[3:]:
        _, verdict, jordan, _ = text.split(" | ")
        assert verdict == "EP4 [4] [4:B] 1 0 0x1.0000000000000p+0"
        blocks, digest = jordan.rsplit(" ", 1)
        assert blocks == "[4]" and len(digest) == 16


def test_a_raising_call_gives_an_error_part():
    label, verdict, jordan, zero_modes = classify_sweep.line(
        "nan", np.full((2, 2), np.nan), np.eye(2), 1e-9).split(" | ")
    error = "error: NonFiniteError matrix contains NaN or Inf entries"
    assert (label, verdict, jordan, zero_modes) == ("nan", error, error, error)
    # a nondegenerate pair has no Jordan structure at zero, and no zero mode
    _, verdict, jordan, zero_modes = classify_sweep.line(
        "gapped", np.eye(2), np.eye(2), 1e-9).split(" | ")
    assert verdict.startswith("Nondegenerate [] [] 0 0 ")
    assert jordan == "error: NotAnEigenvalueError 0.0 is not an eigenvalue at tol=1e-09"
    assert zero_modes == classify_sweep._digest(np.zeros((0, 4), dtype=complex))


def test_each_round_gives_its_pairs_and_the_two_fault_pairs():
    labels = [pair[0] for pair in classify_sweep.taxonomy_pairs(0)]
    assert len(labels) == len(set(labels)) == 142
    assert labels[-2:] == ["taxonomy 0 140 EP3Mixed n=2", "taxonomy 0 141 EP3Mixed n=2"]


def test_seed_ranges(monkeypatch, capsys):
    monkeypatch.setattr(classify_sweep, "lines", lambda seeds: [str(seeds)])
    classify_sweep.main(["--seeds", "3-5"])
    classify_sweep.main([])
    assert capsys.readouterr().out.splitlines() == ["range(3, 6)", "range(0, 10)"]


def small_round():
    return [*itertools.islice(classify_sweep.taxonomy_pairs(3), 6),
            *[p for p in classify_sweep.catalog_pairs() if p[0].startswith("ep3 ")]]


def test_stacked_outcomes_are_counted(monkeypatch):
    pairs = small_round()
    assert classify_sweep.stacked_mismatches(pairs) == 0
    # one stacked item that reads differently from the pair alone counts once
    stacked = classify_sweep._classify_pairs

    def one_off(b, bprime, tol):
        out = stacked(b, bprime, tol)
        return [RuntimeError("changed")] + out[1:]

    monkeypatch.setattr(classify_sweep, "_classify_pairs", one_off)
    groups = {(len(b), tol) for _, b, _, tol in pairs}
    assert classify_sweep.stacked_mismatches(pairs) == len(groups) > 1


def test_the_last_line_sums_every_round(monkeypatch, capsys):
    monkeypatch.setattr(classify_sweep, "rounds", lambda seeds: [small_round()] * 2)
    classify_sweep.main(["--seeds", "0"])
    lines = capsys.readouterr().out.splitlines()
    total = 2 * len(small_round())
    assert len(lines) == total + 1
    assert lines[-1] == f"stacked: 0 of {total} pairs differ from classify_point alone"
