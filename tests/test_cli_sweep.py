"""Smoke test of the CLI regression sweep (tests/cli_sweep.py)."""

import hashlib

import cli_sweep

EMPTY = hashlib.sha256(b"").hexdigest()


def test_a_subset_prints_the_same_lines_twice():
    wanted = {"config classify-ep3.cfg", "config classify-ep3.cfg --json --out",
              "models --json", "loose-ep-tol", "bad unwritable-out-classify",
              "bad unknown-key"}
    subset = [inv for inv in cli_sweep.invocations() if inv[0] in wanted]
    assert len(subset) == len(wanted)
    first = [cli_sweep.line(*inv) for inv in subset]
    # each run writes to its own scratch directory, which no line shows
    assert first == [cli_sweep.line(*inv) for inv in subset]
    lines = {text.split(" | ")[0]: text.split(" | ")[1:] for text in first}
    assert lines["config classify-ep3.cfg"][0] == "0"
    assert lines["config classify-ep3.cfg"][2:] == [EMPTY, "-"]
    code, stdout, stderr, out = lines["config classify-ep3.cfg --json --out"]
    assert (code, stdout, stderr) == ("0", EMPTY, EMPTY) and out != "-"
    # the candidate at a loose ep_tol is classified, with no warning
    code, _, stderr, _ = lines["loose-ep-tol"]
    assert (code, stderr) == ("0", EMPTY)
    for label in ("bad unwritable-out-classify", "bad unknown-key"):
        code, stdout, stderr, out = lines[label]
        assert (code, stdout, out) == ("2", EMPTY, "-") and stderr != EMPTY


def test_every_label_is_unique():
    labels = [label for label, _ in cli_sweep.invocations()]
    assert len(labels) == len(set(labels))
