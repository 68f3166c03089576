"""Tests of the benchmark itself: each oracle rejects a wrong output, the
basis change keeps H similar, and the tracer leaves epkit as it found it.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import classify_taxonomy as ct
import cli_configs
import oracles
from common import Op
from oracles import OracleError

COUPLINGS = (1.1, 0.9, 1.0, 0.3, -0.2)


def kitaev_rows(couplings, blocks=(2,)):
    """What a correct scan returns: the zeros of A(q) and of A(-q)."""
    zeros = oracles.kitaev_zeros(*couplings)
    # q is a zero of A(-q) iff -q is a zero of A(q).
    mirrored = [-q for q in zeros
                if all(lo <= -x <= hi for x, (lo, hi) in zip(q, oracles.KITAEV_WINDOW))]
    return [(q, list(blocks)) for q in zeros + mirrored]


def test_kitaev_zeros_are_zeros_of_a():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = (*rng.uniform(0.8, 1.2, 2), 1.0, *rng.uniform(-0.5, 0.5, 2))
        zeros = oracles.kitaev_zeros(*c)
        assert len(zeros) >= 2
        for q in zeros:
            assert abs(oracles.kitaev_a(q, *c)) <= 1e-12


def test_kitaev_zeros_empty_in_gapped_phase():
    assert oracles.kitaev_zeros(3.0, 1.0, 1.0, 0.2, 0.1) == []


def test_kitaev_oracle_accepts_exact_rows():
    oracles.check_kitaev_scan(kitaev_rows(COUPLINGS), COUPLINGS, 1e-6,
                              expect_blocks=[2])


def test_kitaev_oracle_rejects_a_shifted_zero():
    rows = kitaev_rows(COUPLINGS)
    q, blocks = rows[0]
    rows[0] = (q + np.array([2e-4, 0.0]), blocks)
    with pytest.raises(OracleError, match="missed"):
        oracles.check_kitaev_scan(rows, COUPLINGS, 1e-6)


def test_kitaev_oracle_rejects_a_spurious_candidate():
    rows = kitaev_rows(COUPLINGS) + [(np.array([0.1, 0.2]), [2])]
    with pytest.raises(OracleError, match="min\\|A"):
        oracles.check_kitaev_scan(rows, COUPLINGS, 1e-6)


def test_kitaev_oracle_reads_blocks_not_labels():
    rows = kitaev_rows(COUPLINGS, blocks=())
    with pytest.raises(OracleError, match="blocks"):
        oracles.check_kitaev_scan(rows, COUPLINGS, 1e-6, expect_blocks=[2])


def test_exact_blocks_match_sympy_jordan_form():
    import sympy as sp

    for b0, bp0, blocks, _ in list(ct.CANONICAL.values())[:3]:
        b, bp = oracles.gaussian_matrix(b0), oracles.gaussian_matrix(bp0)
        h = oracles.exact_assemble(b, bp)
        assert oracles.exact_zero_blocks(h) == blocks
        _, jordan = sp.Matrix(h.to_Matrix()).jordan_form()
        sizes, k = [], 0
        while k < jordan.shape[0]:
            size = 1
            while k + size < jordan.shape[0] and jordan[k + size - 1, k + size] == 1:
                size += 1
            if jordan[k, k] == 0:
                sizes.append(size)
            k += size
        assert sorted(sizes, reverse=True) == blocks


@pytest.mark.parametrize("kind", list(ct.CANONICAL) + ["Nondegenerate"])
def test_basis_change_keeps_h_similar(kind):
    rng = np.random.default_rng(11)
    n = len(ct.CANONICAL[kind][0]) if kind in ct.CANONICAL else 2
    pair = ct.make_pair(rng, kind, n)
    b, bp = pair.exact()
    assert oracles.exact_zero_blocks(oracles.exact_assemble(b, bp)) == pair.blocks
    if pair.u is None:
        return
    # H(B, B') = S H(B0, B0') S^-1 with S = diag(U, V), before mirror and scale.
    u, v = ct.as_array(pair.u), ct.as_array(pair.v)
    s = np.block([[u, np.zeros_like(u)], [np.zeros_like(v), v]])
    h0 = oracles.to_complex(oracles.exact_assemble(
        oracles.gaussian_matrix(pair.b0), oracles.gaussian_matrix(pair.bp0)))
    fb, fbp = (pair.bp, pair.b) if pair.mirror else (pair.b, pair.bp)
    h = np.block([[np.zeros_like(fb), 1j * fb], [-1j * fbp, np.zeros_like(fb)]])
    np.testing.assert_allclose(h / pair.scale, s @ h0 @ np.linalg.inv(s), atol=1e-12)


def fake_classification(kind, blocks):
    return SimpleNamespace(kind=SimpleNamespace(value=kind),
                           evidence={"jordan_blocks_at_zero": blocks})


def test_taxonomy_oracle_rejects_a_swapped_kind():
    rng = np.random.default_rng(3)
    pair = ct.make_pair(rng, "EP3Mixed", 2)
    workload = ct.ClassifyTaxonomy([], [pair])
    op = Op("x", None, ("classify_zero_energy", pair))
    assert workload.check(op, fake_classification("EP3Mixed", [3, 1])) == "ok"
    with pytest.raises(OracleError, match="kind EP4"):
        workload.check(op, fake_classification("EP4", [3, 1]))
    with pytest.raises(OracleError, match="blocks"):
        workload.check(op, fake_classification("EP3Mixed", [4]))
    ep2n = Op("x", None, ("check_ep2n", pair))
    with pytest.raises(OracleError):
        workload.check(ep2n, True)


def test_fault_ops_fail_and_other_errors_are_wrong():
    workload = ct.ClassifyTaxonomy([], [])
    fault = Op("x", None, None, fault=True)
    assert workload.judge(fault, None, ValueError("boom")) == "failed"
    with pytest.raises(OracleError, match="raised"):
        workload.judge(Op("x", None, None), None, ValueError("boom"))


def test_exponent_oracle_rejects_a_wrong_exponent():
    oracles.check_exponents("ep4-quartic", 1.0, [0.26, 0.25, 0.24, 0.25])
    with pytest.raises(OracleError):
        oracles.check_exponents("ep4-quartic", 1.0, [0.5, 0.5, 0.5, 0.5])
    oracles.check_exponents("ep3", math.pi / 2, [1.0, 0.5, 1.0, 0.5])
    with pytest.raises(OracleError):
        oracles.check_exponents("ep3", math.pi / 2, [0.5, 0.5, 0.5, 0.5])


def test_pairing_and_distance_oracles():
    oracles.check_pairing([0.1 + 0.2j, -0.1 - 0.2j], 1.0)
    with pytest.raises(OracleError):
        oracles.check_pairing([0.1 + 0.2j, -0.1 + 0.2j], 1.0)
    with pytest.raises(OracleError):
        oracles.check_distances([0.0, 2.5])


def test_cli_oracles_reject_wrong_outputs():
    workload = cli_configs.CliConfigs([], [])
    ep3 = {"model": "ep3"}
    workload.check_classify(Path("c.cfg"), ep3, "ep3", "EP3Mixed, blocks [3, 1]\n")
    with pytest.raises(OracleError):
        workload.check_classify(Path("c.cfg"), ep3, "ep3", "EP4, blocks [4]\n")
    # The header path-scan writes when a model has no zero targets.
    with pytest.raises(OracleError, match="fields"):
        cli_configs.csv_rows("radius,theta,branch,re_E,im_E,\n0.01,0,1,0.1,0\n")
    fit = "theta,branch,exponent,r_squared\n0,1,0.5,1\n0,2,0.5,1\n0,3,0.5,1\n0,4,0.5,1\n"
    with pytest.raises(OracleError):
        workload.check_fit(Path("f.cfg"), {}, "ep4-quartic", fit)


def test_tracer_counts_and_restores():
    from epkit import classify, cmatrix

    from tracer import Tracer

    before = (classify.classify_zero_energy, cmatrix.svd_rank, np.linalg.svd)
    tracer = Tracer()
    tracer.install()
    try:
        classify.classify_zero_energy(np.array([[0, 1], [0, 0]]),
                                      np.array([[1, 2], [0, 0]]))
    finally:
        tracer.uninstall()
    assert (classify.classify_zero_energy, cmatrix.svd_rank, np.linalg.svd) == before
    assert tracer.calls["classify.classify_zero_energy"] == 1
    assert tracer.calls["numpy.linalg.svd"] > 0
    assert all(t >= 0.0 for t in tracer.self_s.values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--workload", "bz-lattice",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
