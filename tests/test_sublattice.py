import numpy as np
import pytest

from epkit.errors import GeneratorFailureError, OddDimensionError
from epkit.models import doublet_ep2_model, ep3_model
from epkit.sublattice import (
    BlockHamiltonian,
    assemble,
    assemble_blocks,
    partner_state,
    phase_gauge,
    pow2_scale,
    reduced_spectrum,
    symmetry_residual,
    zero_energy_states,
)

from conftest import direction_mismatch, jordan_block, random_block_hamiltonian


def _constant(matrix):
    m = np.asarray(matrix, dtype=complex)
    return lambda q: m


class TestAssemble:
    def test_pauli_y(self):
        h = assemble_blocks([[1.0]], [[1.0]])
        np.testing.assert_allclose(h, [[0.0, 1j], [-1j, 0.0]], atol=1e-15)

    def test_doublet_zero_upper_block(self):
        bh = doublet_ep2_model()
        h = assemble(bh, bh.q_star)
        assert np.max(np.abs(h[:2, 2:])) == 0.0
        assert np.max(np.abs(h[2:, :2])) > 0.0

    def test_mixed_threefold_eigenvector(self):
        bh = ep3_model()
        h = assemble(bh, bh.q_star)
        e1 = np.array([0, 0, 1.0, 0])
        assert np.linalg.norm(h @ e1) < 1e-14


class TestGeneratorContract:
    def test_constant_generator_broadcasts(self):
        bh = BlockHamiltonian(1, _constant([[2.0]]), _constant([[3.0]]))
        assert bh.b((0.1, 0.2)).shape == (1, 1)
        np.testing.assert_array_equal(bh.b_prime(np.zeros((4, 5, 2))),
                                      np.full((4, 5, 1, 1), 3.0))

    def test_misshaped_or_non_finite_output_rejected(self):
        for n, bad in ((2, np.eye(3)), (1, [[np.nan]])):
            bh = BlockHamiltonian(n, _constant(bad), _constant(np.eye(n)))
            for q in ((0.0, 0.0), np.zeros((3, 2))):
                with pytest.raises(GeneratorFailureError):
                    bh.b(q)

    def test_momenta_need_a_trailing_pair(self):
        bh = BlockHamiltonian(1, _constant([[1.0]]), _constant([[1.0]]))
        for q in (0.0, (0.0, 0.0, 0.0), np.zeros((2, 3))):
            with pytest.raises(ValueError):
                bh.b(q)


class TestSymmetryResidual:
    def test_assembled_is_exact(self, rng):
        bh = random_block_hamiltonian(rng, 2)
        assert symmetry_residual(assemble(bh, (0.3, -0.1))) == 0.0

    def test_identity(self):
        assert symmetry_residual(np.eye(4)) == pytest.approx(2.0)

    def test_diagonal_perturbation(self):
        h = assemble_blocks(np.eye(2), np.eye(2))
        h[0, 0] += 1e-3
        assert symmetry_residual(h) == pytest.approx(2e-3)

    def test_odd_dimension(self):
        with pytest.raises(OddDimensionError):
            symmetry_residual(np.zeros((3, 3)))


class TestReducedSpectrum:
    def test_single_flavour_identity(self):
        bh = BlockHamiltonian(1, _constant([[1.0]]), _constant([[1.0]]))
        states = reduced_spectrum(bh.b((0.0, 0.0)), bh.b_prime((0.0, 0.0)))
        by_energy = {round(s.energy.real): s for s in states}
        np.testing.assert_allclose(by_energy[1].vector,
                                   np.array([1.0, -1j]) / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(by_energy[-1].vector,
                                   np.array([1.0, 1j]) / np.sqrt(2), atol=1e-12)

    def test_doublet_states_near_point(self):
        bh = doublet_ep2_model()
        q = bh.q_star + np.array([1e-4, 0.0])
        states = reduced_spectrum(bh.b(q), bh.b_prime(q))
        assert len(states) == 4
        # energies square to i * c * v * |dq|, each branch twice
        for s in states:
            assert s.energy ** 2 == pytest.approx(1j * 1e-4, rel=1e-9)
        # states look like (x, 0, 1, 0) and (0, x, 0, 1) with |x| = 1e-2
        h = assemble(bh, q)
        hnorm = np.linalg.norm(h, 2)
        for s in states:
            v = s.vector
            assert np.linalg.norm(h @ v - s.energy * v) <= 1e-10 * hnorm
            small = sorted(np.abs(v))[:2]
            assert np.max(small) < 1e-13  # two components vanish exactly
        flavour_one = [s for s in states if abs(s.vector[1]) < 1e-13]
        assert len(flavour_one) == 2
        # psi/chi ratio is +-sqrt(i v |dq| / c) = +-e^{i pi/4} 1e-2 here
        ratios = sorted((s.vector[0] / s.vector[2] for s in flavour_one),
                        key=lambda z: z.real)
        expected = np.sqrt(1j * 1e-4)
        np.testing.assert_allclose(ratios, [-expected, expected], atol=1e-12)

    def test_mixed_threefold_zero_modes(self):
        bh = ep3_model()  # b2 = 1, bp1 = 1, bp2 = 2
        states = reduced_spectrum(bh.b(bh.q_star), bh.b_prime(bh.q_star))
        assert len(states) == 2
        np.testing.assert_allclose(states[0].vector, [0, 0, 1.0, 0], atol=1e-14)
        np.testing.assert_allclose(states[1].vector,
                                   np.array([2.0, -1.0, 0, 0]) / np.sqrt(5),
                                   atol=1e-14)

    def test_reproduces_assembled_spectrum(self, rng):
        for n in (1, 2, 3):
            bh = random_block_hamiltonian(rng, n)
            q = rng.uniform(-1, 1, 2)
            h = assemble(bh, q)
            hnorm = np.linalg.norm(h, 2)
            from_states = sorted(
                (s.energy for s in reduced_spectrum(bh.b(q), bh.b_prime(q))),
                key=lambda z: (z.real, z.imag),
            )
            direct = sorted(np.linalg.eigvals(h), key=lambda z: (z.real, z.imag))
            np.testing.assert_allclose(from_states, direct, atol=1e-8 * hnorm)

    @pytest.mark.parametrize("c", [1e160, 1e-170])
    def test_extreme_scale_energies(self, c):
        # B'B = c^2 J2(1) overflows at 1e160 and underflows to zero at
        # 1e-170 unless it is formed from the divided blocks
        def energies(c):
            states = reduced_spectrum(c * jordan_block(2, 1.0), c * np.eye(2))
            return sorted((s.energy for s in states), key=lambda z: (z.real, z.imag))

        got = energies(c)
        assert len(got) == 4
        np.testing.assert_allclose(np.array(got) / c, energies(1.0), rtol=0, atol=1e-7)

    def test_power_of_two_scale_is_exact(self, rng):
        for n in (1, 2, 3):
            b, bp = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            ref = reduced_spectrum(b, bp)
            for k in (-600, 600):
                got = reduced_spectrum(2.0 ** k * b, 2.0 ** k * bp)
                assert [s.energy for s in got] == [2.0 ** k * s.energy for s in ref]
                for g, r in zip(got, ref):
                    assert np.array_equal(g.vector, r.vector)

    def test_pow2_scale(self):
        assert pow2_scale(np.array([[0.75]]), np.array([[0.5j]])) == 1.0
        assert pow2_scale(np.array([[1.0]]), np.zeros((1, 1))) == 2.0
        assert pow2_scale(np.zeros((1, 1)), np.zeros((1, 1))) == 1.0
        # 2^e and 2^-e stay normal numbers at the ends of the range
        assert pow2_scale(np.array([[1e308]]), np.zeros((1, 1))) == 2.0 ** 1023
        assert pow2_scale(np.array([[1e-320]]), np.zeros((1, 1))) == 2.0 ** -1021


class TestPairing:
    def test_partner_involution(self, rng):
        bh = random_block_hamiltonian(rng, 2)
        s = reduced_spectrum(bh.b((0.2, 0.4)), bh.b_prime((0.2, 0.4)))[0]
        twice = partner_state(partner_state(s))
        np.testing.assert_allclose(twice.vector, s.vector, atol=1e-15)
        assert twice.energy == s.energy

    def test_partner_is_eigenstate(self, rng):
        for n in (1, 2, 3):
            bh = random_block_hamiltonian(rng, n)
            q = rng.uniform(-1, 1, 2)
            h = assemble(bh, q)
            hnorm = np.linalg.norm(h, 2)
            for s in reduced_spectrum(bh.b(q), bh.b_prime(q)):
                p = partner_state(s)
                assert np.linalg.norm(h @ p.vector - p.energy * p.vector) <= 1e-8 * hnorm

    def test_zero_mode_partner_same_ray(self):
        states = zero_energy_states([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
        s = states[0]
        p = partner_state(s)
        assert p.energy == 0.0
        assert direction_mismatch(p.vector, s.vector) < 1e-14

    def test_spectrum_negation_symmetry(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 4))
            bh = random_block_hamiltonian(rng, n)
            q = rng.uniform(-2, 2, 2)
            h = assemble(bh, q)
            values = np.linalg.eigvals(h)
            pos = sorted(values, key=lambda z: (z.real, z.imag))
            neg = sorted(-values, key=lambda z: (z.real, z.imag))
            np.testing.assert_allclose(pos, neg, atol=1e-9 * np.linalg.norm(h, 2))

    def test_block_products_share_spectrum(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            bp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lam1 = sorted(np.linalg.eigvals(b @ bp), key=lambda z: (z.real, z.imag))
            lam2 = sorted(np.linalg.eigvals(bp @ b), key=lambda z: (z.real, z.imag))
            np.testing.assert_allclose(lam1, lam2,
                                       atol=1e-10 * np.linalg.norm(b @ bp, 2))

    def test_characteristic_polynomial_even(self, rng):
        for n in (1, 2, 3):
            bh = random_block_hamiltonian(rng, n)
            q = rng.uniform(-1, 1, 2)
            h = assemble(bh, q)
            h = h / np.linalg.norm(h, 2)
            coeffs = np.poly(h)  # degree 2n, coeffs[0] is the leading 1
            odd = coeffs[1::2]
            assert np.max(np.abs(odd)) < 1e-9


class TestPhaseGauge:
    def test_largest_component_real_positive(self, rng):
        for _ in range(50):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            g = phase_gauge(v)
            idx = int(np.argmax(np.abs(g)))
            assert abs(g[idx].imag) < 1e-14
            assert g[idx].real > 0
            assert direction_mismatch(g, v) < 1e-12
