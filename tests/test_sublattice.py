import warnings

import numpy as np
import pytest

from epkit import cmatrix
from epkit.analysis import DEFAULT_RADII
from epkit.classify import classify_nonzero_energy, classify_point
from epkit.errors import GeneratorFailureError, NonFiniteError, OddDimensionError
from epkit.models import (
    MODEL_CATALOG,
    build_model,
    doublet_ep2_model,
    ep3_model,
    kitaev_model,
)
from epkit.sublattice import (
    BlockHamiltonian,
    _grid_blocks,
    _pow2_scales,
    _zero_modes,
    assemble,
    assemble_blocks,
    phase_gauge,
    pow2_scale,
    reduced_spectrum,
    symmetry_residual,
    zero_energy_states,
)

from conftest import assert_same_bits, direction_mismatch, jordan_block, random_block_hamiltonian


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


class TestGridForm:
    QX, QY = np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 3)

    def test_without_a_grid_form_the_generators_run_on_the_grid(self):
        bh = random_block_hamiltonian(np.random.default_rng(3), 2)
        q = np.stack(np.meshgrid(self.QX, self.QY, indexing="ij"), axis=-1)
        assert_same_bits(_grid_blocks(bh, self.QX, self.QY),
                         np.stack([bh.b(q), bh.b_prime(q)]))

    def test_grid_output_broadcasts(self):
        bh = BlockHamiltonian(1, _constant([[2.0]]), _constant([[3.0]]),
                              grid=lambda qx, qy: [[[[[2.0]]]], [[[[3.0]]]]])
        got = _grid_blocks(bh, self.QX, self.QY)
        assert got.shape == (2, 5, 3, 1, 1)
        np.testing.assert_array_equal(got[:, 0, 0, 0, 0], [2.0, 3.0])

    @pytest.mark.parametrize("grid,message", [
        # every shape is checked before any entry
        (lambda qx, qy: np.full((2, 5, 4, 1, 1), np.nan),
         r"^B\(q\) returned shape \(5, 4, 1, 1\), expected \(5, 3, 1, 1\)$"),
        (lambda qx, qy: np.ones((3, 5, 3, 1, 1)),
         r"^grid returned shape \(3, 5, 3, 1, 1\), expected \(2, 5, 3, 1, 1\)$"),
        (lambda qx, qy: [[[[[1.0]], [[1.0]], [[1.0]]]],
                         [[[[1.0]], [[np.inf]], [[1.0]]]]],
         r"^B'\(q\) returned non-finite entries$"),
    ], ids=["shape-before-entries", "not-a-pair", "non-finite"])
    def test_grid_output_checked_as_the_generators(self, grid, message):
        bh = BlockHamiltonian(1, _constant([[1.0]]), _constant([[1.0]]), grid=grid)
        with pytest.raises(GeneratorFailureError, match=message):
            _grid_blocks(bh, self.QX, self.QY)


@pytest.mark.parametrize("entry", [
    assemble_blocks, zero_energy_states, reduced_spectrum, classify_point,
    classify_nonzero_energy], ids=lambda f: f.__name__)
def test_pair_of_two_shapes_refused(entry):
    with pytest.raises(ValueError, match="matching shapes"):
        entry(np.eye(2), np.eye(3))


TOL_ENTRIES = [zero_energy_states, reduced_spectrum, classify_point,
               classify_nonzero_energy]


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan])
@pytest.mark.parametrize("b", [
    [[1.0, 2.0], [3.0, 4.0]], np.zeros((2, 2)), np.diag([1.0, 0.0])],
    ids=["regular", "zero", "singular"])
@pytest.mark.parametrize("entry", TOL_ENTRIES, ids=lambda f: f.__name__)
def test_tol_refused(entry, b, tol):
    # reduced_spectrum once gave energies here, or blamed the zero pair on
    # the double range; classify_nonzero_energy called the singular pair
    # Nondegenerate
    with pytest.raises(ValueError, match="^tol must be positive$"):
        entry(b, np.eye(2), tol)


@pytest.mark.parametrize("entry", TOL_ENTRIES, ids=lambda f: f.__name__)
def test_tol_refused_before_an_overflowing_norm(entry):
    big = np.full((2, 2), 1e308)
    for pair in ((np.zeros((2, 2)), big), (big, np.zeros((2, 2)))):
        with pytest.raises(ValueError, match="^tol must be positive$"):
            entry(*pair, -1.0)


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


def reference_phase_gauge(v):
    """phase_gauge as it was before it took stacks: one vector at a time."""
    v = np.asarray(v, dtype=np.complex128)
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if abs(pivot) == 0.0:
        return v.copy()
    return v * (pivot.conjugate() / abs(pivot))


def reference_unit_state(psi, chi):
    full = np.concatenate([np.asarray(psi, dtype=np.complex128),
                           np.asarray(chi, dtype=np.complex128)])
    return reference_phase_gauge(full / np.linalg.norm(full))


def reference_zero_energy_states(b, bprime, tol=1e-9):
    """zero_energy_states as it was, one block and one state at a time:
    each block factorised alone and cut against the pair."""
    b = np.asarray(b, dtype=np.complex128)
    bp = np.asarray(bprime, dtype=np.complex128)
    svds = [np.linalg.svd(m) for m in (b, bp)]
    scale = max(svds[0][1][0], svds[1][1][0], 1e-300)
    fb, fbp = (cmatrix._cut(*f, tol, scale) for f in svds)
    n = b.shape[0]
    states = [reference_unit_state(np.zeros(n), chi) for chi in fb.kernel.T]
    states += [reference_unit_state(psi, np.zeros(n)) for psi in fbp.kernel.T]
    return np.array(states, dtype=np.complex128).reshape(len(states), 2 * n)


def reference_reduced_spectrum(b, bprime, tol=1e-9):
    """reduced_spectrum as it was, one eigenpair and one state at a time;
    kept as the reference the array form must match bitwise. Returns
    (energies, states) in the array form."""
    b = np.asarray(b, dtype=np.complex128)
    bp = np.asarray(bprime, dtype=np.complex128)
    s = pow2_scale(b, bp)
    product = (bp / s) @ (b / s)
    scale = max(np.linalg.norm(product, 2), 1e-300)
    w, v = np.linalg.eig(product)
    energies, states = [], []
    n_zero = 0
    for lam, chi in [(complex(w[i]), v[:, i].copy()) for i in range(len(w))]:
        if abs(lam) <= tol * scale:
            n_zero += 1
            continue
        energy = np.sqrt(complex(lam)) * s
        for sign in (1.0, -1.0):
            e = sign * energy
            energies.append(complex(e))
            states.append(reference_unit_state(1j * (b @ chi) / e, chi))
    if n_zero:
        zero_modes = reference_zero_energy_states(b, bp, tol)
        energies += [0j] * len(zero_modes)
        states += list(zero_modes)
    return (np.array(energies, dtype=np.complex128),
            np.array(states, dtype=np.complex128).reshape(len(states), 2 * b.shape[0]))


def partner_rows(states):
    """Sublattice partners (psi, -chi) of the rows (psi, chi)."""
    n = states.shape[-1] // 2
    return np.concatenate([states[..., :n], -states[..., n:]], axis=-1)


class TestReducedSpectrum:
    def test_single_flavour_identity(self):
        bh = BlockHamiltonian(1, _constant([[1.0]]), _constant([[1.0]]))
        energies, states = reduced_spectrum(bh.b((0.0, 0.0)), bh.b_prime((0.0, 0.0)))
        by_energy = dict(zip(np.round(energies.real), states))
        np.testing.assert_allclose(by_energy[1],
                                   np.array([1.0, -1j]) / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(by_energy[-1],
                                   np.array([1.0, 1j]) / np.sqrt(2), atol=1e-12)

    def test_doublet_states_near_point(self):
        bh = doublet_ep2_model()
        q = bh.q_star + np.array([1e-4, 0.0])
        energies, states = reduced_spectrum(bh.b(q), bh.b_prime(q))
        assert states.shape == (4, 4)
        # energies square to i * c * v * |dq|, each branch twice
        for e in energies:
            assert e ** 2 == pytest.approx(1j * 1e-4, rel=1e-9)
        # states look like (x, 0, 1, 0) and (0, x, 0, 1) with |x| = 1e-2
        h = assemble(bh, q)
        hnorm = np.linalg.norm(h, 2)
        for e, v in zip(energies, states):
            assert np.linalg.norm(h @ v - e * v) <= 1e-10 * hnorm
            small = sorted(np.abs(v))[:2]
            assert np.max(small) < 1e-13  # two components vanish exactly
        flavour_one = states[np.abs(states[:, 1]) < 1e-13]
        assert len(flavour_one) == 2
        # psi/chi ratio is +-sqrt(i v |dq| / c) = +-e^{i pi/4} 1e-2 here
        ratios = sorted(flavour_one[:, 0] / flavour_one[:, 2], key=lambda z: z.real)
        expected = np.sqrt(1j * 1e-4)
        np.testing.assert_allclose(ratios, [-expected, expected], atol=1e-12)

    def test_mixed_threefold_zero_modes(self):
        bh = ep3_model()  # b2 = 1, bp1 = 1, bp2 = 2
        energies, states = reduced_spectrum(bh.b(bh.q_star), bh.b_prime(bh.q_star))
        assert_same_bits(energies, np.zeros(2, dtype=complex))
        np.testing.assert_allclose(states[0], [0, 0, 1.0, 0], atol=1e-14)
        np.testing.assert_allclose(states[1], np.array([2.0, -1.0, 0, 0]) / np.sqrt(5),
                                   atol=1e-14)

    def test_rows_are_unit_and_phase_fixed(self, rng):
        for n in (1, 2, 3):
            bh = random_block_hamiltonian(rng, n)
            q = rng.uniform(-1, 1, 2)
            energies, states = reduced_spectrum(bh.b(q), bh.b_prime(q))
            assert energies.shape == (2 * n,) and states.shape == (2 * n, 2 * n)
            np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-14)
            pivots = states[np.arange(2 * n), np.argmax(np.abs(states), axis=1)]
            assert np.all(np.abs(pivots.imag) < 1e-14) and np.all(pivots.real > 0.0)

    def test_reproduces_assembled_spectrum(self, rng):
        for n in (1, 2, 3):
            bh = random_block_hamiltonian(rng, n)
            q = rng.uniform(-1, 1, 2)
            h = assemble(bh, q)
            hnorm = np.linalg.norm(h, 2)
            energies, _ = reduced_spectrum(bh.b(q), bh.b_prime(q))
            from_states = sorted(energies, key=lambda z: (z.real, z.imag))
            direct = sorted(np.linalg.eigvals(h), key=lambda z: (z.real, z.imag))
            np.testing.assert_allclose(from_states, direct, atol=1e-8 * hnorm)

    @pytest.mark.parametrize("c", [1e160, 1e-170])
    def test_extreme_scale_energies(self, c):
        # B'B = c^2 J2(1) overflows at 1e160 and underflows to zero at
        # 1e-170 unless it is formed from the divided blocks
        def energies(c):
            got, _ = reduced_spectrum(c * jordan_block(2, 1.0), c * np.eye(2))
            return sorted(got, key=lambda z: (z.real, z.imag))

        got = energies(c)
        assert len(got) == 4
        np.testing.assert_allclose(np.array(got) / c, energies(1.0), rtol=0, atol=1e-7)

    def test_energies_out_of_range_raise(self):
        # |E| = 1.5e308 * sqrt(2) leaves the double range; the energies would be
        # inf+nanj and the states NaN
        b = 1.5e308 * np.array([[1.0, 1.0], [1.0, -1.0]])
        # |1.5e308 (1 + i)| itself is beyond the double range
        c = (1.5e308 + 1.5e308j) * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair in ((b, b), (c, c)):
                with pytest.raises(NonFiniteError):
                    reduced_spectrum(*pair)

    def test_power_of_two_scale_is_exact(self, rng):
        for n in (1, 2, 3):
            b, bp = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            ref_energies, ref_states = reduced_spectrum(b, bp)
            for k in (-600, 600):
                energies, states = reduced_spectrum(2.0 ** k * b, 2.0 ** k * bp)
                assert energies.tolist() == (2.0 ** k * ref_energies).tolist()
                assert np.array_equal(states, ref_states)

    def test_pow2_scale(self):
        assert pow2_scale(np.array([[0.75]]), np.array([[0.5j]])) == 1.0
        assert pow2_scale(np.array([[1.0]]), np.zeros((1, 1))) == 2.0
        assert pow2_scale(np.zeros((1, 1)), np.zeros((1, 1))) == 1.0
        # 2^e and 2^-e stay normal numbers at the ends of the range
        assert pow2_scale(np.array([[1e308]]), np.zeros((1, 1))) == 2.0 ** 1023
        assert pow2_scale(np.array([[1e-320]]), np.zeros((1, 1))) == 2.0 ** -1021
        assert pow2_scale(np.array([[1.5e308 + 1.5e308j]]), np.zeros((1, 1))) == 2.0 ** 1023


def reference_pow2_scales(b, bprime):
    """_pow2_scales as it was before the entry planes: one reduction over
    the two trailing axes of both blocks stacked; kept as the bitwise
    reference."""
    with np.errstate(over="ignore"):
        peak = np.abs(np.concatenate((b, bprime), axis=-2)).max(axis=(-2, -1))
    exponent = np.where(np.isinf(peak), 1023, np.frexp(peak)[1])
    return np.ldexp(1.0, np.clip(exponent, -1021, 1023))


@pytest.mark.parametrize("n", [1, 2, 6])
def test_pow2_scales_as_the_trailing_reduction(n, rng):
    # entries over the whole double range, zero blocks, subnormal entries
    # and a modulus that overflows to inf
    shape = (7, 5, n, n)
    size = 10.0 ** rng.uniform(-330, 308, (2,) + shape)
    b, bp = size * np.exp(2j * np.pi * rng.uniform(size=(2,) + shape))
    b[0, 0] = bp[0, 0] = 0.0
    b[0, 1] = 0.0
    bp[0, 2] = 0.0
    b[1, 0] = 5e-324
    bp[1, 0] = 0.0
    b[1, 1, -1, -1] = 1.5e308 + 1.5e308j
    bp[1, 2] = 1e-310j
    b[2, :, 0, 0] = np.nan_to_num(np.inf)
    # peaks at the powers of two where the exponent is clamped
    b[3, :4] = bp[3, :4] = 0.0
    b[3, :4, 0, 0] = 2.0 ** 1022, 2.0 ** 1023, 2.0 ** -1022, 2.0 ** -1023
    for got, want in ((_pow2_scales(b, bp), reference_pow2_scales(b, bp)),
                      (_pow2_scales(b[0, 0], bp[3, 4]),
                       reference_pow2_scales(b[0, 0], bp[3, 4]))):
        assert_same_bits(got, want)
    assert _pow2_scales(b, bp)[0, 0] == 1.0
    assert _pow2_scales(b, bp)[1, 1] == 2.0 ** 1023


class TestPairing:
    def test_partner_involution(self, rng):
        # rows 2i and 2i+1 are each other's partner (psi, -chi) at -E
        bh = random_block_hamiltonian(rng, 2)
        energies, states = reduced_spectrum(bh.b((0.2, 0.4)), bh.b_prime((0.2, 0.4)))
        plus, minus = states[0::2], states[1::2]
        assert energies[1::2].tolist() == (-energies[0::2]).tolist()
        for row, partner in ((plus, minus), (minus, plus)):
            for u, v in zip(partner_rows(row), partner):
                assert direction_mismatch(u, v) < 1e-12
        np.testing.assert_array_equal(partner_rows(partner_rows(states)), states)

    def test_partner_is_eigenstate(self, rng):
        for n in (1, 2, 3):
            bh = random_block_hamiltonian(rng, n)
            q = rng.uniform(-1, 1, 2)
            h = assemble(bh, q)
            hnorm = np.linalg.norm(h, 2)
            energies, states = reduced_spectrum(bh.b(q), bh.b_prime(q))
            for e, p in zip(-energies, partner_rows(states)):
                assert np.linalg.norm(h @ p - e * p) <= 1e-8 * hnorm

    def test_zero_mode_partner_same_ray(self):
        states = zero_energy_states([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
        assert states.shape == (1, 4)
        assert direction_mismatch(partner_rows(states[0]), states[0]) < 1e-14

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

    def test_stack_of_rows(self, rng):
        v = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
        g = phase_gauge(v)
        for i, j in np.ndindex(3, 5):
            assert_same_bits(g[i, j], reference_phase_gauge(v[i, j]))

    def test_ties_go_to_the_first_component(self):
        g = phase_gauge([[1j, -1.0, 0.5], [0.0, -2.0, 2j]])
        np.testing.assert_allclose(g, [[1.0, 1j, -0.5j], [0.0, 2.0, -2j]], atol=1e-15)

    def test_all_zero_rows_are_left_as_they_are(self):
        v = np.array([[-0.0, complex(0.0, -0.0)], [4j, 3.0]])
        g = phase_gauge(v)
        assert_same_bits(g[0], v[0])
        np.testing.assert_allclose(g[1], [4.0, -3j], atol=1e-15)
        assert_same_bits(phase_gauge(np.zeros((0, 4))), np.zeros((0, 4), dtype=complex))


def kernel_pairs(rng, n):
    """Pairs of N x N blocks with a kernel in B, in B', in both or in
    neither, zero blocks, and a block that is tiny against its partner;
    each kernel is a random direction, not a coordinate axis."""
    def draw(scale=1.0):
        return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

    def singular(rank):
        u, _, vh = np.linalg.svd(draw())
        return (u[:, :rank] * rng.uniform(0.5, 2.0, rank)) @ vh[:rank]

    zero = np.zeros((n, n), dtype=complex)
    short = max(n - 2, 0)
    return [(draw(), draw()), (singular(n - 1), draw()), (draw(), singular(short)),
            (singular(n - 1), singular(n - 1)), (zero, draw()), (draw(), zero),
            (zero, zero), (draw(1e-12), draw()), (draw(), draw(1e-15)),
            (draw(1e-200), singular(n - 1) * 1e-200)]


class TestZeroModes:
    """The zero modes of a stack of pairs, read in one pass."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_mixed_stack_matches_the_reference(self, n, tol, rng):
        pairs = kernel_pairs(rng, n)
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        b, bp = (np.array(side) for side in zip(*pairs))
        states, owner = _zero_modes(b, bp, tol)
        want = [reference_zero_energy_states(*pair, tol) for pair in pairs]
        assert_same_bits(states, np.concatenate(want))
        assert_same_bits(owner, np.repeat(np.arange(len(pairs)), [len(w) for w in want]))

    def test_norm_out_of_range_raises(self, rng):
        # finite entries whose norm, about 3e308, is beyond the double range
        big = np.full((3, 3), 1e308, dtype=complex)
        for side in (0, 1):
            b, bp = rng.standard_normal((2, 2, 3, 3)) + 0j
            (b, bp)[side][1] = big
            with pytest.raises(NonFiniteError,
                               match=f"^{cmatrix._NORM_OUT_OF_RANGE}$"):
                _zero_modes(b, bp, 1e-9)


class TestArrayFormMatchesReference:
    """The array form gives the bits of the per-state reference."""

    def check(self, b, bp, tol=1e-9):
        energies, states = reduced_spectrum(b, bp, tol)
        ref_energies, ref_states = reference_reduced_spectrum(b, bp, tol)
        assert_same_bits(energies, ref_energies)
        assert_same_bits(states, ref_states)
        zero_modes = zero_energy_states(b, bp, tol)
        assert_same_bits(zero_modes, reference_zero_energy_states(b, bp, tol))

    @pytest.mark.parametrize("name", sorted(
        name for name in MODEL_CATALOG if build_model(name).q_star is not None))
    def test_catalog_rays(self, name):
        bh = build_model(name)
        for theta in (0.0, 0.7, np.pi / 2):
            ray = bh.q_star + DEFAULT_RADII[:, None] * [np.cos(theta), np.sin(theta)]
            for b, bp in zip(bh.b(ray), bh.b_prime(ray)):
                self.check(b, bp)

    def test_zero_mode_radii(self):
        bh = ep3_model()
        ray = bh.q_star + DEFAULT_RADII[:, None] * [0.0, 1.0]
        kinds = set()
        for b, bp in zip(bh.b(ray), bh.b_prime(ray)):
            kinds.add(len(reduced_spectrum(b, bp)[0]))
            self.check(b, bp)
        assert kinds == {3, 4}  # both the resolved and the skipped radii
        self.check(np.zeros((2, 2)), np.eye(2))
        self.check(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_hermitian_kitaev_point(self):
        bh = kitaev_model()
        self.check(bh.b(bh.q_star), bh.b_prime(bh.q_star))

    def test_cutoff_is_the_spectral_norm(self):
        # lambda = 0.3e-9 of B'B / 4 lies above tol * ||B'B / 4||_2 and
        # below tol * ||B'B / 4||_F: it is kept
        b = np.diag([1.0, 1.0, 1.2e-9])
        self.check(b, np.eye(3))
        energies, _ = reduced_spectrum(b, np.eye(3))
        assert len(energies) == 6 and np.all(energies != 0.0)

    def test_random_pairs(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 7))
            b, bp = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
            b[:, 0] *= rng.integers(0, 2)  # a kernel of B about half the time
            self.check(b, bp)
            self.check(b.T, bp[:, ::-1])  # blocks that are not C-contiguous
