import numpy as np
import pytest

from oqmarkov.core import (DensityOperator, Operator, PAULIS, PureState, ID2,
                           SX, SZ, helstrom_norm, hermitian_basis, ket, kron,
                           matrix_exp,
                           mutual_information, negativity, partial_trace,
                           plus_state, trace_distance, random_density,
                           random_hermitian)


def dm(mat, dims=None):
    return DensityOperator(mat, dims)


class TestOperatorTypes:
    def test_dims_must_multiply_to_side(self):
        with pytest.raises(ValueError):
            Operator(np.eye(4), dims=(2, 3))

    def test_rejects_nonfinite(self):
        bad = np.eye(2, dtype=complex)
        bad = bad.copy()
        bad[0, 1] = np.nan
        with pytest.raises(ValueError):
            Operator(bad)

    def test_density_rejects_nonhermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError):
            DensityOperator(m)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))

    def test_density_rejects_negative(self):
        m = np.diag([1.2, -0.2])
        with pytest.raises(ValueError):
            DensityOperator(m)

    def test_pure_state_norm(self):
        with pytest.raises(ValueError):
            PureState([1.0, 1.0])
        PureState(plus_state())


class TestHermitianBasis:
    def test_qubit_basis_is_the_paulis_in_order(self):
        basis = hermitian_basis(2)
        assert len(basis) == 4
        for a, b in zip(basis, PAULIS.values()):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("d", [1, 3, 4])
    def test_hermitian_orthogonal_and_complete(self, d):
        basis = hermitian_basis(d)
        assert len(basis) == d * d
        for a in basis:
            assert np.array_equal(a, a.conj().T)
        gram = np.array([[np.trace(a @ b) for b in basis] for a in basis])
        expected = np.diag([float(d)] + [2.0] * (d * d - 1))
        assert np.max(np.abs(gram - expected)) < 1e-12


class TestKronAndPartialTrace:
    def test_kron_identity(self):
        out = kron(Operator(ID2), Operator(ID2))
        assert np.allclose(out.mat, np.eye(4))
        assert out.dims == (2, 2)

    def test_kron_sz_projector(self):
        p1 = np.diag([0.0, 1.0])
        out = kron(Operator(SZ), Operator(p1))
        assert np.allclose(out.mat, np.diag([0, 1, 0, -1]))

    def test_kron_annihilator(self):
        out = kron(Operator(SX), Operator(np.zeros((2, 2))))
        assert np.allclose(out.mat, 0)

    def test_partial_trace_product_state(self):
        rng = np.random.default_rng(1)
        rho = random_density(2, rng)
        sig = random_density(3, rng)
        joint = kron(Operator(rho), Operator(sig))
        out = partial_trace(joint, keep=[0])
        assert np.allclose(out.mat, rho, atol=1e-12)

    def test_partial_trace_maximally_entangled(self):
        v = (np.kron(ket(0, 2), ket(0, 2)) + np.kron(ket(1, 2), ket(1, 2))) / np.sqrt(2)
        rho = Operator(np.outer(v, v.conj()), (2, 2))
        out = partial_trace(rho, keep=[0])
        assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-12)

    def test_partial_trace_over_everything(self):
        a = Operator(np.diag([1.0, 2.0, 3.0, 4.0]), (2, 2))
        out = partial_trace(a, keep=[])
        assert out.mat.shape == (1, 1)
        assert np.isclose(out.mat[0, 0], 10.0)

    def test_partial_trace_of_kron_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            da, db = rng.integers(2, 5), rng.integers(2, 5)
            a = random_hermitian(da, rng)
            b = random_hermitian(db, rng)
            joint = kron(Operator(a), Operator(b))
            out = partial_trace(joint, keep=[0])
            assert np.max(np.abs(out.mat - np.trace(b) * a)) < 1e-12

    def test_invalid_keep(self):
        a = Operator(np.eye(4), (2, 2))
        with pytest.raises(ValueError):
            partial_trace(a, keep=[2])


class TestDistances:
    def test_identical_states_any_weight(self):
        rng = np.random.default_rng(3)
        rho = dm(random_density(3, rng))
        for w in (0.2, 0.5, 0.8):
            assert np.isclose(helstrom_norm(w, rho, rho), abs(2 * w - 1), atol=1e-12)

    def test_orthogonal_pure_states(self):
        r0 = dm(np.diag([1.0, 0.0]))
        r1 = dm(np.diag([0.0, 1.0]))
        assert np.isclose(helstrom_norm(0.5, r0, r1), 1.0)
        assert np.isclose(trace_distance(r0, r1), 1.0)

    def test_plus_vs_maximally_mixed(self):
        plus = dm(np.outer(plus_state(), plus_state().conj()))
        mixed = dm(np.eye(2) / 2)
        assert np.isclose(helstrom_norm(0.5, plus, mixed), 0.5, atol=1e-12)
        assert np.isclose(trace_distance(plus, mixed), 0.5, atol=1e-12)

    def test_helstrom_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = dm(random_density(3, rng))
            sig = dm(random_density(3, rng))
            for w in (0.1, 0.5, 0.9):
                h = helstrom_norm(w, rho, sig)
                assert abs(2 * w - 1) - 1e-12 <= h <= 1.0 + 1e-12

    def test_helstrom_strictly_above_floor_for_distinct_states(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            rho = dm(random_density(3, rng))
            sig = dm(random_density(3, rng))
            for w in (0.3, 0.5, 0.7):
                assert helstrom_norm(w, rho, sig) > abs(2 * w - 1) + 1e-6

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = dm(random_density(3, rng))
            b = dm(random_density(3, rng))
            c = dm(random_density(3, rng))
            assert trace_distance(a, c) <= (trace_distance(a, b)
                                            + trace_distance(b, c) + 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(dm(np.eye(2) / 2), dm(np.eye(3) / 3))

    def test_weight_range(self):
        rho = dm(np.eye(2) / 2)
        with pytest.raises(ValueError):
            helstrom_norm(0.0, rho, rho)


class TestNegativity:
    def test_product_state(self):
        rng = np.random.default_rng(6)
        rho = kron(Operator(random_density(2, rng)), Operator(random_density(2, rng)))
        assert negativity(dm(rho.mat, (2, 2))) < 1e-12

    def test_bell_state(self):
        v = (np.kron(ket(0, 2), ket(0, 2)) + np.kron(ket(1, 2), ket(1, 2))) / np.sqrt(2)
        rho = dm(np.outer(v, v.conj()), (2, 2))
        assert np.isclose(negativity(rho), 0.5, atol=1e-12)

    def test_invalid_bipartition(self):
        rho = dm(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError):
            negativity(rho, split=2)


class TestMatrixExp:
    def test_exp_zero(self):
        assert np.allclose(matrix_exp(Operator(np.zeros((3, 3)))).mat, np.eye(3))

    def test_pauli_rotation(self):
        out = matrix_exp(Operator(-1j * np.pi * SX / 2))
        assert np.max(np.abs(out.mat - (-1j * SX))) < 1e-12

    def test_antihermitian_gives_unitary(self):
        rng = np.random.default_rng(7)
        for d in (2, 5, 16):
            h = random_hermitian(d, rng)
            u = matrix_exp(Operator(-1j * h)).mat
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12

    def test_generic_matrix(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        import scipy.linalg
        assert np.allclose(matrix_exp(Operator(m)).mat, scipy.linalg.expm(m))


def test_mutual_information_product_vs_entangled():
    rng = np.random.default_rng(9)
    prod = kron(Operator(random_density(2, rng)), Operator(random_density(2, rng)))
    assert abs(mutual_information(dm(prod.mat, (2, 2)))) < 1e-10
    v = (np.kron(ket(0, 2), ket(0, 2)) + np.kron(ket(1, 2), ket(1, 2))) / np.sqrt(2)
    bell = dm(np.outer(v, v.conj()), (2, 2))
    assert np.isclose(mutual_information(bell), 2 * np.log(2), atol=1e-10)
