import numpy as np
import pytest

from surfband.discretize import (
    OperatorMatrix,
    build_grid,
    hermiticity_residual,
    multiplication_operator,
    periodic_derivative,
    periodic_second_derivative,
    weighted_adjoint,
    weighted_inner,
)
from surfband.geometry import cylinder, ring, sphere


class TestBuildGrid:
    def test_ring_uniform_measure(self):
        g = build_grid(ring(1.0), 8)
        assert g.size == 8
        np.testing.assert_allclose(g.weights, 2 * np.pi / 8)
        assert abs(g.weights.sum() - 2 * np.pi) < 1e-12

    def test_sphere_half_offset_nodes(self):
        g = build_grid(sphere(1.0), 4, 4)
        np.testing.assert_allclose(g.coords1, [np.pi / 8, 3 * np.pi / 8, 5 * np.pi / 8, 7 * np.pi / 8])

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_sphere_area_exact(self, n):
        g = build_grid(sphere(1.0), n, n)
        assert abs(g.weights.sum() - 4 * np.pi) <= 1e-10 * 4 * np.pi

    def test_cylinder_area_and_node_placement(self):
        g = build_grid(cylinder(2.0, 1.5), 8, 6)
        assert abs(g.weights.sum() - 2 * np.pi * 2.0 * 3.0) <= 1e-10 * g.weights.sum()
        # Dirichlet endpoints excluded, nodes inside (-L, L)
        assert g.coords2.min() > -1.5 and g.coords2.max() < 1.5
        assert np.all(g.weights > 0)

    def test_theta_nodes_unduplicated(self):
        g = build_grid(cylinder(1.0, 1.0), 10, 4)
        assert len(np.unique(g.coords1)) == 10
        assert g.coords1.max() < 2 * np.pi

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="grid too small"):
            build_grid(ring(1.0), 2)
        with pytest.raises(ValueError, match="grid too small"):
            build_grid(sphere(1.0), 8, 2)


class TestStencils:
    def test_second_derivative_kills_constants(self):
        g = build_grid(ring(1.0), 16)
        D2 = periodic_second_derivative(g, 0).toarray()
        np.testing.assert_allclose(np.abs(D2 @ np.ones(16)), 0, atol=1e-12)

    def test_theta_mode_symbol(self):
        # oracle: discrete Fourier symbol -2(1 - cos(2 pi/16))/h^2 for e^{i theta}
        n = 16
        g = build_grid(ring(1.0), n)
        h = 2 * np.pi / n
        mode = np.exp(1j * g.coords1)
        out = periodic_second_derivative(g, 0).entries @ mode
        symbol = -2 * (1 - np.cos(h)) / h**2
        np.testing.assert_allclose(out, symbol * mode, atol=1e-12)

    def test_z_derivative_exact_on_linear(self):
        g = build_grid(cylinder(1.0, 1.0), 4, 12)
        D = periodic_derivative(g, 1).entries
        z = np.tile(g.coords2, 4)
        out = (D @ z).reshape(4, 12)
        # centered difference is exact on linears at interior nodes
        np.testing.assert_allclose(out[:, 1:-1], 1.0, atol=1e-13)

    def test_fourth_order_symbol(self):
        n = 32
        g = build_grid(ring(1.0), n)
        h = 2 * np.pi / n
        mode = np.exp(3j * g.coords1)
        out = periodic_second_derivative(g, 0, order=4).entries @ mode
        symbol = (-(4 / 3) * 2 * (1 - np.cos(3 * h)) + (1 / 12) * 2 * (1 - np.cos(6 * h))) / h**2
        np.testing.assert_allclose(out, symbol * mode, atol=1e-11)

    def test_second_derivative_symmetric(self):
        g = build_grid(cylinder(1.0, 1.0), 6, 8)
        for axis in (0, 1):
            A = periodic_second_derivative(g, axis).toarray()
            assert np.abs(A - A.T).max() == 0.0

    def test_sphere_polar_second_derivative_reserved(self):
        g = build_grid(sphere(1.0), 8, 8)
        with pytest.raises(ValueError):
            periodic_second_derivative(g, 0)


class TestMultiplicationOperator:
    def test_identity(self):
        g = build_grid(ring(1.0), 8)
        op = multiplication_operator(np.ones(8), g)
        np.testing.assert_array_equal(op.toarray(), np.eye(8))

    def test_sphere_sin_diagonal(self):
        g = build_grid(sphere(1.0), 4, 4)
        f = np.repeat(np.sin(g.coords1), 4)
        op = multiplication_operator(f, g)
        np.testing.assert_array_equal(np.diag(op.toarray()), f.astype(complex))

    def test_diagonals_commute(self):
        g = build_grid(ring(1.0), 12)
        rng = np.random.default_rng(3)
        a = multiplication_operator(rng.standard_normal(12), g).toarray()
        b = multiplication_operator(rng.standard_normal(12), g).toarray()
        assert np.abs(a @ b - b @ a).max() == 0.0

    def test_nonfinite_rejected(self):
        g = build_grid(ring(1.0), 8)
        bad = np.ones(8)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            multiplication_operator(bad, g)


class TestWeightedAdjoint:
    def _random_op(self, seed, n=20):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.5, 2.0, n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return OperatorMatrix(A, w, 1, "random")

    def test_identity_self_adjoint(self):
        g = build_grid(ring(1.0), 8)
        op = OperatorMatrix(np.eye(8, dtype=complex), g.weights, 1, "id")
        np.testing.assert_array_equal(weighted_adjoint(op).toarray(), np.eye(8))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_involution(self, seed):
        op = self._random_op(seed)
        twice = weighted_adjoint(weighted_adjoint(op))
        np.testing.assert_allclose(twice.toarray(), op.toarray(), atol=1e-13)

    def test_anti_hermitian_diagonal(self):
        g = build_grid(ring(1.0), 8)
        d = np.linspace(1, 2, 8)
        op = OperatorMatrix(1j * np.diag(d), g.weights, 1, "i diag")
        np.testing.assert_allclose(weighted_adjoint(op).toarray(), -1j * np.diag(d), atol=1e-15)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_adjoint_pairing_on_random_vectors(self, seed):
        op = self._random_op(seed)
        rng = np.random.default_rng(seed + 100)
        u = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        lhs = weighted_inner(u, op.entries @ v, op.weights)
        rhs = weighted_inner(weighted_adjoint(op).entries @ u, v, op.weights)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


class TestHermiticityResidual:
    def test_symmetric_real_zero(self):
        g = build_grid(ring(1.0), 8)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 8))
        op = OperatorMatrix((A + A.T).astype(complex), g.weights, 1, "sym")
        assert hermiticity_residual(op) == 0.0

    def test_imaginary_diagonal(self):
        g = build_grid(ring(1.0), 8)
        op = OperatorMatrix(1j * 0.7 * np.eye(8), g.weights, 1, "i c")
        assert hermiticity_residual(op) == pytest.approx(1.4, abs=1e-15)

    def test_sphere_divergence_form_is_weighted_hermitian(self):
        from surfband.hamiltonians import HamiltonianRequest, free_sphere

        surf = sphere(1.0)
        g = build_grid(surf, 24, 24)
        H = free_sphere(HamiltonianRequest(surf, g))
        assert hermiticity_residual(H) <= 1e-12


class TestSparseStencils:
    @staticmethod
    def _polar_d1_loop(n1, n2, h, parity):
        # node-by-node reference for the vectorized pole-crossing stencil
        A = np.zeros((n1 * n2, n1 * n2))
        half = n2 // 2
        cross = 2 * half == n2

        def node(j, k):
            if j < 0:
                return (-1 - j) * n2 + (k + half) % n2, parity
            if j >= n1:
                return (2 * n1 - 1 - j) * n2 + (k + half) % n2, parity
            return j * n2 + k, 1

        for j in range(n1):
            for k in range(n2):
                row = j * n2 + k
                if cross or 0 < j < n1 - 1:
                    for o, cc in ((1, 0.5 / h), (-1, -0.5 / h)):
                        col, sg = node(j + o, k)
                        A[row, col] += sg * cc
                elif j == 0:
                    A[row, row] += -1.5 / h
                    A[row, (j + 1) * n2 + k] += 2.0 / h
                    A[row, (j + 2) * n2 + k] += -0.5 / h
                else:
                    A[row, row] += 1.5 / h
                    A[row, (j - 1) * n2 + k] += -2.0 / h
                    A[row, (j - 2) * n2 + k] += 0.5 / h
        return A

    @pytest.mark.parametrize("n1,n2,parity", [(6, 8, 1), (6, 8, -1), (5, 7, 1), (3, 4, -1)])
    def test_sphere_polar_d1_matches_loop(self, n1, n2, parity):
        from surfband.discretize import _sphere_polar_d1

        h = np.pi / n1
        A = _sphere_polar_d1(n1, n2, h, parity).toarray()
        np.testing.assert_array_equal(A, self._polar_d1_loop(n1, n2, h, parity))

    @pytest.mark.parametrize("n,periodic", [(3, True), (4, True), (9, True), (9, False)])
    def test_stencil_matrix_matches_loop(self, n, periodic):
        from surfband.discretize import _D2_O4, _stencil_matrix

        ref = np.zeros((n, n))
        for o, c in zip(range(-2, 3), _D2_O4):
            for j in range(n):
                if periodic:
                    ref[j, (j + o) % n] += c
                elif 0 <= j + o < n:
                    ref[j, j + o] += c
        A = _stencil_matrix(n, range(-2, 3), _D2_O4, periodic).toarray()
        np.testing.assert_allclose(A, ref, rtol=0, atol=1e-15)
