import numpy as np
import pytest

from surfband.discretize import (
    OperatorMatrix,
    build_grid,
    hermiticity_residual,
    tangential_gradient,
    weighted_inner,
    weighted_norm,
    weighted_transpose,
)
from surfband.geometry import PhysicalConstants, cylinder, geometric_kinetic_energy, ring, sphere
from surfband.hamiltonians import HamiltonianRequest, build_hamiltonian


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


# mass 1/2 makes hbar^2/(2 m R^2) = 1, so the free ring operator is exactly
# E_gke - d2/dtheta2 and each stencil symbol is checked at its own scale
UNIT_KINETIC = PhysicalConstants(mass=0.5)


def free_operator(surf, n1, n2=1, order=2):
    g = build_grid(surf, n1, n2)
    return g, build_hamiltonian(HamiltonianRequest(surf, g, order=order, constants=UNIT_KINETIC))


class TestStencils:
    KAPPA = UNIT_KINETIC.hbar**2 / (2 * UNIT_KINETIC.mass)  # R = 1
    GKE = geometric_kinetic_energy(ring(1.0), UNIT_KINETIC)

    def test_second_derivative_kills_constants(self):
        _, H = free_operator(ring(1.0), 16)
        out = H.toarray() @ np.ones(16) - self.GKE
        np.testing.assert_allclose(np.abs(out / self.KAPPA), 0, atol=1e-12)

    def test_theta_mode_symbol(self):
        # oracle: discrete Fourier symbol -2(1 - cos(2 pi/16))/h^2 for e^{i theta}
        n = 16
        g, H = free_operator(ring(1.0), n)
        h = 2 * np.pi / n
        mode = np.exp(1j * g.coords1)
        out = H.entries @ mode
        symbol = -2 * (1 - np.cos(h)) / h**2
        np.testing.assert_allclose(out, (self.GKE - self.KAPPA * symbol) * mode, atol=1e-12)

    def test_z_derivative_exact_on_linear(self):
        g = build_grid(cylinder(1.0, 1.0), 4, 12)
        D = tangential_gradient(g)[1]
        z = np.tile(g.coords2, 4)
        out = (D @ z).reshape(4, 12)
        # centered difference is exact on linears at interior nodes
        np.testing.assert_allclose(out[:, 1:-1], 1.0, atol=1e-13)

    def test_fourth_order_symbol(self):
        n = 32
        g, H = free_operator(ring(1.0), n, order=4)
        h = 2 * np.pi / n
        mode = np.exp(3j * g.coords1)
        out = H.entries @ mode
        symbol = (-(4 / 3) * 2 * (1 - np.cos(3 * h)) + (1 / 12) * 2 * (1 - np.cos(6 * h))) / h**2
        np.testing.assert_allclose(out, (self.GKE - self.KAPPA * symbol) * mode, atol=1e-11)

    def test_second_derivative_symmetric(self):
        # both axes of the free cylinder: periodic theta and the odd-reflected z walls
        _, H = free_operator(cylinder(1.0, 1.0), 6, 8)
        A = H.toarray()
        assert np.abs(A - A.T).max() == 0.0


class TestOperatorMatrix:
    def test_nonfinite_rejected(self):
        g = build_grid(ring(1.0), 8)
        bad = np.eye(8)
        bad[3, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            OperatorMatrix(bad, g.weights, "bad")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            OperatorMatrix(np.ones((3, 4)), np.ones(3), "bad")

    def test_one_weight_per_row(self):
        # a spin operator repeats the grid measure for each spin block
        g = build_grid(ring(1.0), 8)
        H = build_hamiltonian(HamiltonianRequest(g.surface, g, spin=True))
        assert np.array_equal(H.weights, np.tile(g.weights, 2))
        with pytest.raises(ValueError, match="8 weights for an operator of 16 rows"):
            OperatorMatrix(H.entries, g.weights, "spin")

    @pytest.mark.parametrize("entries,weights", [
        (np.diag([1.0, 2.0, 3.0]), [1.0, 0.0, 1.0]),
        ([[2.0, 1.0], [1.0, 2.0]], [1.0, -1.0]),
        ([[2.0, 1.0], [1.0, 2.0]], [1.0, np.nan]),
    ], ids=["zero", "negative", "nan"])
    def test_weights_must_be_finite_and_positive(self, entries, weights):
        # such weights define no inner product, and spectrum would misreport the operator
        with pytest.raises(ValueError, match="finite and positive"):
            OperatorMatrix(np.array(entries), np.array(weights), "bad")


class TestWeightedAdjoint:
    def _random_op(self, seed, n=20):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.5, 2.0, n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return OperatorMatrix(A, w, "random")

    def test_identity_self_adjoint(self):
        g = build_grid(ring(1.0), 8)
        op = OperatorMatrix(np.eye(8, dtype=complex), g.weights, "id")
        adj = weighted_transpose(op.entries, op.weights)
        np.testing.assert_array_equal(adj.toarray(), np.eye(8))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_involution(self, seed):
        op = self._random_op(seed)
        twice = weighted_transpose(weighted_transpose(op.entries, op.weights), op.weights)
        np.testing.assert_allclose(twice.toarray(), op.toarray(), atol=1e-13)

    def test_anti_hermitian_diagonal(self):
        g = build_grid(ring(1.0), 8)
        d = np.linspace(1, 2, 8)
        op = OperatorMatrix(1j * np.diag(d), g.weights, "i diag")
        adj = weighted_transpose(op.entries, op.weights)
        np.testing.assert_allclose(adj.toarray(), -1j * np.diag(d), atol=1e-15)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_adjoint_pairing_on_random_vectors(self, seed):
        op = self._random_op(seed)
        rng = np.random.default_rng(seed + 100)
        u = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        lhs = weighted_inner(u, op.entries @ v, op.weights)
        rhs = weighted_inner(weighted_transpose(op.entries, op.weights) @ u, v, op.weights)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_norm_whose_plain_sum_overflows_is_rescaled(self):
        # |u|^2 w overflows at 1e200; rescaled by max|u| the norm is exact here
        u = np.array([1e200, -1e200j, 1e200, 0.0])
        with np.errstate(all="raise"):
            assert weighted_norm(u, np.array([1.0, 1.0, 2.0, 5.0])) == 2e200
            assert weighted_norm(u / 1e200, np.array([1.0, 1.0, 2.0, 5.0])) == 2.0


class TestHermiticityResidual:
    def test_symmetric_real_zero(self):
        g = build_grid(ring(1.0), 8)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 8))
        op = OperatorMatrix((A + A.T).astype(complex), g.weights, "sym")
        assert hermiticity_residual(op) == 0.0

    def test_imaginary_diagonal(self):
        g = build_grid(ring(1.0), 8)
        op = OperatorMatrix(1j * 0.7 * np.eye(8), g.weights, "i c")
        assert hermiticity_residual(op) == pytest.approx(1.4, abs=1e-15)

    def test_sphere_divergence_form_is_weighted_hermitian(self):
        from surfband.hamiltonians import HamiltonianRequest, build_hamiltonian

        surf = sphere(1.0)
        g = build_grid(surf, 24, 24)
        H = build_hamiltonian(HamiltonianRequest(surf, g))
        assert hermiticity_residual(H) <= 1e-12


class TestSparseStencils:
    @staticmethod
    def _polar_d1_loop(n1, n2, h):
        # node-by-node reference for the vectorized pole-crossing stencil
        A = np.zeros((n1 * n2, n1 * n2))
        half = n2 // 2
        cross = 2 * half == n2

        def node(j, k):
            if j < 0:
                return (-1 - j) * n2 + (k + half) % n2
            if j >= n1:
                return (2 * n1 - 1 - j) * n2 + (k + half) % n2
            return j * n2 + k

        for j in range(n1):
            for k in range(n2):
                row = j * n2 + k
                if cross or 0 < j < n1 - 1:
                    for o, cc in ((1, 0.5 / h), (-1, -0.5 / h)):
                        A[row, node(j + o, k)] += cc
                elif j == 0:
                    A[row, row] += -1.5 / h
                    A[row, (j + 1) * n2 + k] += 2.0 / h
                    A[row, (j + 2) * n2 + k] += -0.5 / h
                else:
                    A[row, row] += 1.5 / h
                    A[row, (j - 1) * n2 + k] += -2.0 / h
                    A[row, (j - 2) * n2 + k] += 0.5 / h
        return A

    @pytest.mark.parametrize("n1,n2", [(6, 8), (5, 7), (3, 4)])
    def test_sphere_polar_d1_matches_loop(self, n1, n2):
        # the polar rows of the unit-sphere gradient: pole crossing for even
        # n2, one-sided end rows for odd n2
        g = build_grid(sphere(1.0), n1, n2)
        A = tangential_gradient(g)[0].toarray()
        np.testing.assert_array_equal(A, self._polar_d1_loop(n1, n2, g.h1))

    @staticmethod
    def _cylinder_d1_loop(n1, n2, h1, h2, walls):
        # node-by-node reference for the ring/cylinder rows: theta wraps, z
        # rows are one-sided at the walls (the ring has none)
        A1, A2 = np.zeros((n1 * n2, n1 * n2)), np.zeros((n1 * n2, n1 * n2))
        for j in range(n1):
            for k in range(n2):
                row = j * n2 + k
                A1[row, ((j + 1) % n1) * n2 + k] += 0.5 / h1
                A1[row, ((j - 1) % n1) * n2 + k] += -0.5 / h1
                if walls and k in (0, n2 - 1):
                    s = 1 if k == 0 else -1
                    for o, cc in enumerate((-1.5, 2.0, -0.5)):
                        A2[row, row + s * o] += s * cc / h2
                    continue
                if k + 1 < n2:
                    A2[row, row + 1] += 0.5 / h2
                if k > 0:
                    A2[row, row - 1] += -0.5 / h2
        return A1, A2

    @pytest.mark.parametrize("walls", [True])
    @pytest.mark.parametrize("n1", [3, 4, 9])
    @pytest.mark.parametrize("n2", [3, 4, 9])
    def test_cylinder_d1_matches_loop(self, n1, n2, walls):
        g = build_grid(cylinder(1.0, 0.8), n1, n2)
        G1, G2 = tangential_gradient(g)
        A1, A2 = self._cylinder_d1_loop(n1, n2, g.h1, g.h2, walls)
        np.testing.assert_array_equal(G1.toarray(), A1)
        np.testing.assert_array_equal(G2.toarray(), A2)

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_ring_d1_matches_loop(self, n):
        g = build_grid(ring(1.0), n)
        G1, G2 = tangential_gradient(g)
        assert G2 is None
        np.testing.assert_array_equal(G1.toarray(), self._cylinder_d1_loop(n, 1, g.h1, 0, False)[0])
