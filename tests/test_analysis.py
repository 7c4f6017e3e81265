import numpy as np
import pytest

from surfband.analysis import (
    analytic_cylinder_landau,
    analytic_ring_spectrum,
    antihermitian_part,
    gauge_covariance_residual,
    ring_symbol_spectrum,
    spectrum,
    spectrum_gauge_invariance,
)
from surfband.discretize import OperatorMatrix, build_grid, weighted_norm
from surfband.fields import ABFlux, GaugeFunction, UniformAxial
from surfband.geometry import PhysicalConstants, cylinder, ring, sphere
from surfband.hamiltonians import HamiltonianRequest, build_hamiltonian, magnetic_cylinder


def ring_builder(grid, **kw):
    surf = grid.surface
    return lambda f: build_hamiltonian(HamiltonianRequest(surf, grid, f, **kw))


class TestSpectrum:
    def test_identity(self):
        g = build_grid(ring(1.0), 8)
        op = OperatorMatrix(np.eye(8, dtype=complex), g.weights, 1, "id")
        rep = spectrum(op, 3)
        np.testing.assert_allclose(rep.eigenvalues, 1.0)
        assert rep.hermiticity_residual == 0.0

    def test_free_ring_lowest_three(self):
        g = build_grid(ring(1.0), 64)
        rep = spectrum(build_hamiltonian(HamiltonianRequest(g.surface, g)), 3)
        ev = rep.eigenvalues
        assert abs(ev[0] + 0.125) < 1e-12
        # degenerate pair just below 0.375: the stencil symbol deficit
        eps = 0.375 - ev[1]
        assert 0 < eps < 1e-3
        assert abs(ev[1] - ev[2]) < 1e-12

    def test_pragmatic_complex_eigenvalues(self):
        a = 0.8
        g = build_grid(ring(1.0), 32)
        req = HamiltonianRequest(g.surface, g, ABFlux(Phi=0.0, radial_component=a),
                                 variant="pragmatic")
        rep = spectrum(build_hamiltonian(req))
        ims = rep.eigenvalues.imag
        assert ims.max() <= a / 2 + 1e-12
        assert ims.min() > 0

    def test_eigenvectors_weighted_normalized(self):
        g = build_grid(sphere(1.0), 8, 8)
        H = build_hamiltonian(HamiltonianRequest(g.surface, g))
        rep = spectrum(H, 3, want_vectors=True)
        v = rep.eigenvectors[:, 0]
        assert abs(weighted_norm(v, H.full_weights()) - 1.0) < 1e-10

    def test_k_validation(self):
        g = build_grid(ring(1.0), 8)
        op = OperatorMatrix(np.eye(8, dtype=complex), g.weights, 1, "id")
        with pytest.raises(ValueError):
            spectrum(op, 9)

    def test_report_carries_label_and_pairs(self):
        g = build_grid(ring(1.0), 16)
        H = build_hamiltonian(HamiltonianRequest(g.surface, g))
        rep = spectrum(H, 2, parameters={"R": 1.0})
        assert "ring" in rep.operator_label
        assert rep.parameters == {"R": 1.0}
        pairs = rep.eigenvalue_pairs()
        assert pairs[0][0] == pytest.approx(-0.125, abs=1e-12)
        assert pairs[0][1] == 0.0

    def test_nonhermitian_sorted_by_real_then_imag(self):
        g = build_grid(ring(1.0), 4)
        entries = np.diag([1.0 + 2j, 1.0 + 1j, 0.5 + 3j, 2.0 + 0j])
        op = OperatorMatrix(entries, g.weights, 1, "toy")
        ev = spectrum(op).eigenvalues
        np.testing.assert_allclose(ev, [0.5 + 3j, 1.0 + 1j, 1.0 + 2j, 2.0 + 0j])


class TestAntihermitianPart:
    def test_correct_hamiltonian_is_clean(self):
        g = build_grid(cylinder(1.0, np.pi), 12, 10)
        H = build_hamiltonian(HamiltonianRequest(g.surface, g, UniformAxial(B=1.0)))
        _, norm = antihermitian_part(H)
        assert norm <= 1e-12

    def test_constant_radial_component_diagonal(self):
        g = build_grid(ring(1.0), 24)
        req = HamiltonianRequest(g.surface, g, ABFlux(Phi=0.0, radial_component=0.8),
                                 variant="pragmatic")
        anti, norm = antihermitian_part(build_hamiltonian(req))
        np.testing.assert_allclose(np.diag(anti.toarray()), 0.4j, atol=1e-14)
        assert norm == pytest.approx(0.4, abs=1e-14)


class TestGaugeCovariance:
    def _setup(self, n=24):
        g = build_grid(cylinder(1.0, np.pi), n, n)
        builder = ring_builder(g)
        field = UniformAxial(B=1.0)
        rng = np.random.default_rng(99)
        psi = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        H = builder(field)
        psi /= weighted_norm(psi, H.full_weights())
        return g, builder, field, psi

    def test_constant_lambda_exact(self):
        g, builder, field, psi = self._setup()
        lam = GaugeFunction.from_callable(lambda t, z: 1.7, g)
        assert gauge_covariance_residual(field, lam, builder, psi, g) < 1e-12

    def test_smooth_lambda_exact_with_attached_gradient(self):
        g, builder, field, psi = self._setup()
        lam = GaugeFunction.from_callable(lambda t, z: np.sin(t) * z, g)
        assert gauge_covariance_residual(field, lam, builder, psi, g) < 1e-12

    def test_ring_sin_theta_exact(self):
        g = build_grid(ring(1.0), 64)
        builder = ring_builder(g)
        field = ABFlux(Phi=0.3)
        rng = np.random.default_rng(1)
        psi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        psi /= weighted_norm(psi, g.weights)
        lam = GaugeFunction.from_callable(lambda t, z: np.sin(t), g)
        assert gauge_covariance_residual(field, lam, builder, psi, g) < 1e-12

    def test_resampled_residual_converges_at_stencil_order(self):
        errs = []
        for n in (16, 32):
            g = build_grid(cylinder(1.0, np.pi), n, n)
            builder = ring_builder(g)
            field = UniformAxial(B=1.0)
            rng = np.random.default_rng(5)
            psi_full = np.exp(1j * np.add.outer(g.coords1, 0.7 * g.coords2)).ravel()
            psi = psi_full / weighted_norm(psi_full, g.weights)
            lam = GaugeFunction.from_callable(lambda t, z: np.sin(t) * np.cos(z), g)
            errs.append(gauge_covariance_residual(field, lam, builder, psi, g, exact=False))
        ratio = np.log2(errs[0] / errs[1])
        assert 1.5 <= ratio <= 2.5

    def test_spectrum_invariance_constant(self):
        g, builder, field, _ = self._setup(16)
        lam = GaugeFunction.from_callable(lambda t, z: 2.0, g)
        assert spectrum_gauge_invariance(field, lam, builder, 10, g) < 1e-12

    def test_spectrum_invariance_smooth(self):
        g, builder, field, _ = self._setup(16)
        lam = GaugeFunction.from_callable(lambda t, z: np.sin(t) * z, g)
        assert spectrum_gauge_invariance(field, lam, builder, 10, g) < 1e-10

    def test_exact_for_spin_half(self):
        g = build_grid(cylinder(1.0, np.pi), 16, 16)
        surf = g.surface
        builder = lambda f: build_hamiltonian(
            HamiltonianRequest(surf, g, f, spin=True))
        field = UniformAxial(B=1.0)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(2 * g.size) + 1j * rng.standard_normal(2 * g.size)
        H0 = builder(field)
        psi /= weighted_norm(psi, H0.full_weights())
        lam = GaugeFunction.from_callable(lambda t, z: np.sin(t) * z, g)
        assert gauge_covariance_residual(field, lam, builder, psi, g) < 1e-12

    def test_flux_periodicity_by_integer_relabeling(self):
        # Phi and Phi + Phi0 give the same grid spectrum: the coupling shifts
        # by an integer and the discrete modes relabel
        g = build_grid(ring(1.0), 64)
        c = PhysicalConstants()
        ev = {}
        for phi in (0.3 * c.flux_quantum, 1.3 * c.flux_quantum):
            req = HamiltonianRequest(g.surface, g, ABFlux(Phi=phi))
            ev[phi] = spectrum(magnetic_cylinder(req)).eigenvalues
        vals = list(ev.values())
        assert np.abs(vals[0] - vals[1]).max() < 1e-10


class TestAnalyticReferences:
    def test_ring_values(self):
        ev = analytic_ring_spectrum(1.0, 0.0, [0])
        assert ev[0] == -0.125

    def test_half_quantum_symmetry_point(self):
        c = PhysicalConstants()
        ev = analytic_ring_spectrum(1.0, c.flux_quantum / 2, [0, 1])
        np.testing.assert_allclose(ev, 0.0, atol=1e-15)

    def test_full_quantum_relabels(self):
        c = PhysicalConstants()
        a = analytic_ring_spectrum(1.0, 0.0, range(-5, 6))
        b = analytic_ring_spectrum(1.0, c.flux_quantum, range(-4, 7))
        np.testing.assert_allclose(np.sort(a), np.sort(b), atol=1e-14)

    def test_landau_values(self):
        assert analytic_cylinder_landau(1.0, 2.0, 1, 0.0) == pytest.approx(-0.125)
        assert analytic_cylinder_landau(1.0, 0.0, 1, 0.0) == pytest.approx(0.375)

    def test_landau_reflection_symmetry(self):
        c = PhysicalConstants()
        B, R = 1.7, 1.3
        shift = c.charge * B * R**2 / c.hbar
        for l in (-2, 0, 1, 3):
            a = analytic_cylinder_landau(R, B, l, 0.4)
            b = analytic_cylinder_landau(R, B, int(round(shift - l)), 0.4) if float(shift - l).is_integer() else None
            if b is not None:
                assert a == pytest.approx(b)

    def test_grid_matches_analytic_within_symbol_deficit(self):
        # every |l| <= n/4 level sits within its own stencil symbol deficit
        n = 64
        g = build_grid(ring(1.0), n)
        alpha = 0.3
        c = PhysicalConstants()
        req = HamiltonianRequest(g.surface, g, ABFlux(Phi=alpha * c.flux_quantum))
        ev_grid = spectrum(magnetic_cylinder(req)).eigenvalues
        sym = ring_symbol_spectrum(n, 1.0, alpha)
        np.testing.assert_allclose(ev_grid, sym, atol=1e-11)
        ls = np.arange(-n // 4, n // 4 + 1)
        ana = np.sort(analytic_ring_spectrum(1.0, alpha * c.flux_quantum, ls))
        h = 2 * np.pi / n
        deficit = np.sort(np.abs(
            0.5 * (ls - alpha) ** 2
            - (1 - np.cos(h * (ls - alpha))) / h**2))
        k = len(ls)
        assert np.all(np.abs(ev_grid[:k] - ana[:k]) <= np.sort(deficit)[-1] + 1e-12)

    def test_lowest_levels_converge_at_stencil_order(self):
        errs = []
        for n in (32, 64):
            g = build_grid(ring(1.0), n)
            ev = spectrum(build_hamiltonian(HamiltonianRequest(g.surface, g)), 5).eigenvalues
            ana = np.sort(analytic_ring_spectrum(1.0, 0.0, range(-3, 4)))[:5]
            errs.append(np.abs(ev - ana).max())
        assert 1.7 <= np.log2(errs[0] / errs[1]) <= 2.3
