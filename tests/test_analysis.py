import numpy as np
import pytest
import scipy.sparse as sp

from surfband import analysis
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
from surfband.fields import ABFlux, GaugeFunction, Sampled, UniformAxial
from surfband.geometry import PhysicalConstants, cylinder, ring, sphere
from surfband.hamiltonians import HamiltonianRequest, build_hamiltonian


def ring_builder(grid, **kw):
    surf = grid.surface
    return lambda f: build_hamiltonian(HamiltonianRequest(surf, grid, f, **kw))


class TestSpectrum:
    def test_identity(self):
        g = build_grid(ring(1.0), 8)
        op = OperatorMatrix(np.eye(8, dtype=complex), g.weights, "id")
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
        rep = spectrum(H, 3)
        v = rep.eigenvectors[:, 0]
        assert abs(weighted_norm(v, H.weights) - 1.0) < 1e-10

    def test_k_validation(self):
        g = build_grid(ring(1.0), 8)
        op = OperatorMatrix(np.eye(8, dtype=complex), g.weights, "id")
        with pytest.raises(ValueError):
            spectrum(op, 9)

    def test_report_carries_label_and_pairs(self):
        g = build_grid(ring(1.0), 16)
        H = build_hamiltonian(HamiltonianRequest(g.surface, g))
        rep = spectrum(H, 2)
        assert "ring" in rep.operator_label
        assert not np.iscomplexobj(rep.eigenvalues)
        assert rep.eigenvalues[0] == pytest.approx(-0.125, abs=1e-12)

    def test_nonhermitian_sorted_by_real_then_imag(self):
        g = build_grid(ring(1.0), 4)
        entries = np.diag([1.0 + 2j, 1.0 + 1j, 0.5 + 3j, 2.0 + 0j])
        op = OperatorMatrix(entries, g.weights, "toy")
        ev = spectrum(op).eigenvalues
        np.testing.assert_allclose(ev, [0.5 + 3j, 1.0 + 1j, 1.0 + 2j, 2.0 + 0j])

    def test_tiny_nonhermitian_operator_is_not_taken_as_hermitian(self, monkeypatch):
        # the Hermitian test is relative below max|H| = 1: an absolute 1e-10
        # would pass this operator and report real levels for complex ones
        A = 1e-12 * np.random.default_rng(0).standard_normal((6, 6))
        ev = np.linalg.eigvals(A)
        assert np.abs(ev.imag).max() > 1e-12
        calls = []
        residual = analysis.hermiticity_residual
        monkeypatch.setattr(analysis, "hermiticity_residual",
                            lambda op: calls.append(op) or residual(op))
        rep = spectrum(OperatorMatrix(A, np.ones(6), "tiny"))
        assert len(calls) == 1
        assert rep.hermiticity_residual < analysis.HERMITIAN_TOL
        assert rep.solver == "dense-eig"
        np.testing.assert_allclose(rep.eigenvalues, ev[np.lexsort((ev.imag, ev.real))],
                                   rtol=0, atol=1e-24)


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
        psi /= weighted_norm(psi, H.weights)
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
        assert max(spectrum_gauge_invariance(field, lam, builder, 10, g)) < 1e-12

    def test_spectrum_invariance_smooth(self):
        g, builder, field, _ = self._setup(16)
        lam = GaugeFunction.from_callable(lambda t, z: np.sin(t) * z, g)
        assert max(spectrum_gauge_invariance(field, lam, builder, 10, g)) < 1e-10

    def test_exact_for_spin_half(self):
        g = build_grid(cylinder(1.0, np.pi), 16, 16)
        surf = g.surface
        builder = lambda f: build_hamiltonian(
            HamiltonianRequest(surf, g, f, spin=True))
        field = UniformAxial(B=1.0)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(2 * g.size) + 1j * rng.standard_normal(2 * g.size)
        H0 = builder(field)
        psi /= weighted_norm(psi, H0.weights)
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
            ev[phi] = spectrum(build_hamiltonian(req)).eigenvalues
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
        ev_grid = spectrum(build_hamiltonian(req)).eigenvalues
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


class TestMonopoleSphere:
    """A Dirac monopole of integer charge q through the sphere (Wu & Yang 1976).

    a1 = 0, a2 = q (1 - cos theta) / (R sin theta) puts the Dirac string
    through the south pole; the levels are (hbar^2 / 2 m R^2)[l(l+1) - q^2],
    l = |q|, |q|+1, ..., each 2l+1-fold degenerate.  The operator is complex
    and commutes with the azimuthal shift, so it takes the sector path.
    """

    R = 1.0
    LS = 3  # multiplets checked per charge

    def _operator(self, q, n):
        g = build_grid(sphere(self.R), n, n)
        theta = np.repeat(g.coords1[:, None], n, axis=1)
        a2 = q * (1 - np.cos(theta)) / (self.R * np.sin(theta))
        field = Sampled(grid=g, a1=np.zeros_like(a2), a2=a2)
        return build_hamiltonian(HamiltonianRequest(g.surface, g, field))

    @pytest.mark.parametrize("q", [1, 2])
    def test_levels_multiplicities_and_order(self, q):
        ls = range(q, q + self.LS)
        sizes = [2 * l + 1 for l in ls]
        k = sum(sizes) + 1  # one level of the next multiplet closes the last one
        exact = np.array([(l * (l + 1) - q * q) / (2 * self.R**2) for l in ls])
        errors = []
        for n in (16, 32, 64):
            H = self._operator(q, n)
            rep = spectrum(H, k)
            assert rep.solver == "sector-eigh"
            assert rep.eigen_residual <= 1e-12
            ev = rep.eigenvalues
            # multiplets l and l+1 lie l+1 apart; the grid splits a multiplet by less
            breaks = np.flatnonzero(np.diff(ev) > 0.5 * (q + 1)) + 1
            assert np.diff(np.concatenate([[0], breaks, [k]])).tolist() == [*sizes, 1]
            means = [cluster.mean() for cluster in np.split(ev[:-1], np.cumsum(sizes)[:-1])]
            errors.append(np.abs([ev[0] - exact[0], *(np.array(means) - exact)]))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(orders - 2) <= 0.2), orders

    @pytest.mark.parametrize("q, n", [(1, 16), (2, 16), (1, 32), (2, 32)])
    def test_sector_and_sparse_equal_dense(self, q, n):
        H = self._operator(q, n)
        k = 24
        rep = spectrum(H, k)
        assert rep.solver == "sector-eigh"
        sqw = np.sqrt(H.weights)
        dense = np.linalg.eigvalsh((sp.diags_array(sqw) @ H.entries @ sp.diags_array(1 / sqw))
                                   .toarray())
        bound = 1e-14 * np.abs(H.entries.data).max() + 1e-12
        assert np.abs(rep.eigenvalues - dense[:k]).max() <= bound
        # without its node layout the operator takes the sparse path, which
        # once reported a level 4.4 off here (q = 2, n = 32, k = 24)
        sparse = spectrum(OperatorMatrix(H.entries, H.weights, H.label), k)
        assert sparse.solver == ("sparse-shift-invert" if n == 32 else "dense-eigh")
        assert np.abs(sparse.eigenvalues - dense[:k]).max() <= bound
