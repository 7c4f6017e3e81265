import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from surfband import thinlayer
from surfband.analysis import spectrum
from surfband.discretize import hermiticity_residual
from surfband.geometry import cylinder, radial_exponent, ring, sphere
from surfband.thinlayer import (
    ShellProblem,
    box_energy,
    build_radial_operator,
    gke_extrapolate,
    radial_spectrum,
    sweep_table,
)


class TestRadialSpectrum:
    def test_flat_limit_reproduces_box(self):
        # huge radius: the shell is a 1D box to 1e-6 relative
        p = ShellProblem(cylinder(1e6, 1.0), 1.0, 0)
        e1 = radial_spectrum(p, 1)[0]
        box = box_energy(p, 1)
        assert abs(e1 - box) / box < 1e-6

    def test_cylinder_surface_energy_value(self):
        # u = sqrt(r) psi gives V_eff = (l^2 - 1/4)/2r^2, so l=0 at d -> 0
        # leaves exactly the curvature shift
        [row] = sweep_table(cylinder(1.0, 1.0), [0], [0.01])
        assert abs(row["E_surface"] + 0.125) < 1e-4

    def test_sphere_surface_energy_vanishes(self):
        # u = r psi removes every curvature term
        [row] = sweep_table(sphere(1.0), [0], [0.01])
        assert abs(row["E_surface"]) < 1e-4

    def test_levels_increase_with_n(self):
        p = ShellProblem(cylinder(1.0, 1.0), 0.2, 1)
        ev = radial_spectrum(p, 4)
        assert np.all(np.diff(ev) > 0)

    def test_energies_decrease_with_width(self):
        es = [radial_spectrum(ShellProblem(cylinder(1.0, 1.0), d, 1), 1)[0]
              for d in (0.1, 0.2, 0.4)]
        assert es[0] > es[1] > es[2]

    def test_collapse_rejected(self):
        for d in (2.0, 0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"must lie in \(0, 2R\)"):
                ShellProblem(cylinder(1.0, 1.0), d, 0)

    def test_min_resolution_enforced(self):
        with pytest.raises(ValueError):
            ShellProblem(cylinder(1.0, 1.0), 0.1, 0, n_r=10)


def _dense_reference(p: ShellProblem, n_levels: int) -> np.ndarray:
    """The lowest levels from dense eigh of the same tridiagonal, then the same polish."""
    main, off, h = thinlayer._liouville_tridiagonal(p)
    _, vec = np.linalg.eigh(np.diag(main) + np.diag(off, 1) + np.diag(off, -1))
    return np.array([thinlayer._rayleigh_quotient(main, off, vec[:, i])
                     + thinlayer._box_symbol_defect(p, i + 1, h) for i in range(n_levels)])


class TestTridiagonalSolve:
    @pytest.mark.parametrize("n_r, cases", [(50, 12), (256, 12), (1000, 3)])
    @pytest.mark.parametrize("surf", [cylinder(1.0, 1.0), sphere(1.0)], ids=["cylinder", "sphere"])
    def test_matches_dense_eigh(self, surf, n_r, cases):
        rng = np.random.default_rng(n_r)
        for _ in range(cases):
            d = rng.uniform(0.005, 1.5) * surf.R
            l, n_levels = int(rng.integers(0, 9)), int(rng.integers(1, 7))
            p = ShellProblem(surf, d, l, n_r)
            np.testing.assert_allclose(radial_spectrum(p, n_levels), _dense_reference(p, n_levels),
                                       rtol=1e-15, atol=0)

    def test_zero_width_bracket(self):
        # sphere, l = 0: V = 0, so each Weyl bracket is a point and the
        # inverse-iteration shift sits on the eigenvalue
        p = ShellProblem(sphere(1.0), 0.1, 0)
        ev = radial_spectrum(p, 4)
        np.testing.assert_allclose(ev, _dense_reference(p, 4), rtol=1e-15, atol=0)
        np.testing.assert_allclose(ev, [box_energy(p, n) for n in (1, 2, 3, 4)], rtol=1e-15)

    def test_memory_is_linear_in_n_r(self):
        # a dense 20000 x 20000 matrix would need 3.2 GB
        p = ShellProblem(cylinder(1.0, 1.0), 0.1, 1, 20000)
        tracemalloc.start()
        try:
            ev = radial_spectrum(p, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert abs(ev[0] - radial_spectrum(ShellProblem(cylinder(1.0, 1.0), 0.1, 1), 1)[0]) < 1e-3

    @pytest.mark.parametrize("l", [0, 2])
    def test_rayleigh_quotient_keeps_long_double_accuracy(self, l):
        # at n_r = 4000 the O(1/h^2) stencil terms are ~10^6 times lambda; a
        # plain long-double v^T (T v) lost 8-9 ulps of the double result here
        p = ShellProblem(cylinder(1.0, 1.0), 0.1, l, 4000)
        main, off, _ = thinlayer._liouville_tridiagonal(p)
        sigma = float(radial_spectrum(p, 1)[0] - thinlayer._box_symbol_defect(p, 1, p.nodes()[1]))
        start = np.sin(np.pi * (np.arange(p.n_r) + 0.5) / p.n_r)
        v = thinlayer._inverse_iteration(main.tolist(), off.tolist(), sigma, start, 1e-3)
        m, e, u = ([Fraction(x) for x in arr.tolist()] for arr in (main, off, v))
        num = sum(mi * ui * ui for mi, ui in zip(m, u)) + 2 * sum(
            ei * a * b for ei, a, b in zip(e, u, u[1:]))
        exact = float(num / sum(ui * ui for ui in u))
        assert abs(thinlayer._rayleigh_quotient(main, off, v) - exact) <= np.spacing(exact)

    def test_failed_bracket_raises(self, monkeypatch):
        # a bracket that misses its level is an error, never a silent fallback
        monkeypatch.setattr(thinlayer, "_box_symbol", lambda n, h, d: np.longdouble(0))
        with pytest.raises(RuntimeError, match="Weyl bracket"):
            radial_spectrum(ShellProblem(cylinder(1.0, 1.0), 0.1, 1), 1)


class TestFluxOperator:
    def test_weighted_hermitian_to_scale(self):
        p = ShellProblem(cylinder(1.0, 1.0), 0.2, 1, 100)
        op = build_radial_operator(p)
        scale = np.abs(op.toarray()).max()
        assert hermiticity_residual(op) <= 1e-13 * scale

    @pytest.mark.parametrize("surf", [cylinder(1.0, 1.0), sphere(1.0)])
    def test_matches_loop_reference(self, surf):
        p = ShellProblem(surf, 0.3, 2, 60)
        r, h = p.nodes()
        s, k = radial_exponent(surf.kind), 0.5
        faces = np.append((r - h / 2) ** s, (r[-1] + h / 2) ** s)
        ref = np.zeros((p.n_r, p.n_r))
        for j in range(p.n_r):
            ref[j, j] = k * (faces[j] + faces[j + 1]) / (r[j] ** s * h**2)
            if j + 1 < p.n_r:
                ref[j, j + 1] = -k * faces[j + 1] / (r[j] ** s * h**2)
                ref[j + 1, j] = -k * faces[j + 1] / (r[j + 1] ** s * h**2)
        ref[0, 0] += k * faces[0] / (r[0] ** s * h**2)
        ref[-1, -1] += k * faces[-1] / (r[-1] ** s * h**2)
        ref += np.diag(p.centrifugal(r))
        np.testing.assert_allclose(build_radial_operator(p).toarray(), ref, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("surf, ref", [(cylinder(1.0, 1.0), lambda l: (l**2, l**2 - 0.25)),
                                           (sphere(1.0), lambda l: (l * (l + 1), l * (l + 1)))])
    def test_exponent_forms_match_the_closed_forms_bitwise(self, surf, ref):
        # l(l + s - 1) and l(l + s - 1) + s(s - 2)/4 at hbar = m = 1
        for l in range(6):
            p = ShellProblem(surf, 0.3, l, 60)
            r = p.nodes()[0]
            centrifugal, liouville = ref(l)
            assert np.array_equal(p.centrifugal(r), 0.5 * centrifugal / r**2)
            assert np.array_equal(thinlayer._liouville_potential(p, r), 0.5 * liouville / r**2)

    @pytest.mark.parametrize("surf", [cylinder(1.0, 1.0), sphere(1.0)])
    def test_matches_liouville_form_at_stencil_order(self, surf):
        diffs = []
        for n_r in (100, 200):
            p = ShellProblem(surf, 0.2, 1, n_r)
            ev_flux = np.real(spectrum(build_radial_operator(p), 3).eigenvalues)
            h = p.nodes()[1]
            ev_liou = radial_spectrum(p, 3) - [thinlayer._box_symbol_defect(p, n, h)
                                               for n in (1, 2, 3)]
            diffs.append(np.abs(ev_flux - ev_liou).max())
        assert diffs[1] < diffs[0] / 3.0


class TestGkeExtrapolate:
    DS = [0.1, 0.05, 0.025, 0.0125]

    def test_cylinder_reproduces_curvature_shift(self):
        limit, order = gke_extrapolate(cylinder(1.0, 1.0), 1, self.DS)
        assert abs(limit + 0.125) < 1e-6
        assert 1.5 < order < 2.5

    @pytest.mark.parametrize("surf,l", [(cylinder(1.0, 1.0), 0), (cylinder(1.0, 1.0), 1),
                                        (cylinder(1.0, 1.0), 2), (sphere(1.0), 1), (sphere(1.0), 2)],
                             ids=["cylinder-0", "cylinder-1", "cylinder-2", "sphere-1", "sphere-2"])
    def test_order_above_round_off_is_second(self, surf, l):
        _, order = gke_extrapolate(surf, l, self.DS)
        assert 1.7 <= order <= 2.3

    def test_sphere_limit_is_zero(self):
        limit, _ = gke_extrapolate(sphere(1.0), 1, self.DS)
        assert abs(limit) < 1e-6

    def test_limit_l_independent_on_cylinder(self):
        limits = [gke_extrapolate(cylinder(1.0, 1.0), l, self.DS)[0] for l in (0, 2)]
        assert abs(limits[0] - limits[1]) < 1e-6

    def test_ring_treated_as_cylinder_section(self):
        limit, _ = gke_extrapolate(ring(1.0), 0, self.DS)
        assert abs(limit + 0.125) < 1e-6

    @pytest.mark.parametrize("R", [0.5, 2.0])
    def test_radius_scaling(self, R):
        limit, _ = gke_extrapolate(cylinder(R, 1.0), 1, self.DS)
        assert abs(limit + 1 / (8 * R * R)) < 1e-6

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            gke_extrapolate(cylinder(1.0, 1.0), 0, [0.1, 0.05])

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="non-monotone"):
            gke_extrapolate(cylinder(1.0, 1.0), 0, [0.1, 0.2, 0.05])


class TestEffectiveSurfaceEnergy:
    def test_cylinder_l1_sequence_approaches_three_eighths(self):
        # (l^2 - 1/4)/2 at R = 1, l = 1 -> 0.375
        rows = sweep_table(cylinder(1.0, 1.0), [1], [0.1, 0.05, 0.025])
        vals = [row["E_surface"] for row in rows]
        errs = [abs(v - 0.375) for v in vals]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-3

    def test_sphere_l1_approaches_one(self):
        [row] = sweep_table(sphere(1.0), [1], [0.01])
        assert abs(row["E_surface"] - 1.0) < 1e-4


class TestSweepTable:
    def test_columns_and_consistency(self):
        rows = sweep_table(cylinder(1.0, 1.0), [0, 1], [0.1, 0.05])
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {"d", "l", "E_raw", "E_box", "E_surface", "shift"}
            assert row["E_surface"] == pytest.approx(row["E_raw"] - row["E_box"])

    def test_empty_width_list_rejected(self):
        with pytest.raises(ValueError, match="at least one layer width"):
            sweep_table(cylinder(1.0, 1.0), [0], [])
