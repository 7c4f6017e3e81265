import numpy as np
import pytest

from surfband.analysis import spectrum
from surfband.discretize import hermiticity_residual
from surfband.geometry import cylinder, ring, sphere
from surfband.thinlayer import (
    ShellProblem,
    box_energy,
    build_radial_operator,
    effective_surface_energy,
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
        p = ShellProblem(cylinder(1.0, 1.0), 0.01, 0)
        val = effective_surface_energy(p)
        assert abs(val + 0.125) < 1e-4

    def test_sphere_surface_energy_vanishes(self):
        # u = r psi removes every curvature term
        p = ShellProblem(sphere(1.0), 0.01, 0)
        assert abs(effective_surface_energy(p)) < 1e-4

    def test_levels_increase_with_n(self):
        p = ShellProblem(cylinder(1.0, 1.0), 0.2, 1)
        ev = radial_spectrum(p, 4)
        assert np.all(np.diff(ev) > 0)

    def test_energies_decrease_with_width(self):
        es = [radial_spectrum(ShellProblem(cylinder(1.0, 1.0), d, 1), 1)[0]
              for d in (0.1, 0.2, 0.4)]
        assert es[0] > es[1] > es[2]

    def test_collapse_rejected(self):
        with pytest.raises(ValueError, match="collapses"):
            ShellProblem(cylinder(1.0, 1.0), 2.0, 0)

    def test_min_resolution_enforced(self):
        with pytest.raises(ValueError):
            ShellProblem(cylinder(1.0, 1.0), 0.1, 0, n_r=10)


class TestFluxOperator:
    def test_weighted_hermitian_to_scale(self):
        p = ShellProblem(cylinder(1.0, 1.0), 0.2, 1, 100)
        op = build_radial_operator(p)
        scale = np.abs(op.toarray()).max()
        assert hermiticity_residual(op) <= 1e-13 * scale

    @pytest.mark.parametrize("surf", [cylinder(1.0, 1.0), sphere(1.0)])
    def test_matches_liouville_form_at_stencil_order(self, surf):
        diffs = []
        for n_r in (100, 200):
            p = ShellProblem(surf, 0.2, 1, n_r)
            ev_flux = np.real(spectrum(build_radial_operator(p), 3).eigenvalues)
            ev_liou = radial_spectrum(p, 3, compensated=False)
            diffs.append(np.abs(ev_flux - ev_liou).max())
        assert diffs[1] < diffs[0] / 3.0


class TestGkeExtrapolate:
    DS = [0.1, 0.05, 0.025, 0.0125]

    def test_cylinder_reproduces_curvature_shift(self):
        limit, order = gke_extrapolate(cylinder(1.0, 1.0), 1, self.DS)
        assert abs(limit + 0.125) < 1e-6
        assert 1.5 < order < 2.5

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
        vals = [effective_surface_energy(ShellProblem(cylinder(1.0, 1.0), d, 1))
                for d in (0.1, 0.05, 0.025)]
        errs = [abs(v - 0.375) for v in vals]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-3

    def test_sphere_l1_approaches_one(self):
        v = effective_surface_energy(ShellProblem(sphere(1.0), 0.01, 1))
        assert abs(v - 1.0) < 1e-4


class TestSweepTable:
    def test_columns_and_consistency(self):
        rows = sweep_table(cylinder(1.0, 1.0), [0, 1], [0.1, 0.05])
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {"d", "l", "E_raw", "E_box", "E_surface", "shift"}
            assert row["E_surface"] == pytest.approx(row["E_raw"] - row["E_box"])

    def test_parallel_matches_serial(self):
        serial = sweep_table(sphere(1.0), [0, 1], [0.1, 0.05], max_workers=1)
        threaded = sweep_table(sphere(1.0), [0, 1], [0.1, 0.05], max_workers=4)
        for a, b in zip(serial, threaded):
            assert a == b
