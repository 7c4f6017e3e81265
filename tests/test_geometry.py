import numpy as np
import pytest

from surfband import geometry
from surfband.geometry import (
    PhysicalConstants,
    SurfaceKind,
    SurfaceSpec,
    cylinder,
    geometric_kinetic_energy,
    principal_curvatures,
    radial_exponent,
    ring,
    sphere,
)


class TestPrincipalCurvatures:
    def test_cylinder(self):
        assert principal_curvatures(cylinder(1.0, 2.0)) == (-1.0, 0.0)

    def test_sphere(self):
        assert principal_curvatures(sphere(2.0)) == (-0.5, -0.5)

    def test_ring_shares_cylinder_pair(self):
        assert principal_curvatures(ring(3.0)) == principal_curvatures(cylinder(3.0, 1.0))

    def test_flat_limit(self):
        k1, k2 = principal_curvatures(cylinder(1e6, 1.0))
        assert k1 == -1e-6 and k2 == 0.0
        assert abs(geometric_kinetic_energy(cylinder(1e6, 1.0))) < 1e-12


class TestGeometricKineticEnergy:
    def test_cylinder_unit(self):
        assert geometric_kinetic_energy(cylinder(1.0, 1.0)) == -0.125

    def test_ring_unit(self):
        assert geometric_kinetic_energy(ring(1.0)) == -0.125

    def test_sphere_vanishes(self):
        for R in (0.5, 1.0, 2.0, 7.3):
            assert geometric_kinetic_energy(sphere(R)) == 0.0

    @pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
    def test_cylinder_closed_form(self, R):
        c = PhysicalConstants(hbar=2.0, mass=3.0)
        expected = -c.hbar**2 / (8 * c.mass * R**2)
        assert geometric_kinetic_energy(cylinder(R, 1.0), c) == pytest.approx(expected, rel=0, abs=0)

    def test_sign_flip_invariance(self, monkeypatch):
        # M^2 - K = ((k1 - k2)/2)^2 is invariant under flipping both principal curvatures
        rng = np.random.default_rng(7)
        for _ in range(20):
            k1, k2 = rng.uniform(-3, 3, size=2)
            shifts = []
            for pair in ((k1, k2), (-k1, -k2)):
                monkeypatch.setattr(geometry, "principal_curvatures", lambda s, pair=pair: pair)
                shifts.append(geometric_kinetic_energy(sphere(1.0)))
            assert shifts[0] == shifts[1]
            assert shifts[0] == pytest.approx(-0.5 * ((k1 - k2) / 2) ** 2, rel=1e-14)


def test_radial_exponent_is_the_measure_power():
    assert [radial_exponent(kind) for kind in SurfaceKind] == [1, 1, 2]


class TestValidation:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            SurfaceSpec(SurfaceKind.SPHERE, -1.0)

    def test_cylinder_needs_positive_length(self):
        with pytest.raises(ValueError):
            SurfaceSpec(SurfaceKind.CYLINDER, 1.0, 0.0)

    def test_constants_validated(self):
        with pytest.raises(ValueError):
            PhysicalConstants(hbar=0.0)
        # charge sign is allowed
        assert PhysicalConstants(charge=-1.0).flux_quantum < 0
