from dataclasses import replace

import numpy as np
import pytest

from surfband.discretize import build_grid
from surfband.fields import (
    ABFlux,
    GaugeFunction,
    Sampled,
    UniformAxial,
    add_gauge,
    link_integrals,
    load_sampled_csv,
    materialize,
    sample_magnetic_field,
    sample_potential,
    surface_gradient,
)
from surfband.geometry import cylinder, ring, sphere
from surfband.hamiltonians import HamiltonianRequest, build_hamiltonian


def _node_samples(spec, surf, n1=6, n2=4):
    """sample_potential of spec on a small grid of surf, with the grid."""
    g = build_grid(surf, n1, n2)
    return g, sample_potential(spec, g)


class TestEvalPotential:
    def test_uniform_axial_cylinder(self):
        # A_theta = B R / 2 from the curl in cylindrical coordinates
        _, (a1, a2) = _node_samples(UniformAxial(B=2.0), cylinder(1.0, 1.0))
        np.testing.assert_allclose(a1, 1.0, rtol=1e-15)
        assert not a2.any()

    def test_uniform_axial_sphere_equator(self):
        # theta = pi/2 is a node of an odd polar count
        g, (a1, a2) = _node_samples(UniformAxial(B=1.0), sphere(1.0), n1=5)
        assert g.coords1[2] == pytest.approx(np.pi / 2)
        assert not a1.any()
        np.testing.assert_allclose(a2[2], 0.5, rtol=1e-15)
        np.testing.assert_allclose(a2, 0.5 * np.sin(g.coords1)[:, None] * np.ones(4), rtol=1e-15)

    def test_zero_flux_is_zero(self):
        _, comps = _node_samples(ABFlux(Phi=0.0), ring(1.0))
        assert not any(c.any() for c in comps)

    def test_ab_flux_value(self):
        _, (a1, _) = _node_samples(ABFlux(Phi=2 * np.pi), ring(2.0))
        np.testing.assert_allclose(a1, 1.0 / 2.0, rtol=1e-15)

    def test_sphere_pole_singular(self):
        # build_grid keeps sphere nodes off the poles; a grid with a node on one is refused
        g = build_grid(sphere(1.0), 4, 4)
        g = replace(g, coords1=g.coords1 - g.coords1[0])
        with pytest.raises(ValueError, match="singular potential at pole"):
            sample_potential(ABFlux(Phi=1.0), g)

    def test_radial_component_appended(self):
        # A_r rides along with the tangential samples and is not one of them
        g = build_grid(ring(1.0), 8)
        spec = materialize(ABFlux(Phi=0.0, radial_component=0.4), g)
        assert spec.radial_component == 0.4
        assert not spec.a1.any() and not spec.a2.any()


class TestMagneticField:
    def test_uniform_axial_curl(self):
        B = sample_magnetic_field(UniformAxial(B=2.0), build_grid(cylinder(1.0, 1.0), 6, 4))
        assert not B[0].any() and not B[1].any()
        assert np.all(B[2] == 2.0)

    def test_ab_flux_pure_gauge(self):
        B = sample_magnetic_field(ABFlux(Phi=3.0), build_grid(ring(1.0), 8))
        assert not any(b.any() for b in B)

    def test_sampled_constant_axial_curl_free(self):
        surf = cylinder(1.0, 1.0)
        g = build_grid(surf, 8, 8)
        spec = Sampled(grid=g, a1=np.zeros((8, 8)), a2=np.full((8, 8), 1.3))
        np.testing.assert_allclose(sample_magnetic_field(spec, g), 0.0, atol=1e-12)

    def test_sphere_uniform_axial_components(self):
        g = build_grid(sphere(1.0), 6, 4)
        Br, Bth, Bph = sample_magnetic_field(UniformAxial(B=1.5), g)
        th = g.coords1[:, None]
        np.testing.assert_allclose(Br, 1.5 * np.cos(th) * np.ones(4), rtol=1e-15)
        np.testing.assert_allclose(Bth, -1.5 * np.sin(th) * np.ones(4), rtol=1e-15)
        assert not Bph.any()

    @pytest.mark.parametrize("surf", [ring(1.0), cylinder(1.3, 1.0), sphere(0.7)],
                             ids=["ring", "cylinder", "sphere"])
    @pytest.mark.parametrize("spec", [UniformAxial(B=1.5), ABFlux(Phi=2.0)], ids=["B", "AB"])
    def test_grid_curl_is_point_curl_at_every_node(self, surf, spec):
        g = build_grid(surf, 6, 4)
        B = sample_magnetic_field(spec, g)
        assert all(b.shape == (g.n1, g.n2) for b in B)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(B) for b in B[i + 1:])
        for j, k in np.ndindex(g.n1, g.n2):
            th = g.coords1[j]
            if isinstance(spec, ABFlux):
                point = (0.0, 0.0, 0.0)
            elif surf.kind.value == "sphere":
                point = (spec.B * np.cos(th), -spec.B * np.sin(th), 0.0)
            else:
                point = (0.0, 0.0, spec.B)
            assert tuple(float(b[j, k]) for b in B) == point


class TestSurfaceGradient:
    def test_constant_gives_zero(self):
        surf = ring(1.0)
        g = build_grid(surf, 16)
        lam = GaugeFunction.from_callable(lambda t, z: 2.5, g)
        g1, g2 = surface_gradient(lam, g)
        np.testing.assert_allclose(g1, 0, atol=1e-14)
        np.testing.assert_allclose(g2, 0, atol=1e-14)

    def test_sin_theta_gains_cos_to_stencil_order(self):
        surf = ring(1.0)
        errs = []
        for n in (32, 64):
            g = build_grid(surf, n)
            lam = GaugeFunction.from_callable(lambda t, z: np.sin(t), g)
            g1, _ = surface_gradient(lam, g)
            errs.append(np.abs(g1.ravel() - np.cos(g.coords1)).max())
        assert errs[1] < errs[0] / 3.2  # second order
        assert errs[0] < 1e-2

    def test_linear_z_exact(self):
        surf = cylinder(1.0, 2.0)
        g = build_grid(surf, 6, 10)
        lam = GaugeFunction.from_callable(lambda t, z: z, g)
        g1, g2 = surface_gradient(lam, g)
        np.testing.assert_allclose(g2, 1.0, atol=1e-12)
        np.testing.assert_allclose(g1, 0.0, atol=1e-12)

    def test_multivalued_rejected(self):
        g = build_grid(ring(1.0), 16)
        with pytest.raises(ValueError, match="multivalued"):
            GaugeFunction.from_callable(lambda t, z: t, g)

    def test_multivalued_past_the_first_seam_nodes_rejected(self):
        # each function agrees across the seam at the first four seam nodes only
        g = build_grid(cylinder(1.0, 1.0), 8, 8)
        with pytest.raises(ValueError, match="multivalued"):
            GaugeFunction.from_callable(lambda t, z: t * max(z - g.coords2[3], 0.0), g)
        g = build_grid(sphere(1.0), 8, 8)
        with pytest.raises(ValueError, match="multivalued"):
            GaugeFunction.from_callable(lambda t, p: p * max(t - g.coords1[3], 0.0), g)


class TestAddGauge:
    def test_constant_keeps_zero_field(self):
        surf = ring(1.0)
        g = build_grid(surf, 16)
        lam = GaugeFunction.from_callable(lambda t, z: 1.0, g)
        shifted = add_gauge(ABFlux(Phi=0.0), lam, g)
        np.testing.assert_allclose(sample_potential(shifted, g)[0], 0, atol=1e-14)

    def test_curl_grad_vanishes(self):
        # the two directional stencils commute on the tensor grid, so the
        # gauge shift leaves the sampled field of a uniform B untouched
        surf = cylinder(1.0, np.pi)
        g = build_grid(surf, 16, 16)
        lam = GaugeFunction.from_callable(lambda t, z: np.sin(t) * np.cos(z), g)
        shifted = add_gauge(UniformAxial(B=1.0), lam, g)
        B1, B2, B3 = sample_magnetic_field(shifted, g)
        assert np.abs(B1).max() < 1e-12
        assert np.abs(B2).max() < 1e-12
        assert np.abs(B3 - 1.0).max() < 1e-12

    def test_curl_grad_vanishes_on_sphere(self):
        surf = sphere(1.0)
        g = build_grid(surf, 16, 16)
        lam = GaugeFunction.from_callable(lambda t, p: np.cos(t) * np.cos(p), g)
        shifted = add_gauge(UniformAxial(B=1.0), lam, g)
        direct = sample_magnetic_field(UniformAxial(B=1.0), g)
        got = sample_magnetic_field(shifted, g)
        for a, b in zip(got, direct):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_gauge_and_inverse_restore_samples(self):
        surf = ring(1.0)
        g = build_grid(surf, 32)
        lam = GaugeFunction.from_callable(lambda t, z: np.sin(t), g)
        minus = GaugeFunction(-lam.values, "-lambda")
        spec = add_gauge(add_gauge(UniformAxial(B=1.0), lam, g), minus, g)
        base1, _ = sample_potential(UniformAxial(B=1.0), g)
        np.testing.assert_allclose(sample_potential(spec, g)[0], base1, atol=1e-13)
        # attached increments cancel exactly in the link integrals
        li = link_integrals(spec, g)
        li0 = link_integrals(UniformAxial(B=1.0), g)
        np.testing.assert_allclose(li["axis1"], li0["axis1"], atol=1e-15)

    def test_addition_associative(self):
        surf = ring(1.0)
        g = build_grid(surf, 24)
        rng = np.random.default_rng(11)
        lam_a = GaugeFunction(rng.standard_normal((24, 1)), "a")
        lam_b = GaugeFunction(rng.standard_normal((24, 1)), "b")
        ab = add_gauge(add_gauge(ABFlux(Phi=0.0), lam_a, g), lam_b, g)
        ba = add_gauge(add_gauge(ABFlux(Phi=0.0), lam_b, g), lam_a, g)
        np.testing.assert_allclose(sample_potential(ab, g)[0], sample_potential(ba, g)[0], atol=1e-13)


class TestLinkIntegrals:
    # each analytic base is constant along the links it runs along, so the
    # link integrals are closed forms
    def test_uniform_axial_cylinder_theta_links(self):
        B, R = 1.7, 1.3
        g = build_grid(cylinder(R, 2.0), 11, 6)
        li = link_integrals(UniformAxial(B=B), g)
        np.testing.assert_allclose(li["axis1"], B * R**2 * g.h1 / 2, rtol=1e-15, atol=0)
        assert not li["axis2"].any()

    def test_uniform_axial_sphere_phi_links(self):
        B, R = 1.7, 1.3
        g = build_grid(sphere(R), 9, 7)
        li = link_integrals(UniformAxial(B=B), g)
        closed = B * R**2 * np.sin(g.coords1)[:, None] ** 2 * g.h2 / 2
        np.testing.assert_allclose(li["axis2"], np.broadcast_to(closed, (9, 7)), rtol=1e-15, atol=0)
        assert not li["axis1"].any()

    @pytest.mark.parametrize("surf, n2, axis", [(cylinder(1.3, 2.0), 6, "axis1"),
                                                (sphere(1.3), 7, "axis2")])
    def test_flux_line_azimuthal_links(self, surf, n2, axis):
        Phi = -2.3
        g = build_grid(surf, 9, n2)
        li = link_integrals(ABFlux(Phi=Phi), g)
        h = g.h1 if axis == "axis1" else g.h2
        np.testing.assert_allclose(li[axis], Phi * h / (2 * np.pi), rtol=1e-15, atol=0)
        other = li["axis2" if axis == "axis1" else "axis1"]
        assert not other.any()


class TestSampledEvaluation:
    def test_sampled_field_rejects_another_grid(self):
        # same node count, other surface or shape: the samples belong to a different grid
        f = Sampled(grid=build_grid(sphere(1.0), 8, 8), a1=np.ones((8, 8)), a2=np.zeros((8, 8)))
        cyl = cylinder(1.0, 1.0)
        with pytest.raises(ValueError, match="different grid"):
            build_hamiltonian(HamiltonianRequest(cyl, build_grid(cyl, 8, 8), f))
        for g in (build_grid(sphere(1.0), 4, 16), build_grid(sphere(2.0), 8, 8)):
            with pytest.raises(ValueError, match="different grid"):
                sample_potential(f, g)

    def test_eval_at_node(self):
        g = build_grid(ring(1.0), 8)
        vals = np.arange(8.0).reshape(8, 1)
        spec = Sampled(grid=g, a1=vals, a2=np.zeros((8, 1)))
        a1, a2 = sample_potential(spec, g)
        assert a1[3, 0] == 3.0 and a2[3, 0] == 0.0

    def test_gauged_analytic_field_needs_a_grid(self):
        # a gauge-shifted analytic field is the base plus the stencil gradient on the grid
        g = build_grid(ring(1.0), 8)
        lam = GaugeFunction.from_callable(lambda t, z: np.sin(t), g)
        a1, _ = sample_potential(add_gauge(UniformAxial(B=1.0), lam, g), g)
        np.testing.assert_allclose(a1, 0.5 + surface_gradient(lam, g)[0], rtol=1e-15)

    def test_integer_flux_quanta_leave_spectrum(self):
        # n flux quanta are invisible to the ring spectrum, exactly
        from surfband.analysis import spectrum
        from surfband.geometry import PhysicalConstants
        from surfband.hamiltonians import HamiltonianRequest, build_hamiltonian

        g = build_grid(ring(1.0), 32)
        c = PhysicalConstants()
        ev0 = spectrum(build_hamiltonian(
            HamiltonianRequest(g.surface, g, ABFlux(Phi=0.0)))).eigenvalues
        ev2 = spectrum(build_hamiltonian(
            HamiltonianRequest(g.surface, g, ABFlux(Phi=2 * c.flux_quantum)))).eigenvalues
        assert np.abs(ev0 - ev2).max() < 1e-10


class TestMaterialize:
    def test_materialize_drops_exact_terms(self):
        g = build_grid(ring(1.0), 16)
        lam = GaugeFunction.from_callable(lambda t, z: np.sin(t), g)
        shifted = add_gauge(UniformAxial(B=1.0), lam, g)
        plain = materialize(shifted, g)
        assert plain.gauges == ()
        np.testing.assert_allclose(plain.a1, sample_potential(shifted, g)[0])


class TestCsvLoading:
    def test_round_trip(self, tmp_path):
        surf = cylinder(1.0, 1.0)
        g = build_grid(surf, 4, 4)
        rng = np.random.default_rng(2)
        a1 = rng.standard_normal((4, 4))
        a2 = rng.standard_normal((4, 4))
        ar = rng.standard_normal((4, 4))
        path = tmp_path / "field.csv"
        lines = ["coord1,coord2,A_1,A_2,A_r"]
        for j, t in enumerate(g.coords1):
            for k, z in enumerate(g.coords2):
                lines.append(f"{t:.17g},{z:.17g},{a1[j,k]:.17g},{a2[j,k]:.17g},{ar[j,k]:.17g}")
        path.write_text("\n".join(lines) + "\n")
        spec = load_sampled_csv(path, g)
        np.testing.assert_allclose(spec.a1, a1)
        np.testing.assert_allclose(spec.a2, a2)
        np.testing.assert_allclose(spec.radial_component, ar)

    def test_header_mandatory(self, tmp_path):
        g = build_grid(ring(1.0), 4)
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.0,1.0,0.0\n")
        with pytest.raises(ValueError, match="header"):
            load_sampled_csv(path, g)

    def test_non_node_coordinates_rejected(self, tmp_path):
        g = build_grid(ring(1.0), 4)
        path = tmp_path / "bad2.csv"
        rows = ["coord1,coord2,A_1,A_2"]
        rows += [f"{0.123 + j},0.0,1.0,0.0" for j in range(4)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="grid node"):
            load_sampled_csv(path, g)

    def test_node_listed_twice_rejected(self, tmp_path):
        g = build_grid(cylinder(1.0, 1.0), 3, 3)
        nodes = [(t, z) for t in g.coords1 for z in g.coords2]
        nodes[4] = nodes[3]  # node 3 twice, node 4 missing
        path = tmp_path / "dup.csv"
        path.write_text("coord1,coord2,A_1,A_2\n"
                        + "".join(f"{t:.17g},{z:.17g},1.0,0.0\n" for t, z in nodes))
        with pytest.raises(ValueError, match="more than once"):
            load_sampled_csv(path, g)

    def test_non_finite_samples_rejected(self):
        g = build_grid(ring(1.0), 4)
        with pytest.raises(ValueError, match="non-finite"):
            Sampled(grid=g, a1=np.array([np.inf, 0, 0, 0]), a2=np.zeros(4))
