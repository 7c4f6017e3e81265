import numpy as np
import pytest

from surfband.analysis import spectrum
from surfband.discretize import build_grid, hermiticity_residual
from surfband.fields import ABFlux, GaugeFunction, Sampled, UniformAxial, add_gauge
from surfband.geometry import PhysicalConstants, SurfaceKind, cylinder, ring, sphere
from surfband.hamiltonians import (
    HamiltonianRequest,
    build_hamiltonian,
    hermitian_radial_momentum,
    link_operator,
    open_radial_grid,
    radial_flux_laplacian,
    zeeman_block,
)


def ring_req(n=64, R=1.0, **kw):
    surf = ring(R)
    return HamiltonianRequest(surf, build_grid(surf, n), **kw)


class TestLinkOperator:
    def _links(self, n=7, m=30, seed=4):
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, m)
        j = (i + rng.integers(1, n, m)) % n  # no self-links; pairs repeat in both orientations
        return n, i, j, rng.uniform(-1, 2, m), rng.uniform(-3, 3, m), rng.uniform(-1, 1, n)

    def test_matches_dense_accumulation(self):
        n, i, j, c, theta, diag = self._links()
        ref = np.diag(diag).astype(complex)
        for a, b, cc, t in zip(i, j, c, theta):
            ref[a, a] += cc
            ref[b, b] += cc
            ref[a, b] -= cc * np.exp(-1j * t)
            ref[b, a] -= cc * np.exp(1j * t)
        H = link_operator(n, i, j, c, np.exp(-1j * theta), diag)
        np.testing.assert_allclose(H.toarray(), ref, atol=1e-14)

    def test_exactly_hermitian_and_row_scaled(self):
        n, i, j, c, theta, _ = self._links(seed=9)
        H = link_operator(n, i, j, c, np.exp(-1j * theta)).toarray()
        assert np.array_equal(H, H.conj().T)
        w = np.linspace(0.5, 2.0, n)
        Hs = link_operator(n, i, j, c, np.exp(-1j * theta), weights=w).toarray()
        np.testing.assert_allclose(Hs, H / w[:, None], atol=1e-14)

    def test_no_phases_gives_real_free_stencil(self):
        n, i, j, c, _, _ = self._links()
        H = link_operator(n, i, j, c)
        assert np.isrealobj(H.data)
        np.testing.assert_allclose(H @ np.ones(n), 0.0, atol=1e-13)


class TestFreeRing:
    def test_ground_level_exact(self):
        ev = spectrum(build_hamiltonian(ring_req()), 1).eigenvalues
        assert abs(ev[0] + 0.125) < 1e-12

    def test_first_pair_degenerate_near_0375(self):
        ev = spectrum(build_hamiltonian(ring_req(64)), 3).eigenvalues
        assert abs(ev[1] - ev[2]) < 1e-12
        assert abs(ev[1] - 0.375) < 1e-3

    def test_shift_against_naive_laplacian(self):
        # the whole spectrum sits exactly -hbar^2/(8mR^2) below the bare ring Laplacian
        req = ring_req(32, R=2.0)
        H = build_hamiltonian(req)
        h = 2 * np.pi / 32
        eye = np.eye(32)
        d2 = (np.roll(eye, 1, axis=1) - 2 * eye + np.roll(eye, -1, axis=1)) / h**2  # circulant
        naive = -0.5 * d2 / 4.0
        shift = H.toarray() - naive
        np.testing.assert_allclose(shift, -1 / 32 * np.eye(32), atol=1e-14)

    def test_order4_extends_accuracy(self):
        ev2 = spectrum(build_hamiltonian(ring_req(32)), 3).eigenvalues
        ev4 = spectrum(build_hamiltonian(ring_req(32, order=4)), 3).eigenvalues
        assert abs(ev4[1] - 0.375) < abs(ev2[1] - 0.375) / 10


class TestFreeCylinder:
    def test_ground_state_cancellation(self):
        # L = pi makes the lowest z mode energy cancel the curvature shift
        surf = cylinder(1.0, np.pi)
        g = build_grid(surf, 32, 32)
        ev = spectrum(build_hamiltonian(HamiltonianRequest(surf, g)), 1).eigenvalues
        assert abs(ev[0]) < 2e-4

    def test_separable_spectrum(self):
        surf = cylinder(1.0, np.pi)
        g = build_grid(surf, 32, 32)
        ev = spectrum(build_hamiltonian(HamiltonianRequest(surf, g)), 6).eigenvalues
        exact = sorted(l * l / 2 + n * n / 8 - 0.125
                       for l in range(-3, 4) for n in range(1, 5))[:6]
        np.testing.assert_allclose(ev, exact, atol=5e-3)

    def test_weighted_hermitian(self):
        surf = cylinder(1.0, 1.0)
        g = build_grid(surf, 12, 12)
        assert hermiticity_residual(build_hamiltonian(HamiltonianRequest(surf, g))) <= 1e-12

    def test_pm_degeneracy(self):
        surf = cylinder(1.0, np.pi)
        g = build_grid(surf, 16, 8)
        ev = spectrum(build_hamiltonian(HamiltonianRequest(surf, g)), 8).eigenvalues
        # (l = +-1, n = 1) pair from theta reflection symmetry
        assert abs(ev[2] - ev[3]) < 1e-12
        assert ev[3] == pytest.approx(0.5, abs=2e-2)


class TestFreeSphere:
    def test_constant_mode_exactly_zero(self):
        surf = sphere(1.0)
        g = build_grid(surf, 16, 16)
        ev = spectrum(build_hamiltonian(HamiltonianRequest(surf, g)), 1).eigenvalues
        assert abs(ev[0]) < 1e-11

    def test_l1_cluster(self):
        surf = sphere(1.0)
        g = build_grid(surf, 32, 32)
        ev = spectrum(build_hamiltonian(HamiltonianRequest(surf, g)), 4).eigenvalues
        np.testing.assert_allclose(ev[1:4], 1.0, atol=5e-3)

    def test_order4_clusters_with_multiplicity(self):
        surf = sphere(1.0)
        g = build_grid(surf, 32, 32)
        ev = spectrum(build_hamiltonian(HamiltonianRequest(surf, g, order=4)), 16).eigenvalues
        exact = np.array([l * (l + 1) / 2 for l in range(4) for _ in range(2 * l + 1)])
        np.testing.assert_allclose(ev, exact, atol=2e-2)

    def test_radius_scaling(self):
        surf = sphere(2.0)
        g = build_grid(surf, 24, 24)
        ev = spectrum(build_hamiltonian(HamiltonianRequest(surf, g)), 4).eigenvalues
        np.testing.assert_allclose(ev[1:4], 1.0 / 4.0, atol=5e-3)


class TestMagneticCylinder:
    def test_zero_field_matches_free_entrywise(self):
        for coupling in ("peierls", "expanded"):
            req = ring_req(32, field=ABFlux(Phi=0.0), coupling=coupling)
            H = build_hamiltonian(req)
            H0 = build_hamiltonian(ring_req(32))
            np.testing.assert_allclose(H.toarray(), H0.toarray(), atol=1e-13)

    def test_landau_level_exact_at_matching_l(self):
        # B = 2, R = 1: the l = 1 mode sits exactly at the curvature shift
        req = ring_req(64, field=UniformAxial(B=2.0))
        ev = spectrum(build_hamiltonian(req), 1).eigenvalues
        assert abs(ev[0] + 0.125) < 1e-10

    def test_ab_half_quantum_degeneracy(self):
        c = PhysicalConstants()
        req = ring_req(64, field=ABFlux(Phi=c.flux_quantum / 2))
        ev = spectrum(build_hamiltonian(req), 2).eigenvalues
        assert abs(ev[0] - ev[1]) < 1e-10

    def test_correct_variant_never_references_radial_component(self):
        base = build_hamiltonian(ring_req(24, field=UniformAxial(B=1.0)))
        poisoned = build_hamiltonian(
            ring_req(24, field=UniformAxial(B=1.0, radial_component=37.0,
                                            radial_derivative=-4.0)))
        assert np.array_equal(base.toarray(), poisoned.toarray())

    def test_full_cylinder_hermitian_both_couplings(self):
        surf = cylinder(1.0, np.pi)
        g = build_grid(surf, 12, 10)
        for coupling in ("peierls", "expanded"):
            H = build_hamiltonian(HamiltonianRequest(surf, g, UniformAxial(B=1.0),
                                                     coupling=coupling))
            assert hermiticity_residual(H) <= 1e-12

    def test_couplings_agree_spectrally(self):
        surf = cylinder(1.0, np.pi)
        g = build_grid(surf, 24, 16)
        evs = {}
        for coupling in ("peierls", "expanded"):
            H = build_hamiltonian(HamiltonianRequest(surf, g, UniformAxial(B=1.0),
                                                     coupling=coupling))
            evs[coupling] = spectrum(H, 6).eigenvalues
        np.testing.assert_allclose(evs["peierls"], evs["expanded"], atol=5e-3)
        # on the sphere with a smooth gauge (A_theta != 0) the couplings differ
        # at stencil order: halving h cuts the level gap by about 4
        surf = sphere(1.2)
        gaps = []
        for n in (24, 48):
            g = build_grid(surf, n, n)
            lam = GaugeFunction.from_callable(
                lambda t, p: 0.7 * np.cos(t) + 0.3 * np.sin(t) * np.cos(p), g)
            fld = add_gauge(UniformAxial(B=1.3), lam, g)
            ev = [spectrum(build_hamiltonian(HamiltonianRequest(surf, g, fld, coupling=cp)),
                           8).eigenvalues for cp in ("peierls", "expanded")]
            gaps.append(np.abs(ev[0] - ev[1]).max())
        assert gaps[1] <= gaps[0] / 3


def _expanded_terms_loop(g, a1, a2, c=PhysicalConstants()):
    """(i hbar e/2m)(T - T^H) + (e^2/2m)|A|^2 with T = diag(a) G node by node: G
    centered, periodic in azimuth, truncated at the cylinder walls.  The
    weights are uniform along every link used, so T^H is the weighted adjoint."""
    n1, n2, R = g.n1, g.n2, g.surface.R
    sph = g.surface.kind is SurfaceKind.SPHERE
    assert not (sph and np.any(a1))  # the sphere's polar links are not this formula's
    T = np.zeros((g.size, g.size))
    for j in range(n1):
        for k in range(n2):
            row = j * n2 + k
            if sph:  # phi links only
                h = R * np.sin(g.coords1[j]) * g.h2
                T[row, j * n2 + (k + 1) % n2] += a2[j, k] / (2 * h)
                T[row, j * n2 + (k - 1) % n2] -= a2[j, k] / (2 * h)
                continue
            T[row, ((j + 1) % n1) * n2 + k] += a1[j, k] / (2 * R * g.h1)
            T[row, ((j - 1) % n1) * n2 + k] -= a1[j, k] / (2 * R * g.h1)
            if n2 > 1:
                if k + 1 < n2:
                    T[row, row + 1] += a2[j, k] / (2 * g.h2)
                if k > 0:
                    T[row, row - 1] -= a2[j, k] / (2 * g.h2)
    pref = c.hbar * c.charge / (2 * c.mass)
    return 1j * pref * (T - T.T) + np.diag((c.charge**2 / (2 * c.mass)) * (a1**2 + a2**2).ravel())


def _expanded_cases():
    cases = [(kind, base, variant, spin) for kind in ("ring", "cylinder")
             for base in ("uniform", "ab", "sampled", "gauge")
             for variant in ("correct", "pragmatic") for spin in (False, True)]
    return cases + [("sphere", base, "correct", spin) for base in ("uniform", "ab")
                    for spin in (False, True)]


@pytest.mark.parametrize("kind, base, variant, spin", _expanded_cases())
def test_expanded_coupling_is_the_symmetrized_gradient_form(kind, base, variant, spin):
    # the expanded coupling's first-order hops reproduce, entrywise, the
    # symmetrization of diag(A) @ G on every link whose end weights agree
    from surfband.discretize import max_abs
    from surfband.fields import sample_potential

    surf = {"ring": ring(1.1), "cylinder": cylinder(1.1, 1.5), "sphere": sphere(1.2)}[kind]
    g = build_grid(surf, 24) if kind == "ring" else build_grid(surf, 10, 8)
    rng = np.random.default_rng(11)
    radial = dict(radial_component=0.4, radial_derivative=0.1)
    if base == "sampled":
        fld = Sampled(grid=g, a1=rng.uniform(-1, 1, (g.n1, g.n2)),
                      a2=rng.uniform(-1, 1, (g.n1, g.n2)), **radial)
    elif base == "gauge":
        lam = GaugeFunction.from_callable(lambda t, z: np.sin(t) * (1 + 0.5 * z) + 0.3 * z**2, g)
        fld = add_gauge(UniformAxial(B=1.3, **radial), lam, g)
    else:
        fld = UniformAxial(B=1.3, **radial) if base == "uniform" else ABFlux(Phi=0.8, **radial)
    req = HamiltonianRequest(surf, g, fld, spin, variant=variant, coupling="expanded")
    H = build_hamiltonian(req)
    free = build_hamiltonian(HamiltonianRequest(surf, g, ABFlux(Phi=0.0, **radial),
                                                variant=variant))
    ref = free.toarray() + _expanded_terms_loop(g, *sample_potential(fld, g))
    if spin:
        ref = np.kron(np.eye(2), ref) + zeeman_block(fld, g).entries.toarray()
    scale = max_abs(H.entries)
    assert np.abs(H.toarray() - ref).max() <= 1e-15 * scale
    if variant == "correct":
        sqw = np.sqrt(H.weights)
        sym = lambda A: A * sqw[:, None] / sqw[None, :]
        levels = np.linalg.eigvalsh(sym(H.toarray())), np.linalg.eigvalsh(sym(ref))
        assert np.abs(levels[0] - levels[1]).max() <= 1e-14 * scale + 1e-12


@pytest.mark.parametrize("kind", ["ring", "cylinder", "sphere"])
@pytest.mark.parametrize("base", ["uniform", "sampled"])
@pytest.mark.parametrize("coupling", ["peierls", "expanded"])
def test_assembly_peak_is_within_its_memory_charge(kind, base, coupling):
    # the charge build_grid makes per node covers a traced build, with spin and a gauge
    import tracemalloc

    from surfband.discretize import ASSEMBLY_BYTES_PER_NODE

    surf = {"ring": ring(1.1), "cylinder": cylinder(1.1, 1.5), "sphere": sphere(1.1)}[kind]

    def request(n):
        g = build_grid(surf, n * n) if kind == "ring" else build_grid(surf, n, n)
        th, c2 = g.coords1[:, None], g.coords2[None, :]
        fld = (UniformAxial(B=1.3) if base == "uniform"
               else Sampled(grid=g, a1=np.cos(th) + 0 * c2, a2=0.3 + 0 * th * c2))
        lam = GaugeFunction((0.7 * np.cos(th) + 0.3 * np.sin(th) * np.cos(c2)).ravel())
        return HamiltonianRequest(surf, g, add_gauge(fld, lam, g), True, coupling=coupling)

    build_hamiltonian(request(8))  # one-time allocations of the first build
    req = request(64)
    tracemalloc.start()
    try:
        build_hamiltonian(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / req.grid.size <= ASSEMBLY_BYTES_PER_NODE


class TestSampledFieldPaths:
    def test_materialized_uniform_matches_analytic_entrywise(self):
        # constant A_theta: trapezoid link values equal the midpoint ones
        from surfband.fields import materialize

        surf = cylinder(1.0, np.pi)
        g = build_grid(surf, 12, 10)
        fld = UniformAxial(B=1.3)
        Ha = build_hamiltonian(HamiltonianRequest(surf, g, fld))
        Hs = build_hamiltonian(HamiltonianRequest(surf, g, materialize(fld, g)))
        np.testing.assert_allclose(Ha.toarray(), Hs.toarray(), atol=1e-14)

    def test_constant_axial_component_is_pure_gauge(self):
        # A_z = const = grad(c z) on the cylinder: same spectrum as free
        from surfband.fields import Sampled

        surf = cylinder(1.0, np.pi)
        g = build_grid(surf, 12, 14)
        fld = Sampled(grid=g, a1=np.zeros((12, 14)), a2=np.full((12, 14), 0.7))
        ev = spectrum(build_hamiltonian(HamiltonianRequest(surf, g, fld)), 8).eigenvalues
        ev0 = spectrum(build_hamiltonian(HamiltonianRequest(surf, g)), 8).eigenvalues
        np.testing.assert_allclose(ev, ev0, atol=1e-12)

    def test_csv_field_builds_hermitian_operator(self, tmp_path):
        surf = cylinder(1.0, 1.0)
        g = build_grid(surf, 6, 6)
        rng = np.random.default_rng(8)
        lines = ["coord1,coord2,A_1,A_2"]
        for t in g.coords1:
            for z in g.coords2:
                lines.append(f"{t:.17g},{z:.17g},{rng.uniform(-1, 1):.17g},{rng.uniform(-1, 1):.17g}")
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines) + "\n")
        from surfband.fields import load_sampled_csv

        fld = load_sampled_csv(path, g)
        for coupling in ("peierls", "expanded"):
            H = build_hamiltonian(HamiltonianRequest(surf, g, fld, coupling=coupling))
            assert hermiticity_residual(H) <= 1e-12


class TestMagneticSphere:
    def test_zero_field_matches_free(self):
        surf = sphere(1.0)
        g = build_grid(surf, 16, 16)
        H = build_hamiltonian(HamiltonianRequest(surf, g, ABFlux(Phi=0.0)))
        H0 = build_hamiltonian(HamiltonianRequest(surf, g))
        np.testing.assert_allclose(H.toarray(), H0.toarray(), atol=1e-13)

    def test_uniform_axial_real_spectrum_and_hermitian(self):
        surf = sphere(1.0)
        g = build_grid(surf, 20, 20)
        H = build_hamiltonian(HamiltonianRequest(surf, g, UniformAxial(B=1.0)))
        assert hermiticity_residual(H) <= 1e-12
        rep = spectrum(H, 8)
        assert np.isrealobj(rep.eigenvalues)

    def test_gauge_shift_cos_theta_leaves_spectrum(self):
        from surfband.analysis import spectrum_gauge_invariance

        surf = sphere(1.0)
        g = build_grid(surf, 16, 16)
        lam = GaugeFunction.from_callable(lambda t, p: np.cos(t), g)
        builder = lambda f: build_hamiltonian(HamiltonianRequest(surf, g, f))
        assert max(spectrum_gauge_invariance(UniformAxial(B=1.0), lam, builder, 10, g)) < 1e-10


class TestPragmaticCylinder:
    def test_constant_radial_component_antihermitian_diagonal(self):
        from surfband.analysis import antihermitian_part

        a = 0.8
        req = ring_req(32, field=ABFlux(Phi=0.0, radial_component=a), variant="pragmatic")
        H = build_hamiltonian(req)
        anti, norm = antihermitian_part(H)
        # i (hbar e / 2m) a / R on the diagonal, nothing else
        np.testing.assert_allclose(np.diag(anti.toarray()), 1j * a / 2, atol=1e-15)
        off = anti.toarray() - np.diag(np.diag(anti.toarray()))
        assert np.abs(off).max() < 1e-15
        assert norm == pytest.approx(a / 2, abs=1e-14)
        assert hermiticity_residual(H) == pytest.approx(a, abs=1e-13)

    def test_cos_pattern_radial_component(self):
        from surfband.analysis import antihermitian_part

        surf = ring(1.0)
        g = build_grid(surf, 32)
        ar = 0.6 * np.cos(g.coords1).reshape(32, 1)
        req = HamiltonianRequest(surf, g, ABFlux(Phi=0.0, radial_component=ar),
                                 variant="pragmatic")
        anti, _ = antihermitian_part(build_hamiltonian(req))
        np.testing.assert_allclose(np.diag(anti.toarray()), 1j * 0.3 * np.cos(g.coords1),
                                   atol=1e-15)

    def test_radial_derivative_enters_diagonal(self):
        from surfband.analysis import antihermitian_part

        req = ring_req(16, field=ABFlux(Phi=0.0, radial_component=1.0,
                                        radial_derivative=0.5), variant="pragmatic")
        anti, norm = antihermitian_part(build_hamiltonian(req))
        np.testing.assert_allclose(np.diag(anti.toarray()), 1j * 0.75, atol=1e-15)

    def test_zero_field_misses_curvature_shift_exactly(self):
        req = ring_req(32, field=ABFlux(Phi=0.0), variant="pragmatic")
        Hp = build_hamiltonian(req)
        H0 = build_hamiltonian(ring_req(32))
        np.testing.assert_allclose(Hp.toarray() - H0.toarray(), 0.125 * np.eye(32), atol=1e-15)

    def test_hermitian_when_radial_component_vanishes(self):
        surf = cylinder(1.0, np.pi)
        g = build_grid(surf, 12, 10)
        req = HamiltonianRequest(surf, g, UniformAxial(B=1.0), variant="pragmatic")
        assert hermiticity_residual(build_hamiltonian(req)) <= 1e-12

    def test_expanded_correct_differs_by_shift_entrywise(self):
        # with A_r = 0 the pragmatic operator and the expanded correct one
        # are identical up to the missing curvature term
        surf = cylinder(1.0, np.pi)
        g = build_grid(surf, 12, 10)
        fld = UniformAxial(B=1.5)
        Hp = build_hamiltonian(HamiltonianRequest(surf, g, fld, variant="pragmatic",
                                                  coupling="expanded"))
        Hc = build_hamiltonian(HamiltonianRequest(surf, g, fld, coupling="expanded"))
        np.testing.assert_allclose(Hp.toarray() - Hc.toarray(), 0.125 * np.eye(g.size),
                                   atol=1e-15)

    def test_peierls_correct_differs_by_shift_entrywise(self):
        # the default coupling: the pragmatic operator takes the same link phases
        surf = cylinder(1.0, np.pi)
        g = build_grid(surf, 12, 10)
        fld = UniformAxial(B=1.5)
        Hp = build_hamiltonian(HamiltonianRequest(surf, g, fld, variant="pragmatic"))
        Hc = build_hamiltonian(HamiltonianRequest(surf, g, fld))
        assert "coupling=peierls" in Hp.label
        np.testing.assert_allclose(Hp.toarray() - Hc.toarray(), 0.125 * np.eye(g.size),
                                   atol=1e-15)

    def test_sphere_rejected(self):
        surf = sphere(1.0)
        g = build_grid(surf, 8, 8)
        with pytest.raises(ValueError):
            build_hamiltonian(HamiltonianRequest(surf, g, ABFlux(Phi=0.0),
                                                  variant="pragmatic"))


class TestZeeman:
    def test_uniform_field_eigenvalues(self):
        surf = ring(1.0)
        g = build_grid(surf, 8)
        zb = zeeman_block(UniformAxial(B=1.0), g)
        ev = np.linalg.eigvalsh(zb.toarray())
        np.testing.assert_allclose(ev, [-0.5] * 8 + [0.5] * 8, atol=1e-14)

    @pytest.mark.parametrize("surf", [ring(1.0), cylinder(1.0, 1.0), sphere(1.0)],
                             ids=["ring", "cylinder", "sphere"])
    def test_uniform_axial_field_is_sigma_z_everywhere(self, surf):
        # B along the fixed z axis: the local frame must rotate back to sigma_z at every node
        g = build_grid(surf, 6, 4)
        zb = zeeman_block(UniformAxial(B=2.0), g).toarray()
        np.testing.assert_allclose(zb, -np.kron(np.diag([1.0, -1.0]), np.eye(g.size)), atol=1e-14)

    @pytest.mark.parametrize("surf", [ring(1.0), cylinder(1.0, 1.0), sphere(1.0)],
                             ids=["ring", "cylinder", "sphere"])
    @pytest.mark.parametrize("base", ["uniform-axial", "ab-flux", "sampled"])
    def test_bands_equal_the_sum_of_pauli_products(self, surf, base):
        import scipy.sparse as sp

        from surfband.hamiltonians import _cartesian_field

        g = build_grid(surf, 9, 7)
        rng = np.random.default_rng(2)
        field = {"uniform-axial": UniformAxial(B=1.3), "ab-flux": ABFlux(Phi=0.4),
                 "sampled": Sampled(grid=g, a1=rng.uniform(-1, 1, (g.n1, g.n2)),
                                    a2=rng.uniform(-1, 1, (g.n1, g.n2)))}[base]
        pauli = (np.array([[0, 1], [1, 0]], dtype=complex),
                 np.array([[0, -1j], [1j, 0]], dtype=complex),
                 np.array([[1, 0], [0, -1]], dtype=complex))
        ref = sum(-0.5 * sp.kron(sig, sp.diags_array(B.ravel()))
                  for B, sig in zip(_cartesian_field(field, g), pauli))
        zb = zeeman_block(field, g).entries
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(zb, attr), getattr(ref, attr))

    def test_zero_field_zero_block(self):
        surf = ring(1.0)
        g = build_grid(surf, 8)
        zb = zeeman_block(UniformAxial(B=0.0), g)
        assert np.abs(zb.toarray()).max() == 0.0

    def test_traceless(self):
        surf = sphere(1.0)
        g = build_grid(surf, 8, 8)
        zb = zeeman_block(UniformAxial(B=2.0), g)
        assert abs(np.trace(zb.toarray())) < 1e-12

    def test_spin_splitting_exact(self):
        req = ring_req(32, field=UniformAxial(B=1.0), spin=True)
        ev_spin = spectrum(build_hamiltonian(req)).eigenvalues
        ev_orb = spectrum(build_hamiltonian(ring_req(32, field=UniformAxial(B=1.0)))).eigenvalues
        expect = np.sort(np.concatenate([ev_orb - 0.5, ev_orb + 0.5]))
        np.testing.assert_allclose(ev_spin, expect, atol=1e-12)


class TestRadialOperatorIdentities:
    @staticmethod
    def _bump(r, a, b):
        x = np.clip((2 * r - (a + b)) / (b - a), -1, 1)
        out = np.zeros_like(r)
        m = np.abs(x) < 1
        out[m] = np.exp(-1 / (1 - x[m] ** 2))
        return out

    def _identity_error(self, kind, n):
        r, h = open_radial_grid(0.5, 2.5, n)
        f = self._bump(r, 0.5, 2.5)
        p = hermitian_radial_momentum(r, h, kind)
        corr = 0.25 if kind == "cylinder" else 0.0
        lhs = radial_flux_laplacian(r, h, kind) @ f
        rhs = (p @ (p @ f)).real - (corr / r**2) * f
        interior = slice(4, n - 4)
        return np.abs(lhs[interior] - rhs[interior]).max()

    @pytest.mark.parametrize("kind", ["cylinder", "sphere"])
    def test_momentum_square_matches_flux_laplacian(self, kind):
        e1 = self._identity_error(kind, 200)
        e2 = self._identity_error(kind, 400)
        assert e1 < 0.05
        assert 1.7 <= np.log2(e1 / e2) <= 2.3  # stencil order

    def test_canonical_commutator(self):
        errs = []
        for n in (200, 400):
            r, h = open_radial_grid(0.5, 2.5, n)
            f = self._bump(r, 0.5, 2.5)
            p = hermitian_radial_momentum(r, h, "cylinder")
            comm = np.diag(r) @ p - p @ np.diag(r)
            res = comm @ f - 1j * f
            errs.append(np.abs(res[4:-4]).max() / np.abs(f).max())
        assert errs[0] < 5e-3
        assert 1.7 <= np.log2(errs[0] / errs[1]) <= 2.3

    def test_momentum_symmetric_under_radial_measure(self):
        # <u, p v> = <p u, v> with weights r^s dr, at stencil order on smooth data
        for kind, s in (("cylinder", 1), ("sphere", 2)):
            defects = []
            for n in (150, 300):
                r, h = open_radial_grid(0.5, 2.5, n)
                p = hermitian_radial_momentum(r, h, kind)
                u = self._bump(r, 0.5, 2.5) * np.exp(2j * r)
                v = self._bump(r, 0.5, 2.5) * np.exp(-3j * r)
                w = r**s * h
                lhs = np.sum(w * np.conj(u) * (p @ v))
                rhs = np.sum(w * np.conj(p @ u) * v)
                defects.append(abs(lhs - rhs))
            assert defects[0] < 1e-3
            assert defects[1] < defects[0] / 3.0

    @pytest.mark.parametrize("operator", [hermitian_radial_momentum, radial_flux_laplacian])
    def test_ring_is_the_cylinder_and_unknown_kinds_are_rejected(self, operator):
        # the ring is the z-frozen cylinder: the same measure exponent s = 1
        r, h = open_radial_grid(0.5, 2.5, 40)
        assert np.array_equal(operator(r, h, "ring"), operator(r, h, "cylinder"))
        assert not np.array_equal(operator(r, h, "sphere"), operator(r, h, "cylinder"))
        with pytest.raises(ValueError):
            operator(r, h, "spere")


_TABLE_GRIDS = {"ring": (ring(1.0), 8, 1), "cylinder": (cylinder(1.0, 1.0), 6, 6),
                "sphere": (sphere(1.0), 6, 8), "sphere-odd-n2": (sphere(1.0), 5, 7)}


def _supported(surface, has_field, variant, order):
    """The documented table of supported requests."""
    if variant == "pragmatic" and (not has_field or surface.startswith("sphere")):
        return False
    return order == 2 or not (has_field or surface in ("cylinder", "sphere-odd-n2"))


@pytest.mark.parametrize("spin", [False, True])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("coupling", ["peierls", "expanded"])
@pytest.mark.parametrize("variant", ["correct", "pragmatic"])
@pytest.mark.parametrize("has_field", [False, True])
@pytest.mark.parametrize("surface", sorted(_TABLE_GRIDS))
def test_validation_table(surface, has_field, variant, coupling, order, spin):
    surf, n1, n2 = _TABLE_GRIDS[surface]
    g = build_grid(surf, n1, n2)
    fld = UniformAxial(B=0.7) if has_field else None
    kw = dict(spin=spin, variant=variant, coupling=coupling, order=order)
    if not _supported(surface, has_field, variant, order):
        with pytest.raises(ValueError):
            HamiltonianRequest(surf, g, fld, **kw)
        return
    H = build_hamiltonian(HamiltonianRequest(surf, g, fld, **kw))
    name = "H_free" if fld is None else "H_correct" if variant == "correct" else "H_pragmatic"
    assert H.label.startswith(name + "[") and H.dim == g.size * (2 if spin else 1)
    if variant == "correct":
        assert hermiticity_residual(H) <= 1e-12 * np.abs(H.entries.data).max()


class TestRequestValidationAndDispatch:
    def test_pragmatic_requires_field(self):
        surf = ring(1.0)
        g = build_grid(surf, 8)
        with pytest.raises(ValueError, match="requires a field"):
            HamiltonianRequest(surf, g, None, variant="pragmatic")

    def test_dispatch(self):
        surf = sphere(1.0)
        g = build_grid(surf, 8, 8)
        H = build_hamiltonian(HamiltonianRequest(surf, g, UniformAxial(B=1.0)))
        assert "sphere" in H.label
        Hp = build_hamiltonian(ring_req(8, field=ABFlux(Phi=0.0), variant="pragmatic"))
        assert "pragmatic" in Hp.label.lower()

    def test_magnetic_builders_order2_only(self):
        with pytest.raises(ValueError, match="order 2"):
            build_hamiltonian(ring_req(8, field=UniformAxial(B=1.0), order=4))

    def test_grid_surface_mismatch(self):
        g = build_grid(ring(1.0), 8)
        with pytest.raises(ValueError):
            HamiltonianRequest(sphere(1.0), g)

    @pytest.mark.parametrize("choice, message", [
        (dict(variant="exact"), "unknown variant 'exact'"),
        (dict(coupling="minimal"), "unknown coupling 'minimal'"),
        (dict(order=3), "stencil order must be 2 or 4"),
    ], ids=["variant", "coupling", "order"])
    def test_unknown_choice_rejected(self, choice, message):
        with pytest.raises(ValueError, match=message):
            ring_req(8, **choice)
