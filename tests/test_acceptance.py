"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (or -s for the inline lines).
Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from surfband.analysis import (
    analytic_cylinder_landau,
    analytic_ring_spectrum,
    antihermitian_part,
    spectrum,
)
from surfband.cli import main
from surfband.discretize import build_grid, hermiticity_residual
from surfband.fields import ABFlux, GaugeFunction, UniformAxial, add_gauge
from surfband.geometry import (
    PhysicalConstants,
    cylinder,
    geometric_kinetic_energy,
    ring,
    sphere,
)
from surfband.hamiltonians import (
    HamiltonianRequest,
    build_hamiltonian,
    hermitian_radial_momentum,
    open_radial_grid,
    radial_flux_laplacian,
)
from surfband.thinlayer import gke_extrapolate

D_SEQUENCE = [0.1, 0.05, 0.025, 0.0125]


def _report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def test_c01_curvature_energy_values():
    """Closed-form curvature shift on cylinder/ring, zero on sphere."""
    for R in (0.5, 1.0, 2.0):
        target = -1.0 / (8 * R * R)
        assert geometric_kinetic_energy(cylinder(R, 1.0)) == target
        assert geometric_kinetic_energy(ring(R)) == target
        assert geometric_kinetic_energy(sphere(R)) == 0.0
    _report(1, "shift = -hbar^2/(8mR^2) on cylinder/ring and 0 on sphere, R in {0.5,1,2}")


def test_c02_thin_layer_emergence():
    """Richardson d->0 limit reproduces the shift within 1e-6, in under 30 s."""
    t0 = time.monotonic()
    worst_cyl = 0.0
    for l in (0, 1, 2):
        limit, _ = gke_extrapolate(cylinder(1.0, 1.0), l, D_SEQUENCE)
        worst_cyl = max(worst_cyl, abs(limit + 0.125))
    worst_sph = 0.0
    for l in (0, 1, 2):
        limit, _ = gke_extrapolate(sphere(1.0), l, D_SEQUENCE)
        worst_sph = max(worst_sph, abs(limit))
    elapsed = time.monotonic() - t0
    assert worst_cyl < 1e-6
    assert worst_sph < 1e-6
    assert elapsed <= 30.0
    _report(2, f"cylinder dev {worst_cyl:.2e}, sphere dev {worst_sph:.2e}, {elapsed:.1f}s")


def test_c03_hermiticity_dichotomy():
    """Correct variants are weighted-Hermitian to 1e-12; the surface-restricted
    operator with A_r = a has exactly the i(hbar e/2m)(a/R) diagonal."""
    worst = 0.0
    surf_c = cylinder(1.0, np.pi)
    g_c = build_grid(surf_c, 24, 20)
    surf_s = sphere(1.0)
    g_s = build_grid(surf_s, 32, 32)
    surf_r = ring(1.0)
    g_r = build_grid(surf_r, 64)
    cases = []
    for coupling in ("peierls", "expanded"):
        cases += [
            HamiltonianRequest(surf_r, g_r, None),
            HamiltonianRequest(surf_r, g_r, UniformAxial(B=2.0), coupling=coupling),
            HamiltonianRequest(surf_r, g_r, ABFlux(Phi=1.1), coupling=coupling),
            HamiltonianRequest(surf_c, g_c, UniformAxial(B=1.0), coupling=coupling),
            HamiltonianRequest(surf_c, g_c, UniformAxial(B=1.0), spin=True, coupling=coupling),
            HamiltonianRequest(surf_s, g_s, UniformAxial(B=1.0), coupling=coupling),
            HamiltonianRequest(surf_s, g_s, UniformAxial(B=1.0), spin=True, coupling=coupling),
        ]
    cases.append(HamiltonianRequest(surf_c, g_c, None))
    cases.append(HamiltonianRequest(surf_s, g_s, None))
    cases.append(HamiltonianRequest(surf_s, g_s, None, order=4))
    for req in cases:
        r = hermiticity_residual(build_hamiltonian(req))
        worst = max(worst, r)
    assert worst <= 1e-12

    a = 0.7
    req = HamiltonianRequest(surf_r, g_r, ABFlux(Phi=0.0, radial_component=a),
                             variant="pragmatic")
    anti, _ = antihermitian_part(build_hamiltonian(req))
    target = 1j * a / 2  # (hbar e / 2m)(a/R), natural units, R = 1
    assert np.abs(np.diag(anti.toarray()) - target).max() <= 1e-14
    off = anti.toarray() - np.diag(np.diag(anti.toarray()))
    assert np.abs(off).max() <= 1e-14
    _report(3, f"worst correct-variant residual {worst:.2e}; "
               f"anti-Hermitian diagonal exact to 1e-14")


def test_c04_gauge_covariance():
    """Stencil-consistent gauge shift = exact unitary conjugation, 1e-10."""
    c = PhysicalConstants()
    results = {}
    for label, surf, g, lam_fn in (
        ("cylinder", cylinder(1.0, np.pi), None, lambda t, z: np.sin(t) * z),
        ("sphere", sphere(1.0), None, lambda t, p: np.cos(t) + 0.5 * np.sin(t) * np.cos(p)),
    ):
        g = build_grid(surf, 24, 24)
        field = UniformAxial(B=1.0)
        build = lambda f: build_hamiltonian(HamiltonianRequest(surf, g, f))
        lam = GaugeFunction.from_callable(lam_fn, g)
        H0 = build(field)
        H1 = build(add_gauge(field, lam, g))
        u = np.exp(1j * (c.charge / c.hbar) * lam.grid_values(g).ravel())
        conj = (u[:, None] * H0.toarray()) * np.conj(u)[None, :]
        op_resid = np.abs(H1.toarray() - conj).max()
        ev0 = spectrum(H0, 10).eigenvalues
        ev1 = spectrum(H1, 10).eigenvalues
        ev_resid = np.abs(ev1 - ev0).max()
        assert op_resid <= 1e-10, f"{label}: operator residual {op_resid}"
        assert ev_resid <= 1e-10, f"{label}: eigenvalue residual {ev_resid}"
        results[label] = (op_resid, ev_resid)
    _report(4, "; ".join(f"{k}: op {v[0]:.1e}, eig {v[1]:.1e}" for k, v in results.items()))


def test_c05_ring_flux_spectrum():
    """Grid matches the derived ring formula within the stencil deficit;
    half-quantum degeneracy and full-quantum periodicity to 1e-10."""
    n = 64
    c = PhysicalConstants()
    g = build_grid(ring(1.0), n)
    alpha = 0.3
    h = 2 * np.pi / n

    ev = spectrum(build_hamiltonian(
        HamiltonianRequest(g.surface, g, ABFlux(Phi=alpha * c.flux_quantum)))).eigenvalues
    ls = np.arange(-(n // 2), n - n // 2)
    ana = analytic_ring_spectrum(1.0, alpha * c.flux_quantum, ls)
    deficit = np.abs(0.5 * (ls - alpha) ** 2 - (1 - np.cos(h * (ls - alpha))) / h**2)
    order = np.argsort(ana)
    assert np.all(np.abs(ev - ana[order]) <= deficit[order] + 1e-12)

    ev_half = spectrum(build_hamiltonian(
        HamiltonianRequest(g.surface, g, ABFlux(Phi=c.flux_quantum / 2))), 2).eigenvalues
    assert abs(ev_half[0] - ev_half[1]) <= 1e-10

    ev_a = spectrum(build_hamiltonian(
        HamiltonianRequest(g.surface, g, ABFlux(Phi=0.3 * c.flux_quantum)))).eigenvalues
    ev_b = spectrum(build_hamiltonian(
        HamiltonianRequest(g.surface, g, ABFlux(Phi=1.3 * c.flux_quantum)))).eigenvalues
    period = np.abs(ev_a - ev_b).max()
    assert period <= 1e-10
    _report(5, f"deficit-bounded match; degeneracy gap {abs(ev_half[0]-ev_half[1]):.1e}; "
               f"flux periodicity {period:.1e}")


def test_c06_cylinder_landau_oracle():
    """k_z = 0 sector (the z-frozen ring section) against the completed-square
    formula: 1e-3 at n = 64, improving at the stencil order."""
    B = 2.0
    errs = {}
    for n in (64, 128):
        g = build_grid(ring(1.0), n)
        ev = spectrum(build_hamiltonian(
            HamiltonianRequest(g.surface, g, UniformAxial(B=B))), 3).eigenvalues
        ana = sorted(analytic_cylinder_landau(1.0, B, l, 0.0) for l in range(-3, 4))[:3]
        errs[n] = np.abs(ev - ana).max()
    assert errs[64] <= 1e-3
    p = np.log2(errs[64] / errs[128])
    assert 1.7 <= p <= 2.3
    _report(6, f"err(64) = {errs[64]:.2e}, measured order {p:.2f}")


def test_c07_sphere_free_spectrum():
    """Eigenvalue clusters l(l+1)/2 with multiplicity 2l+1 for l <= 3,
    within 1e-3 on a 64x64 grid (exposed stencil order 4)."""
    surf = sphere(1.0)
    g = build_grid(surf, 64, 64)
    H = build_hamiltonian(HamiltonianRequest(surf, g, order=4))
    ev = spectrum(H, 16).eigenvalues
    exact = np.array([l * (l + 1) / 2 for l in range(4) for _ in range(2 * l + 1)])
    worst = np.abs(ev - exact).max()
    assert worst <= 1e-3
    # multiplicity: each cluster separated from the next by >> tolerance
    for l in range(4):
        lo, hi = l * l, l * l + 2 * l + 1
        assert np.all(np.abs(ev[lo:hi] - l * (l + 1) / 2) <= 1e-3)
    _report(7, f"clusters l<=3 within {worst:.2e}, multiplicities 1/3/5/7")


def test_c08_zeeman_splitting():
    """Uniform B with spin: every orbital level splits by exactly e hbar |B|/m."""
    worst = 0.0
    for surf, g in ((ring(1.0), build_grid(ring(1.0), 32)),
                    (cylinder(1.0, np.pi), build_grid(cylinder(1.0, np.pi), 12, 10))):
        B = 1.0
        ev_orb = spectrum(build_hamiltonian(
            HamiltonianRequest(surf, g, UniformAxial(B=B)))).eigenvalues
        ev_spin = spectrum(build_hamiltonian(
            HamiltonianRequest(surf, g, UniformAxial(B=B), spin=True))).eigenvalues
        expect = np.sort(np.concatenate([ev_orb - B / 2, ev_orb + B / 2]))
        worst = max(worst, np.abs(ev_spin - expect).max())
    assert worst <= 1e-12
    _report(8, f"splitting exact to {worst:.2e}")


def test_c09_operator_identities():
    """Radial-momentum identities and the canonical commutator converge at
    the stencil order (error halving ratio 2^p within 0.3 in the exponent)."""

    def bump(r, a, b):
        x = np.clip((2 * r - (a + b)) / (b - a), -1, 1)
        out = np.zeros_like(r)
        m = np.abs(x) < 1
        out[m] = np.exp(-1 / (1 - x[m] ** 2))
        return out

    reports = []
    for kind, corr in (("cylinder", 0.25), ("sphere", 0.0)):
        errs = []
        for n in (200, 400):
            r, h = open_radial_grid(0.5, 2.5, n)
            f = bump(r, 0.5, 2.5)
            p_op = hermitian_radial_momentum(r, h, kind)
            lhs = radial_flux_laplacian(r, h, kind) @ f
            rhs = (p_op @ (p_op @ f)).real - (corr / r**2) * f
            errs.append(np.abs((lhs - rhs)[4:-4]).max())
        rate = np.log2(errs[0] / errs[1])
        assert 1.7 <= rate <= 2.3, f"{kind} identity order {rate}"
        reports.append(f"{kind} p_r^2 identity order {rate:.2f}")

    errs = []
    for n in (200, 400):
        r, h = open_radial_grid(0.5, 2.5, n)
        f = bump(r, 0.5, 2.5)
        p_op = hermitian_radial_momentum(r, h, "cylinder")
        res = (np.diag(r) @ p_op - p_op @ np.diag(r)) @ f - 1j * f
        errs.append(np.abs(res[4:-4]).max() / np.abs(f).max())
    rate = np.log2(errs[0] / errs[1])
    assert 1.7 <= rate <= 2.3
    reports.append(f"commutator order {rate:.2f}")
    _report(9, "; ".join(reports))


def test_c10_cli_determinism(tmp_path):
    """Identical configs produce byte-identical reports."""
    path = tmp_path / "report.json"
    args = ["spectrum", "--surface", "sphere", "--R", "1", "--n", "16",
            "--field", "uniform-axial", "--B", "1", "--k", "6",
            "--output", str(path)]
    blobs = []
    for _ in range(2):
        assert main(list(args)) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    _report(10, f"two runs, {len(blobs[0])} identical bytes")
