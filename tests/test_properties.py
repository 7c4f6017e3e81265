"""Property tests over random grids, fields and gauges.

Every correct operator must be weighted-Hermitian, gauge shifts must act as
exact unitary conjugations, and the Zeeman block must not see the gauge,
whatever the surface, grid size (odd sizes included), base field or gauge
function.  The pinned examples are the gauge-shifted Sampled fields on which
the gauge used to be counted twice.  The pragmatic operator's anti-Hermitian
part must be its i(hbar e/2m)(A_r/R + dA_r/dr) diagonal and nothing else,
it must differ from the correct operator of the same coupling only on the
diagonal, its shifted solve must equal dense eig when A_r is uniform, ring
spectra must repeat with period Phi0 in the enclosed flux, and the sector
solve of any axisymmetric operator, gauge-shifted or not, must equal dense
eigvalsh.  Operators no diagonal gauge makes axisymmetric keep their path.
The sparse solver's first shift must lie below the spectrum of any weighted
Hermitian operator, with no negative pivot.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from surfband import analysis
from surfband.analysis import antihermitian_part, gauge_covariance_residual, spectrum
from surfband.cli import _LAM_PRESETS
from surfband.discretize import (OperatorMatrix, build_grid, hermiticity_residual, max_abs,
                                 weighted_norm)
from surfband.fields import ABFlux, GaugeFunction, Sampled, UniformAxial, add_gauge
from surfband.geometry import PhysicalConstants, cylinder, ring, sphere
from surfband.hamiltonians import COUPLINGS, HamiltonianRequest, build_hamiltonian, zeeman_block

SURFACES = {"ring": lambda R: ring(R), "cylinder": lambda R: cylinder(R, 1.0),
            "sphere": lambda R: sphere(R)}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(SURFACES)), n1=st.integers(3, 12), n2=st.integers(3, 12),
       R=st.floats(0.5, 2.0), base=st.sampled_from(["sampled", "uniform-axial", "ab-flux"]),
       strength=st.floats(-2.0, 2.0), spin=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(kind="ring", n1=24, n2=1, R=1.0, base="sampled", strength=1.0, spin=True, seed=1)
@example(kind="cylinder", n1=16, n2=12, R=1.0, base="sampled", strength=1.0, spin=True, seed=2)
@example(kind="sphere", n1=12, n2=16, R=1.0, base="sampled", strength=1.0, spin=True, seed=3)
def test_hermitian_gauge_covariant_and_zeeman_gauge_free(kind, n1, n2, R, base, strength,
                                                        spin, seed):
    surf = SURFACES[kind](R)
    g = build_grid(surf, n1, n2)
    rng = np.random.default_rng(seed)
    shape = (g.n1, g.n2)
    if base == "sampled":
        field = Sampled(grid=g, a1=strength * rng.uniform(-1, 1, shape),
                        a2=strength * rng.uniform(-1, 1, shape))
    elif base == "uniform-axial":
        field = UniformAxial(B=strength)
    else:
        field = ABFlux(Phi=strength)
    lam = GaugeFunction(rng.uniform(-3, 3, shape))
    shifted = add_gauge(field, lam, g)
    builder = lambda f: build_hamiltonian(HamiltonianRequest(surf, g, f, spin))

    H = builder(shifted)
    assert hermiticity_residual(H) <= 1e-12 * max_abs(H.entries)

    psi = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    psi /= weighted_norm(psi, H.weights)
    assert gauge_covariance_residual(field, lam, builder, psi, g) <= 1e-10

    z0 = zeeman_block(field, g).entries
    z1 = zeeman_block(shifted, g).entries
    assert max_abs(z1 - z0) == 0.0


def _pragmatic_field(g, base, strength, rng, a_r, da_r):
    kw = dict(radial_component=a_r, radial_derivative=da_r)
    if base == "sampled":
        shape = (g.n1, g.n2)
        return Sampled(grid=g, a1=strength * rng.uniform(-1, 1, shape),
                       a2=strength * rng.uniform(-1, 1, shape), **kw)
    if base == "uniform-axial":
        return UniformAxial(B=strength, **kw)
    return ABFlux(Phi=strength, **kw)


PRAGMATIC = dict(kind=st.sampled_from(["ring", "cylinder"]), n1=st.integers(3, 12),
                 n2=st.integers(3, 12), R=st.floats(0.5, 2.0),
                 base=st.sampled_from(["sampled", "uniform-axial", "ab-flux"]),
                 strength=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**PRAGMATIC)
def test_pragmatic_antihermitian_part_is_the_radial_diagonal(kind, n1, n2, R, base, strength,
                                                             seed):
    surf = SURFACES[kind](R)
    g = build_grid(surf, n1, n2)
    rng = np.random.default_rng(seed)
    a_r, da_r = rng.uniform(-2, 2, (2, g.n1, g.n2))
    field = _pragmatic_field(g, base, strength, rng, a_r, da_r)
    H = build_hamiltonian(HamiltonianRequest(surf, g, field, variant="pragmatic"))
    anti, _ = antihermitian_part(H)
    c = PhysicalConstants()
    target = 1j * (c.hbar * c.charge / (2 * c.mass)) * (a_r / R + da_r).ravel()
    diag = anti.entries.diagonal()
    assert np.all(np.abs(diag - target) <= 1e-14 * np.maximum(1.0, np.abs(target)))
    assert max_abs(anti.entries - sp.diags_array(diag)) <= 1e-14


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(**PRAGMATIC, gauge=st.booleans(), spin=st.booleans(),
       coupling=st.sampled_from(COUPLINGS))
@example(kind="cylinder", n1=9, n2=7, R=1.0, base="uniform-axial", strength=1.3, seed=4,
         gauge=False, spin=False, coupling="peierls")
def test_pragmatic_minus_correct_is_the_radial_diagonal(kind, n1, n2, R, base, strength, seed,
                                                        gauge, spin, coupling):
    surf = SURFACES[kind](R)
    g = build_grid(surf, n1, n2)
    rng = np.random.default_rng(seed)
    a_r, da_r = rng.uniform(-2, 2, (2, g.n1, g.n2))
    field = _pragmatic_field(g, base, strength, rng, a_r, da_r)
    if gauge:
        field = add_gauge(field, GaugeFunction(rng.uniform(-3, 3, (g.n1, g.n2))), g)
    build = lambda variant: build_hamiltonian(
        HamiltonianRequest(surf, g, field, spin, variant=variant, coupling=coupling)).entries
    Hp, Hc = build("pragmatic"), build("correct")
    c = PhysicalConstants()
    radial = ((c.charge**2 / (2 * c.mass)) * a_r**2
              + 1j * (c.hbar * c.charge / (2 * c.mass)) * (a_r / R + da_r)).ravel()
    diff = np.tile(radial + c.hbar**2 / (8 * c.mass * R**2), 2 if spin else 1)
    # round-off scales with the larger operator: on a coarse ring of large R
    # the radial diagonal can outweigh every entry of Hc
    scale = max(max_abs(Hp), max_abs(Hc))
    assert max_abs(Hp - Hc - sp.diags_array(diff)) <= 1e-14 * scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**PRAGMATIC, a_r=st.floats(-2.0, 2.0), da_r=st.floats(-2.0, 2.0), k=st.integers(1, 144))
def test_shifted_solve_equals_dense_eig_for_uniform_radial_component(kind, n1, n2, R, base,
                                                                    strength, seed, a_r, da_r,
                                                                    k):
    surf = SURFACES[kind](R)
    g = build_grid(surf, n1, n2)
    field = _pragmatic_field(g, base, strength, np.random.default_rng(seed), a_r, da_r)
    H = build_hamiltonian(HamiltonianRequest(surf, g, field, variant="pragmatic"))
    k = min(k, H.dim)
    rep = spectrum(H, k)
    ref = np.linalg.eig(H.toarray())[0]
    ref = ref[np.lexsort((ref.imag, ref.real))][:k]
    bound = 1e-14 * max_abs(H.entries) + 1e-12
    im = H.entries.diagonal()[0].imag
    # any nonzero A_r/R + dA_r/dr, however small, takes the shifted path; an
    # axisymmetric base (and a Sampled one that happens to be) the sector path
    shifted = im != 0.0
    paths = ("sector-eigh",) if base != "sampled" else ("sector-eigh", "dense-eigh")
    assert rep.solver in tuple(("shifted-" if shifted else "") + p for p in paths)
    assert np.all(rep.eigenvalues.imag == (im if shifted else 0.0))
    assert np.abs(rep.eigenvalues.real - ref.real).max() <= bound
    assert np.abs(ref.imag - im).max() <= bound


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 48), R=st.floats(0.5, 2.0), phi=st.floats(-2.0, 2.0),
       periods=st.integers(-3, 3), spin=st.booleans())
def test_ring_spectrum_is_periodic_in_the_flux(n, R, phi, periods, spin):
    c = PhysicalConstants()
    g = build_grid(ring(R), n)
    ops = [build_hamiltonian(HamiltonianRequest(g.surface, g, ABFlux(Phi=p), spin))
           for p in (phi, phi + periods * c.flux_quantum)]
    ev0, ev1 = (spectrum(H).eigenvalues for H in ops)
    assert np.abs(ev1 - ev0).max() <= 1e-12 * max_abs(ops[0].entries)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(SURFACES)), n1=st.integers(3, 14), n2=st.integers(3, 13),
       R=st.floats(0.5, 2.0), base=st.sampled_from(["none", "uniform-axial", "ab-flux"]),
       strength=st.floats(-3.0, 3.0), spin=st.booleans(), k_frac=st.floats(0.0, 1.0),
       full=st.booleans())
@example(kind="sphere", n1=6, n2=7, R=1.0, base="uniform-axial", strength=1.0, spin=False,
         k_frac=0.3, full=False)
@example(kind="cylinder", n1=9, n2=5, R=1.0, base="ab-flux", strength=0.5, spin=True,
         k_frac=0.0, full=True)
# the spin sphere in a uniform field, whose Zeeman x, y parts must be exact zeros
@example(kind="sphere", n1=16, n2=16, R=1.0, base="uniform-axial", strength=1.3, spin=True,
         k_frac=0.02, full=False)
@example(kind="sphere", n1=24, n2=24, R=1.0, base="uniform-axial", strength=1.3, spin=True,
         k_frac=0.01, full=False)
@example(kind="sphere", n1=32, n2=32, R=1.0, base="uniform-axial", strength=1.3, spin=True,
         k_frac=0.005, full=False)
def test_sector_solve_equals_dense_eigvalsh(kind, n1, n2, R, base, strength, spin, k_frac, full):
    surf = SURFACES[kind](R)
    g = build_grid(surf, n1, n2)
    field = {"none": None, "uniform-axial": UniformAxial(B=strength),
             "ab-flux": ABFlux(Phi=strength)}[base]
    H = build_hamiltonian(HamiltonianRequest(surf, g, field, spin))
    k = H.dim if full else 1 + int(k_frac * (H.dim - 1))
    rep = spectrum(H, k)
    assert rep.solver == "sector-eigh"
    assert rep.eigen_residual <= 1e-12
    sqw = np.sqrt(H.weights)
    ref = np.linalg.eigvalsh((sp.diags_array(sqw) @ H.entries @ sp.diags_array(1 / sqw))
                             .toarray())[:k]
    assert np.abs(rep.eigenvalues - ref).max() <= 1e-14 * max_abs(H.entries) + 1e-12
    breaks = lambda ev: np.flatnonzero(np.diff(ev) > 1e-9).tolist()
    assert breaks(rep.eigenvalues) == breaks(ref)  # equal multiplicities


def _smooth_gauge(kind, rng):
    """A random smooth single-valued lambda: two azimuthal harmonics whose
    amplitudes vary along the other coordinate, plus a per-orbit constant."""
    a = rng.uniform(-1, 1, (2, 2, 2))

    def lam(c1, c2):
        az, other = (c2, np.cos(c1)) if kind == "sphere" else (c1, c2)
        return a[0, 0, 0] * other**2 + sum(
            (a[m, 0, 0] + a[m, 0, 1] * other) * np.cos((m + 1) * az)
            + (a[m, 1, 0] + a[m, 1, 1] * other) * np.sin((m + 1) * az) for m in range(2))
    return lam


def _without_layout(H):
    return OperatorMatrix(H.entries, H.weights, H.label)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(SURFACES)), n1=st.integers(3, 14), n2=st.integers(3, 13),
       R=st.floats(0.5, 2.0), base=st.sampled_from(["uniform-axial", "ab-flux"]),
       strength=st.floats(-3.0, 3.0), lam=st.sampled_from([*_LAM_PRESETS, "smooth"]),
       amp=st.floats(0.1, 3.0), spin=st.booleans(), k_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
# the size, field, gauge and k of the cylinder-gauge-spin workload
@example(kind="cylinder", n1=32, n2=32, R=1.0, base="uniform-axial", strength=1.2,
         lam="sin-theta-z", amp=1.0, spin=True, k_frac=0.0075, seed=0)
def test_gauge_fixed_sector_solve_equals_dense_eigvalsh(kind, n1, n2, R, base, strength, lam,
                                                        amp, spin, k_frac, seed):
    # lambda ~ phi * sin(theta) is not single-valued on the sphere
    assume(not (kind == "sphere" and lam == "sin-theta-z"))
    surf = SURFACES[kind](R)
    g = build_grid(surf, n1, n2)
    fn = _smooth_gauge(kind, np.random.default_rng(seed)) if lam == "smooth" \
        else _LAM_PRESETS[lam](1.0)
    # links a -> a + 1 turn by less than pi/2, so no orbit's phases wrap
    values = GaugeFunction.from_callable(fn, g).grid_values(g)
    turn = np.abs(values - np.roll(values, -1, axis=1 if kind == "sphere" else 0)).max()
    amp = min(amp, 1.5 / turn) if turn else amp
    gauge = GaugeFunction.from_callable(lambda c1, c2: amp * fn(c1, c2), g, lam)
    field = UniformAxial(B=strength) if base == "uniform-axial" else ABFlux(Phi=strength)
    H = build_hamiltonian(HamiltonianRequest(surf, g, add_gauge(field, gauge, g), spin))
    k = 1 + int(k_frac * (H.dim - 1))
    rep = spectrum(H, k)
    assert rep.solver == "sector-eigh"
    assert rep.eigen_residual <= 1e-12
    sqw = np.sqrt(H.weights)
    ref = np.linalg.eigvalsh((sp.diags_array(sqw) @ H.entries @ sp.diags_array(1 / sqw))
                             .toarray())[:k]
    assert np.abs(rep.eigenvalues - ref).max() <= 1e-14 * max_abs(H.entries) + 1e-12
    breaks = lambda ev: np.flatnonzero(np.diff(ev) > 1e-9).tolist()
    assert breaks(rep.eigenvalues) == breaks(ref)  # equal multiplicities


@pytest.mark.parametrize("kind", sorted(SURFACES))
@pytest.mark.parametrize("spin", [False, True])
def test_expanded_coupling_with_a_gauge_keeps_its_solver(kind, spin):
    # covariant only to stencil order: no diagonal unitary makes it axisymmetric
    surf = SURFACES[kind](1.1)
    g = build_grid(surf, 12, 10)
    lam = GaugeFunction.from_callable(_smooth_gauge(kind, np.random.default_rng(3)), g)
    H = build_hamiltonian(HamiltonianRequest(surf, g, add_gauge(UniformAxial(B=1.3), lam, g),
                                             spin, coupling="expanded"))
    rep, bare = spectrum(H, 8), spectrum(_without_layout(H), 8)
    assert rep.solver == bare.solver == "dense-eigh"
    np.testing.assert_array_equal(rep.eigenvalues, bare.eigenvalues)


def test_radial_component_varying_in_theta_keeps_its_solver():
    # A_r/R + dA_r/dr is uniform, so the anti-Hermitian part is i c I, but the
    # Hermitian part carries e^2 A_r(theta)^2 / 2m, which no gauge removes
    surf = cylinder(1.1, 1.5)
    g = build_grid(surf, 12, 10)
    a_r = np.repeat(0.5 + 0.3 * np.cos(g.coords1)[:, None], g.n2, axis=1)
    field = ABFlux(Phi=0.4, radial_component=a_r, radial_derivative=0.7 - a_r / surf.R)
    H = build_hamiltonian(HamiltonianRequest(surf, g, field, variant="pragmatic"))
    rep, bare = spectrum(H, 8), spectrum(_without_layout(H), 8)
    assert rep.solver == bare.solver == "shifted-dense-eigh"
    np.testing.assert_array_equal(rep.eigenvalues, bare.eigenvalues)


@pytest.mark.parametrize("kind, solver", [("ring", "sector-eigh"),
                                          ("cylinder", "sparse-shift-invert")])
def test_sign_gauge_takes_sectors_only_when_the_orbit_twists_agree(kind, solver):
    # a random +-1 gauge wraps the link phases; the ring's one orbit (per spin)
    # absorbs any twist, but the cylinder's orbits disagree and keep the sparse path
    surf = SURFACES[kind](1.0)
    g = build_grid(surf, 600 if kind == "ring" else 24, 24)
    H = build_hamiltonian(HamiltonianRequest(surf, g, UniformAxial(B=1.0)))
    u = sp.diags_array(np.random.default_rng(0).choice([-1.0, 1.0], H.dim))
    shifted = OperatorMatrix(u @ H.entries @ u, H.weights, H.label, H.layout)
    rep, ref = spectrum(shifted, 16), spectrum(H, 16)
    assert rep.solver == solver
    assert np.abs(rep.eigenvalues - ref.eigenvalues).max() <= 1e-14 * max_abs(H.entries) + 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(24, 80), density=st.floats(0.02, 0.3), complex_links=st.booleans(),
       decades=st.floats(0.0, 4.0), offset=st.floats(-50.0, 50.0), k_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_first_shift_lies_below_any_weighted_hermitian_spectrum(n, density, complex_links,
                                                                decades, offset, k_frac, seed):
    # diagonals of both signs (Zeeman, the curvature shift) and mixed-sign
    # real or complex couplings (order-4 stencils, spin flips), under weights
    # spread over up to four decades
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1, 1, (n, n)) * (rng.random((n, n)) < density)
    if complex_links:
        M = M + 1j * rng.uniform(-1, 1, (n, n)) * (M != 0)
    S = sp.csr_array(0.5 * (M + M.conj().T) + np.diag(offset + rng.uniform(-5, 5, n)))
    sqw = np.sqrt(10.0 ** rng.uniform(-decades / 2, decades / 2, n))
    k = 1 + int(k_frac * (n // 4 - 1))
    shifts = []
    factor = analysis._factor

    def recording(S, sigma):
        shifts.append(sigma)
        return factor(S, sigma)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_factor", recording)
        ev, _ = analysis._shift_invert(S, k, sqw, max_abs(S), "random")
    exact = np.linalg.eigvalsh(S.toarray())
    assert shifts[0] < exact[0]
    assert factor(S, shifts[0])[1] == 0
    assert np.abs(ev - exact[:k]).max() <= 1e-12 * max_abs(S)
