"""Property tests over random grids, fields and gauges.

Every correct operator must be weighted-Hermitian, gauge shifts must act as
exact unitary conjugations, and the Zeeman block must not see the gauge,
whatever the surface, grid size (odd sizes included), base field or gauge
function.  The pinned examples are the gauge-shifted Sampled fields on which
the gauge used to be counted twice.  The pragmatic operator's anti-Hermitian
part must be its i(hbar e/2m)(A_r/R + dA_r/dr) diagonal and nothing else,
its shifted solve must equal dense eig when A_r is uniform, ring
spectra must repeat with period Phi0 in the enclosed flux, and the sector
solve of any axisymmetric operator must equal dense eigvalsh.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfband.analysis import antihermitian_part, gauge_covariance_residual, spectrum
from surfband.discretize import build_grid, hermiticity_residual, max_abs, weighted_norm
from surfband.fields import ABFlux, GaugeFunction, Sampled, UniformAxial, add_gauge
from surfband.geometry import PhysicalConstants, cylinder, ring, sphere
from surfband.hamiltonians import HamiltonianRequest, build_hamiltonian, zeeman_block

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
    psi /= weighted_norm(psi, H.full_weights())
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
def test_sector_solve_equals_dense_eigvalsh(kind, n1, n2, R, base, strength, spin, k_frac, full):
    surf = SURFACES[kind](R)
    g = build_grid(surf, n1, n2)
    field = {"none": None, "uniform-axial": UniformAxial(B=strength),
             "ab-flux": ABFlux(Phi=strength)}[base]
    H = build_hamiltonian(HamiltonianRequest(surf, g, field, spin))
    k = H.dim if full else 1 + int(k_frac * (H.dim - 1))
    rep = spectrum(H, k, want_vectors=True)
    # the spin sphere's uniform-field Zeeman term carries x, y round-off that
    # varies with phi, which usually breaks the exact symmetry
    if not (kind == "sphere" and base == "uniform-axial" and spin):
        assert rep.solver == "sector-eigh"
    assert rep.eigen_residual <= 1e-12
    sqw = np.sqrt(H.full_weights())
    ref = np.linalg.eigvalsh((sp.diags_array(sqw) @ H.entries @ sp.diags_array(1 / sqw))
                             .toarray())[:k]
    assert np.abs(rep.eigenvalues - ref).max() <= 1e-14 * max_abs(H.entries) + 1e-12
    breaks = lambda ev: np.flatnonzero(np.diff(ev) > 1e-9).tolist()
    assert breaks(rep.eigenvalues) == breaks(ref)  # equal multiplicities
