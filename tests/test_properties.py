"""Property tests over random grids, fields and gauges.

Every correct operator must be weighted-Hermitian, gauge shifts must act as
exact unitary conjugations, and the Zeeman block must not see the gauge,
whatever the surface, grid size (odd sizes included), base field or gauge
function.  The pinned examples are the gauge-shifted Sampled fields on which
the gauge used to be counted twice.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfband.analysis import gauge_covariance_residual
from surfband.discretize import build_grid, hermiticity_residual, max_abs, weighted_norm
from surfband.fields import ABFlux, GaugeFunction, Sampled, UniformAxial, add_gauge
from surfband.geometry import cylinder, ring, sphere
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
