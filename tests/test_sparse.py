"""The sparse shift-invert path against the dense reference it replaces."""

import numpy as np
import pytest
import scipy.sparse as sp

from surfband import analysis
from surfband.analysis import choose_solver, spectrum
from surfband.discretize import OperatorMatrix, build_grid, dense_memory_limit, weighted_norm
from surfband.fields import UniformAxial
from surfband.geometry import cylinder, sphere
from surfband.hamiltonians import HamiltonianRequest, build_hamiltonian

# every acceptance grid whose solve takes the sparse path
ACCEPTANCE_GRIDS = {
    "c04-cylinder": (lambda: cylinder(1.0, np.pi), 24, dict(field=UniformAxial(B=1.0)), 10),
    "c04-sphere": (lambda: sphere(1.0), 24, dict(field=UniformAxial(B=1.0)), 10),
    "c07-sphere-order4": (lambda: sphere(1.0), 64, dict(order=4), 16),
    "spin-cylinder-32": (lambda: cylinder(1.0, np.pi), 32,
                         dict(field=UniformAxial(B=1.0), spin=True), 16),
}


def _build(surf, n, kw):
    return build_hamiltonian(HamiltonianRequest(surf, build_grid(surf, n, n), **kw))


def _multiplicities(ev, tol=1e-9):
    """Sizes of the runs of eigenvalues closer than tol to their neighbour."""
    breaks = np.flatnonzero(np.diff(ev) > tol)
    return np.diff(np.concatenate([[0], breaks + 1, [len(ev)]])).tolist()


def _check_against_dense(H, rep, k):
    dense = spectrum(H)  # k = dim: the dense reference
    assert dense.solver == "dense-eigh"
    ref = dense.eigenvalues[:k]
    bound = 1e-14 * np.abs(H.entries.data).max() + 1e-12
    assert np.abs(rep.eigenvalues - ref).max() <= bound
    assert _multiplicities(rep.eigenvalues) == _multiplicities(ref)


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_GRIDS))
def test_sparse_matches_dense_on_acceptance_grids(name):
    surf, n, kw, k = ACCEPTANCE_GRIDS[name]
    H = _build(surf(), n, kw)
    rep = spectrum(H, k)
    assert rep.solver == "sparse-shift-invert"
    assert (rep.dim, rep.nnz) == (H.dim, H.nnz)
    assert np.isrealobj(rep.eigenvalues)
    _check_against_dense(H, rep, k)
    again = spectrum(H, k)
    assert np.array_equal(rep.eigenvalues, again.eigenvalues)


def test_first_shift_inside_spectrum_still_gives_lowest(monkeypatch):
    # a strong field puts the Rayleigh quotient of the constant vector far
    # above the lowest Landau-Zeeman levels, so the first shift is rejected
    counts = []
    factor = analysis._factor

    def recording(S, sigma):
        lu, negative = factor(S, sigma)
        counts.append(negative)
        return lu, negative

    monkeypatch.setattr(analysis, "_factor", recording)
    H = _build(cylinder(1.0, np.pi), 32, dict(field=UniformAxial(B=40.0), spin=True))
    rep = spectrum(H, 16)
    assert counts[0] > 0
    assert rep.solver == "sparse-shift-invert"
    monkeypatch.undo()
    _check_against_dense(H, rep, 16)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_grids_fields_and_k_match_dense(seed):
    # seeded draws over surface, size, field strength, spin and k <= dim / 16
    rng = np.random.default_rng(seed)
    for _ in range(2):
        spin = bool(rng.integers(0, 2))
        n1, n2 = (int(x) for x in rng.integers(16, 26, 2))
        surf = (cylinder(float(rng.uniform(0.5, 2)), float(rng.uniform(1, 4)))
                if rng.integers(0, 2) else sphere(float(rng.uniform(0.5, 2))))
        field = UniformAxial(B=float(rng.choice([rng.uniform(0.1, 3), rng.uniform(5, 60)])))
        H = build_hamiltonian(HamiltonianRequest(surf, build_grid(surf, n1, n2), field,
                                                 spin=spin))
        if H.dim < analysis.SPARSE_MIN_DIM:
            continue
        k = int(rng.integers(1, H.dim // 16 + 1))
        rep = spectrum(H, k)
        assert rep.solver == "sparse-shift-invert"
        _check_against_dense(H, rep, k)


def test_missed_degenerate_copies_are_recovered():
    # single-vector Lanczos sees one direction per distinct eigenvalue of a
    # diagonal operator; the inertia count exposes the other four copies
    n = 600
    d = np.concatenate([np.zeros(5), np.arange(1.0, n - 4)])
    perm = np.random.default_rng(0).permutation(n)
    op = OperatorMatrix(sp.diags_array(d[perm]), np.ones(n), 1, "degenerate")
    rep = spectrum(op, 10)
    assert rep.solver == "sparse-shift-invert"
    np.testing.assert_allclose(rep.eigenvalues, [0, 0, 0, 0, 0, 1, 2, 3, 4, 5], atol=1e-12)


def test_sparse_eigenvectors_weighted_normalized():
    H = _build(sphere(1.0), 24, dict(field=UniformAxial(B=1.0)))
    rep = spectrum(H, 6, want_vectors=True)
    assert rep.solver == "sparse-shift-invert"
    w = H.full_weights()
    for lam, v in zip(rep.eigenvalues, rep.eigenvectors.T):
        assert abs(weighted_norm(v, w) - 1.0) < 1e-10
        assert weighted_norm(H.entries @ v - lam * v, w) < 1e-9


def test_solver_choice_depends_on_dim_and_k_only():
    assert choose_solver(256, 4, True) == "dense-eigh"
    assert choose_solver(4096, 16, True) == "sparse-shift-invert"
    assert choose_solver(4096, 4096, True) == "dense-eigh"
    assert choose_solver(4096, 16, False) == "dense-eig"


def test_toarray_refuses_oversized_dense(monkeypatch):
    import surfband.discretize as disc

    g = build_grid(cylinder(1.0, np.pi), 8, 8)
    op = OperatorMatrix(sp.eye_array(g.size), g.weights, 1, "id")
    assert np.array_equal(op.toarray(), np.eye(g.size))
    monkeypatch.setattr(disc, "dense_memory_limit", lambda: g.size**2 * 8 - 1)
    with pytest.raises(ValueError, match="limit"):
        op.toarray()


@pytest.mark.skipif(dense_memory_limit() >= 3 * 16384**2 * 8,
                    reason="enough memory for the dense 16384-level solve")
def test_dense_request_above_memory_bound_exits_1(tmp_path, capsys):
    import tracemalloc

    from surfband.cli import main

    out = tmp_path / "big.json"
    tracemalloc.start()
    try:
        code = main(["spectrum", "--surface", "sphere", "--n", "128", "--order", "4",
                     "--k", "16384", "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "limit" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 256 * 2**20  # the dense operator alone would be 2 GiB
