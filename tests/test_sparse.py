"""The sparse shift-invert, sector and shifted paths against the dense references they replace.

Every operator built here for a fixed grid commutes with the one-node
azimuthal shift, or does so after a diagonal gauge fix, and so takes a
sector path.  The sparse and dense paths are reached through operators
without a node layout: _gauge_shifted copies (the same levels, and no layout
to find sectors in), or a layout dropped by hand.
"""

import functools

import numpy as np
import pytest
import scipy.sparse as sp

from surfband import analysis
from surfband.analysis import choose_solver, spectrum
from surfband.discretize import OperatorMatrix, build_grid, dense_memory_limit, weighted_norm
from surfband.fields import ABFlux, GaugeFunction, Sampled, UniformAxial, add_gauge
from surfband.geometry import PhysicalConstants, cylinder, ring, sphere
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


def _gauge_shifted(H, seed=0):
    """U H U with U = diag(+-1) seeded: a lattice gauge change by e lambda / hbar in {0, pi}.

    Its levels are H's.  The sector path would undo the signs, so the copy
    carries no layout and takes the sparse or dense path.  Real operators stay real.
    """
    u = sp.diags_array(np.random.default_rng(seed).choice([-1.0, 1.0], H.dim))
    return OperatorMatrix(u @ H.entries @ u, H.weights, H.spin_dim, H.label)


def _multiplicities(ev, tol=1e-9):
    """Sizes of the runs of eigenvalues closer than tol to their neighbour."""
    breaks = np.flatnonzero(np.diff(ev) > tol)
    return np.diff(np.concatenate([[0], breaks + 1, [len(ev)]])).tolist()


@functools.cache
def _acceptance_case(name):
    """An acceptance grid's operator, its gauge-shifted copy and that copy's dense levels."""
    surf, n, kw, k = ACCEPTANCE_GRIDS[name]
    H = _build(surf(), n, kw)
    shifted = _gauge_shifted(H)
    return H, shifted, spectrum(shifted), k


def _check_against_dense(H, rep, k, dense=None):
    dense = dense or spectrum(H)  # k = dim: the dense reference
    assert dense.solver == "dense-eigh"
    assert dense.eigen_residual is None  # eigvalsh gives no vectors to check
    ref = dense.eigenvalues[:k]
    bound = 1e-14 * np.abs(H.entries.data).max() + 1e-12
    assert np.abs(rep.eigenvalues - ref).max() <= bound
    assert _multiplicities(rep.eigenvalues) == _multiplicities(ref)


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_GRIDS))
def test_sparse_matches_dense_on_acceptance_grids(name):
    _, H, dense, k = _acceptance_case(name)
    rep = spectrum(H, k)
    assert rep.solver == "sparse-shift-invert"
    assert (rep.dim, rep.nnz) == (H.dim, H.nnz)
    assert np.isrealobj(rep.eigenvalues)
    assert rep.eigen_residual <= 1e-12
    _check_against_dense(H, rep, k, dense)
    again = spectrum(H, k)
    assert np.array_equal(rep.eigenvalues, again.eigenvalues)


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_GRIDS))
def test_sector_matches_dense_on_acceptance_grids(name):
    H, shifted, dense, k = _acceptance_case(name)
    rep = spectrum(H, k)
    assert rep.solver == "sector-eigh"
    assert (rep.dim, rep.nnz) == (H.dim, H.nnz)
    assert np.isrealobj(rep.eigenvalues)
    assert rep.eigen_residual <= 1e-12
    _check_against_dense(shifted, rep, k, dense)  # the same levels as H's
    assert np.array_equal(rep.eigenvalues, spectrum(H, k).eigenvalues)


def test_first_shift_lies_below_a_strong_field_spectrum(monkeypatch):
    # a strong field puts the lowest Landau-Zeeman levels far below the
    # Rayleigh quotient of the constant vector; Gershgorin's bound is below them
    counts = []
    factor = analysis._factor

    def recording(S, sigma):
        lu, negative = factor(S, sigma)
        counts.append(negative)
        return lu, negative

    monkeypatch.setattr(analysis, "_factor", recording)
    H = _gauge_shifted(_build(cylinder(1.0, np.pi), 32,
                              dict(field=UniformAxial(B=40.0), spin=True)))
    rep = spectrum(H, 16)
    assert counts[0] == 0
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
        H = _gauge_shifted(build_hamiltonian(
            HamiltonianRequest(surf, build_grid(surf, n1, n2), field, spin=spin)), seed)
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
    H = _gauge_shifted(_build(sphere(1.0), 24, dict(field=UniformAxial(B=1.0))))
    rep = spectrum(H, 6, want_vectors=True)
    assert rep.solver == "sparse-shift-invert"
    w = H.full_weights()
    for lam, v in zip(rep.eigenvalues, rep.eigenvectors.T):
        assert abs(weighted_norm(v, w) - 1.0) < 1e-10
        assert weighted_norm(H.entries @ v - lam * v, w) < 1e-9


@pytest.mark.parametrize("surf, n1, n2, kw", [
    (sphere(1.3), 24, 24, dict(field=UniformAxial(B=1.0))),  # complex blocks
    (sphere(0.7), 12, 15, dict(order=2)),  # real blocks, odd azimuthal count
    (cylinder(1.0, 2.0), 16, 10, dict(field=ABFlux(Phi=0.4), spin=True)),
    (ring(1.0), 17, 1, dict()),
], ids=["sphere-field", "sphere-odd-free", "cylinder-spin", "ring-odd"])
def test_sector_eigenvectors_weighted_orthonormal(surf, n1, n2, kw):
    H = build_hamiltonian(HamiltonianRequest(surf, build_grid(surf, n1, n2), **kw))
    k = min(H.dim, 40)
    rep = spectrum(H, k, want_vectors=True)
    assert rep.solver == "sector-eigh"
    V, w = rep.eigenvectors, H.full_weights()
    assert V.shape == (H.dim, k)
    np.testing.assert_allclose(V.conj().T @ (w[:, None] * V), np.eye(k), atol=1e-12)
    scale = np.abs(H.entries.data).max()
    assert np.abs(H.entries @ V - V * rep.eigenvalues).max() <= 1e-12 * scale
    assert rep.eigen_residual <= 1e-14


@pytest.mark.parametrize("path", ["_sector_eigh", "_shift_invert"])
def test_a_pair_above_the_residual_bound_raises(monkeypatch, path):
    H = _build(cylinder(1.0, np.pi), 24, dict(field=UniformAxial(B=1.0)))
    if path == "_shift_invert":
        H = OperatorMatrix(H.entries, H.weights, H.spin_dim, H.label)  # no layout: sparse
    solve = getattr(analysis, path)

    def perturbed(*args):
        ev, vec = solve(*args)
        return ev, vec + 1e-6 * np.random.default_rng(0).standard_normal(vec.shape)

    assert spectrum(H, 10).eigen_residual <= 1e-14
    monkeypatch.setattr(analysis, path, perturbed)
    with pytest.raises(RuntimeError, match="residual"):
        spectrum(H, 10)


def test_sector_path_needs_the_node_layout():
    H = _build(cylinder(1.0, np.pi), 24, dict(field=UniformAxial(B=1.0)))
    bare = OperatorMatrix(H.entries, H.weights, H.spin_dim, H.label)
    assert spectrum(H, 10).solver == "sector-eigh"
    assert spectrum(bare, 10).solver == "sparse-shift-invert"
    with pytest.raises(ValueError, match="layout"):
        OperatorMatrix(H.entries, H.weights, 1, "bad", (1, 24, 25))


@pytest.mark.parametrize("change, solver", [(0.5, "sector-eigh"), (2.0, "dense-eigh"),
                                            ("delete", "dense-eigh"), ("move", "dense-eigh")])
def test_sector_acceptance_at_its_tolerance(change, solver):
    # one z-link pair of slice 3 leaves every azimuthal link, and so v = 0
    H = _build(cylinder(1.0, np.pi), 16, {})
    p, q, r = 3 * 16 + 5, 3 * 16 + 6, 3 * 16 + 7
    pair = lambda i, j: sp.csr_array(([1.0, 1.0], ([i, j], [j, i])), shape=H.entries.shape)
    small = 0.5 * analysis.SECTOR_TOL * np.abs(H.entries.data).max()
    if change in ("delete", "move"):
        entries = H.entries - H.entries[p, q] * pair(p, q)
        assert entries.nnz == H.nnz - 2  # slice 3 stores fewer entries than slice 0
        if change == "move":  # as many entries again, one pair where slice 0 stores none
            entries = entries + small * pair(p, r)
    else:
        entries = H.entries + 2 * change * small * pair(p, q)
    changed = OperatorMatrix(entries, H.weights, 1, H.label, H.layout)
    rep = spectrum(changed, H.dim)
    assert rep.solver == solver
    if solver == "sector-eigh":
        _check_against_dense(OperatorMatrix(entries, H.weights, 1, H.label), rep, H.dim)


def test_stiff_gauge_shifted_operator_takes_sectors():
    # max|H| is about 1.5e200: the product of two links would overflow
    surf = cylinder(1e-100, np.pi)
    g = build_grid(surf, 8, 8)
    lam = GaugeFunction.from_callable(lambda c1, c2: 0.6 * np.sin(c1) * c2, g)
    H = _build(surf, 8, dict(field=add_gauge(UniformAxial(B=1.0), lam, g), spin=True))
    rep = spectrum(H, 8)
    assert rep.solver == "sector-eigh"
    assert rep.eigen_residual <= 1e-12
    dense = spectrum(OperatorMatrix(H.entries, H.weights, 2, H.label))
    assert dense.solver == "dense-eigh"
    bound = 1e-14 * np.abs(H.entries.data).max()  # multiplicities at 1e-9 mean nothing here
    assert np.abs(rep.eigenvalues - dense.eigenvalues[:8]).max() <= bound


def test_sector_blocks_that_would_not_fit_keep_the_current_path(monkeypatch):
    import surfband.discretize as disc

    H = _build(cylinder(1.0, np.pi), 24, dict(field=UniformAxial(B=1.0)))
    # 24 blocks of 24x24, charged 3 x 16 B per block entry: 663,552 B
    monkeypatch.setattr(disc, "dense_memory_limit", lambda: 3 * 24**3 * 16 - 1)
    assert spectrum(H, 10).solver == "sparse-shift-invert"
    monkeypatch.setattr(disc, "dense_memory_limit", lambda: 3 * 24**3 * 16)
    assert spectrum(H, 10).solver == "sector-eigh"


def test_sparse_factors_that_would_not_fit_raise(monkeypatch, tmp_path, capsys):
    import surfband.discretize as disc
    from surfband import cli

    H = _build(cylinder(1.0, np.pi), 32, dict(field=UniformAxial(B=1.0), spin=True))
    bare = OperatorMatrix(H.entries, H.weights, 2, H.label)  # no layout: sparse
    lu, _ = analysis._factor(analysis._symmetrized(H.entries, np.sqrt(H.full_weights())), 0.0)
    # L and U at 16 + 4 B per entry, and 33 Lanczos vectors of 16 B entries for k = 16
    charge = (lu.L.nnz + lu.U.nnz) * 20 + H.dim * 33 * 16
    monkeypatch.setattr(disc, "dense_memory_limit", lambda: charge)
    assert spectrum(bare, 16).solver == "sparse-shift-invert"
    monkeypatch.setattr(disc, "dense_memory_limit", lambda: charge - 1)
    with pytest.raises(MemoryError, match="sparse factors .* limit"):
        spectrum(bare, 16)
    build = cli.build_hamiltonian
    monkeypatch.setattr(cli, "build_hamiltonian", lambda req: OperatorMatrix(
        build(req).entries, H.weights, 2, H.label))
    out = tmp_path / "r.json"
    assert cli.main(["spectrum", "--surface", "cylinder", "--n", "32", "--spin", "--field",
                     "uniform-axial", "--B", "1", "--k", "16", "--output", str(out)]) == 1
    assert "sparse factors" in capsys.readouterr().err
    assert not out.exists()


def test_deflation_recovers_a_degenerate_spin_spectrum():
    # the spin AB-flux cylinder is exactly doubly degenerate; eigsh's vectors
    # inside a pair are not orthonormal, and deflating against them as they
    # came once made the search converge to levels the operator does not have
    surf = cylinder(1.0911800239630463, 2.444568454495584)
    g = build_grid(surf, 36, 36)
    field = ABFlux(Phi=0.6224782161868758)
    lam = GaugeFunction.from_callable(lambda c1, c2: 0.9 * np.sin(c1) * c2, g, "sin-theta-z")
    plain = build_hamiltonian(HamiltonianRequest(surf, g, field, spin=True))
    gauged = build_hamiltonian(HamiltonianRequest(surf, g, add_gauge(field, lam, g), spin=True))
    assert spectrum(gauged, 33).solver == "sector-eigh"  # the gauge is undone on each orbit
    gauged = OperatorMatrix(gauged.entries, gauged.weights, 2, gauged.label)  # no layout: sparse
    ref = spectrum(plain, 81)
    assert ref.solver == "sector-eigh"
    bound = 1e-14 * np.abs(gauged.entries.data).max() + 1e-12
    for k in (33, 57, 81):
        rep = spectrum(gauged, k)
        assert rep.solver == "sparse-shift-invert"
        assert np.abs(rep.eigenvalues - ref.eigenvalues[:k]).max() <= bound
        assert rep.eigen_residual <= 1e-14


def test_a_surplus_of_levels_raises(monkeypatch):
    # an inertia count one short of the levels found must not pass as success
    factor = analysis._factor

    def undercounting(S, sigma):
        lu, negative = factor(S, sigma)
        return lu, negative if not negative else negative - 1

    monkeypatch.setattr(analysis, "_factor", undercounting)
    H = _gauge_shifted(_build(cylinder(1.0, np.pi), 24, dict(field=UniformAxial(B=1.0))))
    with pytest.raises(RuntimeError, match="not eigenvalues"):
        spectrum(H, 10)


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
    with pytest.raises(MemoryError, match="limit"):
        op.toarray()


def test_build_grid_refuses_an_operator_that_would_not_fit(monkeypatch):
    import surfband.discretize as disc

    surf = cylinder(1.0, np.pi)
    monkeypatch.setattr(disc, "dense_memory_limit", lambda: 64 * disc.ASSEMBLY_BYTES_PER_NODE)
    assert build_grid(surf, 8, 8).size == 64
    with pytest.raises(MemoryError, match="65-node grid operator .* limit"):
        build_grid(surf, 13, 5)


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


# pragmatic operators with a uniform A_r: their anti-Hermitian part is i c I
SHIFTED_CASES = {
    "ring-64-ab-flux": ("ring", 64, "ab-flux"),
    "ring-600-uniform-axial": ("ring", 600, "uniform-axial"),
    "cylinder-12x10-sampled": ("cylinder", (12, 10), "sampled"),
    "cylinder-16x12-uniform-axial": ("cylinder", (16, 12), "uniform-axial"),
    "cylinder-24x24-ab-flux": ("cylinder", (24, 24), "ab-flux"),
    "cylinder-24x24-sampled": ("cylinder", (24, 24), "sampled"),
}


def _pragmatic(kind, n, base, seed, radial=None):
    """A seeded pragmatic operator; A_r and dA_r/dr are uniform unless radial is given."""
    rng = np.random.default_rng(seed)
    R = float(rng.uniform(0.8, 1.25))
    surf = ring(R) if kind == "ring" else cylinder(R, float(rng.uniform(1, 4)))
    g = build_grid(surf, *np.atleast_1d(n))
    a_r, da_r = radial if radial is not None else rng.uniform(0.2, 1.0, 2)
    strength = float(rng.uniform(-2, 2))
    kw = dict(radial_component=a_r, radial_derivative=da_r)
    if base == "sampled":
        shape = (g.n1, g.n2)
        field = Sampled(grid=g, a1=strength * rng.uniform(-1, 1, shape),
                        a2=strength * rng.uniform(-1, 1, shape), **kw)
    elif base == "uniform-axial":
        field = UniformAxial(B=strength, **kw)
    else:
        field = ABFlux(Phi=strength, **kw)
    return build_hamiltonian(HamiltonianRequest(surf, g, field, variant="pragmatic")), R, a_r, da_r


def _by_real_part(ev):
    return ev[np.lexsort((ev.imag, ev.real))]


def _circulant_spectrum(H):
    """Exact eigenvalues of a circulant operator: the DFT of its first row.

    Phases are reduced mod n before the exponential, so each level carries
    only the round-off of its three stencil terms.
    """
    row = H.entries[[0], :].toarray()[0]
    j = np.arange(H.dim)
    return _by_real_part(np.array([row @ np.exp(2j * np.pi * (l * j % H.dim) / H.dim)
                                   for l in range(H.dim)]))


def _shifted_case(name):
    """The pragmatic operator, its Im E as the builder forms it, and its references.

    Each reference comes with the number of levels it is trusted for: at the
    top of the stiff 600-node ring spectrum dense eig is itself off by
    1.4e-10 (bound 6.1e-11), so the whole ring spectrum is checked against
    the exact circulant symbol.
    """
    kind = SHIFTED_CASES[name][0]
    H, R, a_r, da_r = _pragmatic(*SHIFTED_CASES[name], seed=sorted(SHIFTED_CASES).index(name))
    c = PhysicalConstants()
    im = (c.hbar * c.charge / (2 * c.mass)) * (a_r / R + da_r)
    refs = [(_by_real_part(np.linalg.eig(H.toarray())[0]),
             H.dim if kind == "cylinder" else max(1, H.dim // 16))]
    if kind == "ring":
        refs.append((_circulant_spectrum(H), H.dim))
    return H, im, refs


def _check_shifted_levels(H, im, refs, path):
    bound = 1e-14 * np.abs(H.entries.data).max() + 1e-12
    w = H.full_weights()
    for k in sorted({max(1, H.dim // 16), H.dim}):
        rep = spectrum(H, k, want_vectors=True)
        values_only = spectrum(H, k)
        assert rep.solver == values_only.solver == path(k)
        for ev in (rep.eigenvalues, values_only.eigenvalues):
            for ref, trusted in refs:
                m = min(k, trusted)
                assert np.abs(ev[:m] - ref[:m]).max() <= bound
                assert _multiplicities(ev[:m].real) == _multiplicities(ref[:m].real)
            assert np.all(ev.imag == im)
        for lam, v in zip(rep.eigenvalues, rep.eigenvectors.T):
            assert abs(weighted_norm(v, w) - 1.0) < 1e-10
            assert weighted_norm(H.entries @ v - lam * v, w) <= 1e-9
        assert rep.eigen_residual <= 1e-12


@pytest.mark.parametrize("name", sorted(SHIFTED_CASES))
def test_shifted_path_matches_dense_eig(name):
    H, im, refs = _shifted_case(name)
    H = _gauge_shifted(H)  # the sparse and dense paths; the diagonal, and so Im E, is kept
    _check_shifted_levels(H, im, refs, lambda k: "shifted-" + choose_solver(H.dim, k, True))


@pytest.mark.parametrize("name", sorted(n for n, case in SHIFTED_CASES.items()
                                        if case[2] != "sampled"))
def test_shifted_sector_path_matches_dense_eig(name):
    H, im, refs = _shifted_case(name)
    _check_shifted_levels(H, im, refs, lambda k: "shifted-sector-eigh")


def test_varying_radial_component_stays_on_dense_eig():
    a_r = np.random.default_rng(5).uniform(0.2, 1.0, 120)
    H, *_ = _pragmatic("cylinder", (12, 10), "ab-flux", 5, radial=(a_r, 0.3))
    rep = spectrum(H, 8, want_vectors=True)
    assert rep.solver == "dense-eig"
    assert rep.eigen_residual <= 1e-12
    assert spectrum(H, 8).eigen_residual is None
    # the vectors have unit W-norm, as on every other path
    w = H.full_weights()
    assert all(abs(weighted_norm(v, w) - 1.0) <= 1e-12 for v in rep.eigenvectors.T)
    # and the scale-free residual is that of eig's unit 2-norm vectors
    ev, vec = np.linalg.eig(H.toarray())
    order = np.lexsort((ev.imag, ev.real))[:8]
    raw = max(weighted_norm(H.entries @ v - e * v, w) / weighted_norm(v, w)
              for e, v in zip(ev[order], vec[:, order].T)) / np.abs(H.entries.data).max()
    assert abs(rep.eigen_residual - raw) <= 1e-14


def test_small_uniform_antihermitian_part_is_kept():
    # c = (hbar e / 2m) dA_r/dr = 5e-12 lies below the Hermitian test's tolerance;
    # it is read from the diagonal first, so the levels keep Im E = c
    surf = cylinder(1.0, np.pi)
    g = build_grid(surf, 12, 10)
    H = build_hamiltonian(HamiltonianRequest(surf, g, ABFlux(Phi=0.3, radial_derivative=1e-11),
                                             variant="pragmatic"))
    zero = build_hamiltonian(HamiltonianRequest(surf, g, ABFlux(Phi=0.3, radial_derivative=0.0),
                                                variant="pragmatic"))
    for ops, path in (((H, zero), "sector-eigh"),
                      ((_gauge_shifted(H), _gauge_shifted(zero)), "dense-eigh")):
        rep, rep0 = (spectrum(op, 6) for op in ops)
        assert rep.hermiticity_residual <= analysis.HERMITIAN_TOL
        assert rep.solver == "shifted-" + path
        assert np.all(rep.eigenvalues.imag == 5e-12)
        assert rep0.solver == path and not np.iscomplexobj(rep0.eigenvalues)
        np.testing.assert_array_equal(rep.eigenvalues.real, rep0.eigenvalues)


def test_shifted_path_lifts_the_dense_guard(monkeypatch):
    import surfband.discretize as disc

    # above the 32x32 grid guard (1.2 MB), below what dense eig of N = 1024 needs (48 MiB)
    monkeypatch.setattr(disc, "dense_memory_limit", lambda: 8 * 2**20)
    plain, *_ = _pragmatic("cylinder", (32, 32), "ab-flux", 7)
    H = _gauge_shifted(plain)
    rep = spectrum(H, 16)
    assert rep.solver == "shifted-sparse-shift-invert"
    assert rep.eigen_residual <= 1e-12
    with pytest.raises(MemoryError, match="limit"):
        spectrum(H)  # shifted-dense-eigh still needs the dense matrix
    # the sector path fits in 32 blocks of 32x32, and refuses 1024 vectors (64 MiB charged)
    sector = spectrum(plain, 16)
    assert sector.solver == "shifted-sector-eigh"
    assert np.abs(sector.eigenvalues - rep.eigenvalues).max() <= 1e-12
    with pytest.raises(MemoryError, match="eigenvectors .* limit"):
        spectrum(plain)
    varying, *_ = _pragmatic("cylinder", (32, 32), "ab-flux", 7,
                             radial=(np.linspace(0.2, 1.0, 1024), 0.3))
    with pytest.raises(MemoryError, match="limit"):
        spectrum(varying, 16)  # dense-eig, as before
