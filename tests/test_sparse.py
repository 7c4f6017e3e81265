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
    return OperatorMatrix(u @ H.entries @ u, H.weights, H.label)


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
    return H, shifted, _dense_levels(shifted), k


def _dense_levels(H):
    """The dense reference: every level of H, by eigvalsh of its symmetrized form."""
    return np.linalg.eigvalsh(analysis._symmetrized(H.entries, np.sqrt(H.weights)).toarray())


def _check_against_dense(H, rep, k, dense=None):
    ref = (_dense_levels(H) if dense is None else dense)[:k]
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
    op = OperatorMatrix(sp.diags_array(d[perm]), np.ones(n), "degenerate")
    rep = spectrum(op, 10)
    assert rep.solver == "sparse-shift-invert"
    np.testing.assert_allclose(rep.eigenvalues, [0, 0, 0, 0, 0, 1, 2, 3, 4, 5], atol=1e-12)


def test_sparse_eigenvectors_weighted_normalized():
    H = _gauge_shifted(_build(sphere(1.0), 24, dict(field=UniformAxial(B=1.0))))
    rep = spectrum(H, 6)
    assert rep.solver == "sparse-shift-invert"
    w = H.weights
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
    rep = spectrum(H, k)
    assert rep.solver == "sector-eigh"
    V, w = rep.eigenvectors, H.weights
    assert V.shape == (H.dim, k)
    np.testing.assert_allclose(V.conj().T @ (w[:, None] * V), np.eye(k), atol=1e-12)
    scale = np.abs(H.entries.data).max()
    assert np.abs(H.entries @ V - V * rep.eigenvalues).max() <= 1e-12 * scale
    assert rep.eigen_residual <= 1e-14


def _recorded_block_stacks(monkeypatch, H, k):
    """The shape and dtype of every stack of blocks np.linalg.eigvalsh solves for spectrum(H, k)."""
    stacks, eigvalsh = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        stacks.append((a.shape, a.dtype))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    rep = spectrum(H, k)
    monkeypatch.undo()
    return rep, stacks


@pytest.mark.parametrize("name, solver, stacks", [
    # C_d = C_(-d) on the free sphere: 33 real blocks instead of 33 complex ones
    ("c07-sphere-order4", "sector-eigh", [((33, 64, 64), np.float64)]),
    # an axial field never couples spin up to down: two components of 32 nodes
    ("spin-cylinder-32", "sector-eigh", [((32, 32, 32), np.complex128)] * 2),
    ("pragmatic-ab-flux", "shifted-sector-eigh", [((32, 32, 32), np.complex128)]),
])
def test_sector_blocks_split_by_component_and_are_real_when_mirror_symmetric(
        monkeypatch, name, solver, stacks):
    H = (_pragmatic("cylinder", (32, 32), "ab-flux", 0)[0] if name.startswith("pragmatic")
         else _acceptance_case(name)[0])
    rep, seen = _recorded_block_stacks(monkeypatch, H, 16)
    assert rep.solver == solver
    assert seen == stacks
    assert rep.eigen_residual <= 1e-14


@pytest.mark.parametrize("name, driver", [("c07-sphere-order4", "evx"),
                                          ("spin-cylinder-32", None)])
def test_real_sector_blocks_take_evx_and_keep_orthonormal_vectors(monkeypatch, name, driver):
    # evx (bisection and inverse iteration) on c07's real blocks, whose levels
    # come in l-clusters; complex blocks keep scipy's default driver
    import scipy.linalg

    H, _, _, k = _acceptance_case(name)
    drivers, eigh = [], scipy.linalg.eigh
    monkeypatch.setattr(scipy.linalg, "eigh",
                        lambda *args, **kw: drivers.append(kw.get("driver")) or eigh(*args, **kw))
    rep = spectrum(H, k)
    assert rep.solver == "sector-eigh"
    assert drivers and set(drivers) == {driver}
    V, w = rep.eigenvectors, H.weights
    assert np.abs(V.conj().T @ (w[:, None] * V) - np.eye(k)).max() <= 1e-12
    assert rep.eigen_residual <= analysis.EIGEN_RESIDUAL_TOL


def _layout_operator(n_az, kind, seed):
    """H = W^(-1/2) S W^(1/2) on layout (1, n_az, 8), S Hermitian and P-symmetric.

    S couples slice a to slices a and a + 1 by C_0 and C_1 (and to a - 1 by
    C_1^H), both confined to the components {0, 2, 5} and {1, 3, 4, 6, 7} of
    each slice's 8 nodes.  kind: complex C_1; real C_1 with C_1 != C_1^T, so
    that C_1 != C_(-1); or real symmetric C_1 (mirror symmetric).
    """
    rng = np.random.default_rng(seed)
    b, label = 8, np.array([0, 1, 0, 1, 1, 0, 1, 1])
    mask = label[:, None] == label[None, :]
    draw = lambda: rng.uniform(-1, 1, (b, b)) + (1j * rng.uniform(-1, 1, (b, b))
                                                 if kind == "complex" else 0)
    c0, c1 = draw() * mask, draw() * mask
    c0 = c0 + c0.conj().T
    if kind == "mirror":
        c1 = c1 + c1.T
    n = n_az * b
    S = np.zeros((n, n), complex if kind == "complex" else float)
    for a in range(n_az):
        here, right = slice(a * b, (a + 1) * b), slice((a + 1) % n_az * b, ((a + 1) % n_az + 1) * b)
        S[here, here] = c0
        S[here, right] += c1
        S[right, here] += c1.conj().T
    w = np.tile(rng.uniform(0.5, 2.0, b), n_az)
    H = S * np.sqrt(w)[None, :] / np.sqrt(w)[:, None]
    return OperatorMatrix(sp.csr_array(H), w, f"layout-{kind}", (1, n_az, b)), S


@pytest.mark.parametrize("n_az, kind", [(6, "complex"), (7, "real"), (6, "real"), (6, "mirror")])
def test_unequal_components_match_dense(monkeypatch, n_az, kind):
    op, S = _layout_operator(n_az, kind, seed=n_az)
    rep, seen = _recorded_block_stacks(monkeypatch, op, op.dim)
    assert rep.solver == "sector-eigh"
    n_sec = n_az if kind == "complex" else n_az // 2 + 1
    dtype = np.float64 if kind == "mirror" else np.complex128
    assert seen == [((n_sec, 3, 3), dtype), ((n_sec, 5, 5), dtype)]
    bound = 1e-14 * np.abs(S).max() + 1e-12
    assert np.abs(rep.eigenvalues - np.linalg.eigvalsh(S)).max() <= bound
    V, w = rep.eigenvectors, op.weights
    assert np.abs(V.conj().T @ (w[:, None] * V) - np.eye(op.dim)).max() <= bound
    assert rep.eigen_residual <= 1e-14


@pytest.mark.parametrize("name", ["c07-sphere-order4", "spin-cylinder-32"])
def test_sector_solve_peak_is_within_its_memory_charge(name):
    # the blocks (3 n_az b^2 16 B) and the vectors with the residual's work arrays (4 N k 16 B)
    import tracemalloc

    H, _, _, k = _acceptance_case(name)
    outer, n_az, inner = H.layout
    charge = 3 * n_az * (outer * inner) ** 2 * 16 + 4 * H.dim * k * 16
    spectrum(H, k)  # one-time allocations of the first solve
    tracemalloc.start()
    try:
        rep = spectrum(H, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.solver == "sector-eigh"
    assert peak <= charge


@pytest.mark.parametrize("divisor", [1, 8])
@pytest.mark.parametrize("path", ["dense-eigh", "dense-eig"])
def test_dense_solve_peak_is_within_its_memory_charge(monkeypatch, path, divisor):
    # the vectors with the residual's work arrays (4 N k 16 B), then those plus the N x N work
    import tracemalloc

    if path == "dense-eigh":
        H = _build(cylinder(1.0, np.pi), 24, dict(field=UniformAxial(B=1.0)))
        H = OperatorMatrix(H.entries, H.weights, H.label)  # complex, no layout: no sectors
    else:
        H, *_ = _pragmatic("cylinder", (24, 24), "ab-flux", 7,
                           radial=(np.linspace(0.2, 1.0, 576), 0.3))
    n, k = H.dim, H.dim // divisor
    charges, check_fits = [], analysis.check_fits
    monkeypatch.setattr(analysis, "check_fits",
                        lambda nbytes, what: charges.append(nbytes) or check_fits(nbytes, what))
    spectrum(H, k)  # one-time allocations of the first solve
    charges.clear()
    tracemalloc.start()
    try:
        rep = spectrum(H, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.solver == path
    assert charges == [4 * n * k * 16, 4 * n * k * 16 + 3 * n * n * 16]
    assert peak <= charges[-1]


@pytest.mark.parametrize("path", ["_sector_eigh", "_shift_invert", "eigh", "eig"])
def test_a_pair_above_the_residual_bound_raises(monkeypatch, path):
    import scipy.linalg

    solver = {"_sector_eigh": "sector-eigh", "_shift_invert": "sparse-shift-invert",
              "eigh": "dense-eigh", "eig": "dense-eig"}[path]
    H = _build(cylinder(1.0, np.pi), 24, dict(field=UniformAxial(B=1.0)))
    if path == "eig":
        H, *_ = _pragmatic("cylinder", (24, 24), "ab-flux", 7,
                           radial=(np.linspace(0.2, 1.0, 576), 0.3))
    elif path != "_sector_eigh":
        H = OperatorMatrix(H.entries, H.weights, H.label)  # no layout: sparse or dense
    k = 40 if path == "eigh" else 10  # 16 k > N: dense
    module = {"eigh": scipy.linalg, "eig": np.linalg}.get(path, analysis)
    solve = getattr(module, path)

    def perturbed(*args, **kwargs):
        ev, vec = solve(*args, **kwargs)
        return ev, vec + 1e-6 * np.random.default_rng(0).standard_normal(vec.shape)

    rep = spectrum(H, k)
    assert rep.solver == solver
    assert rep.eigen_residual <= 1e-14
    monkeypatch.setattr(module, path, perturbed)
    with pytest.raises(RuntimeError, match="residual"):
        spectrum(H, k)


def test_sector_path_needs_the_node_layout():
    H = _build(cylinder(1.0, np.pi), 24, dict(field=UniformAxial(B=1.0)))
    bare = OperatorMatrix(H.entries, H.weights, H.label)
    assert spectrum(H, 10).solver == "sector-eigh"
    assert spectrum(bare, 10).solver == "sparse-shift-invert"
    with pytest.raises(ValueError, match="layout"):
        OperatorMatrix(H.entries, H.weights, "bad", (1, 24, 25))


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
    changed = OperatorMatrix(entries, H.weights, H.label, H.layout)
    rep = spectrum(changed, H.dim)
    assert rep.solver == solver
    if solver == "sector-eigh":
        _check_against_dense(OperatorMatrix(entries, H.weights, H.label), rep, H.dim)


def test_stiff_gauge_shifted_operator_takes_sectors():
    # max|H| is about 1.5e200: the product of two links would overflow
    surf = cylinder(1e-100, np.pi)
    g = build_grid(surf, 8, 8)
    lam = GaugeFunction.from_callable(lambda c1, c2: 0.6 * np.sin(c1) * c2, g)
    H = _build(surf, 8, dict(field=add_gauge(UniformAxial(B=1.0), lam, g), spin=True))
    rep = spectrum(H, 8)
    assert rep.solver == "sector-eigh"
    assert rep.eigen_residual <= 1e-12
    dense = spectrum(OperatorMatrix(H.entries, H.weights, H.label))
    assert dense.solver == "dense-eigh"
    bound = 1e-14 * np.abs(H.entries.data).max()  # multiplicities at 1e-9 mean nothing here
    assert np.abs(rep.eigenvalues - dense.eigenvalues[:8]).max() <= bound


def test_stiff_gauge_shift_is_read_relative_to_the_levels(monkeypatch):
    # levels near 1e200 solved once by sectors and once densely agree to round-off,
    # yet differ by about 1e185: only the relative shift says that they did not move
    surf = cylinder(1e-100, np.pi)
    g = build_grid(surf, 8, 8)
    lam = GaugeFunction.from_callable(lambda c1, c2: np.sin(c1) * c2, g)
    builder = lambda f: build_hamiltonian(HamiltonianRequest(surf, g, f, spin=True))
    field = UniformAxial(B=1.0)
    assert analysis.spectrum_gauge_invariance(field, lam, builder, 8, g) == (0.0, 0.0)
    sector, calls = analysis._sector_eigh, []

    def first_only(*args):  # the gauged half takes the dense path
        calls.append(args)
        return sector(*args) if len(calls) == 1 else None

    monkeypatch.setattr(analysis, "_sector_eigh", first_only)
    shift, relative = analysis.spectrum_gauge_invariance(field, lam, builder, 8, g)
    assert len(calls) == 2
    assert shift > 1e180
    assert relative <= 1e-13


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
    bare = OperatorMatrix(H.entries, H.weights, H.label)  # no layout: sparse
    lu, _ = analysis._factor(analysis._symmetrized(H.entries, np.sqrt(H.weights)), 0.0)
    # L and U at 16 + 4 B per entry, and 33 Lanczos vectors of 16 B entries for k = 16
    charge = (lu.L.nnz + lu.U.nnz) * 20 + H.dim * 33 * 16
    monkeypatch.setattr(disc, "dense_memory_limit", lambda: charge)
    assert spectrum(bare, 16).solver == "sparse-shift-invert"
    monkeypatch.setattr(disc, "dense_memory_limit", lambda: charge - 1)
    with pytest.raises(MemoryError, match="sparse factors .* limit"):
        spectrum(bare, 16)
    build = cli.build_hamiltonian
    monkeypatch.setattr(cli, "build_hamiltonian", lambda req: OperatorMatrix(
        build(req).entries, H.weights, H.label))
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
    gauged = OperatorMatrix(gauged.entries, gauged.weights, gauged.label)  # no layout: sparse
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
    op = OperatorMatrix(sp.eye_array(g.size), g.weights, "id")
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
    w = H.weights
    for k in sorted({max(1, H.dim // 16), H.dim}):
        rep = spectrum(H, k)
        assert rep.solver == path(k)
        ev = rep.eigenvalues
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
    rep = spectrum(H, 8)
    assert rep.solver == "dense-eig"
    assert rep.eigen_residual <= 1e-12
    # the vectors have unit W-norm, as on every other path
    w = H.weights
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
