import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from surfband import thinlayer
from surfband.analysis import spectrum
from surfband.discretize import hermiticity_residual
from surfband.geometry import cylinder, radial_exponent, ring, sphere
from surfband.thinlayer import (
    ShellProblem,
    box_energy,
    build_radial_operator,
    gke_extrapolate,
    radial_spectrum,
    sweep_table,
)


class TestRadialSpectrum:
    def test_flat_limit_reproduces_box(self):
        # huge radius: the shell is a 1D box to 1e-6 relative
        p = ShellProblem(cylinder(1e6, 1.0), 1.0, 0)
        e1 = radial_spectrum(p, 1)[0]
        box = box_energy(p, 1)
        assert abs(e1 - box) / box < 1e-6

    def test_cylinder_surface_energy_value(self):
        # u = sqrt(r) psi gives V_eff = (l^2 - 1/4)/2r^2, so l=0 at d -> 0
        # leaves exactly the curvature shift
        [row] = sweep_table(cylinder(1.0, 1.0), [0], [0.01])
        assert abs(row["E_surface"] + 0.125) < 1e-4

    def test_sphere_surface_energy_vanishes(self):
        # u = r psi removes every curvature term
        [row] = sweep_table(sphere(1.0), [0], [0.01])
        assert abs(row["E_surface"]) < 1e-4

    def test_levels_increase_with_n(self):
        p = ShellProblem(cylinder(1.0, 1.0), 0.2, 1)
        ev = radial_spectrum(p, 4)
        assert np.all(np.diff(ev) > 0)

    def test_energies_decrease_with_width(self):
        es = [radial_spectrum(ShellProblem(cylinder(1.0, 1.0), d, 1), 1)[0]
              for d in (0.1, 0.2, 0.4)]
        assert es[0] > es[1] > es[2]

    def test_collapse_rejected(self):
        for d in (2.0, 0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"must lie in \(0, 2R\)"):
                ShellProblem(cylinder(1.0, 1.0), d, 0)

    def test_negative_l_rejected_on_the_sphere_only(self):
        # l(l+1) aliases l and -l-1 on the sphere; the cylinder's l^2 does not see the sign
        with pytest.raises(ValueError, match="l=-1"):
            ShellProblem(sphere(1.0), 0.1, -1)
        for surf in (ring(1.0), cylinder(1.0, 1.0)):
            p, q = ShellProblem(surf, 0.1, -2), ShellProblem(surf, 0.1, 2)
            assert radial_spectrum(p, 1)[0] == radial_spectrum(q, 1)[0]

    def test_min_resolution_enforced(self):
        with pytest.raises(ValueError):
            ShellProblem(cylinder(1.0, 1.0), 0.1, 0, n_r=10)

    def test_a_shell_that_would_not_fit_raises(self, monkeypatch, tmp_path, capsys):
        import surfband.discretize as disc
        from surfband import cli

        monkeypatch.setattr(disc, "dense_memory_limit",
                            lambda: 1000 * thinlayer.RADIAL_BYTES_PER_NODE)
        assert radial_spectrum(ShellProblem(cylinder(1.0, 1.0), 0.1, 0, 1000), 1)[0] > 0
        with pytest.raises(MemoryError, match="1001-node radial shell solve .* limit"):
            ShellProblem(cylinder(1.0, 1.0), 0.1, 0, 1001)
        out = tmp_path / "r.json"
        assert cli.main(["thin-layer", "--n-r", "1001", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


def _dense_reference(p: ShellProblem, n_levels: int) -> np.ndarray:
    """The lowest levels from dense eigh of the same tridiagonal, then the same polish."""
    main, off, h, _ = thinlayer._liouville_tridiagonal(p)
    _, vec = np.linalg.eigh(np.diag(main) + np.diag(off, 1) + np.diag(off, -1))
    return np.array([thinlayer._rayleigh_quotient(main, off, vec[:, i])
                     + thinlayer._box_modes(p, i + 1, h)[1] for i in range(n_levels)])


def _sturm_reference(main, e2, x, pivmin):
    """One shift's count by the plain loop: the pivots of LDL^T of T - xI below pivmin."""
    count, piv = 0, 1.0
    for j, a in enumerate(main):
        piv = (a - x) - (e2 if j else 0.0) / piv
        if piv < pivmin:
            if piv > -pivmin:
                piv = -pivmin
            count += 1
    return count


def test_fused_sturm_count_matches_the_single_shift_loop():
    rng = np.random.default_rng(7)
    for n in (1, 2, 7, 50):
        main, e2 = rng.uniform(-2, 2, n), float(rng.uniform(0.1, 1))
        T = np.diag(main) + np.sqrt(e2) * (np.eye(n, k=1) + np.eye(n, k=-1))
        # on an eigenvalue and on main[0] (a zero first pivot) the pivmin rule acts
        shifts = [*np.linalg.eigvalsh(T), *rng.uniform(-4, 4, 5), main[0]]
        for lo, hi in zip(shifts, shifts[::-1]):
            counts = thinlayer._sturm_count(main.tolist(), e2, lo, hi, 1e-300)
            assert counts == (_sturm_reference(main.tolist(), e2, lo, 1e-300),
                              _sturm_reference(main.tolist(), e2, hi, 1e-300))


class TestTridiagonalSolve:
    @pytest.mark.parametrize("n_r, cases", [(50, 12), (256, 12), (1000, 3)])
    @pytest.mark.parametrize("surf", [cylinder(1.0, 1.0), sphere(1.0)], ids=["cylinder", "sphere"])
    def test_matches_dense_eigh(self, surf, n_r, cases):
        rng = np.random.default_rng(n_r)
        for _ in range(cases):
            d = rng.uniform(0.005, 1.5) * surf.R
            l, n_levels = int(rng.integers(0, 9)), int(rng.integers(1, 7))
            p = ShellProblem(surf, d, l, n_r)
            np.testing.assert_allclose(radial_spectrum(p, n_levels), _dense_reference(p, n_levels),
                                       rtol=1e-15, atol=0)

    def test_zero_width_bracket(self):
        # sphere, l = 0: V = 0, so each Weyl bracket is a point and each sine
        # mode is already its level's eigenvector
        p = ShellProblem(sphere(1.0), 0.1, 0)
        ev = radial_spectrum(p, 4)
        np.testing.assert_allclose(ev, _dense_reference(p, 4), rtol=1e-15, atol=0)
        np.testing.assert_allclose(ev, [box_energy(p, n) for n in (1, 2, 3, 4)], rtol=1e-15)

    def test_zero_width_bracket_on_the_fallback(self, monkeypatch):
        # the same shell with the sine path refused: the inverse-iteration
        # shift sits on the eigenvalue
        monkeypatch.setattr(thinlayer, "_sine_correction", lambda *args: None)
        p = ShellProblem(sphere(1.0), 0.1, 0)
        np.testing.assert_allclose(radial_spectrum(p, 4), _dense_reference(p, 4),
                                   rtol=1e-15, atol=0)

    def test_memory_is_linear_in_n_r(self):
        # a dense 20000 x 20000 matrix would need 3.2 GB
        p = ShellProblem(cylinder(1.0, 1.0), 0.1, 1, 20000)
        tracemalloc.start()
        try:
            ev = radial_spectrum(p, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert abs(ev[0] - radial_spectrum(ShellProblem(cylinder(1.0, 1.0), 0.1, 1), 1)[0]) < 1e-3

    @pytest.mark.parametrize("l", [0, 2])
    def test_rayleigh_quotient_keeps_long_double_accuracy(self, l):
        # at n_r = 4000 the O(1/h^2) stencil terms are ~10^6 times lambda; a
        # plain long-double v^T (T v) lost 8-9 ulps of the double result here
        p = ShellProblem(cylinder(1.0, 1.0), 0.1, l, 4000)
        main, off, _, _ = thinlayer._liouville_tridiagonal(p)
        sigma = float(radial_spectrum(p, 1)[0] - thinlayer._box_modes(p, 1, p.nodes()[1])[1])
        start = np.sin(np.pi * (np.arange(p.n_r) + 0.5) / p.n_r)
        v = thinlayer._inverse_iteration(main.tolist(), off.tolist(), sigma, start, 1e-3)
        m, e, u = ([Fraction(x) for x in arr.tolist()] for arr in (main, off, v))
        num = sum(mi * ui * ui for mi, ui in zip(m, u)) + 2 * sum(
            ei * a * b for ei, a, b in zip(e, u, u[1:]))
        exact = float(num / sum(ui * ui for ui in u))
        assert abs(thinlayer._rayleigh_quotient(main, off, v) - exact) <= np.spacing(exact)

    def test_bench_shells_take_the_sine_correction(self, monkeypatch):
        # every level of the thin-layer benchmark's shells is Weyl-isolated and
        # certified, so the bisection and inverse iteration never run
        def refused(*args):
            raise AssertionError("inverse iteration ran")

        monkeypatch.setattr(thinlayer, "_inverse_iteration", refused)
        for R in (0.8, 1.25):
            for surf in (cylinder(R, 1.0), sphere(R)):
                for l in range(5):
                    for d in np.geomspace(0.12, 0.01, 8):
                        p = ShellProblem(surf, d, l)
                        np.testing.assert_allclose(radial_spectrum(p, 1), _dense_reference(p, 1),
                                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("surf", [cylinder(1.0, 1.0), sphere(1.0)], ids=["cylinder", "sphere"])
    def test_overlapping_brackets_take_the_fallback(self, surf, monkeypatch):
        # at d = 1.5R and l = 8 the potential's spread exceeds the level gaps
        calls = []
        solve = thinlayer._inverse_iteration
        monkeypatch.setattr(thinlayer, "_inverse_iteration",
                            lambda *args: calls.append(1) or solve(*args))
        p = ShellProblem(surf, 1.5 * surf.R, 8)
        np.testing.assert_allclose(radial_spectrum(p, 3), _dense_reference(p, 3),
                                   rtol=1e-15, atol=0)
        assert len(calls) == 3

    def test_cached_tables_are_read_only_and_exact(self):
        radial_spectrum(ShellProblem(sphere(1.0), 0.1, 2, 77), 2)
        half, wave = thinlayer._grid_tables(77)
        np.testing.assert_array_equal(half, np.arange(77) + 0.5)
        np.testing.assert_array_equal(wave, 1 - np.cos(np.arange(78) * (np.pi / 77)))
        for i in (0, 1):
            np.testing.assert_array_equal(thinlayer._sine_mode(77, i),
                                          np.sin((i + 1) * np.pi * ((np.arange(77) + 0.5) / 77)))
        for table in (half, wave, thinlayer._sine_mode(77, 1)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    def test_cached_tables_give_the_same_bits_in_any_order(self):
        # a shell solved on a cold cache, or after other n_r and n_levels, is the same shell
        cases = [(surf, n_r, n_levels) for surf in (cylinder(1.1, 1.0), sphere(0.93))
                 for n_r in (50, 256, 1000) for n_levels in (1, 3)]

        def solve_all(order):
            thinlayer._grid_tables.cache_clear()
            thinlayer._sine_mode.cache_clear()
            return {c: radial_spectrum(ShellProblem(c[0], 0.07, 2, c[1]), c[2]).tobytes()
                    for c in order}

        forward = solve_all(cases)
        assert solve_all(cases[::-1]) == forward
        for c in cases[::3]:
            assert solve_all([c]) == {c: forward[c]}

    @pytest.mark.parametrize("d, l, n_levels", [(0.1, 2, 1), (0.05, 2, 40), (1.5, 8, 3)],
                             ids=["sine", "many-modes", "fallback"])
    @pytest.mark.parametrize("surf", [cylinder(1.0, 1.0), sphere(1.0)], ids=["cylinder", "sphere"])
    def test_traced_peak_on_a_cold_cache_is_within_the_charge(self, surf, d, l, n_levels):
        p = ShellProblem(surf, d, l, 4000)
        radial_spectrum(ShellProblem(surf, 0.1, 2, 60), 1)  # numpy's own one-time allocations
        thinlayer._grid_tables.cache_clear()
        thinlayer._sine_mode.cache_clear()
        tracemalloc.start()
        try:
            radial_spectrum(p, n_levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= p.n_r * thinlayer.RADIAL_BYTES_PER_NODE

    def test_failed_bracket_raises(self, monkeypatch):
        # a bracket that misses its level is an error, never a silent fallback
        monkeypatch.setattr(thinlayer, "_box_symbol",
                            lambda n, h, d: np.zeros(np.shape(n), np.longdouble))
        with pytest.raises(RuntimeError, match="Weyl bracket"):
            radial_spectrum(ShellProblem(cylinder(1.0, 1.0), 0.1, 1), 1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["ring", "cylinder", "sphere"]), R=st.floats(0.1, 10.0),
       ratio=st.floats(0.0, 1.5, exclude_min=True), l=st.integers(0, 8),
       n_r=st.integers(50, 1000), n_levels=st.integers(1, 6))
@example(kind="cylinder", R=1.0, ratio=0.05, l=2, n_r=256, n_levels=3)  # isolated levels
@example(kind="sphere", R=1.0, ratio=1.5, l=8, n_r=256, n_levels=6)  # overlapping brackets
@example(kind="ring", R=1.0, ratio=1e-73, l=0, n_r=50, n_levels=1)  # coupling near overflow
def test_radial_spectrum_equals_dense_eigh(kind, R, ratio, l, n_r, n_levels):
    """Both eigenvector paths, and any width the coupling's square does not overflow at."""
    surf = {"ring": ring, "cylinder": lambda R: cylinder(R, 1.0), "sphere": sphere}[kind](R)
    d = ratio * R
    assume(d > 0)
    try:
        p = ShellProblem(surf, d, l, n_r)
    except OverflowError:
        assert ratio < 1e-70  # only shells far below any physical width are refused
        return
    np.testing.assert_allclose(radial_spectrum(p, n_levels), _dense_reference(p, n_levels),
                               rtol=1e-15, atol=0)


class TestFluxOperator:
    def test_weighted_hermitian_to_scale(self):
        p = ShellProblem(cylinder(1.0, 1.0), 0.2, 1, 100)
        op = build_radial_operator(p)
        scale = np.abs(op.toarray()).max()
        assert hermiticity_residual(op) <= 1e-13 * scale

    @pytest.mark.parametrize("surf", [cylinder(1.0, 1.0), sphere(1.0)])
    def test_matches_loop_reference(self, surf):
        p = ShellProblem(surf, 0.3, 2, 60)
        r, h = p.nodes()
        s, k = radial_exponent(surf.kind), 0.5
        faces = np.append((r - h / 2) ** s, (r[-1] + h / 2) ** s)
        ref = np.zeros((p.n_r, p.n_r))
        for j in range(p.n_r):
            ref[j, j] = k * (faces[j] + faces[j + 1]) / (r[j] ** s * h**2)
            if j + 1 < p.n_r:
                ref[j, j + 1] = -k * faces[j + 1] / (r[j] ** s * h**2)
                ref[j + 1, j] = -k * faces[j + 1] / (r[j + 1] ** s * h**2)
        ref[0, 0] += k * faces[0] / (r[0] ** s * h**2)
        ref[-1, -1] += k * faces[-1] / (r[-1] ** s * h**2)
        ref += np.diag(p.centrifugal(r))
        np.testing.assert_allclose(build_radial_operator(p).toarray(), ref, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("surf, ref", [(cylinder(1.0, 1.0), lambda l: (l**2, l**2 - 0.25)),
                                           (sphere(1.0), lambda l: (l * (l + 1), l * (l + 1)))])
    def test_exponent_forms_match_the_closed_forms_bitwise(self, surf, ref):
        # l(l + s - 1) and l(l + s - 1) + s(s - 2)/4 at hbar = m = 1
        for l in range(6):
            p = ShellProblem(surf, 0.3, l, 60)
            r = p.nodes()[0]
            centrifugal, liouville = ref(l)
            assert np.array_equal(p.centrifugal(r), 0.5 * centrifugal / r**2)
            assert np.array_equal(thinlayer._liouville_potential(p, r), 0.5 * liouville / r**2)

    @pytest.mark.parametrize("surf", [cylinder(1.0, 1.0), sphere(1.0)])
    def test_matches_liouville_form_at_stencil_order(self, surf):
        diffs = []
        for n_r in (100, 200):
            p = ShellProblem(surf, 0.2, 1, n_r)
            ev_flux = np.real(spectrum(build_radial_operator(p), 3).eigenvalues)
            h = p.nodes()[1]
            ev_liou = radial_spectrum(p, 3) - thinlayer._box_modes(p, np.arange(1, 4), h)[1]
            diffs.append(np.abs(ev_flux - ev_liou).max())
        assert diffs[1] < diffs[0] / 3.0


class TestGkeExtrapolate:
    DS = [0.1, 0.05, 0.025, 0.0125]

    def test_cylinder_reproduces_curvature_shift(self):
        limit, order = gke_extrapolate(cylinder(1.0, 1.0), 1, self.DS)
        assert abs(limit + 0.125) < 1e-6
        assert 1.5 < order < 2.5

    @pytest.mark.parametrize("surf,l", [(cylinder(1.0, 1.0), 0), (cylinder(1.0, 1.0), 1),
                                        (cylinder(1.0, 1.0), 2), (sphere(1.0), 1), (sphere(1.0), 2)],
                             ids=["cylinder-0", "cylinder-1", "cylinder-2", "sphere-1", "sphere-2"])
    def test_order_above_round_off_is_second(self, surf, l):
        _, order = gke_extrapolate(surf, l, self.DS)
        assert 1.7 <= order <= 2.3

    def test_sphere_limit_is_zero(self):
        limit, _ = gke_extrapolate(sphere(1.0), 1, self.DS)
        assert abs(limit) < 1e-6

    def test_limit_l_independent_on_cylinder(self):
        limits = [gke_extrapolate(cylinder(1.0, 1.0), l, self.DS)[0] for l in (0, 2)]
        assert abs(limits[0] - limits[1]) < 1e-6

    def test_ring_treated_as_cylinder_section(self):
        limit, _ = gke_extrapolate(ring(1.0), 0, self.DS)
        assert abs(limit + 0.125) < 1e-6

    @pytest.mark.parametrize("R", [0.5, 2.0])
    def test_radius_scaling(self, R):
        limit, _ = gke_extrapolate(cylinder(R, 1.0), 1, self.DS)
        assert abs(limit + 1 / (8 * R * R)) < 1e-6

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            gke_extrapolate(cylinder(1.0, 1.0), 0, [0.1, 0.05])

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="non-monotone"):
            gke_extrapolate(cylinder(1.0, 1.0), 0, [0.1, 0.2, 0.05])


class TestEffectiveSurfaceEnergy:
    def test_cylinder_l1_sequence_approaches_three_eighths(self):
        # (l^2 - 1/4)/2 at R = 1, l = 1 -> 0.375
        rows = sweep_table(cylinder(1.0, 1.0), [1], [0.1, 0.05, 0.025])
        vals = [row["E_surface"] for row in rows]
        errs = [abs(v - 0.375) for v in vals]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-3

    def test_sphere_l1_approaches_one(self):
        [row] = sweep_table(sphere(1.0), [1], [0.01])
        assert abs(row["E_surface"] - 1.0) < 1e-4


class TestSweepTable:
    def test_one_radial_call_per_shell(self, monkeypatch):
        # sweep_table and gke_extrapolate solve each (l, d) shell once, through
        # the module global radial_spectrum
        shells, solve = [], thinlayer.radial_spectrum
        monkeypatch.setattr(thinlayer, "radial_spectrum",
                            lambda p, n=1: shells.append((p.l, p.d)) or solve(p, n))
        ds = [0.1, 0.05, 0.025, 0.0125]
        sweep_table(cylinder(1.0, 1.0), [0, 1, 3], ds, n=2)
        assert shells == [(l, d) for l in (0, 1, 3) for d in ds]
        shells.clear()
        gke_extrapolate(sphere(1.0), 2, ds)
        assert shells == [(2, d) for d in ds]

    def test_columns_and_consistency(self):
        rows = sweep_table(cylinder(1.0, 1.0), [0, 1], [0.1, 0.05])
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {"d", "l", "E_raw", "E_box", "E_surface", "shift"}
            assert row["E_surface"] == pytest.approx(row["E_raw"] - row["E_box"])

    def test_empty_width_list_rejected(self):
        with pytest.raises(ValueError, match="at least one layer width"):
            sweep_table(cylinder(1.0, 1.0), [0], [])
