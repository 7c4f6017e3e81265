"""Diagonalization, Hermiticity diagnostics, gauge-covariance checks, reference spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import discretize
from .discretize import (
    Grid,
    OperatorMatrix,
    check_fits,
    hermiticity_residual,
    max_abs,
    weighted_norm,
    weighted_transpose,
)
from .fields import GaugeFieldSpec, GaugeFunction, add_gauge, materialize
from .geometry import PhysicalConstants

HERMITIAN_TOL = 1e-10
EIGEN_RESIDUAL_TOL = 1e-10  # the largest on a Hermitian path; correct solves give < 4e-15
# Hermitian solves of at least this dimension, with k at most dim // 16, use
# shift-invert ARPACK; smaller or nearly full solves use dense eigh.
SPARSE_MIN_DIM = 512
_SHIFT_INVERT_SEED = 20161031
_MAX_FACTORIZATIONS = 40
# the Hermitian test's relative floor, times max|H|; sectors are taken when each stored
# entry of the phase-fixed operator is within this fraction of max|S| of slice 0's entry
SECTOR_TOL = 1e-12


@dataclass
class SpectrumReport:
    """Eigenvalues plus the diagnostics needed to trust them.

    Hermitian operators give real ascending eigenvalues; non-Hermitian input
    is reported as complex, sorted by real part then imaginary part.  solver
    names the path taken: sector-eigh (input azimuthally symmetric up to a
    diagonal phase), dense-eigh or sparse-shift-invert for Hermitian input,
    the same with a shifted- prefix for input whose anti-Hermitian part is a
    scalar ic I, dense-eig for any other input.  dim and nnz describe the
    operator it was given.  eigen_residual is
    max_i ||H v_i - E_i v_i||_W / (||v_i||_W max|H|) against that operator,
    set whenever the path produced eigenvectors (the sector and sparse
    paths, or want_vectors=True), else None.  Every path but dense-eig
    raises RuntimeError rather than return one above EIGEN_RESIDUAL_TOL.
    """

    eigenvalues: np.ndarray
    hermiticity_residual: float
    operator_label: str
    eigenvectors: np.ndarray | None = None
    solver: str = ""
    dim: int = 0
    nnz: int = 0
    eigen_residual: float | None = None


def choose_solver(n: int, k: int, hermitian: bool) -> str:
    """The eigensolver path for k of n levels; depends on the input only."""
    if not hermitian:
        return "dense-eig"
    if n >= SPARSE_MIN_DIM and 16 * k <= n:
        return "sparse-shift-invert"
    return "dense-eigh"


def spectrum(op: OperatorMatrix, k: int | None = None,
             want_vectors: bool = False) -> SpectrumReport:
    """Lowest-k eigenpairs of an operator in its weighted inner product.

    c = Im H[0, 0] is read first.  When c = 0, operators whose Hermiticity
    residual is at most HERMITIAN_TOL min(1, max|H|) or SECTOR_TOL max|H|,
    whichever is larger, are symmetrized as W^(1/2) H W^(-1/2) and
    solved with a self-adjoint eigensolver: by azimuthal sectors when the
    result commutes with the azimuthal shift of op.layout after a diagonal
    phase fix read from the azimuthal links (_sector_eigh), else dense, or
    shift-invert ARPACK for k << dim.  When c != 0, however small, an
    operator whose anti-Hermitian part is ic I within the same tolerance
    (the pragmatic operator with a uniform A_r) is normal: its Hermitian part
    is solved the same way and ic is added to the eigenvalues, on the path
    shifted-<solver>.  Anything else goes through the dense general complex
    solver.  Dense paths, the sector vectors and the sparse factors refuse
    requests too large for memory with MemoryError.
    """
    n = op.dim
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    resid = hermiticity_residual(op)
    # absolute for O(1) operators, relative for small and for stiff ones
    scale = max_abs(op.entries) or 1.0
    tol = max(HERMITIAN_TOL * min(1.0, scale), SECTOR_TOL * scale)
    # c is one diagonal entry's imaginary part, not a mean, so the levels of
    # the shifted solve carry Im E = c exactly; c = 0 means plain Hermitian
    c = float(op.entries[0, 0].imag)
    shift = c if (resid if c == 0.0 else _shifted_residual(op, c)) <= tol else None
    solver = choose_solver(n, k, shift is not None)
    try:
        if solver == "dense-eig":
            check_fits(3 * n * n * 16, f"dense {n}x{n} operator work")
            A = op.toarray()
            if want_vectors:
                ev, vec = np.linalg.eig(A)
                order = np.lexsort((ev.imag, ev.real))
                ev, vec = ev[order], vec[:, order]
                # unit W-norm, as on the Hermitian paths
                vec = vec / np.sqrt(op.full_weights() @ np.abs(vec) ** 2)
            else:
                ev = np.linalg.eigvals(A)
                ev = ev[np.lexsort((ev.imag, ev.real))]
                vec = None
        else:
            sqw = np.sqrt(op.full_weights())
            # the Hermitian part of H: an anti-Hermitian ic I drops out here
            S = _symmetrized(op.entries, sqw)
            sectors = _sector_eigh(S, op.layout, k)
            if sectors is not None:
                (ev, vec), solver = sectors, "sector-eigh"
            elif solver == "sparse-shift-invert":
                ev, vec = _shift_invert(S, k, sqw, scale, op.label)
            else:
                check_fits(3 * n * n * S.dtype.itemsize, f"dense {n}x{n} operator work")
                if want_vectors:
                    ev, vec = np.linalg.eigh(S.toarray())
                else:
                    ev, vec = np.linalg.eigvalsh(S.toarray()), None
            if vec is not None:
                vec = vec.astype(complex) / sqw[:, None]
            if shift:
                ev, solver = ev + 1j * shift, f"shifted-{solver}"
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed for operator {op.label!r}: {exc}") from exc
    ev = ev[:k]
    residual = None
    if vec is not None:
        vec = vec[:, :k]
        w = op.full_weights()
        u = vec * np.sqrt(w.min())  # the ratio is scale-free; unit W-norm makes |u| <= 1
        w = w / w.max()  # so that no product below overflows
        r = op.entries @ u
        r -= u * ev  # in place: with vec and u, four N x k arrays at most, as charged
        r2 = ((np.abs(r) / scale) ** 2).T @ w
        residual = float(np.sqrt(r2 / ((np.abs(u) ** 2).T @ w)).max())
        if shift is not None and not residual <= EIGEN_RESIDUAL_TOL:
            raise RuntimeError(f"eigenpairs of {op.label!r} have residual {residual:.3g}, "
                               f"above {EIGEN_RESIDUAL_TOL:g}")
    return SpectrumReport(ev, resid, op.label, vec if want_vectors else None, solver, n,
                          op.nnz, residual)


def _shifted_residual(op: OperatorMatrix, c: float) -> float:
    """The Hermiticity residual of op - ic I; O(nnz), on the stored entries."""
    import scipy.sparse as sp

    return max_abs(op.entries - weighted_transpose(op.entries, op.full_weights())
                   - 2j * c * sp.eye_array(op.dim, format="csr"))


def _symmetrized(A, sqw: np.ndarray):
    """(S + S^H)/2 with S = W^(1/2) A W^(-1/2), real when no imaginary part survives."""
    import scipy.sparse as sp

    C = A.tocoo()
    S = sp.csr_array((C.data * sqw[C.row] / sqw[C.col], (C.row, C.col)), shape=A.shape)
    S = 0.5 * (S + S.conj().T)
    if np.iscomplexobj(S.data) and not S.data.imag.any():
        S = S.real  # real symmetric solvers are several times faster
    return S


def _sector_eigh(S, layout, k: int):
    """Lowest k eigenpairs of S by azimuthal sectors; None unless S is symmetric up to a gauge.

    P is the one-node azimuthal shift of layout (outer, n_az, inner).  On
    each orbit (o, ., i), t_a is the wrapped phase of link a -> a + 1 less
    that of link 0 -> 1, less its orbit mean, and v_a = -(t_0 + ... + t_(a-1)),
    so v = 0 when P S P^T = S.  S_f = V^H S V with V = diag(exp(i v)) couples
    slices a and a + d by blocks C_d, read from the stored entries of slice 0.
    They are taken when every slice stores as many entries as slice 0, each
    within SECTOR_TOL max|S| of slice 0's entry at the same offset.  S_f is
    then the direct sum of B_m = sum_d C_d w^(m d), w = exp(2 pi i / n_az), on
    the vectors w^(m a) phi / sqrt(n_az), which are multiplied by V.  The FFT
    along d gives B_(-m); for real S_f, B_(-m) = conj(B_m), so only
    m = 0..n_az/2 are solved.  Vectors are formed for the k returned levels
    only.  None too when the blocks would not fit.
    """
    import scipy.linalg

    if layout is None:
        return None
    (outer, n_az, inner), n, b = layout, S.shape[0], layout[0] * layout[2]
    if 3 * n_az * b * b * 16 > discretize.dense_memory_limit():  # blocks, FFT, vectors
        return None
    idx = np.arange(n).reshape(layout)
    link = S[idx.ravel(), np.roll(idx, -1, axis=1).ravel()].reshape(layout)
    # a difference of angles: the product link * conj(link_0) overflows on stiff S
    t = np.angle(link) - np.angle(link[:, :1])
    t = np.pi - (np.pi - t) % (2 * np.pi)  # into (-pi, pi]; equal links give 0 exactly
    t -= t.mean(axis=1, keepdims=True)
    v = (t - np.cumsum(t, axis=1)).ravel()
    T = S.tocoo()
    if v.any():
        T.data = T.data * np.exp(1j * (v[T.col] - v[T.row]))
    o, slice_of, i = (x.ravel() for x in np.indices(layout))
    node, a = o * inner + i, slice_of[T.row]  # a node's row in its block, an entry's slice
    at = ((slice_of[T.col] - a) % n_az * b + node[T.row]) * b + node[T.col]  # its place in C
    first = a == 0
    C, stored = np.zeros(n_az * b * b, T.dtype), np.zeros(n_az * b * b, bool)
    C[at[first]], stored[at[first]] = T.data[first], True
    same = stored[at] & (np.abs(T.data - C[at]) <= SECTOR_TOL * max_abs(S))
    if not same.all() or (np.bincount(a, minlength=n_az) != first.sum()).any():
        return None
    C = C.reshape(n_az, b, b)
    del T, a, at, first, same, stored  # the O(nnz) arrays: out of the solve's peak
    # the vectors, their unweighted copy and the residual's two work arrays
    check_fits(4 * n * k * 16, f"{k} eigenvectors of dimension {n} and their residuals")
    real = not np.iscomplexobj(C)
    B = np.fft.rfft(C, axis=0) if real else np.fft.fft(C, axis=0, out=C)
    w = scipy.linalg.eigh(B, eigvals_only=True)
    src = np.arange(len(w))
    twins = src[(src > 0) & (2 * src < n_az)] if real else src[:0]
    sector = np.concatenate([-src % n_az, twins])  # the twin of B_(-m) is conj(B_(-m)) = B_m
    src = np.concatenate([src, twins])
    levels = w[src].ravel()
    pick = np.argsort(levels, kind="stable")[:k]
    s, j = np.divmod(pick, b)
    need = np.unique(src[s])  # vectors only of the blocks that hold a returned level
    X = scipy.linalg.eigh(B[need], subset_by_index=[0, j.max()])[1]
    phi, twin = X[np.searchsorted(need, src[s]), :, j], s >= len(w)
    phi[twin] = phi[twin].conj()
    wave = np.exp(2j * np.pi * (sector[s][:, None] * np.arange(n_az) % n_az) / n_az)
    vec = phi.reshape(k, outer, 1, inner) * (wave / np.sqrt(n_az))[:, None, :, None]
    vec = vec.reshape(k, n).T
    return levels[pick], vec * np.exp(1j * v)[:, None] if v.any() else vec


def _factor(S, sigma: float):
    """SuperLU of S - sigma I with diagonal pivots, and its count of negative pivots.

    Symmetric mode with diag_pivot_thresh=0 keeps perm_r == perm_c, so
    L U = P (S - sigma I) P^T and the signs of U's diagonal are the inertia
    of S - sigma I (Sylvester).  The count is None when SuperLU had to pivot
    off the diagonal anyway, which proves nothing, or found S - sigma I
    singular.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    shifted = (S - sigma * sp.eye_array(S.shape[0])).tocsc()
    try:
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular: sigma is an eigenvalue
        return None, None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return lu, None
    return lu, int(np.count_nonzero(lu.U.diagonal().real < 0))


def _shift_invert(S, k: int, sqw: np.ndarray, scale: float, label: str):
    """Lowest k eigenpairs of sparse Hermitian S by ARPACK in shift-invert mode.

    The shift sigma starts just below min_i (S_ii - sum_(j != i) |S_ij| sqrt(w_j / w_i)),
    Gershgorin's bound for W^(-1/2) S W^(1/2) = W^(-1) K, which has S's
    eigenvalues: S - sigma I is positive definite, and the eigenvalues
    nearest sigma are the lowest.  Its fill is charged to check_fits.  While
    k or more levels may lie below the bracket top (the Rayleigh quotient of
    the weighted constant vector, then the last rejected shift), the bracket
    is bisected: a shift far below the wanted levels makes Lanczos crawl and
    can make it settle on the wrong levels.  The last positive definite
    factorization is reused as OPinv.  Lanczos can drop copies of a
    degenerate level or miss one near the top of the window, so the inertia
    just above the k-th eigenvalue must match the count found; missing
    levels are searched for with the found eigenvectors orthonormalized and
    deflated, and a surplus raises.
    """
    import scipy.linalg
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

    n = S.shape[0]
    resolution = 1e-8 * scale
    u = sqw / np.linalg.norm(sqw)
    ncv = min(n, max(2 * k + 1, 20))
    d = S.diagonal().real  # |S_ii| is taken out of the row sum: diagonals can be negative
    sigma = float((d + np.abs(d) - abs(S) @ sqw / sqw).min()) - resolution
    lu, _ = _factor(S, sigma)
    # the fill of L and U with its row indices, and ncv Lanczos vectors
    check_fits(lu.nnz * (S.dtype.itemsize + 4) + n * ncv * S.dtype.itemsize,
               f"the sparse factors of {label!r}")
    # the Rayleigh quotient bounds the lowest level from above; count it as holding every level
    top, below_top = float(np.vdot(u, S @ u).real), n
    while below_top >= k and top - sigma > resolution:
        mid = 0.5 * (sigma + top)
        lu_mid, negative = _factor(S, mid)
        if negative == 0:
            sigma, lu = mid, lu_mid
        else:
            top, below_top = mid, n if negative is None else negative

    rng = np.random.default_rng(_SHIFT_INVERT_SEED)

    def lowest(count, V):
        """count eigenpairs nearest sigma, orthogonal to the columns of V.

        Each search starts from a fresh seeded vector: a reused start has no
        component along degenerate copies the previous search missed.
        """
        start = rng.standard_normal(n)
        if np.iscomplexobj(S.data):
            start = start + 1j * rng.standard_normal(n)
        op = lu.solve
        if V is not None:
            # eigsh's vectors need not be orthonormal within a degenerate cluster
            V = scipy.linalg.qr(V, mode="economic")[0]
            # einsum, not BLAS: numpy's threaded BLAS interleaved with the solver's
            # own BLAS copy oversubscribes the cores and slows every step
            Vc = V.conj()
            project = lambda x: x - np.einsum("ij,j->i", V, np.einsum("ij,i->j", Vc, x))
            op, start = (lambda x: project(lu.solve(project(x)))), project(start)
        try:
            return eigsh(S, count, sigma=sigma, which="LM", tol=0, v0=start, ncv=ncv,
                         OPinv=LinearOperator((n, n), matvec=op, dtype=S.dtype))
        except (ArpackNoConvergence, ArpackError) as exc:
            raise RuntimeError(f"shift-invert eigensolve failed for operator {label!r}: "
                               f"{exc}") from exc

    ev, vec = lowest(k, None)
    gap = resolution
    for _ in range(_MAX_FACTORIZATIONS):
        order = np.argsort(ev, kind="stable")
        ev, vec = ev[order], vec[:, order]
        above = ev[k - 1] + gap
        _, below = _factor(S, above)
        if below is None:
            gap *= 2
            continue
        missing = below - int(np.count_nonzero(ev < above))
        if missing == 0:
            return ev[:k], vec[:, :k]
        if missing < 0:
            raise RuntimeError(f"{-missing} levels found for {label!r} are not eigenvalues: "
                               f"the inertia counts {below} below {above:.17g}")
        more, more_vec = lowest(min(missing, n - 1 - len(ev)), vec)
        ev, vec = np.concatenate([ev, more]), np.hstack([vec, more_vec])
    raise RuntimeError(f"the lowest {k} levels of {label!r} could not be certified")


def antihermitian_part(op: OperatorMatrix) -> tuple[OperatorMatrix, float]:
    """(H - H^dag_W)/2 and its max-entry norm, on the stored entries."""
    anti = 0.5 * (op.entries - weighted_transpose(op.entries, op.full_weights()))
    return (OperatorMatrix(anti, op.weights, op.spin_dim, f"antihermitian({op.label})"),
            max_abs(anti))


def gauge_covariance_residual(field: GaugeFieldSpec, lam: GaugeFunction, builder,
                              psi: np.ndarray, grid: Grid,
                              c: PhysicalConstants = PhysicalConstants(),
                              exact: bool = True) -> float:
    """|| H(A + grad lam) U psi - U H(A) psi ||_W with U = diag(exp(i e lam / hbar)).

    exact=True shifts the field by attaching lam (per-link increments are the
    exact line integrals of the gradient), making the identity hold to
    round-off.  exact=False materializes A + grad(lam) as plain samples, and
    the residual is O(h^p) for smooth lam.
    """
    shifted = add_gauge(field, lam, grid)
    if not exact:
        shifted = materialize(shifted, grid)
    H0 = builder(field)
    H1 = builder(shifted)
    u = np.tile(np.exp(1j * (c.charge / c.hbar) * lam.grid_values(grid).ravel()), H0.spin_dim)
    lhs = H1.entries @ (u * psi)
    rhs = u * (H0.entries @ psi)
    return weighted_norm(lhs - rhs, H0.full_weights())


def spectrum_gauge_invariance(field: GaugeFieldSpec, lam: GaugeFunction, builder,
                              k: int, grid: Grid, exact: bool = True) -> float:
    """max |E_i(A + grad lam) - E_i(A)| over the lowest k levels."""
    shifted = add_gauge(field, lam, grid)
    if not exact:
        shifted = materialize(shifted, grid)
    ev0 = spectrum(builder(field), k).eigenvalues
    ev1 = spectrum(builder(shifted), k).eigenvalues
    return float(np.abs(np.real(ev1) - np.real(ev0)).max())


def analytic_ring_spectrum(R: float, Phi: float, l_range,
                           c: PhysicalConstants = PhysicalConstants()) -> np.ndarray:
    """E_l = (hbar^2/2mR^2)(l - Phi/Phi0)^2 - hbar^2/(8mR^2), Phi0 = 2 pi hbar / e."""
    alpha = Phi / c.flux_quantum if Phi != 0 else 0.0
    ls = np.asarray(list(l_range), dtype=float)
    pref = c.hbar**2 / (2 * c.mass * R**2)
    return pref * (ls - alpha) ** 2 - c.hbar**2 / (8 * c.mass * R**2)


def analytic_cylinder_landau(R: float, B: float, l: int, k_z: float,
                             c: PhysicalConstants = PhysicalConstants()) -> float:
    """E = hbar^2 k_z^2/2m + (hbar l / R - e B R / 2)^2 / 2m - hbar^2/(8mR^2)."""
    return (c.hbar**2 * k_z**2 / (2 * c.mass)
            + (c.hbar * l / R - c.charge * B * R / 2) ** 2 / (2 * c.mass)
            - c.hbar**2 / (8 * c.mass * R**2))


def ring_symbol_spectrum(n: int, R: float, alpha: float,
                         c: PhysicalConstants = PhysicalConstants()) -> np.ndarray:
    """Exact eigenvalues of the covariant ring stencil: the discrete symbol.

    E_l = (hbar^2/m R^2 h^2)(1 - cos(h (l - alpha))) - hbar^2/(8 m R^2) over
    the n Fourier modes; useful as the sharp reference for grid spectra.
    """
    h = 2 * np.pi / n
    ls = np.arange(-(n // 2), n - n // 2, dtype=float)
    pref = c.hbar**2 / (c.mass * R**2 * h**2)
    return np.sort(pref * (1 - np.cos(h * (ls - alpha))) - c.hbar**2 / (8 * c.mass * R**2))
