"""Grids with quadrature weights, differencing stencils, and measure-weighted adjoints.

Hermiticity is always judged in the weighted inner product
<u, v>_W = sum_i w_i conj(u_i) v_i, where the weights are the discrete
surface measure.  The adjoint of an operator A is W^-1 A^H W.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import SurfaceKind, SurfaceSpec

# 4th-order centered first/second derivative coefficients (offsets -2..2)
_D1_O4 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2_O4 = np.array([-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0])


@dataclass(frozen=True)
class Grid:
    """Nodes and quadrature weights for one surface.

    coords1 is theta on every surface (azimuthal on ring/cylinder, polar on
    the sphere); coords2 is z (cylinder) or phi (sphere).  The flat node
    index is j1 * n2 + j2.  Weights are per-node patch areas; they sum to the
    exact surface area.
    """

    surface: SurfaceSpec
    n1: int
    n2: int
    coords1: np.ndarray
    coords2: np.ndarray
    weights: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.n1 * self.n2

    @property
    def h1(self) -> float:
        if self.surface.kind is SurfaceKind.SPHERE:
            return np.pi / self.n1
        return 2 * np.pi / self.n1

    @property
    def h2(self) -> float:
        if self.surface.kind is SurfaceKind.CYLINDER:
            return 2 * self.surface.L / self.n2
        if self.surface.kind is SurfaceKind.SPHERE:
            return 2 * np.pi / self.n2
        return 0.0


def build_grid(surface: SurfaceSpec, n1: int, n2: int = 1) -> Grid:
    """Grid with periodic azimuthal nodes, half-offset polar/z nodes.

    Half offsets keep sphere nodes away from the poles and cylinder nodes
    away from the Dirichlet walls at z = +-L.  Ring grids ignore n2.
    """
    if n1 < 3:
        raise ValueError(f"grid too small: n1={n1} < 3")
    R = surface.R
    if surface.kind is SurfaceKind.RING:
        h1 = 2 * np.pi / n1
        th = np.arange(n1) * h1
        w = np.full(n1, R * h1)
        return Grid(surface, n1, 1, th, np.zeros(1), w)
    if n2 < 3:
        raise ValueError(f"grid too small: n2={n2} < 3")
    if surface.kind is SurfaceKind.CYLINDER:
        h1 = 2 * np.pi / n1
        h2 = 2 * surface.L / n2
        th = np.arange(n1) * h1
        z = -surface.L + (np.arange(n2) + 0.5) * h2
        w = np.full(n1 * n2, R * h1 * h2)
        return Grid(surface, n1, n2, th, z, w)
    # sphere: theta = polar with half offset, phi periodic
    h1 = np.pi / n1
    h2 = 2 * np.pi / n2
    th = (np.arange(n1) + 0.5) * h1
    ph = np.arange(n2) * h2
    # exact cell integral of sin(theta), so the weights sum to 4 pi R^2 exactly
    wth = 2.0 * np.sin(h1 / 2) * np.sin(th)
    w = (R**2 * h2 * np.repeat(wth, n2))
    return Grid(surface, n1, n2, th, ph, w)


def dense_memory_limit() -> int:
    """Largest dense allocation surfband makes: a quarter of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 4


def check_dense_fits(n: int, itemsize: int, copies: int = 1) -> None:
    """Raise ValueError before allocating `copies` dense n x n arrays that would not fit."""
    need = copies * n * n * itemsize
    limit = dense_memory_limit()
    if need > limit:
        raise ValueError(f"dense {n}x{n} operator work needs {need / 2**30:.1f} GiB, above the "
                         f"{limit / 2**30:.1f} GiB limit (a quarter of physical memory)")


@dataclass(frozen=True)
class OperatorMatrix:
    """Sparse operator over grid nodes (x2 spin block optional).

    entries is a scipy.sparse CSR array; square dense arrays and other
    sparse formats are converted on construction.  The attached weights
    define the adjoint: A^dag = W^-1 A^H W with W = diag(weights) (tiled
    over the spin block).
    """

    entries: object
    weights: np.ndarray
    spin_dim: int = 1
    label: str = ""

    def __post_init__(self):
        import scipy.sparse as sp

        A = sp.csr_array(self.entries)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"operator must be square, got {A.shape}")
        if not np.all(np.isfinite(A.data)):
            raise ValueError(f"non-finite entries in operator {self.label!r}")
        if len(self.weights) * self.spin_dim != A.shape[0]:
            raise ValueError("weights length does not match operator dimension")
        object.__setattr__(self, "entries", A)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.entries.nnz)

    def toarray(self) -> np.ndarray:
        """Dense copy; ValueError instead of an allocation that would not fit in memory."""
        check_dense_fits(self.dim, self.entries.dtype.itemsize)
        return self.entries.toarray()

    def full_weights(self) -> np.ndarray:
        if self.spin_dim == 1:
            return self.weights
        return np.tile(self.weights, self.spin_dim)


def weighted_inner(u: np.ndarray, v: np.ndarray, weights: np.ndarray) -> complex:
    return complex(np.sum(weights * np.conj(u) * v))


def weighted_norm(u: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sqrt(np.real(weighted_inner(u, u, weights))))


def max_abs(A) -> float:
    """max |A_ij| over the stored entries of a sparse array (0 when there are none)."""
    return float(np.abs(A.data).max(initial=0.0))


def weighted_transpose(A, w: np.ndarray):
    """W^-1 A^H W of a sparse array, entrywise conj(A_ji) * (w_j / w_i)."""
    import scipy.sparse as sp

    T = A.T.conj().tocoo()
    return sp.csr_array((T.data * (w[T.col] / w[T.row]), (T.row, T.col)), shape=A.shape)


def weighted_adjoint(op: OperatorMatrix) -> OperatorMatrix:
    """W^-1 A^H W on the stored entries only."""
    adj = weighted_transpose(op.entries, op.full_weights())
    return OperatorMatrix(adj, op.weights, op.spin_dim, f"adjoint({op.label})")


def hermiticity_residual(op: OperatorMatrix) -> float:
    """max |A - W^-1 A^H W|: zero iff A is self-adjoint under its measure."""
    return max_abs(op.entries - weighted_transpose(op.entries, op.full_weights()))


def multiplication_operator(f, grid: Grid, label: str = "mult") -> OperatorMatrix:
    """Diagonal operator of samples f (flat or (n1, n2) shaped)."""
    import scipy.sparse as sp

    vals = np.asarray(f, dtype=complex).ravel()
    if vals.size != grid.size:
        raise ValueError(f"sample count {vals.size} != grid size {grid.size}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite samples rejected")
    return OperatorMatrix(sp.diags_array(vals), grid.weights, 1, label)


def sparse_from(n: int, rows, cols, vals):
    """n x n CSR array from COO triples; duplicate entries are summed."""
    import scipy.sparse as sp

    return sp.csr_array((np.asarray(vals, dtype=float), (rows, cols)), shape=(n, n))


def _stencil_matrix(n: int, offsets, coefs, periodic: bool):
    """Banded sparse matrix; periodic wraparound or plain truncation (zero ghosts)."""
    offsets = np.asarray(offsets)
    rows = np.tile(np.arange(n), len(offsets))
    cols = rows + np.repeat(offsets, n)
    vals = np.repeat(np.asarray(coefs, dtype=float), n)
    if periodic:
        cols %= n
    else:
        keep = (cols >= 0) & (cols < n)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return sparse_from(n, rows, cols, vals)


def _periodic_d1(n: int, h: float, order: int):
    if order == 2:
        return _stencil_matrix(n, (-1, 1), (-0.5 / h, 0.5 / h), True)
    return _stencil_matrix(n, range(-2, 3), _D1_O4 / h, True)


def _periodic_d2(n: int, h: float, order: int):
    if order == 2:
        return _stencil_matrix(n, (-1, 0, 1), np.array([1.0, -2.0, 1.0]) / h**2, True)
    return _stencil_matrix(n, range(-2, 3), _D2_O4 / h**2, True)


def _dirichlet_fold_d2(n: int, h: float):
    """Second derivative on half-offset nodes with walls half a step outside.

    Ghost values are the odd reflection across the wall (u_ghost = -u_edge),
    which pins u = 0 exactly at the wall and keeps the matrix symmetric.
    """
    A = _stencil_matrix(n, (-1, 0, 1), np.array([1.0, -2.0, 1.0]) / h**2, False)
    return A + sparse_from(n, [0, n - 1], [0, n - 1], [-1.0 / h**2, -1.0 / h**2])


def _dirichlet_d1(n: int, h: float):
    # plain truncation keeps the matrix exactly skew-symmetric
    return _stencil_matrix(n, (-1, 1), (-0.5 / h, 0.5 / h), False)


def _sphere_polar_d1(n1: int, n2: int, h: float, parity: int = 1):
    """Centered polar derivative with pole crossing (theta -> -theta, phi -> phi+pi).

    parity is +1 for scalars and -1 for tangential vector components, whose
    sign flips across the pole.  Falls back to one-sided rows when n2 is odd.
    """
    half = n2 // 2
    j, k = np.divmod(np.arange(n1 * n2), n2)
    if 2 * half == n2:
        rows, cols, vals = [], [], []
        for o, cc in ((1, 0.5 / h), (-1, -0.5 / h)):
            jj = j + o
            crossed = (jj < 0) | (jj >= n1)
            jj = np.where(jj < 0, -1 - jj, np.where(jj >= n1, 2 * n1 - 1 - jj, jj))
            rows.append(j * n2 + k)
            cols.append(jj * n2 + np.where(crossed, (k + half) % n2, k))
            vals.append(np.where(crossed, parity * cc, cc))
        return sparse_from(n1 * n2, np.concatenate(rows), np.concatenate(cols),
                           np.concatenate(vals))
    # one-sided 2nd-order rows at the first and last polar rings
    row = j * n2 + k
    inner = (j > 0) & (j < n1 - 1)
    first, last = j == 0, j == n1 - 1
    rows = [row[inner], row[inner]]
    cols = [row[inner] + n2, row[inner] - n2]
    vals = [np.full(inner.sum(), 0.5 / h), np.full(inner.sum(), -0.5 / h)]
    for sel, step, sign in ((first, n2, -1.0), (last, -n2, 1.0)):
        for m, cc in enumerate((1.5, -2.0, 0.5)):
            rows.append(row[sel])
            cols.append(row[sel] + m * step)
            vals.append(np.full(sel.sum(), sign * cc / h))
    return sparse_from(n1 * n2, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


def _kron_axis1(block, n2: int):
    import scipy.sparse as sp

    return sp.kron(block, sp.eye_array(n2), format="csr")


def _kron_axis2(block, n1: int):
    import scipy.sparse as sp

    return sp.kron(sp.eye_array(n1), block, format="csr")


def periodic_derivative(grid: Grid, axis: int, order: int = 2) -> OperatorMatrix:
    """First-derivative matrix along a grid axis.

    Periodic axes get centered wraparound stencils; the cylinder z axis gets
    the truncated centered stencil (exactly skew, consistent with functions
    vanishing at the walls); the sphere polar axis uses pole crossing.
    """
    if order not in (2, 4):
        raise ValueError("stencil order must be 2 or 4")
    kind = grid.surface.kind
    if axis == 0:
        if kind is SurfaceKind.SPHERE:
            if order != 2:
                raise ValueError("sphere polar derivative supports order 2 only")
            A = _sphere_polar_d1(grid.n1, grid.n2, grid.h1)
            return OperatorMatrix(A, grid.weights, 1, "d/dtheta[sphere]")
        D = _periodic_d1(grid.n1, grid.h1, order)
        A = D if kind is SurfaceKind.RING else _kron_axis1(D, grid.n2)
        return OperatorMatrix(A, grid.weights, 1, "d/dtheta")
    if axis == 1:
        if kind is SurfaceKind.RING:
            raise ValueError("ring has a single axis")
        if kind is SurfaceKind.CYLINDER:
            if order != 2:
                raise ValueError("z-axis derivative supports order 2 only")
            A = _kron_axis2(_dirichlet_d1(grid.n2, grid.h2), grid.n1)
            return OperatorMatrix(A, grid.weights, 1, "d/dz")
        D = _periodic_d1(grid.n2, grid.h2, order)
        return OperatorMatrix(_kron_axis2(D, grid.n1), grid.weights, 1, "d/dphi")
    raise ValueError(f"axis must be 0 or 1, got {axis}")


def periodic_second_derivative(grid: Grid, axis: int, order: int = 2) -> OperatorMatrix:
    """Second-derivative matrix along a grid axis (see periodic_derivative)."""
    if order not in (2, 4):
        raise ValueError("stencil order must be 2 or 4")
    kind = grid.surface.kind
    if axis == 0:
        if kind is SurfaceKind.SPHERE:
            raise ValueError(
                "the sphere polar second derivative is assembled in divergence "
                "form by the Hamiltonian builders"
            )
        D = _periodic_d2(grid.n1, grid.h1, order)
        A = D if kind is SurfaceKind.RING else _kron_axis1(D, grid.n2)
        return OperatorMatrix(A, grid.weights, 1, "d2/dtheta2")
    if axis == 1:
        if kind is SurfaceKind.RING:
            raise ValueError("ring has a single axis")
        if kind is SurfaceKind.CYLINDER:
            if order != 2:
                raise ValueError("z-axis second derivative supports order 2 only")
            A = _kron_axis2(_dirichlet_fold_d2(grid.n2, grid.h2), grid.n1)
            return OperatorMatrix(A, grid.weights, 1, "d2/dz2")
        D = _periodic_d2(grid.n2, grid.h2, order)
        return OperatorMatrix(_kron_axis2(D, grid.n1), grid.weights, 1, "d2/dphi2")
    raise ValueError(f"axis must be 0 or 1, got {axis}")
