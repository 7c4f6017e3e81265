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

# Assembly memory per grid node, rounded up: the tracemalloc peak of one
# build_hamiltonian (after a warm-up build) over the node count is 1,253 B for
# the heaviest request, the spin sphere with a Sampled field in the expanded
# coupling (1,245 B in the Peierls one), alike at 4,096 and 16,384 nodes.
ASSEMBLY_BYTES_PER_NODE = 1300


@dataclass(frozen=True)
class Grid:
    """Nodes and quadrature weights for one surface.

    coords1 is theta on every surface (azimuthal on ring/cylinder, polar on
    the sphere); coords2 is z (cylinder) or phi (sphere).  The flat node
    index is j1 * n2 + j2.  h1 and h2 are the node spacings in coords1 and
    coords2 (h2 = 0 on the ring), set by build_grid.  Weights are per-node
    patch areas; they sum to the exact surface area.
    """

    surface: SurfaceSpec
    n1: int
    n2: int
    coords1: np.ndarray
    coords2: np.ndarray
    h1: float
    h2: float
    weights: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.n1 * self.n2


def build_grid(surface: SurfaceSpec, n1: int, n2: int = 1) -> Grid:
    """Grid with periodic azimuthal nodes, half-offset polar/z nodes.

    Half offsets keep sphere nodes away from the poles and cylinder nodes
    away from the Dirichlet walls at z = +-L.  Ring grids ignore n2.  A grid
    whose operator assembly would not fit in memory raises MemoryError.
    """
    ring = surface.kind is SurfaceKind.RING
    if n1 < 3:
        raise ValueError(f"grid too small: n1={n1} < 3")
    if not ring and n2 < 3:
        raise ValueError(f"grid too small: n2={n2} < 3")
    n2 = 1 if ring else n2
    check_fits(n1 * n2 * ASSEMBLY_BYTES_PER_NODE, f"assembling a {n1 * n2}-node grid operator")
    R = surface.R
    if surface.kind is SurfaceKind.SPHERE:
        # theta = polar with half offset, phi periodic
        h1, h2 = np.pi / n1, 2 * np.pi / n2
        th = (np.arange(n1) + 0.5) * h1
        # exact cell integral of sin(theta), so the weights sum to 4 pi R^2 exactly
        w = R**2 * h2 * np.repeat(2.0 * np.sin(h1 / 2) * np.sin(th), n2)
        return Grid(surface, n1, n2, th, np.arange(n2) * h2, h1, h2, w)
    h1 = 2 * np.pi / n1
    th = np.arange(n1) * h1
    if ring:
        return Grid(surface, n1, 1, th, np.zeros(1), h1, 0.0, np.full(n1, R * h1))
    h2 = 2 * surface.L / n2
    z = -surface.L + (np.arange(n2) + 0.5) * h2
    return Grid(surface, n1, n2, th, z, h1, h2, np.full(n1 * n2, R * h1 * h2))


def dense_memory_limit() -> int:
    """Largest allocation surfband plans, dense or not: a quarter of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 4


def check_fits(nbytes: int, what: str) -> None:
    """Raise MemoryError before an allocation of nbytes that would not fit in memory."""
    limit = dense_memory_limit()
    if nbytes > limit:
        raise MemoryError(f"{what} needs {nbytes / 2**30:.1f} GiB, above the "
                          f"{limit / 2**30:.1f} GiB limit (a quarter of physical memory)")


@dataclass(frozen=True)
class OperatorMatrix:
    """Sparse operator over grid nodes, or over both spin blocks of them.

    entries is a scipy.sparse CSR array; square dense arrays and other
    sparse formats are converted on construction.  weights holds one entry
    per row (a spin operator repeats the grid measure for each block) and
    defines the adjoint: A^dag = W^-1 A^H W with W = diag(weights).  layout,
    when known, is (outer, n_az, inner): node (o, a, i) at azimuth index a
    has flat index (o * n_az + a) * inner + i.
    """

    entries: object
    weights: np.ndarray
    label: str = ""
    layout: tuple | None = None

    def __post_init__(self):
        import scipy.sparse as sp

        A = sp.csr_array(self.entries)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"operator must be square, got {A.shape}")
        if not np.all(np.isfinite(A.data)):
            raise ValueError(f"non-finite entries in operator {self.label!r}")
        if len(self.weights) != A.shape[0]:
            raise ValueError(f"{len(self.weights)} weights for an operator of {A.shape[0]} rows")
        if not np.all((np.asarray(self.weights) > 0) & np.isfinite(self.weights)):
            raise ValueError(f"weights of operator {self.label!r} must be finite and positive")
        if self.layout is not None and int(np.prod(self.layout)) != A.shape[0]:
            raise ValueError(f"layout {self.layout} does not match dimension {A.shape[0]}")
        object.__setattr__(self, "entries", A)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.entries.nnz)

    def toarray(self) -> np.ndarray:
        """Dense copy; MemoryError instead of an allocation that would not fit in memory."""
        n = self.dim
        check_fits(n * n * self.entries.dtype.itemsize, f"dense {n}x{n} operator")
        return self.entries.toarray()


def weighted_inner(u: np.ndarray, v: np.ndarray, weights: np.ndarray) -> complex:
    return complex(np.sum(weights * np.conj(u) * v))


def weighted_norm(u: np.ndarray, weights: np.ndarray) -> float:
    """sqrt(<u, u>_W), with u rescaled by max|u| when the plain sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.real(weighted_inner(u, u, weights))
    if sq < np.inf:
        return float(np.sqrt(sq))
    scale = float(np.abs(u).max())
    return scale * float(np.sqrt(np.real(weighted_inner(u / scale, u / scale, weights))))


def max_abs(A) -> float:
    """max |A_ij| over the stored entries of a sparse array (0 when there are none)."""
    return float(np.abs(A.data).max(initial=0.0))


def weighted_transpose(A, w: np.ndarray):
    """W^-1 A^H W of a sparse array, entrywise conj(A_ji) * (w_j / w_i)."""
    import scipy.sparse as sp

    T = A.T.conj().tocoo()
    return sp.csr_array((T.data * (w[T.col] / w[T.row]), (T.row, T.col)), shape=A.shape)


def hermiticity_residual(op: OperatorMatrix) -> float:
    """max |A - W^-1 A^H W|: zero iff A is self-adjoint under its measure."""
    return max_abs(op.entries - weighted_transpose(op.entries, op.weights))


def _dirichlet_d1(n: int, h: float):
    """Centered 1-D first derivative, the radial stencil; truncated rows keep it exactly skew."""
    import scipy.sparse as sp

    return sp.diags_array([np.full(n - 1, -0.5 / h), np.full(n - 1, 0.5 / h)], offsets=(-1, 1),
                          format="csr")


def _grid_links(grid: Grid, axis: int, offset: int = 1):
    """(start, end) node indices of the links k -> k + offset along one grid axis.

    Periodic axes (every azimuth) keep all n1 x n2 links; open axes (sphere
    polar, cylinder z) keep only links inside the grid.
    """
    idx = np.arange(grid.size).reshape(grid.n1, grid.n2)
    end = np.roll(idx, -offset, axis=axis)
    periodic = (axis == 0) != (grid.surface.kind is SurfaceKind.SPHERE)
    if periodic:
        return idx, end
    cut = (slice(None, -offset), slice(None)) if axis == 0 else (slice(None), slice(None, -offset))
    return idx[cut], end[cut]


def _polar_node(p, k, n1: int, n2: int):
    """Flat sphere node index of polar index p and azimuth index k, crossing a pole.

    A polar index past a pole (p < 0 or p >= n1) reflects (theta -> -theta)
    to -1 - p or 2 n1 - 1 - p, and its azimuth turns by pi, k -> k + n2/2,
    which is a node only for even n2.
    """
    crossed = (p < 0) | (p >= n1)
    p = np.where(p < 0, -1 - p, np.where(p >= n1, 2 * n1 - 1 - p, p))
    return p * n2 + np.where(crossed, (k + n2 // 2) % n2, k)


def tangential_gradient(grid: Grid) -> tuple:
    """Sparse physical tangential gradient (G1, G2) of node data (fields, gauges).

    G1 = (1/R) d/dtheta on every surface.  G2 is d/dz on the cylinder,
    (1/(R sin theta)) d/dphi on the sphere and None on the ring.  The rows
    are centered differences over the links of _grid_links: link i -> j puts
    +1/2h at (i, j) and -1/2h at (j, i).  An axis with fewer links than
    nodes has ends.  Sphere polar ends take ghosts across the pole
    (_polar_node) for even n2.  Elsewhere (odd n2, and the cylinder walls,
    where node data need not vanish) the end rows are one-sided second order.
    """
    import scipy.sparse as sp

    R, n1, n2 = grid.surface.R, grid.n1, grid.n2
    sphere = grid.surface.kind is SurfaceKind.SPHERE
    idx = np.arange(grid.size).reshape(n1, n2)
    G = []
    for axis in (0,) if grid.surface.kind is SurfaceKind.RING else (0, 1):
        h, step = (grid.h1, n2) if axis == 0 else (grid.h2, 1)
        i, j = (a.ravel() for a in _grid_links(grid, axis))
        rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
        vals = np.repeat([0.5 / h, -0.5 / h], i.size)
        if i.size < grid.size:
            ends = [(np.take(idx, e, axis), s) for e, s in ((0, 1), (-1, -1))]
            if sphere and n2 % 2 == 0:
                k = np.arange(n2)
                for (e, s), p in zip(ends, (-1, n1)):
                    rows, cols = np.append(rows, e), np.append(cols, _polar_node(p, k, n1, n2))
                    vals = np.append(vals, np.full(n2, -s * 0.5 / h))
            else:
                keep = ~np.isin(rows, [e for e, _ in ends])
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
                for e, s in ends:
                    rows = np.append(rows, np.tile(e, 3))
                    cols = np.append(cols, np.concatenate([e, e + s * step, e + 2 * s * step]))
                    vals = np.append(vals, np.repeat(s * np.array([-1.5, 2.0, -0.5]) / h, e.size))
        G.append(sp.csr_array((vals, (rows, cols)), shape=(grid.size, grid.size)))
    if sphere:
        G[1] = sp.diags_array(1.0 / (R * np.repeat(np.sin(grid.coords1), n2))) @ G[1]
    return G[0] / R, (G[1] if len(G) == 2 else None)
