"""Assembly of surface Hamiltonians as weighted-Hermitian sparse operator matrices.

Every kinetic term is a covariant hopping on the grid graph plus a diagonal,
built by link_operator.  The coupling decides only each link's hop factor:

* "peierls" (default): the phase exp(-i theta), theta = e/hbar integral A.dl.
  Zero field reduces entrywise to the free stencils, gauge shifts act as
  exact unitary conjugations, and flux periodicity of the ring spectrum is exact.
* "expanded": its first order 1 - i theta, plus (e^2/2m)|A|^2 on the diagonal:
  the expanded form p^2/2m - (e/2m)(p.A + A.p) + e^2 A^2/2m, gauge covariant
  only to stencil order.

The variant decides only the diagonal.  The pragmatic one deliberately
reproduces the surface-restricted operator obtained by deleting d/dr: it
carries (e^2/2m) A_r^2 + i(hbar e/2m)(A_r/R + dA_r/dr), an anti-Hermitian
imaginary part, in place of the correct one's curvature shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np

from . import fields as fields_mod
from .discretize import Grid, OperatorMatrix, _dirichlet_d1, _grid_links, _polar_node
from .fields import GaugeFieldSpec, link_integrals
from .geometry import (PhysicalConstants, SurfaceKind, SurfaceSpec, geometric_kinetic_energy,
                       radial_exponent)

VARIANTS = ("correct", "pragmatic")
COUPLINGS = ("peierls", "expanded")
ORDERS = (2, 4)


@dataclass(frozen=True)
class HamiltonianRequest:
    """One surface operator to assemble; unsupported combinations raise ValueError here.

    Supported: any surface with or without a field in the correct variant;
    the pragmatic variant only on the ring or cylinder, only with a field, in
    either coupling; stencil order 4 only without a field, on the ring or on
    a sphere with an even azimuthal count.
    """

    surface: SurfaceSpec
    grid: Grid
    field: GaugeFieldSpec | None = None
    spin: bool = False
    constants: PhysicalConstants = dc_field(default_factory=PhysicalConstants)
    variant: str = "correct"
    coupling: str = "peierls"
    order: int = 2

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.coupling not in COUPLINGS:
            raise ValueError(f"unknown coupling {self.coupling!r}")
        if self.order not in ORDERS:
            raise ValueError("stencil order must be 2 or 4")
        if self.grid.surface != self.surface:
            raise ValueError("grid was built for a different surface")
        kind = self.surface.kind
        if self.variant == "pragmatic":
            if self.field is None:
                raise ValueError("pragmatic variant requires a field")
            if kind is SurfaceKind.SPHERE:
                raise ValueError("the pragmatic variant is defined on the ring and cylinder")
        if self.order == 4:
            if self.field is not None:
                raise ValueError("operators with a field support stencil order 2 only")
            if kind is SurfaceKind.CYLINDER:
                raise ValueError("cylinder operators support stencil order 2 only")
            if kind is SurfaceKind.SPHERE and self.grid.n2 % 2:
                raise ValueError("order-4 sphere assembly requires an even azimuthal count")


# ---------------------------------------------------------------------------
# the covariant link-graph assembler
# ---------------------------------------------------------------------------

def link_operator(n: int, i, j, c, hop=None, diag=None, weights=None):
    """Sum over links of c (|i><i| + |j><j|) - c hop |i><j| - h.c., plus diag.

    hop is a complex factor per link, 1 when None: the Peierls phase
    e^(-i theta) gives the discrete magnetic Laplacian, its first order
    1 - i theta the expanded coupling, and no hops the free stencil.  Links
    may repeat: each node pair's amplitude is summed once and mirrored as its
    conjugate, so this sum K is exactly Hermitian.  Given weights, row r is
    then divided by weights[r]: the result W^-1 K is self-adjoint under
    exactly those weights.  Returns an n x n scipy.sparse CSR array (real
    when there are no hops).
    """
    import scipy.sparse as sp

    i, j = np.ravel(i), np.ravel(j)
    c = np.broadcast_to(np.asarray(c, dtype=float).ravel(), i.shape)
    amp = -c if hop is None else -c * np.ravel(hop)
    swap = i > j
    lo, hi = np.where(swap, j, i), np.where(swap, i, j)
    amp = np.where(swap, np.conj(amp), amp)
    pairs, slot = np.unique(lo * n + hi, return_inverse=True)
    summed = np.bincount(slot, amp.real)
    if np.iscomplexobj(amp):
        summed = summed + 1j * np.bincount(slot, amp.imag)
    lo, hi = np.divmod(pairs, n)
    d = np.bincount(i, c, minlength=n) + np.bincount(j, c, minlength=n)
    if diag is not None:
        d = d + diag
    nodes = np.arange(n)
    rows = np.concatenate([lo, hi, nodes])
    cols = np.concatenate([hi, lo, nodes])
    data = np.concatenate([summed, np.conj(summed), d])
    if weights is not None:
        data = data / weights[rows]
    return sp.csr_array((data, (rows, cols)), shape=(n, n))


def _periodic_links(grid: Grid, axis: int, c, order: int, hops=None, diag=None):
    """-c d2 along a periodic grid axis: links at offset 1 (order 2), or at
    offsets 1 and 2 weighted 4/3 and -1/12 (order 4, no hops).

    c is a scalar or an array broadcastable to (n1, n2), one value per link start.
    """
    c = np.broadcast_to(c, (grid.n1, grid.n2)).ravel()
    i, j = _grid_links(grid, axis)
    if order == 2:
        return link_operator(grid.size, i, j, c, hops, diag)
    i2, j2 = _grid_links(grid, axis, offset=2)
    return link_operator(grid.size, np.concatenate([i.ravel(), i2.ravel()]),
                         np.concatenate([j.ravel(), j2.ravel()]),
                         np.concatenate([c * 4 / 3, c * -1 / 12]), diag=diag)


def _cylinder_links(req: HamiltonianRequest, hops, diag):
    """Ring/cylinder kinetic stencils plus diag, with link hops (h1, h2), either may be None.

    The z axis closes with odd-reflected wall ghosts: a wall node has one z
    link, and its diagonal gains 2 cz (the missing link plus the ghost).
    """
    grid, c = req.grid, req.constants
    ct = c.hbar**2 / (2 * c.mass * grid.surface.R**2 * grid.h1**2)
    hop1, hop2 = hops
    H = _periodic_links(grid, 0, ct, req.order, hop1, diag)
    if grid.surface.kind is SurfaceKind.CYLINDER:
        cz = c.hbar**2 / (2 * c.mass * grid.h2**2)
        wall = np.zeros((grid.n1, grid.n2))
        wall[:, [0, -1]] = 2 * cz
        i, j = _grid_links(grid, 1)
        H = H + link_operator(grid.size, i, j, cz, hop2, wall.ravel())
    return H


def _sphere_weights(grid: Grid, order: int) -> np.ndarray:
    """Per-node measure of sphere operators.

    Order 2 uses the grid weights, the exact cell integrals of R^2 sin(theta).
    Order 4 uses midpoint values with an Euler-Maclaurin end correction that
    removes the O(h^2) pole defect of the measure quadrature.
    """
    if order == 2:
        return grid.weights
    h = grid.h1
    m = np.sin(grid.coords1)
    m[0] -= h / 24
    m[-1] -= h / 24
    return np.repeat(grid.surface.R**2 * m * h * grid.h2, grid.n2)


def _sphere_theta(grid: Grid, kappa: float, order: int, weights: np.ndarray, hops=None):
    """Polar part of -(hbar^2/2m) Lap on the sphere, flux (divergence) form.

    kappa = hbar^2/(2 m R^2).  The links are those of G^T diag(s) G, rows
    divided by the weights: s is sin(theta) on the faces, zero at the poles,
    and G the face gradient, 2-point at order 2 and staggered 4-point at
    order 4.  The latter crosses the pole (theta -> -theta, phi -> phi + pi;
    even n2 only, checked by HamiltonianRequest), and its first and last
    interior faces carry the +h/12 end correction that cancels the O(h^2)
    pole defect of the gradient quadrature.
    """
    n1, n2, h = grid.n1, grid.n2, grid.h1
    s = np.sin(np.arange(n1 + 1) * h)  # faces at integer multiples of h
    if order == 2:
        offsets, coef = (-1, 0), np.array([-1.0, 1.0]) / h
    else:
        offsets, coef = (-2, -1, 0, 1), np.array([1.0, -27.0, 27.0, -1.0]) / (24 * h)
        s[[1, n1 - 1]] += h / 12
    # face f lies between polar nodes f - 1 and f; at order 2 the one pair
    # per face is the link of _grid_links, in its order, so hops line up
    f, k = np.meshgrid(np.arange(1, n1), np.arange(n2), indexing="ij")
    pts = [_polar_node(f + o, k, n1, n2) for o in offsets]
    flux = kappa * grid.surface.R**2 * h * grid.h2 * s[f]
    i, j, c = [], [], []
    for a, b in combinations(range(len(pts)), 2):
        i.append(pts[a])
        j.append(pts[b])
        c.append(-flux * coef[a] * coef[b])
    return link_operator(grid.size, np.concatenate(i), np.concatenate(j), np.concatenate(c),
                         hops, weights=weights)


def _sphere_phi(grid: Grid, kappa: float, order: int, hops=None, diag=None):
    """Azimuthal part: -kappa d2/dphi2 / sin^2(theta) on each ring, with optional hops, plus diag."""
    cph = kappa / (grid.h2**2 * np.sin(grid.coords1) ** 2)
    return _periodic_links(grid, 1, cph[:, None], order, hops, diag)


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------

def build_hamiltonian(req: HamiltonianRequest) -> OperatorMatrix:
    """Assemble the request's operator: kinetic links plus diagonals, then spin.

    Free (no field):  -(hbar^2/2m) Laplace-Beltrami plus the curvature shift
    -hbar^2/(8mR^2) on the ring and cylinder (zero on the sphere).
    Correct (field):  (1/2m)[(D'_1)^2 + (D'_2)^2] plus the same shift, with
    the covariant derivatives realized per the coupling; the matrix never
    references A_r.  With spin, the Zeeman block is added.
    Pragmatic:  the surface-restricted operator obtained by deleting d/dr
    and setting r = R: the correct one's tangential part, in the same
    coupling, with (e^2/2m) A_r^2 + i(hbar e/2m)(A_r/R + dA_r/dr) in place of
    the curvature shift; dA_r/dr must be supplied as on-surface samples.
    """
    grid, c = req.grid, req.constants
    correct = req.variant == "correct"
    hops, diag = (None, None), None
    if req.field is not None:
        # Peierls: exp(-i theta), gauges as exact increments; expanded: 1 - i theta over
        # the materialized samples (gauges as stencil gradients), plus (e^2/2m)|A|^2
        if req.coupling == "peierls":
            links, hop = link_integrals(req.field, grid), lambda theta: np.exp(-1j * theta)
        else:
            fld = fields_mod.materialize(req.field, grid)
            links, hop = link_integrals(fld, grid), lambda theta: 1 - 1j * theta
            diag = (c.charge**2 / (2 * c.mass)) * (fld.a1**2 + fld.a2**2).ravel()
        e_h = c.charge / c.hbar
        hops = tuple(None if l is None else hop(e_h * l) for l in (links["axis1"], links["axis2"]))
    if grid.surface.kind is SurfaceKind.SPHERE:
        kappa = c.hbar**2 / (2 * c.mass * grid.surface.R**2)
        weights = _sphere_weights(grid, req.order)
        H = (_sphere_theta(grid, kappa, req.order, weights, hops[0])
             + _sphere_phi(grid, kappa, req.order, hops[1], diag))
    else:
        if correct:
            base = np.full(grid.size, geometric_kinetic_energy(req.surface, c))
        else:
            ar, dar = fields_mod._radial_samples(req.field, grid)
            R = grid.surface.R
            base = ((c.charge**2 / (2 * c.mass)) * ar**2
                    + 1j * (c.hbar * c.charge / (2 * c.mass)) * (ar / R + dar)).ravel()
        H = _cylinder_links(req, hops, base if diag is None else base + diag)
        weights = grid.weights
    name = "H_free" if req.field is None else "H_correct" if correct else "H_pragmatic"
    return _finish(req, H, weights, name)


# ---------------------------------------------------------------------------
# spin
# ---------------------------------------------------------------------------

def zeeman_block(field: GaugeFieldSpec, grid: Grid,
                 c: PhysicalConstants = PhysicalConstants()) -> OperatorMatrix:
    """-(e hbar/2m) sigma.B over the grid, a Hermitian 2x2 spin structure.

    B is evaluated from the base field (gauge attachments have exactly zero
    curl) and contracted with the Pauli matrices in the fixed Cartesian frame:
    B_z and -B_z on the diagonal, B_x +- i B_y on the spin-flip bands at offsets -+N.
    """
    import scipy.sparse as sp

    Bx, By, Bz = (B.ravel() for B in _cartesian_field(field, grid))
    pref = -(c.charge * c.hbar / (2 * c.mass))
    n, flip = Bz.size, Bx + 1j * By  # <down|sigma.B|up>; <up|sigma.B|down> is its conjugate
    bands, offsets = [np.concatenate([Bz, -Bz])], [0]
    if flip.any():  # a purely axial field stores no spin-flip band
        bands, offsets = [flip, bands[0], flip.conj()], [-n, 0, n]
    H = sp.diags_array([pref * band for band in bands], offsets=offsets, shape=(2 * n, 2 * n),
                       format="csr", dtype=complex)
    return OperatorMatrix(H, np.tile(grid.weights, 2), "zeeman")


def _cartesian_field(field: GaugeFieldSpec, grid: Grid):
    if isinstance(field, fields_mod.UniformAxial):
        # the closed form stores no spin-flip band, so every azimuthal slice stores the
        # same pattern; rotating the frame leaves phi-dependent round-off in Bx, By
        shape = (grid.n1, grid.n2)
        return np.zeros(shape), np.zeros(shape), np.full(shape, float(field.B))
    B1, B2, B3 = fields_mod.sample_magnetic_field(field, grid)
    th = grid.coords1[:, None]
    if grid.surface.kind is SurfaceKind.SPHERE:
        ph = grid.coords2[None, :]
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        Bx = B1 * st * cp + B2 * ct * cp + B3 * (-sp)
        By = B1 * st * sp + B2 * ct * sp + B3 * cp
        Bz = B1 * ct + B2 * (-st)
        return Bx, By, Bz
    stv, ctv = np.sin(th), np.cos(th)
    shape = (grid.n1, grid.n2)
    Bx = B1 * ctv - B2 * stv
    By = B1 * stv + B2 * ctv
    Bz = B3 * np.ones(shape)
    return Bx, By, Bz


# ---------------------------------------------------------------------------
# shared finishing
# ---------------------------------------------------------------------------

def _finish(req: HamiltonianRequest, H, weights: np.ndarray, name: str) -> OperatorMatrix:
    import scipy.sparse as sp

    f = type(req.field).__name__ if req.field is not None else "none"
    g = req.grid
    label = (f"{name}[{req.surface.kind.value} R={req.surface.R:g}] field={f} "
             f"spin={int(req.spin)} grid=({g.n1}x{g.n2}) coupling={req.coupling}")
    # the azimuth is j2 on the sphere and j1 on the ring and cylinder (Grid)
    layout = (g.n1, g.n2, 1) if req.surface.kind is SurfaceKind.SPHERE else (1, g.n1, g.n2)
    if not req.spin:
        return OperatorMatrix(H, weights, label, layout)
    full = sp.kron(sp.eye_array(2), H)
    if req.field is not None:
        full = full + zeeman_block(req.field, g, req.constants).entries
    return OperatorMatrix(full, np.tile(weights, 2), label, (2 * layout[0], *layout[1:]))


# ---------------------------------------------------------------------------
# radial momentum on an auxiliary 1D grid (operator-identity checks)
# ---------------------------------------------------------------------------

def open_radial_grid(r0: float, r1: float, n: int) -> tuple[np.ndarray, float]:
    """Uniform nodes on [r0, r1] for interior-supported test functions."""
    if not 0 < r0 < r1:
        raise ValueError("need 0 < r0 < r1")
    r = np.linspace(r0, r1, n)
    return r, float(r[1] - r[0])


def hermitian_radial_momentum(r: np.ndarray, h: float, kind: str = "cylinder",
                              c: PhysicalConstants = PhysicalConstants()) -> np.ndarray:
    """-i hbar (d/dr + s/2r) with s = radial_exponent: 1/2r on the cylinder, 1/r on the sphere.

    Self-adjoint under r^s dr; the measure correction is what restores the
    canonical commutator alongside Hermiticity.  Returned as a dense array.
    """
    import scipy.sparse as sp

    s = radial_exponent(SurfaceKind(kind))
    D = _dirichlet_d1(len(r), h)
    return (-1j * c.hbar * (D + sp.diags_array(0.5 * s / r))).toarray()


def radial_flux_laplacian(r: np.ndarray, h: float, kind: str = "cylinder",
                          c: PhysicalConstants = PhysicalConstants()) -> np.ndarray:
    """-hbar^2 (1/r^s) d/dr (r^s d/dr) as a product of centered stencils; dense."""
    import scipy.sparse as sp

    s = radial_exponent(SurfaceKind(kind))
    D = _dirichlet_d1(len(r), h)
    return (-c.hbar**2 * (sp.diags_array(1.0 / r**s) @ D @ sp.diags_array(r**s) @ D)).toarray()
