"""Assembly of surface Hamiltonians as weighted-Hermitian sparse operator matrices.

Every kinetic term is a covariant hopping on the grid graph plus a
diagonal, built by one assembler, link_operator.  Correct variants come in
two couplings:

* "peierls" (default): the magnetic coupling enters through link phases
  exp(-i e/hbar * integral A.dl) on the hoppings.  Zero field reduces
  entrywise to the free stencils, gauge shifts act as exact unitary
  conjugations, and flux periodicity of the ring spectrum is exact.
* "expanded": first-derivative terms are assembled as manifestly
  self-adjoint symmetrizations of diag(A) @ D, matching the expanded scalar
  form term by term.  Gauge covariance then holds only to stencil order.

The pragmatic variant deliberately reproduces the surface-restricted
operator obtained by deleting d/dr: it keeps the uncancelled imaginary
A_r terms (an anti-Hermitian diagonal) and has no curvature energy shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np

from . import fields as fields_mod
from .discretize import (Grid, OperatorMatrix, _dirichlet_d1, _grid_links, _polar_node,
                         tangential_gradient, weighted_transpose)
from .fields import GaugeFieldSpec, link_integrals, sample_potential
from .geometry import (PhysicalConstants, SurfaceKind, SurfaceSpec, geometric_kinetic_energy,
                       radial_exponent)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
VARIANTS = ("correct", "pragmatic")
COUPLINGS = ("peierls", "expanded")
ORDERS = (2, 4)


@dataclass(frozen=True)
class HamiltonianRequest:
    """One surface operator to assemble; unsupported combinations raise ValueError here.

    Supported: any surface with or without a field in the correct variant;
    the pragmatic variant only on the ring or cylinder and only with a field;
    stencil order 4 only without a field, on the ring or on a sphere with an
    even azimuthal count.
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

def link_operator(n: int, i, j, c, phase=None, diag=None, weights=None):
    """Sum over links of c (|i><i| + |j><j|) - c e^(-i phase) |i><j| - h.c., plus diag.

    This is the discrete magnetic Laplacian with Peierls link phases; with no
    phases it is the free stencil.  Links may repeat: each node pair's
    amplitude is summed once and mirrored as its conjugate, so this sum K is
    exactly Hermitian.  Given weights, row r is then divided by weights[r]:
    the result W^-1 K is self-adjoint under exactly those weights.
    Returns an n x n scipy.sparse CSR array (real when there are no phases).
    """
    import scipy.sparse as sp

    i, j = np.ravel(i), np.ravel(j)
    c = np.broadcast_to(np.asarray(c, dtype=float).ravel(), i.shape)
    amp = -c if phase is None else -c * np.exp(-1j * np.ravel(phase))
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


def _periodic_links(grid: Grid, axis: int, c, order: int, phases=None, diag=None):
    """-c d2 along a periodic grid axis: links at offset 1 (order 2), or at
    offsets 1 and 2 weighted 4/3 and -1/12 (order 4, no phases).

    c is a scalar or an array broadcastable to (n1, n2), one value per link start.
    """
    c = np.broadcast_to(c, (grid.n1, grid.n2)).ravel()
    i, j = _grid_links(grid, axis)
    if order == 2:
        return link_operator(grid.size, i, j, c, phases, diag)
    i2, j2 = _grid_links(grid, axis, offset=2)
    return link_operator(grid.size, np.concatenate([i.ravel(), i2.ravel()]),
                         np.concatenate([j.ravel(), j2.ravel()]),
                         np.concatenate([c * 4 / 3, c * -1 / 12]), diag=diag)


def _cylinder_links(req: HamiltonianRequest, phases, diag=None):
    """Kinetic stencils on the ring/cylinder with link phases (p1, p2), either may be None.

    The z axis closes with odd-reflected wall ghosts: a wall node has one z
    link, and its diagonal gains 2 cz (the missing link plus the ghost).
    """
    grid, c = req.grid, req.constants
    ct = c.hbar**2 / (2 * c.mass * grid.surface.R**2 * grid.h1**2)
    p1, p2 = phases
    H = _periodic_links(grid, 0, ct, req.order, p1, diag)
    if grid.surface.kind is SurfaceKind.CYLINDER:
        cz = c.hbar**2 / (2 * c.mass * grid.h2**2)
        wall = np.zeros((grid.n1, grid.n2))
        wall[:, [0, -1]] = 2 * cz
        i, j = _grid_links(grid, 1)
        H = H + link_operator(grid.size, i, j, cz, p2, wall.ravel())
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


def _sphere_theta(grid: Grid, kappa: float, order: int, weights: np.ndarray, phases=None):
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
    # per face is the link of _grid_links, in its order, so phases line up
    f, k = np.meshgrid(np.arange(1, n1), np.arange(n2), indexing="ij")
    pts = [_polar_node(f + o, k, n1, n2) for o in offsets]
    flux = kappa * grid.surface.R**2 * h * grid.h2 * s[f]
    i, j, c = [], [], []
    for a, b in combinations(range(len(pts)), 2):
        i.append(pts[a])
        j.append(pts[b])
        c.append(-flux * coef[a] * coef[b])
    return link_operator(grid.size, np.concatenate(i), np.concatenate(j), np.concatenate(c),
                         phases, weights=weights)


def _sphere_phi(grid: Grid, kappa: float, order: int, phases=None):
    """Azimuthal part: -kappa d2/dphi2 / sin^2(theta) on each ring, with optional phases."""
    cph = kappa / (grid.h2**2 * np.sin(grid.coords1) ** 2)
    return _periodic_links(grid, 1, cph[:, None], order, phases)


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
    and setting r = R.  It keeps the i(hbar e/2m)(A_r/R + dA_r/dr) diagonal,
    which is anti-Hermitian, and omits the curvature shift; dA_r/dr must be
    supplied as on-surface samples.
    """
    import scipy.sparse as sp

    grid, c = req.grid, req.constants
    correct = req.variant == "correct"
    peierls = req.field is not None and correct and req.coupling == "peierls"
    phases = (None, None)
    if peierls:
        links = link_integrals(req.field, grid)
        e_h = c.charge / c.hbar
        phases = tuple(None if l is None else e_h * l for l in (links["axis1"], links["axis2"]))
    if grid.surface.kind is SurfaceKind.SPHERE:
        kappa = c.hbar**2 / (2 * c.mass * grid.surface.R**2)
        weights = _sphere_weights(grid, req.order)
        H = (_sphere_theta(grid, kappa, req.order, weights, phases[0])
             + _sphere_phi(grid, kappa, req.order, phases[1]))
    else:
        gke = np.full(grid.size, geometric_kinetic_energy(req.surface, c)) if correct else None
        H = _cylinder_links(req, phases, gke)
        weights = grid.weights
    if req.field is not None and not peierls:
        H = H + _expanded_tangential(req, include_radial=not correct)
    if not correct:
        ar, dar = fields_mod._radial_samples(req.field, grid)
        R = grid.surface.R
        H = H + sp.diags_array(1j * (c.hbar * c.charge / (2 * c.mass)) * (ar / R + dar).ravel())
    name = "H_free" if req.field is None else "H_correct" if correct else "H_pragmatic"
    return _finish(req, H, weights, name)


def _expanded_tangential(req: HamiltonianRequest, include_radial: bool):
    """(i hbar e/2m) sum_dirs (T - T^dag_W) + (e^2/2m) |A|^2 with T = diag(a) D.

    The manifest symmetrization reproduces a.D + (1/2)(div a) including the
    metric divergence terms, and is weighted-Hermitian for any stencil.
    """
    import scipy.sparse as sp

    grid, c = req.grid, req.constants
    a1, a2 = sample_potential(req.field, grid)
    G1, G2 = tangential_gradient(grid, open_ends=False)
    Gs = [(a1, G1)] if G2 is None else [(a1, G1), (a2, G2)]
    diam = a1**2 + a2**2
    if include_radial:
        ar, _ = fields_mod._radial_samples(req.field, grid)
        diam = diam + ar**2
    out = sp.diags_array((c.charge**2 / (2 * c.mass)) * diam.ravel())
    pref = 1j * (c.hbar * c.charge / (2 * c.mass))
    for a, G in Gs:
        T = sp.diags_array(a.ravel()) @ G
        out = out + pref * (T - weighted_transpose(T, grid.weights))
    return out


# ---------------------------------------------------------------------------
# spin
# ---------------------------------------------------------------------------

def zeeman_block(field: GaugeFieldSpec, grid: Grid,
                 c: PhysicalConstants = PhysicalConstants()) -> OperatorMatrix:
    """-(e hbar/2m) sigma.B over the grid, a Hermitian 2x2 spin structure.

    B is evaluated from the base field (gauge attachments have exactly zero
    curl) and contracted with the Pauli matrices in the fixed Cartesian frame.
    """
    import scipy.sparse as sp

    Bx, By, Bz = _cartesian_field(field, grid)
    pref = -(c.charge * c.hbar / (2 * c.mass))
    H = sum(pref * sp.kron(sig, sp.diags_array(B.ravel()))
            for B, sig in zip((Bx, By, Bz), PAULI))
    return OperatorMatrix(H, grid.weights, 2, "zeeman")


def _cartesian_field(field: GaugeFieldSpec, grid: Grid):
    B1, B2, B3 = fields_mod.sample_magnetic_field(field, grid)
    if isinstance(field, fields_mod.UniformAxial):
        # the closed form: rotating the frame leaves phi-dependent round-off in Bx, By
        return np.zeros_like(B1), np.zeros_like(B1), np.full_like(B1, field.B)
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
        return OperatorMatrix(H, weights, 1, label, layout)
    full = sp.kron(sp.eye_array(2), H)
    if req.field is not None:
        full = full + zeeman_block(req.field, g, req.constants).entries
    return OperatorMatrix(full, weights, 2, label, (2 * layout[0], *layout[1:]))


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
