"""Vector-potential configurations, magnetic fields, gauge functions and gauge shifts.

Components are physical (local orthonormal frame): (A_theta, A_z) on the ring
and cylinder, (A_theta, A_phi) on the sphere.  An optional on-surface radial
component A_r (and its radial derivative) may ride along on any field; only
the pragmatic Hamiltonian consumes it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .discretize import Grid, _grid_links, tangential_gradient
from .geometry import SurfaceKind


def _require_grid(bound: Grid | None, grid: Grid, what: str):
    """Samples bound to one grid may be used only on a grid of the same surface and shape."""
    key = lambda g: (g.surface, g.n1, g.n2)
    if bound is not None and key(bound) != key(grid):
        raise ValueError(f"{what} was built for a different grid")


@dataclass(frozen=True)
class GaugeFunction:
    """Single-valued scalar gauge function sampled on a grid.

    from_callable records the grid it sampled; values given directly are
    checked only for their count.
    """

    values: np.ndarray
    label: str = "lambda"
    grid: Grid | None = None

    @staticmethod
    def from_callable(fn, grid: Grid, label: str = "lambda") -> "GaugeFunction":
        """Sample fn(c1, c2) on the grid, rejecting seam-multivalued functions."""
        c1 = grid.coords1
        c2 = grid.coords2
        vals = np.array([[fn(a, b) for b in c2] for a in c1], dtype=float)
        # seam check at every node of the seam rejects lambda ~ theta
        kind = grid.surface.kind
        probe = c1 if kind is SurfaceKind.SPHERE else c2
        for p in probe:
            if kind is SurfaceKind.SPHERE:
                a, b = fn(p, 0.0), fn(p, 2 * np.pi)
            else:
                a, b = fn(0.0, p), fn(2 * np.pi, p)
            if abs(a - b) > 1e-10 * max(1.0, abs(a), abs(b)):
                raise ValueError("multivalued gauge function")
        return GaugeFunction(vals, label, grid)

    def grid_values(self, grid: Grid) -> np.ndarray:
        """The samples as an (n1, n2) array; ValueError if they were not taken on such a grid."""
        _require_grid(self.grid, grid, "gauge function")
        return np.asarray(self.values, dtype=float).reshape(grid.n1, grid.n2)


@dataclass(frozen=True)
class GaugeFieldSpec:
    """Base vector-potential configuration plus attached gauge functions.

    A field is its base (the subclass data) and the tuple gauges of gauge
    functions lambda added by add_gauge; every sample, link integral and
    curl is derived from these two.  Each kind supplies base_samples, its
    (A_1, A_2) node samples, and curl, its B in the local frame as (n1, n2)
    arrays; gauges add no curl.  radial_component / radial_derivative hold
    on-surface samples (or constants) of A_r and dA_r/dr for the pragmatic
    variant; correct surface Hamiltonians ignore them by construction.
    """

    radial_component: object = None
    radial_derivative: object = None
    gauges: tuple = ()

    def cartesian_field(self, grid: Grid) -> tuple[np.ndarray, ...]:
        """(B_x, B_y, B_z) at every node: the local-frame curl turned to the Cartesian frame."""
        B1, B2, B3 = self.curl(grid)
        th = grid.coords1[:, None]
        st, ct = np.sin(th), np.cos(th)
        if grid.surface.kind is SurfaceKind.SPHERE:
            sp, cp = np.sin(grid.coords2[None, :]), np.cos(grid.coords2[None, :])
            return (B1 * st * cp + B2 * ct * cp + B3 * (-sp),
                    B1 * st * sp + B2 * ct * sp + B3 * cp, B1 * ct + B2 * (-st))
        return B1 * ct - B2 * st, B1 * st + B2 * ct, B3 * np.ones((grid.n1, grid.n2))


def _node_theta(grid: Grid) -> np.ndarray:
    """The first coordinate at every node; neither analytic field depends on the second."""
    return np.broadcast_to(grid.coords1[:, None], (grid.n1, grid.n2))


@dataclass(frozen=True)
class UniformAxial(GaugeFieldSpec):
    """Uniform B along z: A_theta = B r/2 (cylinder), A_phi = B r sin(theta)/2 (sphere)."""

    B: float = 0.0

    def base_samples(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        theta, R = _node_theta(grid), grid.surface.R
        zero = np.zeros_like(theta)
        if grid.surface.kind is SurfaceKind.SPHERE:
            return zero, 0.5 * self.B * R * np.sin(theta)
        return zero + 0.5 * self.B * R, zero

    def curl(self, grid: Grid) -> tuple[np.ndarray, ...]:
        theta = _node_theta(grid)
        zero = np.zeros_like(theta)
        if grid.surface.kind is SurfaceKind.SPHERE:
            return self.B * np.cos(theta), -self.B * np.sin(theta), zero
        return zero, zero.copy(), np.full_like(zero, self.B)

    def cartesian_field(self, grid: Grid) -> tuple[np.ndarray, ...]:
        # the closed form stores no spin-flip band, so every azimuthal slice stores the
        # same pattern; rotating the frame leaves phi-dependent round-off in Bx, By
        shape = (grid.n1, grid.n2)
        return np.zeros(shape), np.zeros(shape), np.full(shape, float(self.B))


@dataclass(frozen=True)
class ABFlux(GaugeFieldSpec):
    """Flux line along the axis: A_theta = Phi/(2 pi r); curl-free away from it."""

    Phi: float = 0.0

    def base_samples(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        zero, R = np.zeros((grid.n1, grid.n2)), grid.surface.R
        if grid.surface.kind is SurfaceKind.SPHERE:
            s = np.sin(_node_theta(grid))
            if np.any(np.abs(s) < 1e-12):
                raise ValueError("singular potential at pole")
            return zero, self.Phi / (2 * np.pi * R * s)
        return zero + self.Phi / (2 * np.pi * R), zero

    def curl(self, grid: Grid) -> tuple[np.ndarray, ...]:
        self.base_samples(grid)  # rejects a node on a pole, where the line pierces the sphere
        zero = np.zeros((grid.n1, grid.n2))
        return zero, zero.copy(), zero.copy()


@dataclass(frozen=True)
class Sampled(GaugeFieldSpec):
    """Node-sampled tangential components a1, a2 bound to a grid.

    source is the field materialize sampled, None for samples given directly.
    Its gauges, sampled as stencil gradients, add no curl, so B is the
    source's; without a source B is the stencil curl of the samples.
    """

    grid: Grid = None
    a1: np.ndarray = None
    a2: np.ndarray = None
    source: GaugeFieldSpec | None = None

    def __post_init__(self):
        if self.grid is None or self.a1 is None:
            raise ValueError("Sampled field requires a grid and component samples")
        for name in ("a1", "a2", "radial_component", "radial_derivative"):
            arr = getattr(self, name)
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite samples in {name}")

    def base_samples(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        _require_grid(self.grid, grid, "Sampled field")
        shape = (grid.n1, grid.n2)
        a2 = np.zeros(shape) if self.a2 is None else np.asarray(self.a2, dtype=float).reshape(shape)
        return np.asarray(self.a1, dtype=float).reshape(shape), a2

    def curl(self, grid: Grid) -> tuple[np.ndarray, ...]:
        a1, a2 = self.base_samples(grid)  # rejects a grid the samples were not taken on
        if self.source is not None:
            return self.source.curl(grid)
        return _curl_of_samples(grid, a1, a2, _radial_samples(self, grid)[0])


def _radial_samples(spec: GaugeFieldSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """On-surface A_r and dA_r/dr samples, zero where unspecified."""
    shape = (grid.n1, grid.n2)

    def expand(v):
        if v is None:
            return np.zeros(shape)
        a = np.asarray(v, dtype=float)
        if a.ndim == 0:
            return np.full(shape, float(a))
        return a.reshape(shape)

    return expand(spec.radial_component), expand(spec.radial_derivative)


def sample_potential(spec: GaugeFieldSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Materialized (n1, n2) component arrays on the grid.

    A Sampled base must be bound to a grid of the same surface and shape.
    The base's node samples plus the stencil gradient (surface_gradient) of
    each attached gauge function.
    """
    a1, a2 = spec.base_samples(grid)
    for lam in spec.gauges:
        g1, g2 = surface_gradient(lam, grid)
        a1, a2 = a1 + g1, a2 + g2
    return a1, a2


def _curl_of_samples(grid: Grid, a1: np.ndarray, a2: np.ndarray,
                     ar: np.ndarray) -> tuple[np.ndarray, ...]:
    """Stencil curl restricted to surface data.

    Radial derivatives unavailable on the surface are closed with the
    r-independent-extension convention d/dr(r A_t) = A_t.  Cylinder wall
    rows are one-sided: field data is not Dirichlet.
    """
    shape = (grid.n1, grid.n2)
    R = grid.surface.R
    G1, G2 = tangential_gradient(grid)
    d1 = lambda a: (G1 @ a.ravel()).reshape(shape)
    d2 = lambda a: (G2 @ a.ravel()).reshape(shape)
    kind = grid.surface.kind
    if kind is SurfaceKind.SPHERE:
        s = np.sin(grid.coords1)[:, None]
        # s*A_phi is parity-even across the pole, so the scalar stencil applies
        return (d1(s * a2) / s - d2(a1), d2(ar) - a2 / R, a1 / R - d1(ar))
    if kind is SurfaceKind.CYLINDER:
        return (d1(a2) - d2(a1), d2(ar), a1 / R - d1(ar))
    return (np.zeros(shape), np.zeros(shape), a1 / R - d1(ar))


def surface_gradient(lam: GaugeFunction, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Tangential gradient of a gauge function, physical components.

    The centered differences of tangential_gradient, with one-sided rows at
    the cylinder walls (gauge data does not vanish there).
    """
    v = lam.grid_values(grid).ravel()
    shape = (grid.n1, grid.n2)
    G1, G2 = tangential_gradient(grid)
    g2 = np.zeros(shape) if G2 is None else (G2 @ v).reshape(shape)
    return (G1 @ v).reshape(shape), g2


def add_gauge(spec: GaugeFieldSpec, lam: GaugeFunction, grid: Grid) -> GaugeFieldSpec:
    """A <- A + grad(lambda): the same field with lam attached; nothing is sampled.

    build_hamiltonian applies lam as exact per-link increments
    (link_integrals); sample_potential adds its stencil gradient to the
    materialized samples.
    """
    lam.grid_values(grid)  # rejects values that do not fit the grid
    return replace(spec, gauges=spec.gauges + (lam,))


def materialize(spec: GaugeFieldSpec, grid: Grid) -> Sampled:
    """Sampled field of sample_potential's samples (gauges as stencil gradients), source spec."""
    a1, a2 = sample_potential(spec, grid)
    return Sampled(grid=grid, a1=a1, a2=a2, radial_component=spec.radial_component,
                   radial_derivative=spec.radial_derivative, source=spec)


def link_integrals(spec: GaugeFieldSpec, grid: Grid) -> dict:
    """Line integrals of A over grid links, the input to covariant hoppings.

    axis1: theta links j -> j+1 (wrapping on ring/cylinder; n1-1 rows on the
    sphere).  axis2: z links k -> k+1 (cylinder) or phi links (sphere, wraps).
    The links are those of discretize._grid_links, as for the hoppings.  The
    base's node samples are integrated by the trapezoid rule, and each
    attached gauge adds its exact increment lambda(end) - lambda(start).  For
    UniformAxial and ABFlux the trapezoid rule is the exact line integral:
    the only nonzero component (A_theta on ring and cylinder, A_phi on the
    sphere) is constant along each link it runs along.
    """
    R = grid.surface.R
    kind = grid.surface.kind
    ring = kind is SurfaceKind.RING
    base = [b.ravel() for b in sample_potential(replace(spec, gauges=()), grid)]
    gauges = [lam.grid_values(grid).ravel() for lam in spec.gauges]
    links = {"axis1": None, "axis2": None}
    for axis in (0,) if ring else (0, 1):
        i, j = _grid_links(grid, axis)
        l = 0.5 * (base[axis][i] + base[axis][j])
        if axis == 0:
            l = l * R * grid.h1
        elif kind is SurfaceKind.SPHERE:
            l = l * (R * np.sin(grid.coords1) * grid.h2)[:, None]
        else:
            l = l * grid.h2
        for v in gauges:
            l = l + (v[j] - v[i])
        links[f"axis{axis + 1}"] = l.reshape(grid.n1) if ring else l
    return links


def _node_index(coords: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    """Index of the grid node at each coordinate in x (uniform coords); -1 where none is."""
    idx = np.rint((x - coords[0]) / h).astype(int)
    ok = (idx >= 0) & (idx < len(coords))
    idx = np.where(ok, idx, 0)
    return np.where(ok & (np.abs(coords[idx] - x) <= 1e-8), idx, -1)


def load_sampled_csv(path, grid: Grid) -> Sampled:
    """Sampled field from CSV columns (coord1, coord2, A_1, A_2[, A_r]); header mandatory.

    Every grid node must be listed exactly once.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV")
        cols = [c.strip() for c in header]
        try:
            float(cols[0])
        except ValueError:
            pass
        else:
            raise ValueError("CSV header row is mandatory")
        if len(cols) < 4:
            raise ValueError(f"CSV header has {len(cols)} columns, needs coord1, coord2, A_1, A_2")
        if len(cols) > 5:
            raise ValueError(f"CSV column {cols[5]!r} is extra: only A_r may follow A_2")
        rows = [(reader.line_num, row) for row in reader if row]
    for line, row in rows:
        if len(row) != len(cols):
            raise ValueError(f"CSV line {line} has {len(row)} values; the header has {len(cols)}")
    if len(rows) != grid.size:
        raise ValueError(f"CSV has {len(rows)} rows, grid needs {grid.size}")
    data = np.array([[float(x) for x in row] for _, row in rows])
    j = _node_index(grid.coords1, grid.h1, data[:, 0])
    k = _node_index(grid.coords2, grid.h2, data[:, 1]) if grid.n2 > 1 else np.zeros_like(j)
    bad = np.flatnonzero((j < 0) | (k < 0))
    if bad.size:
        raise ValueError(f"CSV coordinate ({data[bad[0], 0]}, {data[bad[0], 1]}) is not a grid node")
    node = j * grid.n2 + k
    if np.unique(node).size != node.size:
        raise ValueError("CSV lists a grid node more than once")
    table = data[np.argsort(node)].reshape(grid.n1, grid.n2, -1)
    return Sampled(grid=grid, a1=table[..., 2], a2=table[..., 3],
                   radial_component=table[..., 4] if len(cols) == 5 else None)
