"""Vector-potential configurations, magnetic fields, gauge functions and gauge shifts.

Components are physical (local orthonormal frame): (A_theta, A_z) on the ring
and cylinder, (A_theta, A_phi) on the sphere.  An optional on-surface radial
component A_r (and its radial derivative) may ride along on any field; only
the pragmatic Hamiltonian consumes it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .discretize import Grid, _kron_axis1, _kron_axis2, _periodic_d1, _sphere_polar_d1, sparse_from
from .geometry import SurfaceKind, SurfaceSpec


@dataclass(frozen=True)
class GaugeFunction:
    """Single-valued scalar gauge function sampled on a grid."""

    values: np.ndarray
    label: str = "lambda"

    @staticmethod
    def from_callable(fn, grid: Grid, label: str = "lambda") -> "GaugeFunction":
        """Sample fn(c1, c2) on the grid, rejecting seam-multivalued functions."""
        c1 = grid.coords1
        c2 = grid.coords2
        vals = np.array([[fn(a, b) for b in c2] for a in c1], dtype=float)
        # seam check on the periodic coordinate rejects lambda ~ theta
        kind = grid.surface.kind
        probe = c1 if kind is SurfaceKind.SPHERE else c2
        for p in probe[: min(len(probe), 4)]:
            if kind is SurfaceKind.SPHERE:
                a, b = fn(p, 0.0), fn(p, 2 * np.pi)
            else:
                a, b = fn(0.0, p), fn(2 * np.pi, p)
            if abs(a - b) > 1e-10 * max(1.0, abs(a), abs(b)):
                raise ValueError("multivalued gauge function")
        return GaugeFunction(vals, label)

    def grid_values(self, grid: Grid) -> np.ndarray:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (grid.n1, grid.n2):
            v = v.reshape(grid.n1, grid.n2)
        return v


@dataclass(frozen=True)
class GaugeFieldSpec:
    """Base vector-potential configuration.

    radial_component / radial_derivative hold on-surface samples (or constants)
    of A_r and dA_r/dr for the pragmatic builder; correct surface Hamiltonians
    ignore them by construction.
    """

    radial_component: object = None
    radial_derivative: object = None

    @property
    def gauges(self) -> tuple:
        return ()


@dataclass(frozen=True)
class UniformAxial(GaugeFieldSpec):
    """Uniform B along z: A_theta = B r/2 (cylinder), A_phi = B r sin(theta)/2 (sphere)."""

    B: float = 0.0


@dataclass(frozen=True)
class ABFlux(GaugeFieldSpec):
    """Flux line along the axis: A_theta = Phi/(2 pi r); curl-free away from it."""

    Phi: float = 0.0


@dataclass(frozen=True)
class Sampled(GaugeFieldSpec):
    """Node-sampled tangential components bound to a grid.

    a1/a2 are the evaluated (materialized) samples.  base1/base2 hold the part
    that is quadrature-integrated over links; gauge_terms are exact per-link
    increments lambda(end) - lambda(start) added on top, which is what makes
    discrete gauge shifts unitarily exact.
    """

    grid: Grid = None
    a1: np.ndarray = None
    a2: np.ndarray = None
    base1: np.ndarray = None
    base2: np.ndarray = None
    gauge_terms: tuple = ()
    analytic_base: GaugeFieldSpec = None

    def __post_init__(self):
        if self.grid is None or self.a1 is None:
            raise ValueError("Sampled field requires a grid and component samples")
        for name in ("a1", "a2", "base1", "base2"):
            arr = getattr(self, name)
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite samples in {name}")

    @property
    def gauges(self) -> tuple:
        return self.gauge_terms


def zero_field() -> ABFlux:
    return ABFlux(Phi=0.0)


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


def _analytic_components(spec: GaugeFieldSpec, surface: SurfaceSpec, c1: float, c2: float):
    R = surface.R
    if isinstance(spec, UniformAxial):
        if surface.kind is SurfaceKind.SPHERE:
            return 0.0, 0.5 * spec.B * R * np.sin(c1)
        return 0.5 * spec.B * R, 0.0
    if isinstance(spec, ABFlux):
        if surface.kind is SurfaceKind.SPHERE:
            s = np.sin(c1)
            if abs(s) < 1e-12:
                raise ValueError("singular potential at pole")
            return 0.0, spec.Phi / (2 * np.pi * R * s)
        return spec.Phi / (2 * np.pi * R), 0.0
    raise TypeError(f"not an analytic field spec: {type(spec).__name__}")


def eval_potential(spec: GaugeFieldSpec, surface: SurfaceSpec, point) -> tuple:
    """Tangential components at a surface point; appends A_r when defined.

    point = (theta,) on the ring, (theta, z) on the cylinder,
    (theta, phi) on the sphere.  Sampled fields require a grid node.
    """
    c1 = float(point[0])
    c2 = float(point[1]) if len(point) > 1 else 0.0
    if isinstance(spec, Sampled):
        g = spec.grid
        j = int(np.argmin(np.abs(g.coords1 - c1)))
        k = int(np.argmin(np.abs(g.coords2 - c2)))
        if abs(g.coords1[j] - c1) > 1e-9 or (g.n2 > 1 and abs(g.coords2[k] - c2) > 1e-9):
            raise ValueError("sampled field can only be evaluated at grid nodes")
        out = (float(np.real(spec.a1.reshape(g.n1, g.n2)[j, k])),
               float(np.real(spec.a2.reshape(g.n1, g.n2)[j, k])) if spec.a2 is not None else 0.0)
    else:
        out = _analytic_components(spec, surface, c1, c2)
    if spec.radial_component is not None:
        ar = np.asarray(spec.radial_component, dtype=float)
        if ar.ndim == 0:
            return (*out, float(ar))
        # array-valued A_r needs a grid to index; only meaningful for Sampled
        if isinstance(spec, Sampled):
            return (*out, float(ar.reshape(spec.grid.n1, spec.grid.n2)[j, k]))
        raise ValueError("array-valued A_r requires a Sampled field")
    return out


def sample_potential(spec: GaugeFieldSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Materialized (n1, n2) component arrays on the grid."""
    if isinstance(spec, Sampled):
        a1 = np.asarray(spec.a1, dtype=float).reshape(grid.n1, grid.n2)
        a2 = (np.zeros((grid.n1, grid.n2)) if spec.a2 is None
              else np.asarray(spec.a2, dtype=float).reshape(grid.n1, grid.n2))
        return a1, a2
    surface = grid.surface
    a1 = np.zeros((grid.n1, grid.n2))
    a2 = np.zeros((grid.n1, grid.n2))
    for j, c1 in enumerate(grid.coords1):
        for k in range(grid.n2):
            c2 = grid.coords2[k] if grid.n2 > 1 else 0.0
            a1[j, k], a2[j, k] = _analytic_components(spec, surface, c1, c2)
    return a1, a2


def magnetic_field_of(spec: GaugeFieldSpec, surface: SurfaceSpec, point, grid: Grid = None) -> tuple:
    """curl A in the local curvilinear frame: (B_r, B_theta, B_z) or (B_r, B_theta, B_phi).

    Analytic specs use closed forms.  Sampled specs use the grid stencils;
    radial derivatives that cannot be formed from surface data are taken from
    the supplied dA_r/dr samples or dropped.
    """
    if isinstance(spec, UniformAxial):
        if surface.kind is SurfaceKind.SPHERE:
            th = float(point[0])
            return (spec.B * np.cos(th), -spec.B * np.sin(th), 0.0)
        return (0.0, 0.0, spec.B)
    if isinstance(spec, ABFlux):
        if surface.kind is SurfaceKind.SPHERE and abs(np.sin(float(point[0]))) < 1e-12:
            raise ValueError("singular potential at pole")
        return (0.0, 0.0, 0.0)
    g = spec.grid if isinstance(spec, Sampled) else grid
    if g is None:
        raise ValueError("sampled fields need their grid to evaluate curl")
    B1, B2, B3 = sample_magnetic_field(spec, g)
    j = int(np.argmin(np.abs(g.coords1 - float(point[0]))))
    k = int(np.argmin(np.abs(g.coords2 - (float(point[1]) if len(point) > 1 else 0.0)))) if g.n2 > 1 else 0
    return (float(B1[j, k]), float(B2[j, k]), float(B3[j, k]))


def _curl_of_samples(grid: Grid, a1: np.ndarray, a2: np.ndarray,
                     ar: np.ndarray, gradient_like: bool = False) -> tuple[np.ndarray, ...]:
    """Stencil curl restricted to surface data.

    Radial derivatives unavailable on the surface are closed with the
    r-independent-extension convention d/dr(r A_t) = A_t, except for
    gradient_like data (tangential gradients of r-independent scalars), where
    r A_t is itself r-independent and those terms vanish identically.
    """
    surface = grid.surface
    shape = (grid.n1, grid.n2)
    R = surface.R
    flat = lambda a: a.ravel()
    to2 = lambda v: v.reshape(shape)
    radial_term = 0.0 if gradient_like else 1.0
    if surface.kind is SurfaceKind.SPHERE:
        s = np.sin(grid.coords1)[:, None]
        Dth = _sphere_polar_d1(grid.n1, grid.n2, grid.h1)  # scalar parity
        Dph = _kron_axis2(_periodic_d1(grid.n2, grid.h2, 2), grid.n1)
        # s*A_phi is parity-even across the pole, so the scalar stencil applies
        Br = (to2(Dth @ flat(s * a2)) - to2(Dph @ flat(a1))) / (R * s)
        Bth = to2(Dph @ flat(ar)) / (R * s) - radial_term * a2 / R
        Bph = radial_term * a1 / R - to2(Dth @ flat(ar)) / R
        return (Br, Bth, Bph)
    if surface.kind is SurfaceKind.CYLINDER:
        Dth = _kron_axis1(_periodic_d1(grid.n1, grid.h1, 2), grid.n2)
        # one-sided rows at the walls: gauge data is not Dirichlet
        DzF = _kron_axis2(_open_d1(grid.n2, grid.h2), grid.n1)
        Br = to2(Dth @ flat(a2)) / R - to2(DzF @ flat(a1))
        Bth = to2(DzF @ flat(ar))
        Bz = radial_term * a1 / R - to2(Dth @ flat(ar)) / R
        return (Br, Bth, Bz)
    Dth = _periodic_d1(grid.n1, grid.h1, 2)
    Bz = radial_term * a1 / R - (Dth @ ar.ravel()).reshape(shape) / R
    return (np.zeros(shape), np.zeros(shape), Bz)


def sample_magnetic_field(spec: GaugeFieldSpec, grid: Grid) -> tuple[np.ndarray, ...]:
    """curl A on the whole grid, local-frame components as (n1, n2) arrays.

    Gauge-shifted fields decompose as base plus gradient: the base curl is
    exact for analytic bases, and the gradient part contributes its stencil
    curl, which vanishes at stencil accuracy.
    """
    surface = grid.surface
    shape = (grid.n1, grid.n2)
    if isinstance(spec, UniformAxial):
        if surface.kind is SurfaceKind.SPHERE:
            th = grid.coords1[:, None]
            return (spec.B * np.cos(th) * np.ones(shape),
                    -spec.B * np.sin(th) * np.ones(shape),
                    np.zeros(shape))
        return (np.zeros(shape), np.zeros(shape), np.full(shape, spec.B))
    if isinstance(spec, ABFlux):
        return (np.zeros(shape), np.zeros(shape), np.zeros(shape))
    a1, a2 = sample_potential(spec, grid)
    ar, _dar = _radial_samples(spec, grid)
    if spec.base1 is not None:
        b1 = spec.base1.reshape(shape)
        b2 = (spec.base2.reshape(shape) if spec.base2 is not None else np.zeros(shape))
        g1, g2 = a1 - b1, a2 - b2
        if spec.analytic_base is not None:
            base_curl = sample_magnetic_field(spec.analytic_base, grid)
        else:
            base_curl = _curl_of_samples(grid, b1, b2, ar)
        grad_curl = _curl_of_samples(grid, g1, g2, np.zeros(shape), gradient_like=True)
        return tuple(b + g for b, g in zip(base_curl, grad_curl))
    return _curl_of_samples(grid, a1, a2, ar)


def _open_d1(n: int, h: float):
    """Centered first derivative with one-sided second-order end rows."""
    inner = np.arange(1, n - 1)
    rows = np.concatenate([inner, inner, [0, 0, 0, n - 1, n - 1, n - 1]])
    cols = np.concatenate([inner - 1, inner + 1, [0, 1, 2, n - 1, n - 2, n - 3]])
    vals = np.concatenate([np.full(n - 2, -0.5 / h), np.full(n - 2, 0.5 / h),
                           np.array([-1.5, 2.0, -0.5, 1.5, -2.0, 0.5]) / h])
    return sparse_from(n, rows, cols, vals)


def surface_gradient(lam: GaugeFunction, surface: SurfaceSpec, grid: Grid,
                     order: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Tangential gradient of a gauge function, physical components.

    Uses the same azimuthal stencils as the operator assembly; the cylinder
    z edge rows are one-sided (gauge data does not vanish at the walls).
    """
    v = lam.grid_values(grid)
    R = surface.R
    shape = (grid.n1, grid.n2)
    if surface.kind is SurfaceKind.RING:
        D = _periodic_d1(grid.n1, grid.h1, order)
        return ((D @ v.ravel()).reshape(shape) / R, np.zeros(shape))
    if surface.kind is SurfaceKind.CYLINDER:
        Dth = _kron_axis1(_periodic_d1(grid.n1, grid.h1, order), grid.n2)
        Dz = _kron_axis2(_open_d1(grid.n2, grid.h2), grid.n1)
        g1 = (Dth @ v.ravel()).reshape(shape) / R
        g2 = (Dz @ v.ravel()).reshape(shape)
        return (g1, g2)
    s = np.sin(grid.coords1)[:, None]
    Dth = _sphere_polar_d1(grid.n1, grid.n2, grid.h1)
    Dph = _kron_axis2(_periodic_d1(grid.n2, grid.h2, order), grid.n1)
    g1 = (Dth @ v.ravel()).reshape(shape) / R
    g2 = (Dph @ v.ravel()).reshape(shape) / (R * s)
    return (g1, g2)


def add_gauge(spec: GaugeFieldSpec, lam: GaugeFunction, grid: Grid,
              surface: SurfaceSpec = None) -> Sampled:
    """A <- A + grad(lambda), returned as a Sampled field.

    The materialized samples carry the stencil gradient (for evaluation and
    curl diagnostics); the gauge term itself is kept attached so operator
    builders can apply exact per-link increments.
    """
    surface = surface or grid.surface
    g1, g2 = surface_gradient(lam, surface, grid)
    if isinstance(spec, Sampled):
        base1, base2 = spec.base1, spec.base2
        gauges = spec.gauge_terms + (lam,)
        a1 = np.asarray(spec.a1, float).reshape(grid.n1, grid.n2) + g1
        a2 = (np.asarray(spec.a2, float).reshape(grid.n1, grid.n2) if spec.a2 is not None
              else np.zeros_like(g2)) + g2
        analytic = spec.analytic_base
    else:
        base1, base2 = sample_potential(spec, grid)
        a1, a2 = base1 + g1, base2 + g2
        gauges = (lam,)
        analytic = spec
    return Sampled(grid=grid, a1=a1, a2=a2, base1=base1, base2=base2,
                   gauge_terms=gauges, analytic_base=analytic,
                   radial_component=spec.radial_component,
                   radial_derivative=spec.radial_derivative)


def materialize(spec: GaugeFieldSpec, grid: Grid) -> Sampled:
    """Plain Sampled field from the materialized samples, dropping exact gauge terms."""
    a1, a2 = sample_potential(spec, grid)
    return Sampled(grid=grid, a1=a1, a2=a2,
                   radial_component=spec.radial_component,
                   radial_derivative=spec.radial_derivative)


def link_integrals(spec: GaugeFieldSpec, grid: Grid) -> dict:
    """Line integrals of A over grid links, the input to covariant hoppings.

    axis1: theta links j -> j+1 (wrapping on ring/cylinder; n1-1 rows on the
    sphere).  axis2: z links k -> k+1 (cylinder) or phi links (sphere, wraps).
    Analytic parts use midpoint values; sampled parts the trapezoid rule;
    attached gauge terms contribute their exact increments.
    """
    surface = grid.surface
    R = surface.R
    kind = surface.kind

    if isinstance(spec, Sampled):
        if spec.base1 is not None:
            b1 = spec.base1.reshape(grid.n1, grid.n2)
            b2 = (spec.base2.reshape(grid.n1, grid.n2) if spec.base2 is not None
                  else np.zeros((grid.n1, grid.n2)))
        else:
            b1, b2 = sample_potential(spec, grid)
        analytic = spec.analytic_base if spec.base1 is not None and spec.analytic_base is not None else None
        gauges = spec.gauge_terms
    else:
        analytic = spec
        b1 = b2 = None
        gauges = ()

    def midpoint_links():
        if kind is SurfaceKind.SPHERE:
            l1 = np.zeros((grid.n1 - 1, grid.n2))
            for j in range(grid.n1 - 1):
                thm = (grid.coords1[j] + grid.coords1[j + 1]) / 2
                for k in range(grid.n2):
                    a1m, _ = _analytic_components(analytic, surface, thm, grid.coords2[k])
                    l1[j, k] = a1m * R * grid.h1
            l2 = np.zeros((grid.n1, grid.n2))
            for j in range(grid.n1):
                th = grid.coords1[j]
                arc = R * np.sin(th) * grid.h2
                for k in range(grid.n2):
                    phm = grid.coords2[k] + grid.h2 / 2
                    _, a2m = _analytic_components(analytic, surface, th, phm)
                    l2[j, k] = a2m * arc
            return l1, l2
        n2 = grid.n2
        l1 = np.zeros((grid.n1, n2))
        for j in range(grid.n1):
            thm = grid.coords1[j] + grid.h1 / 2
            for k in range(n2):
                c2 = grid.coords2[k] if n2 > 1 else 0.0
                a1m, _ = _analytic_components(analytic, surface, thm, c2)
                l1[j, k] = a1m * R * grid.h1
        if kind is SurfaceKind.RING:
            return l1.reshape(grid.n1), None
        l2 = np.zeros((grid.n1, n2 - 1))
        for j in range(grid.n1):
            for k in range(n2 - 1):
                zm = (grid.coords2[k] + grid.coords2[k + 1]) / 2
                _, a2m = _analytic_components(analytic, surface, grid.coords1[j], zm)
                l2[j, k] = a2m * grid.h2
        return l1, l2

    def trapezoid_links():
        if kind is SurfaceKind.SPHERE:
            l1 = 0.5 * (b1[:-1, :] + b1[1:, :]) * R * grid.h1
            arc = (R * np.sin(grid.coords1) * grid.h2)[:, None]
            l2 = 0.5 * (b2 + np.roll(b2, -1, axis=1)) * arc
            return l1, l2
        l1 = 0.5 * (b1 + np.roll(b1, -1, axis=0)) * R * grid.h1
        if kind is SurfaceKind.RING:
            return l1.reshape(grid.n1), None
        l2 = 0.5 * (b2[:, :-1] + b2[:, 1:]) * grid.h2
        return l1, l2

    l1, l2 = midpoint_links() if analytic is not None else trapezoid_links()

    for lam in gauges:
        v = lam.grid_values(grid)
        if kind is SurfaceKind.SPHERE:
            l1 = l1 + (v[1:, :] - v[:-1, :])
            l2 = l2 + (np.roll(v, -1, axis=1) - v)
        elif kind is SurfaceKind.CYLINDER:
            l1 = l1 + (np.roll(v, -1, axis=0) - v)
            l2 = l2 + (v[:, 1:] - v[:, :-1])
        else:
            l1 = l1 + (np.roll(v[:, 0], -1) - v[:, 0])
    return {"axis1": l1, "axis2": l2}


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def load_sampled_csv(path, grid: Grid) -> Sampled:
    """Sampled field from CSV columns (coord1, coord2, A_1, A_2[, A_r]); header mandatory."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV")
        cols = [c.strip() for c in header]
        if _is_number(cols[0]):
            raise ValueError("CSV header row is mandatory")
        has_ar = len(cols) >= 5
        rows = [[float(x) for x in row] for row in reader if row]
    if len(rows) != grid.size:
        raise ValueError(f"CSV has {len(rows)} rows, grid needs {grid.size}")
    data = np.array(rows)
    a1 = np.zeros((grid.n1, grid.n2))
    a2 = np.zeros((grid.n1, grid.n2))
    ar = np.zeros((grid.n1, grid.n2)) if has_ar else None
    for row in data:
        j = int(np.argmin(np.abs(grid.coords1 - row[0])))
        k = int(np.argmin(np.abs(grid.coords2 - row[1]))) if grid.n2 > 1 else 0
        if abs(grid.coords1[j] - row[0]) > 1e-8 or (grid.n2 > 1 and abs(grid.coords2[k] - row[1]) > 1e-8):
            raise ValueError(f"CSV coordinate ({row[0]}, {row[1]}) is not a grid node")
        a1[j, k] = row[2]
        a2[j, k] = row[3]
        if has_ar:
            ar[j, k] = row[4]
    return Sampled(grid=grid, a1=a1, a2=a2, radial_component=ar)
