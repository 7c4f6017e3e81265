"""Confinement-limit oracle: hard-wall radial shells and their d -> 0 surface energy.

The shell eigenproblem is solved in Liouville normal form (u = r^(s/2) psi,
an exact unitary image of the radial operator) on a half-offset grid whose
ghost nodes are odd-reflected across the walls.  Two refinements keep the
d -> 0 extrapolation far below the requested 1e-6:

* the known free-box symbol defect of the transverse mode is subtracted, so
  the reported energies are calibrated against the continuum box exactly
  when the shell is flat;
* eigenvalues are the extended-precision Rayleigh quotient of the
  eigenvector, written so that the O(1/h^2) stencil terms never cancel.

The tridiagonal shell matrix is never formed densely: each level is
bracketed and bisected with Sturm counts and its eigenvector found by
inverse iteration, in O(n_r) time and memory per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .discretize import OperatorMatrix
from .geometry import PhysicalConstants, SurfaceSpec, radial_exponent
from .hamiltonians import link_operator

DEFAULT_NR = 256


@dataclass(frozen=True)
class ShellProblem:
    """Radial shell [R - d/2, R + d/2] with Dirichlet walls, angular index l."""

    surface: SurfaceSpec
    d: float
    l: int
    n_r: int = DEFAULT_NR
    constants: PhysicalConstants = dc_field(default_factory=PhysicalConstants)

    def __post_init__(self):
        if not 0 < self.d < 2 * self.surface.R:
            raise ValueError(f"layer width d={self.d:g} must lie in (0, 2R), R={self.surface.R:g}")
        if self.n_r < 50:
            raise ValueError("n_r must be at least 50")
        if abs(self.l) > 1e150:  # l(l + s - 1) must stay a float
            raise OverflowError(f"angular index l={self.l:.3g} is outside float range")

    def nodes(self) -> tuple[np.ndarray, float]:
        h = self.d / self.n_r
        r = self.surface.R - self.d / 2 + (np.arange(self.n_r) + 0.5) * h
        return r, h

    def centrifugal(self, r: np.ndarray) -> np.ndarray:
        """(hbar^2/2m) l(l + s - 1)/r^2: l^2/r^2 on the cylinder, l(l+1)/r^2 on the sphere."""
        c, s = self.constants, radial_exponent(self.surface.kind)
        return (c.hbar**2 / (2 * c.mass)) * (self.l * (self.l + s - 1)) / r**2


def _liouville_potential(p: ShellProblem, r: np.ndarray) -> np.ndarray:
    # u = r^(s/2) psi folds the measure into s(s - 2)/4r^2: (l^2 - 1/4)/r^2 on
    # the cylinder, and no term beyond the centrifugal one on the sphere
    c, s = p.constants, radial_exponent(p.surface.kind)
    return (c.hbar**2 / (2 * c.mass)) * (p.l * (p.l + s - 1) + s * (s - 2) / 4) / r**2


def _box_symbol(n: int, h: float, d: float) -> np.longdouble:
    """(4/h^2) sin^2(n pi h / 2d): the discrete transverse box symbol for mode n.

    Times hbar^2/2m it is the exact n-th eigenvalue of the constant-potential
    Liouville matrix (d = n_r h), and the discrete counterpart of (n pi/d)^2.
    """
    kl = np.longdouble(n) * np.longdouble(np.pi) / np.longdouble(d)
    hl = np.longdouble(h)
    return (4 / (hl * hl)) * np.sin(kl * hl / 2) ** 2


def _box_symbol_defect(p: ShellProblem, n: int, h: float) -> float:
    """Continuum-minus-discrete transverse box energy for mode n (exact)."""
    c = p.constants
    kl = np.longdouble(n) * np.longdouble(np.pi) / np.longdouble(p.d)
    pref = c.hbar**2 / (2 * c.mass)
    return float(pref * (kl * kl - _box_symbol(n, h, p.d)))


def _liouville_tridiagonal(p: ShellProblem) -> tuple[np.ndarray, np.ndarray, float]:
    """(main, off, h) of the symmetric tridiagonal Liouville-form shell matrix."""
    r, h = p.nodes()
    c = p.constants
    kcoef = c.hbar**2 / (2 * c.mass)
    main = np.full(p.n_r, 2 * kcoef / h**2) + _liouville_potential(p, r)
    main[0] += kcoef / h**2
    main[-1] += kcoef / h**2
    off = np.full(p.n_r - 1, -kcoef / h**2)
    return main, off, h


def _sturm_count(main: list, off2: list, x: float, pivmin: float) -> int:
    """Eigenvalues of T below x: the negative pivots of the LDL^T factorization of T - xI.

    off2[j] is the squared coupling of node j to node j - 1 (off2[0] = 0).
    A pivot smaller than pivmin in magnitude counts as negative and is
    replaced by -pivmin, as in LAPACK's dstebz, so the recurrence never
    divides by zero.
    """
    count, piv = 0, 1.0
    for a, e2 in zip(main, off2):
        piv = (a - x) - e2 / piv
        if piv < pivmin:
            if piv > -pivmin:
                piv = -pivmin
            count += 1
    return count


def _inverse_iteration(main: list, off: list, sigma: float, v: np.ndarray,
                       tiny: float) -> np.ndarray:
    """Eigenvector of T nearest the shift sigma: three LDL^T solves of (T - sigma I) x = v.

    Pivots smaller than tiny in magnitude are raised to +-tiny (LAPACK's
    dstein perturbs them the same way), so a shift on an eigenvalue is safe.
    With sigma bisected to 1e-6 relative, each solve shrinks every other
    eigencomponent by about 1e-6 lambda / gap; two solves already matched
    dense eigh to round-off in the tests, the third is margin.
    """
    d, l = [], []
    piv = main[0] - sigma
    for a, e in zip(main[1:], off):
        piv = math.copysign(max(abs(piv), tiny), piv)
        d.append(piv)
        l.append(e / piv)
        piv = (a - sigma) - l[-1] * e
    d.append(math.copysign(max(abs(piv), tiny), piv))
    n = len(d)
    x = v.tolist()
    for _ in range(3):
        z = x[0]
        x[0] = z / d[0]
        for j in range(1, n):  # L z = x, then x = D^-1 z
            z = x[j] - l[j - 1] * z
            x[j] = z / d[j]
        for j in range(n - 2, -1, -1):  # L^T x = D^-1 z
            x[j] -= l[j] * x[j + 1]
        scale = max(map(abs, x))
        if not math.isfinite(scale):
            raise RuntimeError("radial inverse iteration overflowed")
        x = [xj / scale for xj in x]
    return np.array(x)


def _rayleigh_quotient(main: np.ndarray, off: np.ndarray, v: np.ndarray) -> float:
    """v^T T v / v^T v in long double, for the tridiagonal T = (main, off).

    Written as sum_j (main_j + off_{j-1} + off_j) v_j^2 - sum_j off_j (v_{j+1} - v_j)^2,
    so the large stencil terms are never cancelled: the rounding error is a
    few long-double ulps of the result, whatever the ratio ||T|| / lambda.
    """
    u = v.astype(np.longdouble)
    e = off.astype(np.longdouble)
    diag = main.astype(np.longdouble)
    diag[:-1] += e
    diag[1:] += e
    num = diag @ (u * u) - e @ np.diff(u) ** 2
    return float(num / (u @ u))


def radial_spectrum(p: ShellProblem, n_levels: int = 1) -> np.ndarray:
    """Lowest shell energies, defect-corrected against the continuum box.

    Each level of the Liouville-form tridiagonal T is found in O(n_r) time
    and memory: Weyl's inequality brackets level i between mu_i + min V and
    mu_i + max V (mu_i the exact constant-potential eigenvalue, V the
    potential diagonal), the Sturm count certifies and then bisects that
    bracket, inverse iteration at the bisected shift gives the eigenvector,
    and a long-double Rayleigh quotient gives the eigenvalue.  The known
    transverse symbol defect is then added so the flat-shell limit
    reproduces hbar^2 pi^2 n^2 / (2 m d^2) to round-off.
    """
    if n_levels < 1 or n_levels > p.n_r:
        raise ValueError("n_levels out of range")
    main, off, h = _liouville_tridiagonal(p)
    c = p.constants
    kcoef = c.hbar**2 / (2 * c.mass)
    # Weyl: T is the constant-potential matrix plus diag(V), whose exact
    # eigenvalues mu_i are the box symbol, so level i lies in mu_i + [min V, max V]
    v = _liouville_potential(p, p.nodes()[0])
    vmin, vmax = float(v.min()), float(v.max())
    # plain floats: numpy scalars would slow the scalar recurrences several-fold
    eps = float(np.finfo(float).eps)
    norm = float(np.abs(main).max() + 2 * np.abs(off).max())
    pad = 8 * eps * norm
    main_l, off_l = main.tolist(), off.tolist()
    off2 = [0.0] + (off * off).tolist()
    pivmin = float(np.finfo(float).tiny) * max(1.0, max(off2))
    nodes = (np.arange(p.n_r) + 0.5) / p.n_r
    out = np.empty(n_levels)
    for i in range(n_levels):
        mu = float(kcoef * _box_symbol(i + 1, h, p.d))
        lo, hi = mu + vmin - pad, mu + vmax + pad
        if not _sturm_count(main_l, off2, lo, pivmin) <= i < _sturm_count(main_l, off2, hi, pivmin):
            raise RuntimeError(f"radial level {i} escaped its Weyl bracket for {p}")
        while hi - lo > 1e-6 * max(abs(lo), abs(hi)) + 2 * pad:
            mid = 0.5 * (lo + hi)
            if _sturm_count(main_l, off2, mid, pivmin) > i:
                hi = mid
            else:
                lo = mid
        start = np.sin((i + 1) * np.pi * nodes)  # level i of the constant-potential matrix
        vec = _inverse_iteration(main_l, off_l, 0.5 * (lo + hi), start, eps * norm)
        lam = _rayleigh_quotient(main, off, vec)
        if not lo - pad <= lam <= hi + pad:
            raise RuntimeError(f"radial level {i} left its bisection bracket for {p}")
        out[i] = lam + _box_symbol_defect(p, i + 1, h)
    return out


def build_radial_operator(p: ShellProblem) -> OperatorMatrix:
    """The documented radial operator: -(hbar^2/2m)(1/r^s) d/dr (r^s d/dr) + centrifugal.

    Divergence form with odd-reflected wall ghosts, self-adjoint under the
    r^s dr measure.  radial_spectrum solves its exact Liouville image; the
    two spectra agree to stencil order.
    """
    import scipy.sparse as sp

    r, h = p.nodes()
    s = radial_exponent(p.surface.kind)
    c = p.constants
    kcoef = c.hbar**2 / (2 * c.mass)
    n = p.n_r
    faces = np.empty(n + 1)
    faces[:-1] = (r - h / 2) ** s
    faces[-1] = (r[-1] + h / 2) ** s
    # odd reflection at the walls doubles the wall-face pull: the wall face
    # enters twice on top of its share of the stencil
    wall = np.zeros(n)
    wall[0], wall[-1] = 2 * kcoef * faces[0] / h**2, 2 * kcoef * faces[-1] / h**2
    nodes = np.arange(n - 1)
    H = link_operator(n, nodes, nodes + 1, kcoef * faces[1:-1] / h**2, diag=wall,
                      row_scale=1.0 / r**s)
    H = H + sp.diags_array(p.centrifugal(r))
    weights = r**s * h
    label = (f"H_radial[{p.surface.kind.value} R={p.surface.R:g} d={p.d:g} "
             f"l={p.l} n_r={p.n_r}]")
    return OperatorMatrix(H, weights, 1, label)


def box_energy(p: ShellProblem, n: int = 1) -> float:
    c = p.constants
    return float(c.hbar**2 * np.pi**2 * n**2 / (2 * c.mass * p.d**2))


def _naive_angular_energy(surface: SurfaceSpec, l: int, c: PhysicalConstants) -> float:
    """hbar^2 l(l + s - 1)/(2 m R^2): l(l+1) on the sphere, l^2 on the ring/cylinder."""
    pref = c.hbar**2 / (2 * c.mass * surface.R**2)
    return pref * (l * (l + radial_exponent(surface.kind) - 1))


def _neville_limit(ds: np.ndarray, vals: np.ndarray) -> float:
    # polynomial extrapolation in d^2 (the expansion is even in d)
    x = ds**2
    tab = list(vals.astype(float))
    m = len(tab)
    for k in range(1, m):
        nxt = []
        for i in range(m - k):
            nxt.append((tab[i + 1] * x[i] - tab[i] * x[i + k]) / (x[i] - x[i + k]))
        tab = nxt
    return float(tab[0])


def gke_extrapolate(surface: SurfaceSpec, l: int, d_sequence,
                    constants: PhysicalConstants = PhysicalConstants(),
                    n_r: int = DEFAULT_NR) -> tuple[float, float]:
    """d -> 0 limit of the surface energy minus the naive angular energy.

    Returns (limit, empirical_order).  The limit reproduces the curvature
    energy shift: -hbar^2/(8 m R^2) on the cylinder/ring, 0 on the sphere.
    The order is NaN when no two successive residuals rise above round-off.
    """
    ds = np.asarray(list(d_sequence), dtype=float)
    if len(ds) < 3:
        raise ValueError("need at least 3 decreasing d values")
    if not np.all(np.diff(ds) < 0):
        raise ValueError("non-monotone sequence rejected")
    rows = sweep_table(surface, [l], ds, constants, n_r)
    vals = np.array([row["shift"] for row in rows])
    limit = _neville_limit(ds, vals)
    resid = np.abs(vals - limit)
    # E_surface = E_raw - E_box cancels O(E_box) terms, so below this floor a
    # residual is round-off and an order fitted to it would be noise
    fit = resid > n_r * np.finfo(float).eps * np.array([row["E_box"] for row in rows])
    orders = [np.log(resid[i] / resid[i + 1]) / np.log(ds[i] / ds[i + 1])
              for i in range(len(ds) - 1) if fit[i] and fit[i + 1]]
    order = float(np.mean(orders)) if orders else float("nan")
    return limit, order


def sweep_table(surface: SurfaceSpec, l_values, d_values,
                constants: PhysicalConstants = PhysicalConstants(),
                n_r: int = DEFAULT_NR, n: int = 1) -> list[dict]:
    """Convergence table rows: d, l, E_raw, E_box, E_surface, shift.

    shift is the surface energy minus the naive angular energy, the quantity
    whose d -> 0 limit is the curvature shift.
    """
    if len(d_values) == 0:
        raise ValueError("need at least one layer width d")
    rows = []
    for l in l_values:
        for d in d_values:
            p = ShellProblem(surface, d, l, n_r, constants)
            naive = _naive_angular_energy(surface, l, constants)
            e_raw = float(radial_spectrum(p, n)[n - 1])
            e_box = box_energy(p, n)
            e_surface = e_raw - e_box
            rows.append({"d": d, "l": l, "E_raw": e_raw, "E_box": e_box,
                         "E_surface": e_surface, "shift": e_surface - naive})
    return rows
