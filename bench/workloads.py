"""The four benchmark workloads: seeded inputs, the CLI calls they make, and
the check that each call's output is correct.

A workload draws one set of physical parameters per iteration from a
seeded ``random.Random`` and turns it into CLI argument lists.  The seed
moves only physical parameters (R, B, flux, A_r, dA_r/dr, the gauge
amplitude, where the d-sequence starts).  Grid sizes, call counts and matrix
dimensions are fixed, so two seeds do the same work.  The program sees only
the generated arguments.

Every check compares a report against a closed form or an identity and
returns the call's ``ref_error`` (or None when the call has none); it raises
``CheckFailed`` when the output is wrong or the error exceeds its gate.  The
closed forms are module-level functions so a test can replace one with a
wrong reference and see the check fail.

Physical constants are the CLI defaults, hbar = m = e = 1; the calls never
pass --hbar, --mass or --charge.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

HBAR = MASS = CHARGE = 1.0

# acceptance gates of the pinned criteria (tests/test_acceptance.py)
SPHERE_GATE = 1e-3         # c07, in units of hbar^2/(m R^2): the c07 number at R = 1
GAUGE_GATE = 1e-10         # c04
GKE_GATE = 1e-6            # c02
ROUNDOFF_GATE = 1e-12      # c03: the anti-Hermitian diagonal is exact
HERMITIAN_GATE = 1e-12     # c03: correct operators are weighted-Hermitian
IMAG_TOL = 1e-10           # general eigensolver round-off on Im E
# reduced grids for the self-test and the warm-up miss the c07 accuracy;
# 0.05 sits above the measured 0.021 at 24x24
SPHERE_GATE_SMALL = 0.05


class CheckFailed(Exception):
    """A report disagrees with its closed form or identity."""


@dataclass(frozen=True)
class Call:
    argv: list
    check: Callable[[dict], "float | None"]


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    draw: Callable[[random.Random], dict]
    calls: Callable[[dict, bool], list]  # (params, small) -> [Call]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def sphere_level(l: int, R: float) -> float:
    """E_l = l(l+1) hbar^2 / (2 m R^2)."""
    return l * (l + 1) * HBAR**2 / (2 * MASS * R**2)


def curvature_shift(surface: str, R: float) -> float:
    """d -> 0 limit of the thin-layer surface energy: -hbar^2/(8mR^2), 0 on the sphere."""
    return 0.0 if surface == "sphere" else -HBAR**2 / (8 * MASS * R**2)


def pragmatic_antihermitian(a_r: float, da_r_dr: float, R: float) -> float:
    """(hbar e / 2m)(A_r/R + dA_r/dr): the pragmatic operator's anti-Hermitian diagonal."""
    return (HBAR * CHARGE / (2 * MASS)) * (a_r / R + da_r_dr)


def box_energy(d: float) -> float:
    return HBAR**2 * math.pi**2 / (2 * MASS * d**2)


def naive_angular(surface: str, l: int, R: float) -> float:
    return HBAR**2 / (2 * MASS * R**2) * (l * (l + 1) if surface == "sphere" else l * l)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    return repr(float(x))


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _gate(err: float, gate: float, what: str) -> float:
    _require(math.isfinite(err) and err <= gate, f"{what} = {err:.3e} exceeds {gate:g}")
    return err


def _eigenvalues(report: dict, k: int) -> list:
    ev = report["eigenvalues"]
    _require(len(ev) == k, f"expected {k} eigenvalues, got {len(ev)}")
    _require(all(math.isfinite(x) for pair in ev for x in pair), "non-finite eigenvalue")
    return ev


# ---------------------------------------------------------------------------
# sphere-free: order-4 free sphere, the c07 case
# ---------------------------------------------------------------------------

def _sphere_draw(rng: random.Random) -> dict:
    return {"R": math.exp(rng.uniform(math.log(0.5), math.log(2.0)))}


def _sphere_calls(p: dict, small: bool) -> list:
    n, gate, R = (24, SPHERE_GATE_SMALL, p["R"]) if small else (64, SPHERE_GATE, p["R"])
    k = 16  # l <= 3: multiplicities 1, 3, 5, 7

    def check(report):
        ev = _eigenvalues(report, k)
        _require(all(im == 0.0 for _, im in ev), "Hermitian spectrum has imaginary parts")
        _require(report["hermiticity_residual"] <= HERMITIAN_GATE,
                 f"hermiticity_residual {report['hermiticity_residual']:.3e}")
        unit = HBAR**2 / (MASS * R**2)
        err = 0.0
        for l in range(4):
            cluster = [re for re, _ in ev[l * l:(l + 1) ** 2]]
            ref = sphere_level(l, R)
            err = max(err, max(abs(e - ref) for e in cluster) / unit)
        return _gate(err, gate, "sphere level error")

    argv = ["spectrum", "--surface", "sphere", "--R", _num(R), "--n", str(n),
            "--order", "4", "--k", str(k)]
    return [Call(argv, check)]


# ---------------------------------------------------------------------------
# cylinder-gauge-spin: gauge covariance with spin, not axisymmetric after the shift
# ---------------------------------------------------------------------------

def _gauge_draw(rng: random.Random) -> dict:
    return {"R": rng.uniform(0.8, 1.25), "B": rng.uniform(0.5, 2.0),
            "lam_amp": rng.uniform(0.5, 1.5)}


def _gauge_calls(p: dict, small: bool) -> list:
    n, k = (8, 8) if small else (32, 16)

    def check(report):
        diag = report["diagnostics"]
        _require(report["hermiticity_residual"] <= HERMITIAN_GATE,
                 f"hermiticity_residual {report['hermiticity_residual']:.3e}")
        return max(_gate(diag["gauge_residual"], GAUGE_GATE, "gauge residual"),
                   _gate(diag["max_eigenvalue_shift"], GAUGE_GATE, "eigenvalue shift"))

    argv = ["gauge-check", "--surface", "cylinder", "--R", _num(p["R"]), "--n", str(n),
            "--spin", "--field", "uniform-axial", "--B", _num(p["B"]),
            "--lam", "sin-theta-z", "--lam-amp", _num(p["lam_amp"]), "--k", str(k)]
    return [Call(argv, check)]


# ---------------------------------------------------------------------------
# thin-layer-sweep: radial shell solves only, no surface grid
# ---------------------------------------------------------------------------

THIN_SURFACES = ("cylinder", "sphere")


def _thin_draw(rng: random.Random) -> dict:
    return {"R": rng.uniform(0.8, 1.25), "d0": rng.uniform(0.08, 0.12)}


def _thin_calls(p: dict, small: bool) -> list:
    R, d0 = p["R"], p["d0"]
    ls, n_table = ((0, 2), 4) if small else ((0, 1, 2, 3, 4), 16)
    # table widths fall geometrically from d0 to d0/8; gke halves from d0 (c02's pattern)
    table_ds = [d0 * 8 ** (-i / (n_table - 1)) for i in range(n_table)]
    gke_ds = [d0 / 2**i for i in range(4)]
    calls = []
    for surface in THIN_SURFACES:
        for l in ls:
            common = ["--surface", surface, "--R", _num(R), "--l", str(l)]
            calls.append(Call(["thin-layer", *common, "--d", ",".join(map(_num, table_ds))],
                              _table_check(surface, l, R, table_ds)))
            calls.append(Call(["gke", *common, "--d", ",".join(map(_num, gke_ds))],
                              _gke_check(surface, R)))
    return calls


def _table_check(surface: str, l: int, R: float, ds: list):
    def check(report):
        rows = report["diagnostics"]["table"]
        _require(len(rows) == len(ds), f"expected {len(ds)} table rows, got {len(rows)}")
        gke = curvature_shift(surface, R)
        for row, d in zip(rows, ds):
            _require(row["d"] == d and row["l"] == l, f"row for d={d}, l={l} missing")
            e_box = box_energy(d)
            _require(abs(row["E_box"] - e_box) <= 1e-12 * e_box, f"E_box at d={d}")
            _require(abs(row["E_surface"] - (row["E_raw"] - row["E_box"])) <= 1e-12 * row["E_raw"],
                     f"E_surface != E_raw - E_box at d={d}")
            _require(abs(row["shift"] - (row["E_surface"] - naive_angular(surface, l, R)))
                     <= 1e-9, f"shift at d={d}")
            # the shift reaches the curvature energy at O(d^2); the bound is
            # about 20x the worst case over l <= 4 and the seeded R, d ranges
            bound = (1 + l * (l + 1)) * (d / R) ** 2 * HBAR**2 / (MASS * R**2)
            _require(abs(row["shift"] - gke) <= bound,
                     f"shift {row['shift']:.6g} not within {bound:.3g} of {gke:.6g} at d={d}")
        return None
    return check


def _gke_check(surface: str, R: float):
    def check(report):
        diag = report["diagnostics"]
        return _gate(abs(diag["limit"] - curvature_shift(surface, R)), GKE_GATE,
                     "thin-layer limit error")
    return check


# ---------------------------------------------------------------------------
# cylinder-pragmatic: expanded coupling and the general (non-Hermitian) eigensolver
# ---------------------------------------------------------------------------

def _pragmatic_draw(rng: random.Random) -> dict:
    return {"R": rng.uniform(0.8, 1.25), "phi": rng.uniform(0.0, 1.0),
            "a_r": rng.uniform(0.2, 1.0), "da_r_dr": rng.uniform(0.1, 0.5)}


def _pragmatic_calls(p: dict, small: bool) -> list:
    n, k = (8, 8) if small else (32, 16)
    target = pragmatic_antihermitian(p["a_r"], p["da_r_dr"], p["R"])
    common = ["--surface", "cylinder", "--R", _num(p["R"]), "--n", str(n),
              "--variant", "pragmatic", "--field", "ab-flux", "--phi", _num(p["phi"]),
              "--A-r", _num(p["a_r"]), "--dA-r-dr", _num(p["da_r_dr"])]

    def check_hermiticity(report):
        err = abs(report["diagnostics"]["antihermitian_max"] - target)
        return _gate(err, ROUNDOFF_GATE, "anti-Hermitian part error")

    def check_spectrum(report):
        ev = _eigenvalues(report, k)
        worst = max(abs(im - target) for _, im in ev)
        _require(worst <= IMAG_TOL, f"Im E off the anti-Hermitian diagonal by {worst:.3e}")
        _require(all(a[0] <= b[0] for a, b in zip(ev, ev[1:])), "Re E not ascending")
        return None

    return [Call(["hermiticity", *common], check_hermiticity),
            Call(["spectrum", *common, "--k", str(k)], check_spectrum)]


WORKLOADS = {w.name: w for w in (
    Workload("sphere-free", _sphere_draw, _sphere_calls),
    Workload("cylinder-gauge-spin", _gauge_draw, _gauge_calls),
    Workload("thin-layer-sweep", _thin_draw, _thin_calls),
    Workload("cylinder-pragmatic", _pragmatic_draw, _pragmatic_calls),
)}
