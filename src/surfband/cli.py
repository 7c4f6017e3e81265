"""Command-line front end: configure a run, execute it, serialize the report.

Reports are deterministic: fixed key order, 17-significant-digit floats,
written atomically (temp file then rename).  The JSON schema is

    {"config": {...}, "eigenvalues": [[re, im], ...],
     "hermiticity_residual": x, "diagnostics": {...}}

and a config file is exactly the "config" block; command-line flags override
file values.  SURFBAND_THREADS caps sweep parallelism for thin-layer runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from . import analysis, fields, thinlayer
from .discretize import build_grid, hermiticity_residual, weighted_norm
from .geometry import PhysicalConstants, SurfaceKind, SurfaceSpec
from .hamiltonians import HamiltonianRequest, build_hamiltonian

SUBCOMMANDS = ("spectrum", "hermiticity", "gauge-check", "thin-layer", "gke")

_DEFAULTS = {
    "surface": "ring", "R": 1.0, "L": 3.141592653589793,
    "n1": 64, "n2": 16, "order": 2, "coupling": "peierls",
    "variant": "correct", "spin": False,
    "field": "none", "B": 1.0, "phi": 0.0, "a_r": 0.0, "da_r_dr": 0.0,
    "k": 10, "lam": "const", "lam_amp": 1.0, "exact_gauge": True,
    "d_list": "0.1,0.05,0.025,0.0125", "l": 0, "n_r": thinlayer.DEFAULT_NR,
    "n_levels": 1,
    "hbar": 1.0, "mass": 1.0, "charge": 1.0,
    "output": None, "format": "json", "config": None,
}


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    surface: str = "ring"
    R: float = 1.0
    L: float = 3.141592653589793
    n1: int = 64
    n2: int = 16
    order: int = 2
    coupling: str = "peierls"
    variant: str = "correct"
    spin: bool = False
    field: str = "none"
    B: float = 1.0
    phi: float = 0.0
    a_r: float = 0.0
    da_r_dr: float = 0.0
    k: int = 10
    lam: str = "const"
    lam_amp: float = 1.0
    exact_gauge: bool = True
    d_list: str = "0.1,0.05,0.025,0.0125"
    l: int = 0
    n_r: int = thinlayer.DEFAULT_NR
    n_levels: int = 1
    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 1.0
    output: str | None = None
    format: str = "json"

    def ds(self) -> list[float]:
        return [float(x) for x in self.d_list.split(",") if x.strip()]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="surfband",
                                description="surface Hamiltonian spectra, Hermiticity and "
                                            "gauge diagnostics, thin-layer confinement runs")
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with the same keys as the report's config block")
        sp.add_argument("--surface", choices=["ring", "cylinder", "sphere"], default=None)
        sp.add_argument("--R", type=float, default=None)
        sp.add_argument("--L", type=float, default=None)
        sp.add_argument("--n", type=int, default=None, help="sets both grid counts")
        sp.add_argument("--n1", type=int, default=None)
        sp.add_argument("--n2", type=int, default=None)
        sp.add_argument("--order", type=int, choices=[2, 4], default=None)
        sp.add_argument("--coupling", choices=["peierls", "expanded"], default=None)
        sp.add_argument("--spin", action="store_true", default=None)
        sp.add_argument("--field", choices=["none", "uniform-axial", "ab-flux"], default=None)
        sp.add_argument("--B", type=float, default=None)
        sp.add_argument("--phi", type=float, default=None)
        sp.add_argument("--A-r", dest="a_r", type=float, default=None,
                        help="constant on-surface A_r (pragmatic variant)")
        sp.add_argument("--dA-r-dr", dest="da_r_dr", type=float, default=None)
        sp.add_argument("--hbar", type=float, default=None)
        sp.add_argument("--mass", type=float, default=None)
        sp.add_argument("--charge", type=float, default=None)
        sp.add_argument("--output", type=str, default=None)
        sp.add_argument("--format", choices=["json", "csv"], default=None)
        if name in ("spectrum", "hermiticity"):
            sp.add_argument("--variant", choices=["correct", "pragmatic"], default=None)
        if name in ("spectrum", "gauge-check"):
            sp.add_argument("--k", type=int, default=None)
        if name == "gauge-check":
            sp.add_argument("--lam", choices=["const", "sin-theta", "cos-theta", "sin-theta-z"],
                            default=None)
            sp.add_argument("--lam-amp", dest="lam_amp", type=float, default=None)
            sp.add_argument("--resampled", dest="exact_gauge", action="store_false", default=None)
        if name in ("thin-layer", "gke"):
            sp.add_argument("--d", dest="d_list", type=str, default=None,
                            help="comma list of layer widths, decreasing")
            sp.add_argument("--l", type=int, default=None)
            sp.add_argument("--n-r", dest="n_r", type=int, default=None)
            sp.add_argument("--n-levels", dest="n_levels", type=int, default=None)
    return p


def parse_config(argv=None) -> RunConfig:
    """Parse flags (and an optional config file; flags win) into a validated RunConfig."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    values = dict(_DEFAULTS)
    values.pop("config")
    if ns.config:
        try:
            import json

            with open(ns.config) as fh:
                file_vals = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"--config: cannot read {ns.config}: {exc}")
        unknown = set(file_vals) - set(values) - {"subcommand"}
        if unknown:
            parser.error(f"--config: unknown keys {sorted(unknown)}")
        values.update({k: v for k, v in file_vals.items() if k != "subcommand"})
    for key in values:
        cli_val = getattr(ns, key, None)
        if cli_val is not None:
            values[key] = cli_val
    if getattr(ns, "n", None) is not None:
        values["n1"] = ns.n
        values["n2"] = ns.n
    values["spin"] = bool(values["spin"])
    values["exact_gauge"] = bool(values["exact_gauge"])
    cfg = RunConfig(subcommand=ns.subcommand, **values)
    _validate(cfg, parser)
    return cfg


def _validate(cfg: RunConfig, parser: argparse.ArgumentParser):
    if cfg.R <= 0:
        parser.error("--R must be positive")
    if cfg.L <= 0:
        parser.error("--L must be positive")
    if cfg.n1 < 3 or (cfg.surface != "ring" and cfg.n2 < 3):
        parser.error("--n1/--n2 must be at least 3")
    if cfg.k < 1:
        parser.error("--k must be at least 1")
    if cfg.hbar <= 0 or cfg.mass <= 0:
        parser.error("--hbar and --mass must be positive")
    if cfg.subcommand in ("thin-layer", "gke"):
        try:
            ds = cfg.ds()
        except ValueError:
            parser.error("--d must be a comma list of numbers")
        if not ds or any(d <= 0 for d in ds):
            parser.error("--d values must be positive")
        if cfg.subcommand == "gke" and (len(ds) < 3 or any(np.diff(ds) >= 0)):
            parser.error("--d needs at least 3 strictly decreasing values")
        if cfg.n_r < 50:
            parser.error("--n-r must be at least 50")


def _surface(cfg: RunConfig) -> SurfaceSpec:
    kind = SurfaceKind(cfg.surface)
    return SurfaceSpec(kind, cfg.R, cfg.L)


def _constants(cfg: RunConfig) -> PhysicalConstants:
    return PhysicalConstants(cfg.hbar, cfg.mass, cfg.charge)


def _field(cfg: RunConfig):
    radial = {}
    if cfg.a_r != 0.0 or cfg.da_r_dr != 0.0:
        radial = {"radial_component": cfg.a_r, "radial_derivative": cfg.da_r_dr}
    if cfg.field == "uniform-axial":
        return fields.UniformAxial(B=cfg.B, **radial)
    if cfg.field == "ab-flux" or radial:
        return fields.ABFlux(Phi=cfg.phi, **radial)
    return None


_LAM_PRESETS = {
    "const": lambda amp: (lambda c1, c2: amp),
    "sin-theta": lambda amp: (lambda c1, c2: amp * np.sin(c1)),
    "cos-theta": lambda amp: (lambda c1, c2: amp * np.cos(c1)),
    "sin-theta-z": lambda amp: (lambda c1, c2: amp * np.sin(c1) * c2),
}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _json_text(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_json_text(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(_json_text(v) for v in obj) + "]"
        items = [f"{pad}  {_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj) if np.isfinite(obj) else "null"  # JSON has no nan/inf
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".surfband-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report_text(cfg: RunConfig, eigenvalues, residual, diagnostics) -> str:
    if cfg.format == "json":
        body = {
            "config": asdict(cfg),
            "eigenvalues": [[float(np.real(e)), float(np.imag(e))] for e in eigenvalues],
            "hermiticity_residual": float(residual),
            "diagnostics": diagnostics,
        }
        return _json_text(body) + "\n"
    lines = []
    if cfg.subcommand == "spectrum":
        lines.append("index,Re(E),Im(E)")
        for i, ev in enumerate(eigenvalues):
            lines.append(f"{i},{np.real(ev):.16e},{np.imag(ev):.16e}")
    elif cfg.subcommand == "thin-layer":
        lines.append("d,l,E_raw,E_box,E_surface,shift")
        for row in diagnostics["table"]:
            lines.append(",".join(f"{row[c]:.16e}" if c != "l" else str(row[c])
                                  for c in ("d", "l", "E_raw", "E_box", "E_surface", "shift")))
    else:
        lines.append("key,value")
        for kk, vv in diagnostics.items():
            if isinstance(vv, (int, float, np.floating)):
                lines.append(f"{kk},{float(vv):.16e}")
        lines.append(f"hermiticity_residual,{float(residual):.16e}")
    return "\n".join(lines) + "\n"


def run(cfg: RunConfig) -> int:
    """Execute one configured run; returns the process exit code."""
    surface = _surface(cfg)
    constants = _constants(cfg)
    out_path = cfg.output or f"surfband_report.{cfg.format}"
    eigenvalues: list = []
    residual = 0.0
    diagnostics: dict = {}
    try:
        if cfg.subcommand in ("spectrum", "hermiticity", "gauge-check"):
            grid = build_grid(surface, cfg.n1, 1 if cfg.surface == "ring" else cfg.n2)
            req = HamiltonianRequest(surface, grid, _field(cfg), cfg.spin, constants,
                                     cfg.variant, cfg.coupling, cfg.order)
        if cfg.subcommand == "spectrum":
            op = build_hamiltonian(req)
            rep = analysis.spectrum(op, min(cfg.k, op.dim))
            eigenvalues = list(rep.eigenvalues)
            residual = rep.hermiticity_residual
            diagnostics = {"operator_label": rep.operator_label, "solver": rep.solver}
            e0 = rep.eigenvalues[0]
            summary = f"E0 = {np.real(e0):.6g}"
            if abs(np.imag(e0)) > 0:
                summary += f" {np.imag(e0):+.6g}i"
        elif cfg.subcommand == "hermiticity":
            op = build_hamiltonian(req)
            residual = hermiticity_residual(op)
            _, anti_norm = analysis.antihermitian_part(op)
            diagnostics = {"antihermitian_max": anti_norm, "operator_label": op.label}
            summary = (f"antihermitian_max = {anti_norm:.6g}; "
                       f"hermiticity_residual = {residual:.6g}")
        elif cfg.subcommand == "gauge-check":
            base = _field(cfg) or fields.UniformAxial(B=cfg.B)
            lam_fn = _LAM_PRESETS[cfg.lam](cfg.lam_amp)
            grid = req.grid
            lam = fields.GaugeFunction.from_callable(lam_fn, grid, cfg.lam)
            builder = lambda f: build_hamiltonian(
                HamiltonianRequest(surface, grid, f, cfg.spin, constants,
                                   "correct", cfg.coupling, cfg.order))
            rng = np.random.default_rng(12345)
            psi = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
            if cfg.spin:
                psi = np.tile(psi, 2)
            H0 = builder(base)
            psi = psi / weighted_norm(psi, H0.full_weights())
            r_op = analysis.gauge_covariance_residual(base, lam, builder, psi, grid,
                                                      constants, cfg.exact_gauge)
            dE = analysis.spectrum_gauge_invariance(base, lam, builder,
                                                    min(cfg.k, H0.dim), grid, cfg.exact_gauge)
            residual = hermiticity_residual(H0)
            diagnostics = {"gauge_residual": r_op, "max_eigenvalue_shift": dE,
                           "lambda": cfg.lam, "operator_label": H0.label}
            summary = f"gauge_residual = {r_op:.6g}"
        elif cfg.subcommand == "thin-layer":
            workers = int(os.environ.get("SURFBAND_THREADS", "1"))
            table = thinlayer.sweep_table(surface, [cfg.l], cfg.ds(), constants,
                                          cfg.n_r, cfg.n_levels, max_workers=workers)
            diagnostics = {"table": table}
            last = table[-1]
            summary = f"E_surface(d={last['d']:g}, l={cfg.l}) = {last['E_surface']:.6g}"
        else:  # gke
            limit, order = thinlayer.gke_extrapolate(surface, cfg.l, cfg.ds(),
                                                     constants, cfg.n_r)
            from .geometry import geometric_kinetic_energy

            diagnostics = {"limit": limit, "empirical_order": order,
                           "closed_form": geometric_kinetic_energy(surface, constants)}
            summary = f"{limit:.6g}"
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_atomic(out_path, _report_text(cfg, eigenvalues, residual, diagnostics))
    print(summary)
    return 0


def main(argv=None) -> int:
    cfg = parse_config(argv)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
