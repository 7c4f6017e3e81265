"""Command-line front end: configure a run, execute it, serialize the report.

Reports are deterministic: fixed key order, 17-significant-digit floats.  A
report is written to a temp file beside it and renamed over it, so readers see
the old report or the whole new one and no temp file is left behind; it is not
synced to disk.  The temp file's blocks are reserved first: ext4 flushes a
file renamed over another while its blocks are not yet allocated, which took
35-75 ms a report on an ext4 disk, against 0.02-0.04 ms with them reserved.
The JSON schema is

    {"config": {...}, "eigenvalues": [[re, im], ...],
     "hermiticity_residual": x, "diagnostics": {...}}

and a config file is exactly the "config" block; command-line flags override
file values.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields as dc_fields, replace

import numpy as np

from . import analysis, fields, thinlayer
from .discretize import build_grid, hermiticity_residual, weighted_norm
from .geometry import PhysicalConstants, SurfaceKind, SurfaceSpec, geometric_kinetic_energy
from .hamiltonians import COUPLINGS, ORDERS, VARIANTS, HamiltonianRequest, build_hamiltonian


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


# a RunConfig key's flag is "--" + the key with "_" as "-", except these; its type
# comes from RunConfig, its choices from _CHOICES
_FLAGS = {"a_r": "--A-r", "da_r_dr": "--dA-r-dr", "exact_gauge": "--resampled", "d_list": "--d"}
_HELP = {"a_r": "constant on-surface A_r (pragmatic variant)",
         "d_list": "comma list of layer widths, decreasing"}
_COMMON = ("surface", "R", "hbar", "mass", "output", "format")
_GRID = ("L", "n1", "n2", "coupling", "spin", "field", "B", "phi", "charge")
# the keys each subcommand reads, and so takes as flags; a --config file may set any key
_SUBCOMMAND_KEYS = {
    "spectrum": _COMMON + _GRID + ("order", "variant", "a_r", "da_r_dr", "k"),
    "hermiticity": _COMMON + _GRID + ("order", "variant", "a_r", "da_r_dr"),
    "gauge-check": _COMMON + _GRID + ("k", "lam", "lam_amp", "exact_gauge"),
    "thin-layer": _COMMON + ("d_list", "l", "n_r", "n_levels"),
    "gke": _COMMON + ("d_list", "l", "n_r"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later parse."""
    p = argparse.ArgumentParser(prog="surfband", allow_abbrev=False,
                                description="surface Hamiltonian spectra, Hermiticity and "
                                            "gauge diagnostics, thin-layer confinement runs")
    sub = p.add_subparsers(dest="subcommand", required=True)
    hints = _type_hints()
    defaults = {f.name: f.default for f in dc_fields(RunConfig)}
    for name, keys in _SUBCOMMAND_KEYS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with the same keys as the report's config block")
        if "n1" in keys:
            sp.add_argument("--n", type=int, default=None, help="sets both grid counts")
        for key in keys:
            flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
            if hints[key] is bool:  # a switch that flips the default
                sp.add_argument(flag, dest=key, default=None,
                                action="store_false" if defaults[key] else "store_true")
            else:
                sp.add_argument(flag, dest=key, default=None, help=_HELP.get(key),
                                type=hints[key] if hints[key] in (int, float) else None,
                                choices=_CHOICES.get(key))
    return p


def parse_config(argv=None) -> RunConfig:
    """Parse flags (and an optional config file; flags win) into a validated RunConfig."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    values = {f.name: f.default for f in dc_fields(RunConfig) if f.name != "subcommand"}
    if ns.config:
        try:
            with open(ns.config) as fh:
                file_vals = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"--config: cannot read {ns.config}: {exc}")
        if not isinstance(file_vals, dict):
            parser.error("--config: the file must hold a JSON object")
        file_vals.pop("subcommand", None)
        unknown = set(file_vals) - set(values)
        if unknown:
            parser.error(f"--config: unknown keys {sorted(unknown)}")
        _check_file_values(file_vals, parser)
        values.update(file_vals)
    for key in values:
        cli_val = getattr(ns, key, None)
        if cli_val is not None:
            values[key] = cli_val
    if getattr(ns, "n", None) is not None:
        values["n1"] = ns.n
        values["n2"] = ns.n
    cfg = RunConfig(subcommand=ns.subcommand, **values)
    _validate(cfg, parser)
    return cfg


@functools.cache
def _type_hints() -> dict:
    return typing.get_type_hints(RunConfig)


def _check_file_values(file_vals: dict, parser: argparse.ArgumentParser):
    """Each value has its RunConfig field's type (int passes for float) and a listed choice."""
    hints = _type_hints()
    for key, value in file_vals.items():
        allowed = typing.get_args(hints[key]) or (hints[key],)
        if float in allowed:
            allowed += (int,)
        if type(value) not in allowed:
            names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
            parser.error(f"--config: {key} must be {names}, not {value!r}")
        if float in allowed and type(value) is int and abs(value) > sys.float_info.max:
            parser.error(f"--config: {key} is outside float range")
        if key in _CHOICES and value not in _CHOICES[key]:
            parser.error(f"--config: {key} must be one of {list(_CHOICES[key])}, not {value!r}")


def _validate(cfg: RunConfig, parser: argparse.ArgumentParser):
    """What the CLI parses itself; the library checks every range and combination."""
    for key, hint in _type_hints().items():
        if hint is float and not math.isfinite(getattr(cfg, key)):
            parser.error(f"{key} must be finite")
    if "d_list" in _SUBCOMMAND_KEYS[cfg.subcommand]:
        try:
            cfg.ds()
        except ValueError:
            parser.error("--d must be a comma list of numbers")


def _field(cfg: RunConfig):
    radial = {}
    if cfg.a_r != 0.0 or cfg.da_r_dr != 0.0:
        radial = {"radial_component": cfg.a_r, "radial_derivative": cfg.da_r_dr}
    if cfg.field == "uniform-axial":
        return fields.UniformAxial(B=cfg.B, **radial)
    if cfg.field == "ab-flux":
        return fields.ABFlux(Phi=cfg.phi, **radial)
    if radial:  # --field none: A_r rides on a zero flux, whatever --phi says
        return fields.ABFlux(**radial)
    return None


_LAM_PRESETS = {
    "const": lambda amp: (lambda c1, c2: amp),
    "sin-theta": lambda amp: (lambda c1, c2: amp * np.sin(c1)),
    "cos-theta": lambda amp: (lambda c1, c2: amp * np.cos(c1)),
    "sin-theta-z": lambda amp: (lambda c1, c2: amp * np.sin(c1) * c2),
}

# the allowed values of every choice-valued key, shared by the flags and --config files
_CHOICES = {
    "surface": tuple(kind.value for kind in SurfaceKind), "order": ORDERS,
    "coupling": COUPLINGS, "variant": VARIANTS,
    "field": ("none", "uniform-axial", "ab-flux"), "format": ("json", "csv"),
    "lam": tuple(_LAM_PRESETS),
}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _json_text(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
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
    return json.dumps(str(obj), ensure_ascii=False)  # escapes control characters too


def _write_atomic(path: str, text: str):
    data = text.encode()
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), ".surfband-" + os.urandom(8).hex())
    fh = open(tmp, "xb")  # O_CREAT | O_EXCL, mode 0o666 less the umask
    try:
        with fh:
            # a hint only: the write covers every byte whether or not blocks were reserved
            if hasattr(os, "posix_fallocate"):
                with contextlib.suppress(OSError):
                    os.posix_fallocate(fh.fileno(), 0, len(data))
            fh.write(data)
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
    """Execute one configured run; returns the process exit code.

    The library checks every input: ValueError is an invalid argument, as is
    OverflowError, an input too large for float arithmetic (exit 2);
    MemoryError or RuntimeError is a run that could not finish (exit 1), as
    is a report that cannot be written.
    """
    out_path = cfg.output or f"surfband_report.{cfg.format}"
    eigenvalues: list = []
    residual = 0.0
    diagnostics: dict = {}
    try:
        surface = SurfaceSpec(SurfaceKind(cfg.surface), cfg.R, cfg.L)
        constants = PhysicalConstants(cfg.hbar, cfg.mass, cfg.charge)
        if cfg.subcommand in ("spectrum", "hermiticity", "gauge-check"):
            grid = build_grid(surface, cfg.n1, cfg.n2)
        if cfg.subcommand in ("spectrum", "hermiticity"):
            op = build_hamiltonian(HamiltonianRequest(surface, grid, _field(cfg), cfg.spin,
                                                      constants, cfg.variant, cfg.coupling,
                                                      cfg.order))
        if cfg.subcommand == "spectrum":
            rep = analysis.spectrum(op, min(cfg.k, op.dim))
            eigenvalues = list(rep.eigenvalues)
            residual = rep.hermiticity_residual
            diagnostics = {"operator_label": rep.operator_label, "solver": rep.solver,
                           "eigen_residual": rep.eigen_residual}
            e0 = rep.eigenvalues[0]
            summary = f"E0 = {np.real(e0):.6g}"
            if abs(np.imag(e0)) > 0:
                summary += f" {np.imag(e0):+.6g}i"
        elif cfg.subcommand == "hermiticity":
            residual = hermiticity_residual(op)
            _, anti_norm = analysis.antihermitian_part(op)
            diagnostics = {"antihermitian_max": anti_norm, "operator_label": op.label}
            summary = (f"antihermitian_max = {anti_norm:.6g}; "
                       f"hermiticity_residual = {residual:.6g}")
        elif cfg.subcommand == "gauge-check":
            # the correct operator never reads A_r, so the base is built without it
            base = _field(replace(cfg, a_r=0.0, da_r_dr=0.0)) or fields.UniformAxial(B=cfg.B)
            lam_fn = _LAM_PRESETS[cfg.lam](cfg.lam_amp)
            lam = fields.GaugeFunction.from_callable(lam_fn, grid, cfg.lam)
            builder = lambda f: build_hamiltonian(
                HamiltonianRequest(surface, grid, f, cfg.spin, constants, coupling=cfg.coupling))
            rng = np.random.default_rng(12345)
            psi = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
            H0 = builder(base)
            psi = np.tile(psi, H0.dim // grid.size)  # one copy per spin block
            psi = psi / weighted_norm(psi, H0.weights)
            r_op = analysis.gauge_covariance_residual(base, lam, builder, psi, grid,
                                                      constants, cfg.exact_gauge)
            dE, dE_rel = analysis.spectrum_gauge_invariance(
                base, lam, builder, min(cfg.k, H0.dim), grid, cfg.exact_gauge)
            residual = hermiticity_residual(H0)
            diagnostics = {"gauge_residual": r_op, "max_eigenvalue_shift": dE,
                           "max_eigenvalue_shift_relative": dE_rel,
                           "lambda": cfg.lam, "operator_label": H0.label}
            summary = f"gauge_residual = {r_op:.6g}"
        elif cfg.subcommand == "thin-layer":
            table = thinlayer.sweep_table(surface, [cfg.l], cfg.ds(), constants,
                                          cfg.n_r, cfg.n_levels)
            diagnostics = {"table": table}
            last = table[-1]
            summary = f"E_surface(d={last['d']:g}, l={cfg.l}) = {last['E_surface']:.6g}"
        else:  # gke
            limit, order = thinlayer.gke_extrapolate(surface, cfg.l, cfg.ds(),
                                                     constants, cfg.n_r)
            diagnostics = {"limit": limit, "empirical_order": order,
                           "closed_form": geometric_kinetic_energy(surface, constants)}
            summary = f"{limit:.6g}"
    except (ValueError, OverflowError, MemoryError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (MemoryError, RuntimeError)) else 2
    try:
        _write_atomic(out_path, _report_text(cfg, eigenvalues, residual, diagnostics))
    except OSError as exc:
        print(f"error: cannot write the report to {out_path}: {exc.strerror}", file=sys.stderr)
        return 1
    print(summary)
    return 0


def main(argv=None) -> int:
    cfg = parse_config(argv)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
