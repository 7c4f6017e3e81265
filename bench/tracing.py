"""Spans around surfband's layer boundaries, recorded from outside the library.

Each traced function is replaced, at every name a surfband module binds it
to, by a wrapper that records a span (name, start, end, parent, run id,
iteration).  Wrapping every binding matters: ``cli`` and ``analysis`` bind
``hermiticity_residual`` and ``add_gauge`` by ``from ... import``,
``hamiltonians`` binds ``link_integrals`` and ``zeeman_block`` the same way,
and ``thinlayer`` looks up ``radial_spectrum`` as a module global.  Spans
stay in memory and are written out once, when the run ends.

A layer's self time is its span minus the time its child spans cover.  The
self times of all spans of one CLI call add up to its root spans, so the
traced wall time is their sum plus the untraced remainder.  Spans assume
one thread: the benchmark runs thin-layer sweeps serially.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time

import numpy as np

# traced function ("module.attribute" inside surfband) -> self-time metric
SELF_TIME = {
    "cli.parse_config": "cli.parse_s",
    "cli.run": "cli.run_self_s",
    "discretize.build_grid": "discretize.build_grid_s",
    "discretize.hermiticity_residual": "discretize.hermiticity_s",
    "hamiltonians.build_hamiltonian": "hamiltonians.build_s",
    "hamiltonians.zeeman_block": "hamiltonians.zeeman_s",
    "fields.link_integrals": "fields.link_s",
    "fields.GaugeFunction.from_callable": "fields.gauge_s",
    "fields.add_gauge": "fields.gauge_s",
    "fields.sample_potential": "fields.sample_s",
    "analysis.spectrum": "analysis.solve_s",
    "analysis.antihermitian_part": "analysis.antihermitian_s",
    "analysis.gauge_covariance_residual": "analysis.gauge_self_s",
    "analysis.spectrum_gauge_invariance": "analysis.gauge_self_s",
    "thinlayer.radial_spectrum": "thinlayer.radial_s",
    "thinlayer.gke_extrapolate": "thinlayer.extrapolate_self_s",
    "thinlayer.sweep_table": "thinlayer.sweep_self_s",
}
# the tracer's own counting of nonzeros, kept out of every layer's self time
COUNT_SPAN = "trace.count"
SELF_TIME_METRICS = sorted(set(SELF_TIME.values()) | {"trace.count_s"})

CALL_COUNTS = {
    "discretize.hermiticity_residual": "discretize.hermiticity_calls",
    "hamiltonians.build_hamiltonian": "hamiltonians.builds",
    "thinlayer.radial_spectrum": "thinlayer.radial_calls",
}
# counted from return values: per CLI iteration (solves) or the largest operator (sizes)
SOLVE_COUNTS = ("analysis.hermitian_solves", "analysis.general_solves")
OPERATOR_SIZES = ("hamiltonians.dim", "hamiltonians.nnz", "hamiltonians.stored_bytes")


def _matrix_size(entries) -> tuple[int, int]:
    """(nonzeros, stored bytes) of a dense array or a scipy.sparse matrix.

    Sparse storage is the change stored_bytes exists to show, so both count.
    """
    if hasattr(entries, "nnz"):
        stored = sum(getattr(entries, a).nbytes for a in ("data", "indices", "indptr", "row", "col",
                                                          "offsets") if hasattr(entries, a))
        return int(entries.nnz), int(stored)
    return int(np.count_nonzero(entries)), int(entries.nbytes)


def _resolve(target: str):
    """(owner, attribute, function) for a "module.attr" or "module.Class.attr" target."""
    module, *path = target.split(".")
    owner = importlib.import_module(f"surfband.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], getattr(owner, path[-1])


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.iteration = 0
        self.spans: list[dict] = []
        self.counts: dict[tuple[int, str], int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None, "name": name,
               "run": self.run_id, "iteration": self.iteration, "start": time.perf_counter()}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _count(self, name: str, value: int = 1, largest: bool = False):
        key = (self.iteration, name)
        old = self.counts.get(key, 0)
        self.counts[key] = max(old, value) if largest else old + value

    def _observe(self, target: str, result):
        if target == "analysis.spectrum":
            # eigvalsh returns a real array; the general solver a complex one
            hermitian = np.isrealobj(result.eigenvalues)
            self._count(SOLVE_COUNTS[0] if hermitian else SOLVE_COUNTS[1])
        elif target == "hamiltonians.build_hamiltonian":
            nnz, stored = _matrix_size(result.entries)
            for name, value in zip(OPERATOR_SIZES, (result.dim, nnz, stored)):
                self._count(name, value, largest=True)

    def _wrap(self, target: str, fn):
        def traced(*args, **kwargs):
            with self.span(target):
                result = fn(*args, **kwargs)
            if target in ("analysis.spectrum", "hamiltonians.build_hamiltonian"):
                with self.span(COUNT_SPAN):
                    self._observe(target, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every surfband binding of each traced function; restore on exit."""
        patched = []
        try:
            for target in SELF_TIME:
                owner, attr, fn = _resolve(target)
                wrapper = self._wrap(target, fn)
                if isinstance(owner, type):  # a staticmethod on a class
                    patched.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, staticmethod(wrapper))
                    continue
                for name, module in list(sys.modules.items()):
                    if name == "surfband" or name.startswith("surfband."):
                        for key, value in list(vars(module).items()):
                            if value is fn:
                                patched.append((module, key, value))
                                setattr(module, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def layer_totals(self, iteration: int) -> dict[str, float]:
        """Per-layer self times, call counts and sizes of one traced iteration."""
        spans = [s for s in self.spans if s["iteration"] == iteration]
        child_time = {s["id"]: 0.0 for s in spans}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {m: 0.0 for m in SELF_TIME_METRICS}
        out.update({m: 0 for m in (*CALL_COUNTS.values(), *SOLVE_COUNTS, *OPERATOR_SIZES)})
        roots = 0.0
        for s in spans:
            dur = s["end"] - s["start"]
            metric = "trace.count_s" if s["name"] == COUNT_SPAN else SELF_TIME[s["name"]]
            out[metric] += dur - child_time[s["id"]]
            if s["name"] in CALL_COUNTS:
                out[CALL_COUNTS[s["name"]]] += 1
            if s["parent"] is None:
                roots += dur
        for (it, name), value in self.counts.items():
            if it == iteration:
                out[name] = value
        out["trace.root_s"] = roots
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)
            fh.write("\n")
