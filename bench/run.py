"""surfband benchmark: one workload, run through ``surfband.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it); surfband is imported
from ``src/`` next to this directory, and the run fails with exit code 1 if
it is not there.

A run is one process and one closed loop: a single client issues the
workload's CLI calls back to back, one iteration (the calls for one seeded
parameter draw) after another, until ``--seconds`` have passed.  Every
report is checked against its closed form or identity (``workloads.py``); a
call that exits non-zero or fails its check counts as a failed operation.

Untraced runs (``--trace 0``) give the end-to-end metrics:

* ``setup_s``     median time from interpreter start to ``import surfband.cli``
                  done, over SETUP_SAMPLES fresh interpreters
* ``wall_s``      median wall time of one iteration's CLI calls
* ``cpu_s``       median user + system CPU time of the same, all threads
* ``peak_rss_mb`` ``ru_maxrss`` of the run process

``ref_error`` (the worst error against the workload's reference, in units
with hbar = m = e = 1; sphere levels in units of hbar^2/(m R^2)) and
``failed_frac`` are printed with them.  Traced runs (``--trace 1``) alternate
untraced and traced iterations and give the per-layer metrics of
``tracing.py`` as means per traced iteration, plus ``trace.wall_s``,
``trace.remainder_s`` (wall time outside every span) and
``trace.overhead_s`` (traced minus untraced wall time).  Spans are written
to ``.bench-traces/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit and sample count, and a record with
the seed and provenance (versions, BLAS, cores, thread environment).
``SURFBAND_THREADS`` is removed from the environment: thin-layer sweeps run
serially.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import surfband.cli; "
              "print(repr(time.monotonic()))")
# the CLI formats floats with "%.17g", which renders non-finite values as bare nan/inf
_NONFINITE = re.compile(r"(?<=[\s\[:,])(-?)(nan|inf)(?=[\s,\]}])")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SURFBAND_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    **{m: "s" for m in tracing.SELF_TIME_METRICS},
    **{m: "count" for m in (*tracing.CALL_COUNTS.values(), *tracing.SOLVE_COUNTS,
                            *tracing.OPERATOR_SIZES[:2])},
    "hamiltonians.stored_bytes": "B",
    "cli.report_bytes": "B",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
}


def import_cli():
    """surfband.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "surfband" / "__init__.py").is_file():
        raise SystemExit(f"bench: no surfband sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import surfband.cli

    if not Path(surfband.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported surfband from {surfband.cli.__file__}, not {SRC}")
    return surfband.cli


def setup_seconds() -> float:
    """Fork, interpreter start and ``import surfband.cli`` of one fresh process."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip()) - t0


def read_report(path: Path) -> dict:
    """A CLI report, with its non-finite float tokens mapped to JSON's NaN/Infinity."""
    text = _NONFINITE.sub(lambda m: m[1] + ("NaN" if m[2] == "nan" else "Infinity"),
                          path.read_text())
    return json.loads(text)


def call_cli(cli, argv: list) -> tuple:
    """(exit code or error text, wall s, cpu s, stderr) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects arguments with exit code 2
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of the program is a failed operation, not of the benchmark
            code = traceback.format_exc(limit=3)
    return code, time.perf_counter() - t0, time.process_time() - c0, err.getvalue()


def run_iteration(cli, calls: list, workdir: Path) -> dict:
    """Issue each call back to back and check its report."""
    wall = cpu = 0.0
    report_bytes = 0
    errors, failures = [], []
    for i, call in enumerate(calls):
        path = workdir / f"report{i}.json"
        code, dt, dc, stderr = call_cli(cli, [*call.argv, "--output", str(path)])
        wall += dt
        cpu += dc
        if code != 0:
            failures.append(f"{' '.join(call.argv)}: exit {code} {stderr.strip()}")
            continue
        try:
            report_bytes += path.stat().st_size
            err = call.check(read_report(path))
        except (workloads.CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
            failures.append(f"{' '.join(call.argv)}: {type(exc).__name__}: {exc}")
            continue
        if err is not None:
            errors.append(err)
    return {"wall": wall, "cpu": cpu, "calls": len(calls), "failures": failures,
            "ref_error": max(errors, default=None), "report_bytes": report_bytes}


def measure(cli, workload: workloads.Workload, seed: int, seconds: float, trace: bool,
            small: bool = False) -> dict:
    """Run the closed loop for ``seconds`` (at least one iteration of each kind)."""
    setups = [] if trace else [setup_seconds() for _ in range(SETUP_SAMPLES)]
    rng = random.Random(seed)
    tracer = tracing.Tracer(f"{workload.name}-seed{seed}-pid{os.getpid()}")
    untraced, traced, failures, ref_errors = [], [], [], []
    attempted = 0
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        # warm-up on reduced grids and a separate stream: loads lazy imports and BLAS threads
        run_iteration(cli, workload.calls(workload.draw(random.Random(-1)), True), workdir)
        start = time.perf_counter()
        while (not untraced or (trace and not traced)
               or time.perf_counter() - start < seconds):
            calls = workload.calls(workload.draw(rng), small)
            if trace and len(untraced) > len(traced):
                tracer.iteration = len(traced)
                with tracer.installed():
                    it = run_iteration(cli, calls, workdir)
                traced.append(it)
            else:
                it = run_iteration(cli, calls, workdir)
                untraced.append(it)
            attempted += it["calls"]
            failures += it["failures"]
            if it["ref_error"] is not None:
                ref_errors.append(it["ref_error"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    metrics, samples = (_layer_metrics(tracer, traced, untraced) if trace
                        else _end_to_end(untraced, setups, peak_rss_mb))
    return {"attempted": attempted, "failed": len(failures), "failures": failures[:5],
            "ref_error": max(ref_errors, default=None), "iterations": len(untraced) + len(traced),
            "metrics": metrics, "samples": samples, "tracer": tracer}


def _end_to_end(its: list, setups: list, peak_rss_mb: float) -> tuple:
    values = {"setup_s": statistics.median(setups),
              "wall_s": statistics.median(it["wall"] for it in its),
              "cpu_s": statistics.median(it["cpu"] for it in its),
              "peak_rss_mb": peak_rss_mb}
    samples = {"setup_s": len(setups), "wall_s": len(its), "cpu_s": len(its), "peak_rss_mb": 1}
    return values, samples


def _layer_metrics(tracer: tracing.Tracer, traced: list, untraced: list) -> tuple:
    n = len(traced)
    totals = [tracer.layer_totals(i) for i in range(n)]
    values = {m: statistics.fmean(t[m] for t in totals) for m in totals[0]}
    for m in tracing.OPERATOR_SIZES:  # sizes of the largest operator, counts stay whole
        values[m] = max(t[m] for t in totals)
    for m in (*tracing.CALL_COUNTS.values(), *tracing.SOLVE_COUNTS):
        if values[m] == int(values[m]):
            values[m] = int(values[m])
    wall = statistics.fmean(it["wall"] for it in traced)
    values["trace.wall_s"] = wall
    values["trace.remainder_s"] = wall - values.pop("trace.root_s")
    values["trace.overhead_s"] = wall - statistics.fmean(it["wall"] for it in untraced)
    values["cli.report_bytes"] = statistics.fmean(it["report_bytes"] for it in traced)
    samples = {m: n for m in values}
    samples["trace.overhead_s"] = min(n, len(untraced))
    return values, samples


def provenance() -> dict:
    import numpy as np
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": _git_sha(), "src_sha256": _tree_hash(SRC),
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "env": {k: os.environ.get(k) for k in THREAD_ENV}}


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, read directly so no parent repository is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def report_lines(workload: str, seed: int, seconds: float, trace: bool, res: dict) -> list:
    """Every metric by name with unit and sample count, the record, then the result line."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {m: {"value": res["metrics"][m], "unit": units[m]} for m in units}
    failed_frac = res["failed"] / res["attempted"]
    ref = res["ref_error"]
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}  "
             f"iterations {res['iterations']}  calls {res['attempted']}"]
    lines += [f"  {m:34s} {v['value']:.6g} {v['unit']}  (n={res['samples'][m]})"
              for m, v in metrics.items()]
    if not trace:
        lines.append(f"  {'ref_error':34s} {float('nan') if ref is None else ref:.3e} 1  "
                     f"(worst of {res['attempted']} calls)")
        lines.append(f"  {'failed_frac':34s} {failed_frac:.6g} 1  ({res['failed']}/{res['attempted']})")
    record = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
              "iterations": res["iterations"], "ref_error": ref, "failed_frac": failed_frac,
              "failures": res["failures"], "samples": res["samples"], "provenance": provenance()}
    lines.append("record " + json.dumps(record, sort_keys=True))
    lines.append(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                             "failed": res["failed"], "metrics": metrics}))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.environ.pop("SURFBAND_THREADS", None)
    cli = import_cli()
    res = measure(cli, workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace))
    for f in res["failures"]:
        print(f"failure: {f}", file=sys.stderr)
    if args.trace:
        out = ROOT / ".bench-traces"
        out.mkdir(exist_ok=True)
        res["tracer"].write(out / f"{args.workload}-seed{args.seed}.json")
    print("\n".join(report_lines(args.workload, args.seed, args.seconds, bool(args.trace), res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
