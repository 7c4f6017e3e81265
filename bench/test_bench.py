"""Fast self-test of the benchmark on reduced grids.

    python3 -m pytest -q bench

Shows that every metric is emitted with its unit, that a wrong reference or
a failing CLI call drives failed_frac above 0, that traced self times plus
the untraced remainder add up to the traced wall time, and that the seed
fixes the inputs.
"""

import json
import math
import random
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REQUIRED_END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ref_error", "failed_frac")
REQUIRED_PER_LAYER = (
    "analysis.solve_s", "analysis.hermitian_solves", "analysis.general_solves",
    "discretize.hermiticity_s", "discretize.hermiticity_calls",
    "hamiltonians.build_s", "hamiltonians.builds", "hamiltonians.zeeman_s",
    "hamiltonians.dim", "hamiltonians.nnz", "hamiltonians.stored_bytes",
    "fields.link_s", "fields.gauge_s", "fields.sample_s", "analysis.gauge_self_s",
    "thinlayer.radial_s", "thinlayer.radial_calls", "thinlayer.extrapolate_self_s",
    "cli.parse_s", "cli.run_self_s", "cli.report_bytes", "discretize.build_grid_s",
    "trace.overhead_s",
)
# per traced iteration on the reduced grids: what each workload must make the layers do
EXPECTED_COUNTS = {
    "sphere-free": {"hamiltonians.builds": 1, "discretize.hermiticity_calls": 1,
                    "analysis.hermitian_solves": 1, "analysis.general_solves": 0},
    "cylinder-gauge-spin": {"hamiltonians.builds": 5, "discretize.hermiticity_calls": 3,
                            "analysis.hermitian_solves": 2, "analysis.general_solves": 0},
    "thin-layer-sweep": {"hamiltonians.builds": 0, "thinlayer.radial_calls": 32},
    "cylinder-pragmatic": {"hamiltonians.builds": 2, "discretize.hermiticity_calls": 2,
                           "analysis.hermitian_solves": 0, "analysis.general_solves": 1},
}
BUSY_LAYERS = {
    "sphere-free": ("analysis.solve_s", "discretize.hermiticity_s", "hamiltonians.build_s"),
    "cylinder-gauge-spin": ("fields.link_s", "fields.gauge_s", "fields.sample_s",
                            "hamiltonians.zeeman_s", "analysis.gauge_self_s"),
    "thin-layer-sweep": ("thinlayer.radial_s", "thinlayer.extrapolate_self_s", "cli.parse_s"),
    "cylinder-pragmatic": ("analysis.solve_s", "analysis.antihermitian_s", "hamiltonians.build_s"),
}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _printed(lines):
    """{name: (value, unit)} from the metric lines, and the final result object."""
    table = {}
    for line in lines[1:]:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            table[parts[0]] = (float(parts[1]), parts[2])
    return table, json.loads(lines[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(cli, name):
    declared = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}
    for trace, required in ((0, REQUIRED_END_TO_END), (1, REQUIRED_PER_LAYER)):
        res = run.measure(cli, workloads.WORKLOADS[name], 1, 0, bool(trace), small=True)
        table, result = _printed(run.report_lines(name, 1, 0, bool(trace), res))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared[trace]} == \
            {k: v["unit"] for k, v in result["metrics"].items()}
        for metric in required:
            value, unit = table[metric]
            assert math.isfinite(value) and unit


@pytest.mark.parametrize("name, reference, wrong", [
    ("sphere-free", "sphere_level", lambda l, R: 1.1 * workloads.HBAR**2 * l * (l + 1) / (2 * R**2)),
    ("thin-layer-sweep", "curvature_shift", lambda surface, R: -0.1 / R**2),
    ("cylinder-pragmatic", "pragmatic_antihermitian", lambda a, b, R: 1.01 * (a / R + b) / 2),
])
def test_wrong_reference_fails_operations(cli, monkeypatch, name, reference, wrong):
    monkeypatch.setattr(workloads, reference, wrong)
    res = run.measure(cli, workloads.WORKLOADS[name], 1, 0, False, small=True)
    assert 0 < res["failed"] <= res["attempted"]
    table, result = _printed(run.report_lines(name, 1, 0, False, res))
    assert table["failed_frac"][0] > 0 and not result["correct"]


def test_nonzero_exit_is_a_failed_operation(cli):
    bad = workloads.Workload("bad", lambda rng: {}, lambda p, small: [
        workloads.Call(["spectrum", "--surface", "sphere", "--n", "1"], lambda r: None),
        workloads.Call(["gke", "--d", "0.1,0.2,0.3"], lambda r: None),
    ])
    res = run.measure(cli, bad, 1, 0, False)
    assert res["attempted"] == 2 and res["failed"] == 2


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_add_up_to_traced_wall(cli, name):
    res = run.measure(cli, workloads.WORKLOADS[name], 3, 0, True, small=True)
    m = res["metrics"]
    total = sum(m[k] for k in run.tracing.SELF_TIME_METRICS) + m["trace.remainder_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9, abs=1e-12)
    assert 0 <= m["trace.remainder_s"] < 0.05 * m["trace.wall_s"]
    for metric, count in EXPECTED_COUNTS[name].items():
        assert m[metric] == count, metric
    for metric in BUSY_LAYERS[name]:
        assert m[metric] > 0, metric
    if name != "thin-layer-sweep":
        assert 0 < m["hamiltonians.nnz"] < m["hamiltonians.dim"] ** 2
    assert all(s["end"] >= s["start"] and s["run"] == res["tracer"].run_id
               for s in res["tracer"].spans)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_inputs_and_only_physical_parameters_move(name):
    w = workloads.WORKLOADS[name]

    def argv(seed):
        rng = random.Random(seed)
        return [c.argv for _ in range(3) for c in w.calls(w.draw(rng), False)]

    def shape(calls):
        return [[a if not a[0].isdigit() or a.isdigit() else "x" for a in c] for c in calls]

    assert argv(5) == argv(5)
    assert argv(5) != argv(6)
    assert shape(argv(5)) == shape(argv(6))


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sphere-free",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
