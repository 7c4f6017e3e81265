"""Each benchmark workload's own checks, at full size, on one seeded draw.

The benchmark's self-test runs reduced grids only; the full-size gates (the
c07 sphere clusters at n = 64, the gauge residual within 1e-10, the
thin-layer limits within 1e-6) are checked here.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from surfband.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_size_calls_pass_their_checks(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    calls = workload.calls(workload.draw(random.Random(SEED)), False)
    for i, call in enumerate(calls):
        out = tmp_path / f"{i}.json"
        assert main([*call.argv, "--output", str(out)]) == 0, call.argv
        call.check(json.loads(out.read_text()))


@pytest.mark.parametrize("R", [0.5, 2.0, 0.5367566605520224, 0.5059424458314137,
                               0.5881492853349427])
def test_sphere_free_passes_its_check_at_the_ends_of_its_radius_range(R, tmp_path):
    # the draw spans R in [0.5, 2]; the Hermiticity residual grows as R falls.
    # The operator is W^-1 K with K exactly Hermitian and W its own weights, so
    # the residual is the rounding of w_j/w_i: 2.27e-13 at R = 0.5.  The other
    # three radii read 1.14e-12 to 1.36e-12 when the row scale was computed
    # apart from the weights.
    (call,) = workloads.WORKLOADS["sphere-free"].calls({"R": R}, False)
    out = tmp_path / "r.json"
    assert main([*call.argv, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    call.check(report)
    assert report["diagnostics"]["solver"] == "sector-eigh"
