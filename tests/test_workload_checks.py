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
