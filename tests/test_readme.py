"""The README's library quick start and CLI examples run as written."""

import re
import shlex
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    rep = namespace["rep"]
    assert namespace["H"].dim == 8192
    assert rep.solver == "sector-eigh"
    assert rep.eigen_residual <= 1e-12
    assert len(rep.eigenvalues) == 10
    assert rep.hermiticity_residual <= 1e-12
    assert capsys.readouterr().out


def test_cli_examples_run(tmp_path, capsys):
    from surfband.cli import main

    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert lines
    for i, line in enumerate(lines):
        argv = shlex.split(line, comments=True)
        assert argv[0] == "surfband"
        capsys.readouterr()
        assert main([*argv[1:], "--output", str(tmp_path / f"{i}.out")]) == 0, line
        if argv[1] == "gke":
            assert capsys.readouterr().out.strip() == "-0.125"
