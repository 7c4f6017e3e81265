"""The README's library quick start runs as written."""

import re
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
    assert rep.solver == "sparse-shift-invert"
    assert len(rep.eigenvalues) == 10
    assert rep.hermiticity_residual <= 1e-12
    assert capsys.readouterr().out
