"""The README's Library example runs against the current API."""

import re
from pathlib import Path

from camsim import SearchReport

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)


def test_readme_library_example_runs(capsys):
    scope: dict = {}
    exec(compile(_library_example(), str(README), "exec"), scope)
    report = scope["report"]
    assert type(report) is SearchReport
    assert report.energy_total is not None and "delay" not in report._fields
    assert capsys.readouterr().out.strip()
