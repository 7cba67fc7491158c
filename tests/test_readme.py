"""The README's Library example runs against the current API."""

import re
from pathlib import Path

from camsim import EnergyModel, SearchReport, SearchRun, totals_energy
from cell_route import run_reports

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)


def test_readme_library_example_runs(capsys):
    scope: dict = {}
    exec(compile(_library_example(), str(README), "exec"), scope)
    run, energies, report = scope["run"], scope["energies"], scope["report"]
    assert type(run) is SearchRun and len(run) == len(energies) == 1000
    assert type(report) is SearchReport and len(report._fields) == 2
    # the example's single search is the run's first query, from power-up
    assert report == run_reports(run)[0]
    assert energies[0] == totals_energy(report.event_totals, EnergyModel(), scope["cfg"])
    assert capsys.readouterr().out.strip()
