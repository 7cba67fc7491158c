"""The README's Library example runs against the current API."""

import re
from pathlib import Path

from camsim import EnergyModel, SearchRun, sum_event_totals, totals_energy
from cell_route import one_key_runs

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)


def test_readme_library_example_runs(capsys):
    scope: dict = {}
    exec(compile(_library_example(), str(README), "exec"), scope)
    run, energies, one = scope["run"], scope["energies"], scope["one"]
    assert type(run) is SearchRun and len(run) == len(energies) == 1000
    assert type(one) is SearchRun and len(one) == 1
    # the example's single search is the run's first query, from power-up
    assert one == one_key_runs(run)[0]
    totals = sum_event_totals(one)
    assert energies[0] == totals_energy(totals, EnergyModel(), scope["cfg"])
    assert capsys.readouterr().out.strip()
