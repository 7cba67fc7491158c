"""The README's Library example runs against the current API, and its CLI
section names every flag and parses every command it shows."""

import argparse
import re
import shlex
from pathlib import Path

from camsim import EnergyModel, SearchRun, sum_event_totals, totals_energy
from camsim.cli import _VERBS, build_parser
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


def _cli_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_section_names_every_flag():
    section = _cli_section()
    missing = []
    for verb, (_, add_flags, _) in _VERBS.items():
        parser = argparse.ArgumentParser()
        add_flags(parser)
        for option in parser._option_string_actions:
            if not option.startswith("--") or option == "--help":
                continue
            if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", section):
                missing.append(f"{verb} {option}")
    assert not missing


def test_readme_cli_commands_parse():
    block = re.search(r"```\n(.*?)```", _cli_section(), re.DOTALL).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    assert {argv[0] for argv in commands} == {"camsim"}
    assert {argv[1] for argv in commands} == set(_VERBS)
    for argv in commands:
        build_parser().parse_args(argv[1:])
