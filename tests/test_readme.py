"""The README's Python examples run as written, against the current API, its
JSON configuration loads, and its table of command flags matches the
command-line parser."""

import argparse
import json
import re
from pathlib import Path

from cvfield import TrainConfig
from cvfield.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # Quick start writes demos.csv, which Library use then trains on
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "demos.csv").exists()
    # the last line prints evaluate(field, demos, demos).number_reached_goal
    # first: each of the 4 demonstrations counts once, though both sets hold it
    assert capsys.readouterr().out.splitlines()[-1].split()[0] == "4"


def test_readme_config_loads():
    # from_dict rejects a key the schema does not read and a value of the
    # wrong type, so the quick start's configuration cannot drift from it
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    TrainConfig.from_dict(json.loads(blocks[0]))


def test_readme_flag_table_matches_the_parser():
    table = README.read_text().split("Each command takes only the flags it reads:")[1]
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", table.split("\n\n")[1], flags=re.M)
    documented = {command: re.findall(r"`(--[\w-]+)`", flags) for command, flags in rows}
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {command: [flag for action in p._actions for flag in action.option_strings
                        if flag.startswith("--") and flag != "--help"]
              for command, p in subparsers.items()}
    assert documented == parsed
