"""The README's Python examples run as written, against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # Quick start writes demos.csv, which Library use then trains on
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    capsys.readouterr()
    assert (tmp_path / "demos.csv").exists()
