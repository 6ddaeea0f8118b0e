"""The README's Python snippets run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
SNIPPETS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL)


def test_readme_has_python_snippets():
    assert len(SNIPPETS) >= 2


@pytest.mark.parametrize("index", range(len(SNIPPETS)))
def test_readme_snippet_runs(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(SNIPPETS[index], f"README.md snippet {index}", "exec"), {})
    assert capsys.readouterr().out.strip()
