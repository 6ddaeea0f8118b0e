"""The README's Python snippets run as written, and its command-line
options exist."""

import re
from pathlib import Path

import pytest

from msflow.bench_cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
SNIPPETS = re.findall(r"^```python\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL)
CLI_SECTION = re.search(r"^## Command line\n(.*?)^## ", README,
                        re.MULTILINE | re.DOTALL).group(1)
OPTION = r"(?<![\w-])--[a-z][a-z-]*"


def test_readme_has_python_snippets():
    assert len(SNIPPETS) >= 2


@pytest.mark.parametrize("index", range(len(SNIPPETS)))
def test_readme_snippet_runs(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(SNIPPETS[index], f"README.md snippet {index}", "exec"), {})
    assert capsys.readouterr().out.strip()


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def test_readme_cli_options_exist(capsys):
    commands = re.search(r"\{(.*?)\}", _help([], capsys)).group(1).split(",")
    offered = set()
    for command in commands:
        offered.update(re.findall(OPTION, _help([command], capsys)))
    documented = set(re.findall(OPTION, CLI_SECTION))
    assert "--rtol" in documented
    assert documented <= offered, sorted(documented - offered)
