"""The README's walkthrough runs as written: every `chn2 ...` line of its
"Command line" block through `chn2.cli.main`, and its "Library" block."""

import re
import shlex
from pathlib import Path

from chn2.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(section: str, language: str) -> str:
    """The first ```language block under the README heading `## section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def command_lines():
    """The block's `chn2` commands, each with its `\\` continuations joined."""
    text = code_block("Command line", "bash").replace("\\\n", " ")
    return [shlex.split(line) for line in text.splitlines() if line.startswith("chn2 ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = command_lines()
    assert [argv[1] for argv in lines] == [
        "generate", "cluster", "stats", "baseline", "detect", "chains", "chains",
    ]
    for argv in lines:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        named = [a for a in argv if a.endswith((".json", ".csv", ".nwk"))]
        assert all(Path(name).is_file() for name in named), argv


def test_readme_library_block_runs(capsys):
    exec(code_block("Library", "python"), {})
    assert capsys.readouterr().out
