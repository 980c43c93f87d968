"""The README's walkthrough runs as written: every `chn2 ...` line of its
"Command line" block through `chn2.cli.main`, and its "Library" block."""

import math
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
        if argv[1] == "detect":
            # the outcome the block's comment quotes: the global test rejects,
            # but no level's relative increase passes tau
            line = capsys.readouterr().out.splitlines()[-1]
            assert line == (
                "no aggregation detected (monte-carlo rule: p = 0.0476 "
                "against 20 seed series, alpha 0.05)"
            )
            assert f"#   {line}\n" in code_block("Command line", "bash")


def test_readme_baseline_has_the_cox_samples_expected_count():
    # The Cox sample's balls are disjoint and inside its window, so its
    # expected count is lambda * pi * sum(r^2); the baseline's comment
    # claims that count and that window.
    argv = {line[1]: line for line in command_lines()}
    generate, baseline = argv["generate"], argv["baseline"]

    def flag(line, name):
        return line[line.index(name) + 1]

    lam = float(flag(generate, "--lambda"))
    radii = [float(r) for r in flag(generate, "--radii").split(",")]
    assert int(flag(baseline, "--count")) == round(lam * math.pi * sum(r * r for r in radii))
    assert flag(baseline, "--window") == flag(generate, "--window")


def test_readme_library_block_runs(capsys):
    exec(code_block("Library", "python"), {})
    assert capsys.readouterr().out
