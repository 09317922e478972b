"""The README's library example runs, and its worked example prints, as written against
Fisher's table."""

import re
from pathlib import Path

from rspca.cli import main
from .conftest import FISHER_CSV

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first ```python block after the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_runs(tmp_path, monkeypatch):
    (tmp_path / "fisher.csv").write_text(FISHER_CSV, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    checked = 0
    for line in library_block().splitlines():
        code, _, comment = line.partition("#")
        try:
            compiled = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        value = eval(compiled, namespace)
        # a comment such as "# 0.36409..." states the value to its digits
        stated = re.match(r"\s*(\d+\.(\d+))\.\.\.", comment)
        if stated:
            assert round(float(value), len(stated.group(2))) == float(stated.group(1)), line
            checked += 1
    assert checked >= 3


def worked_example() -> list[tuple[str, list[str]]]:
    """Each ``$ rspca`` line of the code block after the README's "Worked example", with the
    lines shown under it."""
    section = README.read_text(encoding="utf-8").split("\nWorked example", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    return [(command, shown) for command, *shown in
            (example.split("\n") for example in block.strip("\n").split("\n\n"))]


def test_readme_worked_example_prints_what_it_shows(tmp_path, monkeypatch, capfd):
    (tmp_path / "fisher.csv").write_text(FISHER_CSV, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    examples = worked_example()
    assert len(examples) == 3
    for command, shown in examples:
        assert command.startswith("$ rspca ")
        assert main(command.split()[2:]) == 0
        printed = capfd.readouterr().out.splitlines()
        stripped = [line.strip() for line in shown]
        if "..." in stripped:  # the lines shown stand for the output up to that line
            cut = stripped.index("...")
            printed, shown = printed[:cut], shown[:cut]
        assert printed == shown
