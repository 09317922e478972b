"""The README's library example runs as written against Fisher's table."""

import re
from pathlib import Path

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
