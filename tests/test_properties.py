"""Bounded property checks of the command line over fuzzed inputs.

Any instance CSV from ``fuzz_csv`` or ``plain_fuzz_csv``, under any command
and flags from a small alphabet (flags of the other input mode included),
ends in exit 0, 2 or 3; a nonzero exit prints exactly one stderr line, no
output holds a traceback, and a failed command leaves no file behind.  Every
SVG a successful command writes is well-formed XML, and every JSON it writes
is strict JSON, without NaN or Infinity.
Examples are derandomized, so every run checks the same inputs.
"""

import json
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from rspca.cli import main
from .test_dataset import fuzz_csv, plain_fuzz_csv

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, event, given, settings, strategies as st  # noqa: E402

DELIMITER = object()  # stands for the delimiter the drawn CSV was written with
INPUT_FLAGS = [
    ("--weights", "w"), ("--weights", "nope"), ("--missing", "drop"), ("--missing", "own"),
    ("--delimiter", DELIMITER), ("--delimiter", ";"), ("--contingency",),
    ("--row-name", "eye"), ("--col-name", "hair"),
]
COMMAND_FLAGS = {
    "cov": [("--format", "json")],
    "corr": [("--format", "json")],
    "pca": [("--components", "1"), ("--components", "3"), ("--svg", "kl.svg")],
    "interpret": [("--format", "json"), ("--components", "3"), ("--eps", "0"),
                  ("--max-terms", "1")],
    "scree": [("--format", "json"), ("--svg", "scree.svg")],
    "select": [("--top", "1"), ("--top", "3"), ("--top", "0"), ("--components", "3"),
               ("--format", "json")],
}


@st.composite
def invocations(draw):
    """(CSV text, argv with output paths relative to the run's directory)."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        text, delimiter, *_ = plain_fuzz_csv(rng)
    else:
        text, delimiter, *_ = fuzz_csv(rng, np.random.default_rng([seed, 1]))
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = draw(st.lists(st.sampled_from(INPUT_FLAGS), max_size=3, unique=True))
    flags += draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), max_size=3, unique=True))
    if command == "select" and not any(flag[0] == "--top" for flag in flags):
        flags.append(("--top", "1"))
    out = "run" if command == "pca" else "out.json" if ("--format", "json") in flags else "out"
    argv = [command, "in.csv", "--out", out]
    for flag in flags:
        argv += [delimiter if part is DELIMITER else part for part in flag]
    return text, argv


def refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocations())
def test_any_command_on_any_csv_exits_0_2_or_3_in_one_line(tmp_path, capfd, monkeypatch,
                                                          invocation):
    text, argv = invocation
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    (run_dir / "in.csv").write_text(text, encoding="utf-8", errors="surrogateescape",
                                    newline="")
    monkeypatch.chdir(run_dir)
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    out, err = capfd.readouterr()
    event(f"exit {code}")  # --hypothesis-show-statistics counts the outcomes
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in out + err
    assert out == ""  # every output went to a file under the run's directory
    if code != 0:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert [path.name for path in run_dir.iterdir()] == ["in.csv"], (argv, err)
    for path in run_dir.glob("*.svg"):
        ElementTree.parse(path)
    for path in run_dir.glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse_constant)
