"""The commands of README.md's CLI block, each run in text and JSON, print
the stdout and exit code recorded in ``readme_cli_golden.json``.

To record the golden file again, after a change that means to alter the
output, run ``PYTHONPATH=src python tests/test_readme_cli.py``.
"""

import contextlib
import io
import json
import shlex
from functools import cache
from pathlib import Path

import pytest

from rankone.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("readme_cli_golden.json")


def readme_commands() -> list[list[str]]:
    """The argv of each ``rankone ...`` line in the README's CLI block,
    comments dropped."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("rankone ")]


def runs() -> list[list[str]]:
    return [fmt + argv for argv in readme_commands()
            for fmt in ([], ["--format", "json"])]


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


def test_readme_lists_twelve_commands():
    assert len(readme_commands()) == 12


@cache
def golden() -> dict[str, dict]:
    return {" ".join(e["argv"]): e for e in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", runs(), ids=" ".join)
def test_readme_command_matches_golden(argv):
    assert run(argv) == golden()[" ".join(argv)]


def test_golden_holds_only_readme_commands():
    assert sorted(golden()) == sorted(" ".join(argv) for argv in runs())


if __name__ == "__main__":
    entries = [json.dumps(run(argv)) for argv in runs()]
    GOLDEN.write_text("[\n" + ",\n".join(entries) + "\n]\n")
