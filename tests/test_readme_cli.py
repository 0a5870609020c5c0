"""The commands of README.md's CLI block, each run in text and JSON, print
the stdout and exit code recorded in ``readme_cli_golden.json``, and each
is read without argparse; ``rankone --help`` and each ``rankone <command>
--help``, 80 columns wide, print what ``cli_help_golden.json`` records.

To record both golden files again, after a change that means to alter the
output, run ``PYTHONPATH=src python tests/test_readme_cli.py``.
"""

import contextlib
import io
import json
import os
import shlex
from functools import cache
from pathlib import Path

import pytest

from rankone.cli import COMMANDS, _parse, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("readme_cli_golden.json")
HELP_GOLDEN = Path(__file__).with_name("cli_help_golden.json")
HELP_RUNS = [["--help"]] + [[command, "--help"] for command in COMMANDS]


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


def test_readme_commands_are_read_without_argparse():
    for argv in runs():
        strict = _parse(argv)
        assert strict is not None
        assert vars(strict) == vars(build_parser().parse_args(argv))


def help_run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        main(argv)
    return {"argv": argv, "code": exit_.value.code, "stdout": out.getvalue()}


@cache
def help_golden() -> dict[str, dict]:
    return {" ".join(e["argv"]): e for e in json.loads(HELP_GOLDEN.read_text())}


@pytest.mark.parametrize("argv", HELP_RUNS, ids=" ".join)
def test_help_matches_golden(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    assert len(help_golden()) == len(HELP_RUNS) == 9
    assert help_run(argv) == help_golden()[" ".join(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for path, entries in ((GOLDEN, map(run, runs())),
                          (HELP_GOLDEN, map(help_run, HELP_RUNS))):
        path.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
