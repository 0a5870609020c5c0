"""Mutation check: plant known bugs one at a time and see the tests fail.

    python3 tests/mutation.py

It takes thirty to forty seconds for its 24 mutants (Python 3.11 on a
two-vCPU virtual machine).  Each entry of MUTANTS names a file, an exact
snippet that occurs once in it, the snippet's replacement, and the tests
to run.  For each one the script copies the checkout's ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, applies the
mutant there, runs the tests with ``-x``, and prints "killed" when they
fail or "survived" when they pass.  The unmutated copy must pass first.
Exits 1 when any mutant survives.  The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VALUES = PARAMS = "src/rankone/params.py"
ANALYSIS = "src/rankone/analysis.py"
CLI = "src/rankone/cli.py"
CONTRACT = ["tests/test_values.py"]
DIFFERENTIAL = ["tests/test_cli.py::"
                "test_strict_parser_reads_argv_as_argparse_or_refuses_it"]

# (name, file, snippet, replacement, tests)
MUTANTS = [
    ("value-eq-across-classes", VALUES,
     "        if other.__class__ is self.__class__:\n",
     "        if isinstance(other, Value):\n", CONTRACT),
    ("value-hash-drops-a-field", VALUES,
     "        return hash(self._field_values(self))\n",
     "        return hash(self._field_values(self)[1:])\n", CONTRACT),
    ("value-setattr-allows-the-write", VALUES,
     '        raise FrozenInstanceError(f"cannot assign to field {name!r}")\n',
     "        object.__setattr__(self, name, value)\n", CONTRACT),
    ("value-init-skips-post-init", VALUES,
     '        body.append(" self.__post_init__()")\n',
     "        pass\n", CONTRACT),
    ("value-default-of-the-wrong-field", VALUES,
     '            namespace[f"_d_{name}"] = default\n',
     '            namespace[f"_d_{name}"] = list(fields.values())[-1][1]\n', CONTRACT),
    # the first-use descriptors of __init__ and of the dataclass fields,
    # and the JSON rendering of their fields
    ("value-init-never-replaces-itself", VALUES,
     "                setattr(owner, self.name, value)\n",
     "                pass\n",
     ["tests/test_values.py::test_init_is_compiled_once_on_first_use"]),
    # (the next two install the descriptor on Value alone, so a subclass
    # made after its base was built finds what was made for the base)
    ("value-subclass-runs-its-base-init", VALUES,
     '        cls.__init__ = _OnFirstUse("__init__", _compile_init)\n',
     '        Value.__init__ = _OnFirstUse("__init__", _compile_init)\n',
     ["tests/test_values.py::test_subclass_registers_its_own_fields"]),
    ("value-subclass-reads-its-base-field-table", VALUES,
     "        cls.__dataclass_fields__ = _OnFirstUse(",
     "        Value.__dataclass_fields__ = _OnFirstUse(",
     ["tests/test_values.py::test_subclass_registers_its_own_fields"]),
    ("json-default-renders-fields-by-repr", CLI,
     "return dict(zip(obj.__match_args__, obj._field_values(obj)))",
     "return dict(zip(obj.__match_args__, map(repr, obj._field_values(obj))))",
     ["tests/test_values.py::test_replace_and_asdict"]),
    # one per primitive that several callers share
    ("locate-first-run-letter-in-the-copy", PARAMS,
     "            if j >= view.h:\n",
     "            if j > view.h:\n",
     ["tests/test_words.py::test_letter_at_matches_build_word",
      "tests/test_tower.py::test_refine_is_invertible_by_canonicalize"]),
    ("stage-matrix-A-row-drops-A", PARAMS,
     "    a_row = [inc.a, 1 + inc.c, inc.b]\n",
     "    a_row = [inc.a, inc.c, inc.b]\n",
     ["tests/test_params.py::test_heights_chacon_normalized"]),
    ("period-matrix-multiplies-in-the-wrong-order", PARAMS,
     "        m = _mat_mul(_stage_matrix(spec.cycle[(position + k) % period]), m)\n",
     "        m = _mat_mul(m, _stage_matrix(spec.cycle[(position + k) % period]))\n",
     ["tests/test_params.py::test_period_matrix_advances_the_registers_by_one_period"]),
    ("ab-law-left-neighbour-is-the-seed", ANALYSIS,
     "(k - 1, kp - 1, k - 1)",
     "(k - 1, kp - 1, k)",
     ["tests/test_analysis.py::test_ab_law_reads_both_neighbours_against_the_oracle"]),
    ("tally-counts-bad-as-indeterminate", ANALYSIS,
     "    return good, bad, len(records) - good - bad\n",
     "    return good, bad, len(records) - good\n",
     ["tests/test_analysis.py::test_dichotomy_after_totally_good"]),
    ("condition-1-compares-the-A-rows", "src/rankone/inverseiso.py",
     "_stage_matrix(ra)[0] == _stage_matrix(rb)[0]",
     "_stage_matrix(ra)[1] == _stage_matrix(rb)[1]",
     ["tests/test_inverseiso.py::test_cycle_spacer_sums_that_differ_fail_condition1"]),
    ("eventual-sign-refutation-loses-its-minus-one", PARAMS,
     "    refute = [-row[0], -row[1], -row[2] - 1]\n",
     "    refute = [-row[0], -row[1], -row[2]]\n",
     ["tests/test_params.py::test_eventual_sign_claims_hold_at_every_period_they_cover"]),
    ("rewriting-criterion-last-column-unfolded", PARAMS,
     "    for pos, rule in enumerate(eventual_cycle(spec)):\n"
     "        m = _period_matrix(spec, pos)\n",
     "    for pos, rule in enumerate(spec.cycle):\n"
     "        m = _period_matrix(spec, pos)\n",
     ["tests/test_params.py::test_rewriting_criterion_folds_a_constant_accumulator"
      "_into_the_last_column"]),
    # the verdict protocol: each status type's holds, and the CLI's read of it
    ("boundedness-unknown-reads-as-refuted", PARAMS,
     '{"certified": True, "refuted": False}.get(self.status)',
     '{"certified": True, "refuted": False}.get(self.status, False)',
     ["tests/test_cli.py::test_check_undecided_spec_exits_inconclusive"]),
    ("non-iso-condition-4-reads-as-refuted", "src/rankone/inverseiso.py",
     '{"criteria_met": True, "condition1_fails": False}',
     '{"criteria_met": True, "condition1_fails": False, "condition4_fails": False}',
     ["tests/test_cli.py::test_inverse_against_self_inconclusive"]),
    ("check-reads-the-criterion-as-a-truth-value", CLI,
     'threshold={growth.threshold})" if growth.holds else "")',
     'threshold={growth.threshold})" if growth else "")',
     ["tests/test_cli.py::test_check_prints_the_rewriting_criterion_without_a_witness"]),
    # the strict argv parser: each accepts an argv that argparse rejects
    ("strict-parser-takes-any-dash-value", CLI,
     'if value is None or value[:1] == "-" and not value[1:].isdecimal():',
     "if value is None:", DIFFERENTIAL),
    ("strict-parser-takes-at-with-range", CLI,
     "or all(name in args for name in EXCLUSIVE)", "or False", DIFFERENTIAL),
    ("strict-parser-skips-required-options", CLI,
     "any(o[2] for o in missing)", "False", DIFFERENTIAL),
    ("strict-parser-reads-digits-as-decimals", CLI,
     "not value[1:].isdecimal()", "not value[1:].isdigit()", DIFFERENTIAL),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _passes(tree: Path, tests: list[str]) -> bool:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=tree, capture_output=True, text=True)
    return proc.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        tests = sorted({t for *_, ts in MUTANTS for t in ts})
        if not _passes(clean, tests):
            print("the unmutated tree fails its tests; nothing to measure")
            return 2
        survived = []
        for name, file, snippet, replacement, tests in MUTANTS:
            tree = Path(tmp) / name
            _copy(tree)
            path = tree / file
            text = path.read_text()
            if text.count(snippet) != 1:
                print(f"{name}: the snippet does not occur exactly once in {file}")
                return 2
            path.write_text(text.replace(snippet, replacement))
            killed = not _passes(tree, tests)
            print(f"{name}: {'killed' if killed else 'survived'}")
            if not killed:
                survived.append(name)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
