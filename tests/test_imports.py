"""The names the benchmark's job runners import from rankone must all
exist, or every benchmark job fails; the package's public names must all
resolve to their modules' objects; and a CLI call must import only the
modules its subcommand reads, or every call pays for all of them at
start-up; no import loads ``dataclasses`` or ``inspect``, yet the value
types keep their dataclass contract once a caller loads ``dataclasses``.
The job runners are read with ``ast``, not run."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankone

JOBS = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"
SRC = str(Path(rankone.__file__).resolve().parent.parent)

# The public names of ``rankone``, by defining module: no name may go.
EXPORTS = {
    "analysis": {"CandidatePair", "check_ab_law", "classify",
                 "classify_totally", "good_density", "propagate_goodness",
                 "select_kappa"},
    "errors": {"AmbiguousContainmentError", "CapExceededError",
               "NormalizationError", "NotCertifiedError", "ParseError",
               "RankOneError", "SpecError", "UndefinedOrbitError"},
    "inverseiso": {"check_non_isomorphism", "decide_inverse_isomorphic",
                   "group_stages", "incompatible", "reverse",
                   "stable_rewrite", "star"},
    "params": {"ParameterSpec", "PartialBoundednessCertificate", "SpacerExpr",
               "StageRule", "certified", "check_rewriting_criterion",
               "check_partially_bounded", "heights", "normalize",
               "parse_spec", "reversed_parameters", "rule_at",
               "serialize_spec"},
    "registry": {"get_spec"},
    "tower": {"TowerPoint", "apply_T", "apply_T_inverse", "canonicalize",
              "in_base0", "level_width", "name_window", "refine",
              "sample_point", "verify_injectivity"},
    "words": {"NameWindow", "build_word", "builds", "decode",
              "expected_occurrences", "letter_at", "occurrences"},
}
PUBLIC = set(EXPORTS).union(*EXPORTS.values())


def _from_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from <module> import <name>`` in the file
    whose module is rankone or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if module == "rankone" or module.startswith("rankone."):
            found += [(module, alias.name) for alias in node.names]
    return found


def _fresh(code: str, *argv: str):
    """What ``code`` prints as JSON, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_benchmark_jobs_import_existing_names():
    imports = _from_imports(JOBS)
    modules = {module for module, _ in imports}
    assert {"rankone", "rankone.tower", "rankone.words",
            "rankone.registry"} <= modules
    assert [(module, name) for module, name in imports
            if not hasattr(importlib.import_module(module), name)] == []


def test_package_init_imports_existing_names():
    assert len(PUBLIC) == 60
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"rankone.{module}")
        assert getattr(rankone, module) is sub
        for name in names:
            namespace = {}
            exec(f"from rankone import {name}", namespace)
            assert namespace[name] is getattr(rankone, name) is getattr(sub, name)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        rankone.nonexistent
    # In a new interpreter, before any name is resolved:
    listed, starred = _fresh(
        "import json, rankone\n"
        "listed = [n for n in dir(rankone) if not n.startswith('_')]\n"
        "namespace = {}\n"
        "exec('from rankone import *', namespace)\n"
        "print(json.dumps([listed, [n for n in namespace if n[0] != '_']]))"
    )
    assert set(listed) == set(starred) == PUBLIC


LOADED = ("import contextlib, io, sys\n"
          "from rankone import cli\n"
          "with contextlib.redirect_stdout(io.StringIO()):\n"
          "    cli.main(sys.argv[1:])\n"
          "loaded = sorted(m for m in sys.modules if m.startswith('rankone.')\n"
          "                or m in ('json', 'fractions', 'dataclasses', 'inspect'))\n"
          "import json\n"
          "print(json.dumps(loaded))")
BASE = {"errors", "params", "registry"}
STDLIB = {"json", "fractions"}  # named as they are, not as rankone modules


@pytest.mark.parametrize("argv, extra", [
    ("word --spec chacon --n 2", {"words"}),
    ("check --spec chacon-raw", set()),
    ("normalize --spec hk-raw", set()),
    ("orbit --spec chacon --point 1:1:0/1 --steps 2",
     {"tower", "words", "fractions"}),
    ("name --spec chacon --point 2:0:1/5 --window 0:21",
     {"tower", "words", "fractions"}),
    ("injectivity --spec chacon --trials 10", {"tower", "words", "fractions"}),
    ("analyze --spec chacon --n 2 --m 4 --y shift:3",
     {"analysis", "words", "fractions"}),
    ("inverse --spec hk", {"inverseiso", "words"}),
    ("check --spec chacon", set()),
    ("--format json check --spec chacon", {"json"}),
])
def test_cli_call_imports_only_its_subcommand_modules(argv, extra):
    # dataclasses and inspect are never among them: the value types
    # register with dataclasses only when a caller asks for their fields
    loaded = _fresh(LOADED, *argv.split())
    rankone_modules = BASE | (extra - STDLIB) | {"cli"}
    assert set(loaded) == {f"rankone.{m}" for m in rankone_modules} | (extra & STDLIB)


DATACLASS_CONTRACT = """\
import copy, importlib, json, pickle, sys, threading
import rankone
names = ["analysis", "cli", "errors", "inverseiso", "params", "registry",
         "tower", "words"]
modules = [importlib.import_module(f"rankone.{name}") for name in names]
loaded = [m for m in ("dataclasses", "inspect") if m in sys.modules]
import pkgutil  # listing a package loads inspect
assert names == sorted(m.name for m in pkgutil.iter_modules(rankone.__path__))

import dataclasses
from fractions import Fraction
from rankone.analysis import good_density, shift_pair
from rankone.inverseiso import incompatible
from rankone.params import SpacerExpr, Value
from rankone.tower import TowerPoint
from rankone.words import NameWindow
samples = [SpacerExpr(1, 0, 2), NameWindow(0, b"0010"),
           TowerPoint(1, 2, Fraction(1, 3)), incompatible((0, 1), (1, 0)),
           good_density(shift_pair(rankone.get_spec("chacon"), 2, 3, 4))]
checked = []
for x in samples:
    fields = [f.name for f in dataclasses.fields(x)]
    assert dataclasses.is_dataclass(x) and dataclasses.is_dataclass(type(x))
    assert fields == list(type(x).__match_args__)
    assert list(dataclasses.asdict(x)) == fields
    assert dataclasses.replace(x) == x and dataclasses.replace(x) is not x
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert clone == x and dataclasses.fields(clone) == dataclasses.fields(x)
    checked.append(type(x).__module__)
assert not dataclasses.is_dataclass(Value)

class Fresh(Value):
    a: int
    b: str = "b"

barrier, seen = threading.Barrier(4), []
def first_access():
    barrier.wait()
    seen.append(dataclasses.fields(Fresh))
threads = [threading.Thread(target=first_access) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
same = len(seen) == 4 and all(
    len(f) == 2 and all(x is y for x, y in zip(f, seen[0])) for f in seen)
print(json.dumps([len(modules), loaded, sorted(set(checked)), same,
                  [f.name for f in seen[0]]]))
"""


def test_import_loads_neither_dataclasses_nor_inspect_until_asked():
    count, loaded, checked, same, names = _fresh(DATACLASS_CONTRACT)
    assert count == 8
    assert loaded == []
    # one record per module that defines value types
    assert checked == ["rankone.analysis", "rankone.inverseiso",
                       "rankone.params", "rankone.tower", "rankone.words"]
    # four threads asking for a new type's fields at once get one table
    assert same and names == ["a", "b"]


def test_bare_import_loads_no_submodule():
    assert _fresh("import json, sys, rankone\n"
                  "print(json.dumps([m for m in sys.modules\n"
                  "                  if m.startswith('rankone')]))") == ["rankone"]
