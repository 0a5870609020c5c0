"""The contract of the value types: every frozen record the library returns
(certificates, occurrence records, reports, windows, points, specs).

The types are found by walking rankone's modules, so a new one is covered
without editing this file: each class defined there that declares fields
must be a dataclass, and the short library session below must return one
of its instances, or ``test_every_value_type_has_a_sample`` names it.
Each sample is then checked for what callers rely on: ``fields``,
``replace`` and ``asdict``, equality and hashing by field values within
one class, the ``repr`` text, frozenness, copies and pickles, and
``__match_args__``.  A fresh interpreter counts the source ``exec`` calls
that importing the modules makes, since each one compiles code at start-up
that every CLI call pays for, and those that building the types makes:
each type compiles its ``__init__`` once, on first use."""

import copy
import dataclasses
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import threading
import types
from fractions import Fraction
from pathlib import Path

import pytest

import rankone
from rankone import cli
from rankone.analysis import (
    CandidatePair,
    check_ab_law,
    classify,
    classify_totally,
    corrupt_gap_pair,
    good_density,
    propagate_goodness,
    shift_pair,
)
from rankone.errors import SpecError
from rankone.inverseiso import (
    check_non_isomorphism,
    decide_inverse_isomorphic,
    incompatible,
    stable_rewrite,
)
from rankone.params import (
    ParameterSpec,
    SpacerExpr,
    StageRule,
    Value,
    certified,
    check_partially_bounded,
    check_rewriting_criterion,
    parse_spec,
    rule_at,
    serialize_spec,
    stage_table,
)
from rankone.registry import get_spec
from rankone.tower import TowerPoint, canonicalize, parse_point, verify_injectivity
from rankone.words import (
    NameWindow,
    build_word,
    builds,
    decode,
    gap_instances,
    letter_at,
    occurrences,
)

SRC = str(Path(rankone.__file__).resolve().parent.parent)
MODULES = [importlib.import_module(f"rankone.{m.name}")
           for m in pkgutil.iter_modules(rankone.__path__)]


# every class that declares fields as class annotations
TYPES = sorted((cls for module in MODULES
                for cls in vars(module).values()
                if isinstance(cls, type) and cls.__module__ == module.__name__
                and cls.__dict__.get("__annotations__")),
               key=lambda cls: (cls.__module__, cls.__name__))
IDS = [cls.__name__ for cls in TYPES]


def _session():
    """Results of a short run over every module, small enough to repr."""
    chacon = get_spec("chacon")
    pair = shift_pair(chacon, 2, 3, 4)
    cls = classify(pair)
    good = next(r.index for r in cls.records if r.verdict == "good")
    corrupt, gap = corrupt_gap_pair(chacon, 2, 4, 1, 5)
    return [
        chacon, rule_at(chacon, 2),
        check_partially_bounded(chacon),
        check_partially_bounded(get_spec("finite-odometer")),
        check_rewriting_criterion(get_spec("chacon-raw")),
        build_word(chacon, 2), letter_at(chacon, 2, 5), letter_at(chacon, 2, 4),
        builds(b"0", b"00100"), gap_instances(chacon, 1, 2),
        canonicalize(chacon, TowerPoint(1, 2, Fraction(1, 3))),
        verify_injectivity(chacon, 3),
        pair, cls, check_ab_law(pair, good, classification=cls),
        propagate_goodness(pair, good, classification=cls),
        good_density(pair, classification=cls),
        classify_totally(pair, 3, classification=cls),
        classify(corrupt), gap,
        incompatible((0, 1), (1, 0)), decide_inverse_isomorphic(chacon),
        check_non_isomorphism(chacon, get_spec("chacon-reversed")),
        stable_rewrite(chacon, build_word(chacon, 2), 1),
    ]


def _collect(obj, found):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        found.setdefault(type(obj), obj)
        for f in dataclasses.fields(obj):
            _collect(getattr(obj, f.name), found)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _collect(item, found)


@pytest.fixture(scope="module")
def samples():
    found = {}
    _collect(_session(), found)
    return found


def _values(x) -> tuple:
    return tuple(getattr(x, f.name) for f in dataclasses.fields(x))


def test_every_value_type_has_a_sample(samples):
    assert len(TYPES) >= 27
    assert [cls.__name__ for cls in TYPES if cls not in samples] == []


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_fields_and_signature(cls):
    assert dataclasses.is_dataclass(cls)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    assert names == list(cls.__dict__["__annotations__"])
    assert cls.__match_args__ == tuple(names)
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == names
    assert [p.default for p in params] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING
        else f.default for f in fields]
    if not cls.__dict__.get("__doc__"):
        assert cls.__doc__ == cls.__name__ + str(
            inspect.signature(cls)).replace(" -> None", "")


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_construction_binds_each_field_and_default(cls, samples):
    x = samples[cls]
    assert dataclasses.is_dataclass(x) and type(x) is cls
    fields = dataclasses.fields(cls)
    assert cls(*_values(x)) == x
    required = {f.name: getattr(x, f.name) for f in fields
                if f.default is dataclasses.MISSING}
    bare = cls(**required)
    for f in fields:
        want = required[f.name] if f.name in required else f.default
        assert getattr(bare, f.name) is want


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_replace_and_asdict(cls, samples):
    x = samples[cls]
    y = dataclasses.replace(x)
    assert y == x and y is not x and type(y) is cls
    first = dataclasses.fields(cls)[0].name
    assert dataclasses.replace(x, **{first: getattr(x, first)}) == x
    assert x.replace() == x and x.replace() is not x
    assert x.replace(**{first: getattr(x, first)}) == x
    d = dataclasses.asdict(x)
    assert list(d) == [f.name for f in dataclasses.fields(cls)]
    assert cli._json_default(x) == d
    assert d == _plain(x)


def _plain(value):
    """What asdict makes of a value: records as dicts of their fields,
    recursively through tuples and lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return type(value)(_plain(item) for item in value)
    return value


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_equality_and_hash_by_field_values(cls, samples):
    x = samples[cls]
    assert x == dataclasses.replace(x) and not x != dataclasses.replace(x)
    assert hash(x) == hash(_values(x)) == hash(dataclasses.replace(x))
    assert x != _values(x)
    # a subclass with the same fields and values is another type: unequal
    twin = type(f"Twin{cls.__name__}", (cls,), {"__module__": __name__})
    other = twin(*_values(x))
    assert other != x and x != other
    assert cls.__eq__(x, other) is NotImplemented
    # instances differing in one field are unequal
    for f in dataclasses.fields(cls):
        if isinstance(getattr(x, f.name), (str, int)) \
                and not isinstance(getattr(x, f.name), bool) \
                and cls.__dict__.get("__post_init__") is None:
            changed = dataclasses.replace(x, **{f.name: _bump(getattr(x, f.name))})
            assert changed != x


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_subclass_registers_its_own_fields(cls, samples):
    # registered first, the base must not lend its field table to a
    # subclass that declares one more field
    x = samples[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    wider = type(f"Wider{cls.__name__}", (cls,), {
        "__module__": __name__, "__annotations__": {"extra": "int"}, "extra": 7})
    y = wider(*_values(x))
    # and must not run the base's __init__, compiled before it was made
    assert list(inspect.signature(wider).parameters) == names + ["extra"]
    assert wider(*_values(x), 9).extra == 9
    assert [f.name for f in dataclasses.fields(wider)] == names + ["extra"]
    assert [f.name for f in dataclasses.fields(cls)] == names
    assert dataclasses.asdict(y) == {**dataclasses.asdict(x), "extra": 7}
    assert dataclasses.replace(y, extra=8).extra == 8 == y.replace(extra=8).extra
    assert cli._json_default(y) == dataclasses.asdict(y)


def _bump(value):
    return value + "~" if isinstance(value, str) else value + 1


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_repr_names_every_field(cls, samples):
    x = samples[cls]
    inner = ", ".join(f"{f.name}={getattr(x, f.name)!r}"
                      for f in dataclasses.fields(cls))
    assert repr(x) == f"{cls.__qualname__}({inner})"


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_frozen(cls, samples):
    x = samples[cls]
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.unknown_attribute = 1

@pytest.mark.parametrize("clone", [
    lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_copies_and_pickles(cls, clone, samples):
    x = samples[cls]
    y = clone(x)
    assert type(y) is cls and y == x and hash(y) == hash(x)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(y, dataclasses.fields(cls)[0].name, None)


def _window(letters=b"0010", anchor=0):
    return NameWindow(anchor, letters)


@pytest.mark.parametrize("make", [
    lambda: SpacerExpr(-1, 0, 0),
    lambda: SpacerExpr(0, 1.0, 0),
    lambda: StageRule(1, ()),
    lambda: StageRule(3, (SpacerExpr(),)),
    lambda: ParameterSpec(()),
    lambda: TowerPoint(1, 1, Fraction(1)),
    lambda: TowerPoint(1, 1, Fraction(-1, 2)),
    lambda: TowerPoint(1, "1", Fraction(1, 2)),
    lambda: CandidatePair(get_spec("chacon"), _window(), _window(b"001"), 0, 1),
    lambda: CandidatePair(get_spec("chacon"), _window(), _window(anchor=1), 0, 1),
    lambda: CandidatePair(get_spec("chacon"), _window(), _window(), 1, 1),
    lambda: SpacerExpr(True, 0, 2),
    lambda: SpacerExpr(0, False, 0),
    lambda: StageRule(True, ()),
    lambda: TowerPoint(True, 0, Fraction(1, 2)),
    lambda: TowerPoint(0, False, Fraction(1, 2)),
], ids=["expr-negative", "expr-float", "rule-r1", "rule-spacer-count",
        "spec-empty-cycle", "point-offset-1", "point-offset-negative",
        "point-str-level",
        "pair-lengths", "pair-anchors", "pair-kappa",
        "expr-bool-a", "expr-bool-c", "rule-bool-r", "point-bool-stage",
        "point-bool-level"])
def test_post_init_rejects_bad_input(make):
    with pytest.raises(SpecError):
        make()


def test_float_points_fail_with_a_message():
    chacon = get_spec("chacon")
    with pytest.raises(SpecError, match="offset"):
        canonicalize(chacon, TowerPoint(1, 1, 0.5))
    with pytest.raises(SpecError, match="stage"):
        TowerPoint(1.0, 1, Fraction(1, 2))
    assert TowerPoint(1, 1, 0) == TowerPoint(1, 1, Fraction(0))


def test_accepted_coefficients_and_points_round_trip_through_text():
    # bool is an int, and once passed the checks only to print as "True",
    # text that parse_spec and parse_point refuse
    for v in (0, 3, True, False):
        try:
            rule = StageRule(2, (SpacerExpr(v, 1, 2),), acc=SpacerExpr(b=v))
            spec = ParameterSpec((rule,))
            point = TowerPoint(v, v, Fraction(1, 2))
        except SpecError:
            assert isinstance(v, bool)
            continue
        assert parse_spec(serialize_spec(spec)) == spec
        assert parse_point(str(point)) == point


EXEC_COUNT = """\
import builtins, importlib, inspect, json, pickle, pkgutil, sys, types
import rankone
real, calls = builtins.exec, []
def counting(source, *args, **kwargs):
    if isinstance(source, str):
        calls.append(source)
    return real(source, *args, **kwargs)
builtins.exec = counting
modules = [importlib.import_module(f"rankone.{m.name}")
           for m in pkgutil.iter_modules(rankone.__path__)]
found = [c for m in modules for c in vars(m).values()
         if isinstance(c, type) and c.__module__ == m.__name__
         and c.__dict__.get("__annotations__")]
counts = [len(calls)]
samples = pickle.loads(sys.stdin.buffer.read())  # unpickling runs no __init__
for _ in range(2):
    built = [type(x)(*[getattr(x, n) for n in x.__match_args__]) for x in samples]
    counts.append(len(calls))
for cls in found:
    cls.__init__, inspect.signature(cls)
counts.append(len(calls))
builtins.exec = real
print(json.dumps([counts, len(found), sorted({type(x).__name__ for x in samples}),
                  built == samples,
                  [c.__name__ for c in found
                   if type(c.__dict__["__init__"]) is not types.FunctionType]]))
"""


def test_import_compiles_at_most_one_function_per_value_type(samples):
    # stdlib dataclasses compile about six methods a frozen class, each
    # with exec at import time; a value type compiles its __init__ alone,
    # on its first construction, so an import compiles only the one for
    # params.ZERO, and building every type compiles each __init__ once
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", EXEC_COUNT], env=env,
                         input=pickle.dumps(list(samples.values())),
                         capture_output=True, check=True).stdout
    counts, count, sampled, same, uncompiled = json.loads(out)
    assert count >= 27 and len(sampled) == count
    at_import, first, again, read = counts
    assert at_import <= 1
    assert first == count  # in total, the import's included
    assert again == read == first
    assert same and uncompiled == []


def test_init_is_compiled_once_on_first_use(monkeypatch):
    compiled, real_exec = [], exec

    def counting(source, *args):
        compiled.append(source)
        return real_exec(source, *args)

    monkeypatch.setattr("builtins.exec", counting)

    class Fresh(Value):
        a: "int"  # as the library's modules write them
        b: "str" = "b"

        def __post_init__(self):
            if self.a < 0:
                raise SpecError("a < 0")

    # the docstring's signature is read off the fields, without compiling
    assert Fresh.__doc__ == "Fresh(a: 'int', b: 'str' = 'b')"
    assert type(Fresh.__dict__["__init__"]) is not types.FunctionType
    assert compiled == []
    assert [Fresh(i).a for i in range(3)] == [0, 1, 2]
    assert Fresh(1, "c") == Fresh(a=1, b="c")
    with pytest.raises(SpecError):
        Fresh(-1)
    assert str(inspect.signature(Fresh)) == "(a: 'int', b: 'str' = 'b') -> None"
    assert Fresh.__init__ is Fresh.__dict__["__init__"]
    assert type(Fresh.__dict__["__init__"]) is types.FunctionType
    assert len(compiled) == 1
    # a subclass made after its base was built compiles its own
    Wider = type("Wider", (Fresh,), {"__annotations__": {"c": "int"}, "c": 3})
    assert Wider(1).c == 3 and Wider(1, "b", 4).c == 4
    assert len(compiled) == 2


def test_threads_share_caches_and_the_first_construction():
    # the README says everything is safe to share across threads: four
    # threads, let go at once, fill the caches of the same fresh specs and
    # make the first instances of a new value type; each gets what a
    # serial run gets, and the type ends with one compiled __init__
    texts = [f"cycle: [r={r}, s=({', '.join(['1h+' + str(b)] * (r - 1))})]"
             for r, b in ((2, 9173), (3, 9174), (4, 9175), (3, 9176))]

    class Tagged(Value):
        thread: int
        spec: ParameterSpec
        note: str = ""

    def run(spec):
        word = decode(spec, 2, 0, rule_at(spec, 2).h)
        letters = decode(spec, 5, 1000, 9000)
        return (certified(spec), stage_table(spec).views(0, 9), letters,
                occurrences(word, letters))

    specs = [parse_spec(text) for text in texts]
    serial = [run(spec.replace(name="serial")) for spec in specs]
    barrier, results = threading.Barrier(4, timeout=60), {}

    def worker(k):
        barrier.wait()
        order = specs[k:] + specs[:k]
        results[k] = ([run(spec) for spec in order],
                      Tagged(k, order[0]), Tagged(thread=k, spec=order[0]))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for k, (got, first, second) in results.items():
        assert got == serial[k:] + serial[:k]
        assert first == second == Tagged(k, specs[k])
    assert type(Tagged.__dict__["__init__"]) is types.FunctionType
