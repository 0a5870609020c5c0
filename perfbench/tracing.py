"""Per-layer tracing from outside the package.

Every public function of each ``rankone`` module is wrapped wherever its
name is bound: in its own module, in the modules that imported it and in
``rankone/__init__``.  The ``lru_cache`` objects (``certified``,
``get_spec``) are wrapped as they are, and the ``stage_views`` generator
is counted by the items it yields.  Each call becomes a span with a
parent id and the job it ran for, kept in memory and written out at the
end.  A layer's self time is the duration of its spans minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("params", "words", "tower", "analysis", "inverseiso", "registry", "cli")
SPAN_LIMIT = 1_000_000  # spans kept for the span file; totals never stop

# name -> unit, in the order the benchmark reports them
METRICS = {
    "params.stage_views.yielded": "count",
    "params.heights.calls": "count",
    "params.certified.hit_ratio": "ratio",
    "params.certified.cache_size": "count",
    "words.letter_at.calls": "count",
    "words.build_word.calls": "count",
    "words.build_word.bytes": "bytes",
    "words.build_word.self_s": "s",
    "words.occurrences.bytes_scanned": "bytes",
    "words.gap_instances.self_s": "s",
    "tower.name_window.self_s": "s",
    "tower.name_window.letters_per_s": "letters/s",
    "tower.canonicalize.calls": "count",
    "tower.verify_injectivity.skip_ratio": "ratio",
    "analysis.classify.self_s": "s",
    "analysis.classify.records": "count",
    "analysis.indeterminate_ratio": "ratio",
    "analysis.classify_totally.self_s": "s",
    "inverseiso.group_stages.calls": "count",
    "inverseiso.group_stages.self_s": "s",
    "inverseiso.incompatible.self_s": "s",
    "inverseiso.check_non_isomorphism.decided_ratio": "ratio",
    "cli.import_ms": "ms",
    "cli.main.self_s": "s",
    "cli.emit_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "mem.tracemalloc_peak_mb": "MB",
}
for _layer in LAYERS:
    METRICS[f"{_layer}.calls"] = "count"
    METRICS[f"{_layer}.self_s"] = "s"


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: Counter = Counter()
        self.stack: list[list] = []  # [child seconds, span id] per open span
        self.job = -1
        self.next_id = 1
        self.ids, self.parents = array("q"), array("q")
        self.name_ids, self.job_ids = array("q"), array("q")
        self.starts, self.ends = array("d"), array("d")
        self.originals: dict[str, object] = {}
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self, *callers) -> None:
        """Wrap the public functions; ``callers`` are benchmark modules
        whose imported names are rebound too."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"rankone.{layer}"]
            for attr, obj in vars(module).items():
                target = getattr(obj, "__wrapped__", obj)
                if attr.startswith("_") or not inspect.isfunction(target) \
                        or target.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        modules = [m for name, m in sys.modules.items()
                   if name == "rankone" or name.startswith("rankone.")]
        for module in modules + list(callers):
            for attr, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found and found[0] is obj:
                    setattr(module, attr, found[1])
                    self._undo.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in self._undo:
            setattr(module, attr, obj)
        self._undo.clear()

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, name, fn):
        idx = self._index(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, idx, fn)
        post = POST_HOOKS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.next_id
            self.next_id += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span]
            stack.append(frame)
            hits = cache_info().hits if cache_info else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[idx] += 1
                self.total_s[idx] += duration
                self.self_s[idx] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(self.ids) < SPAN_LIMIT:
                    self.ids.append(span)
                    self.parents.append(parent)
                    self.name_ids.append(idx)
                    self.job_ids.append(self.job)
                    self.starts.append(start)
                    self.ends.append(end)
                else:
                    self.counters["trace.dropped_spans"] += 1
            if cache_info:
                hit = cache_info().hits > hits
                self.counters[f"{name}.hits" if hit else f"{name}.misses"] += 1
            if post:
                post(self.counters, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, idx, fn):
        """A generator does its work inside the consumer's span: the time
        of each item is this layer's self time and the consumer's child
        time, and items are counted instead of recorded one by one."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[idx] += 1
            return self._items(name, idx, fn(*args, **kwargs))

        return wrapper

    def _items(self, name, idx, items):
        stack = self.stack
        key = f"{name}.yielded"
        while True:
            start = perf_counter()
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                duration = perf_counter() - start
                self.self_s[idx] += duration
                self.total_s[idx] += duration
                if stack:
                    stack[-1][0] += duration
            self.counters[key] += 1
            yield item

    # -- results -----------------------------------------------------------

    def _sum(self, prefix, values) -> float:
        return sum(v for n, v in zip(self.names, values) if n.startswith(prefix))

    def _of(self, name, values):
        return values[self.names.index(name)] if name in self.names else 0

    def metrics(self) -> dict[str, float]:
        c = self.counters
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self._sum(layer + ".", self.calls)
            out[f"{layer}.self_s"] = self._sum(layer + ".", self.self_s)
        for name in ("params.heights", "words.letter_at", "words.build_word",
                     "tower.canonicalize", "inverseiso.group_stages"):
            out[f"{name}.calls"] = self._of(name, self.calls)
        for name in ("words.build_word", "words.gap_instances",
                     "tower.name_window", "analysis.classify",
                     "analysis.classify_totally", "inverseiso.group_stages",
                     "inverseiso.incompatible", "cli.main"):
            out[f"{name}.self_s"] = self._of(name, self.self_s)
        hits, misses = c["params.certified.hits"], c["params.certified.misses"]
        out["params.stage_views.yielded"] = c["params.stage_views.yielded"]
        out["params.certified.hit_ratio"] = _ratio(hits, hits + misses)
        out["params.certified.cache_size"] = \
            self.originals["params.certified"].cache_info().currsize
        out["words.build_word.bytes"] = c["words.build_word.bytes"]
        out["words.occurrences.bytes_scanned"] = c["words.occurrences.bytes"]
        out["tower.name_window.letters_per_s"] = _ratio(
            c["tower.name_window.letters"], self._of("tower.name_window", self.total_s))
        out["tower.verify_injectivity.skip_ratio"] = _ratio(
            c["tower.verify_injectivity.skips"], c["tower.verify_injectivity.pairs"])
        out["analysis.classify.records"] = c["analysis.classify.records"]
        out["analysis.indeterminate_ratio"] = _ratio(
            c["analysis.classify.indeterminate"], c["analysis.classify.records"])
        out["inverseiso.check_non_isomorphism.decided_ratio"] = _ratio(
            c["inverseiso.check_non_isomorphism.decided"],
            self._of("inverseiso.check_non_isomorphism", self.calls))
        out["cli.emit_bytes"] = c["cli.emit_bytes"]
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("id\tparent\tjob\tname\tstart_s\tend_s\n")
            for row in zip(self.ids, self.parents, self.job_ids, self.name_ids,
                           self.starts, self.ends):
                f.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{self.names[row[3]]}\t"
                        f"{row[4]:.9f}\t{row[5]:.9f}\n")


def _post_build_word(c, args, result):
    c["words.build_word.bytes"] += len(result)


def _post_occurrences(c, args, result):
    c["words.occurrences.bytes"] += len(args[1])


def _post_name_window(c, args, result):
    c["tower.name_window.letters"] += len(result)


def _post_injectivity(c, args, report):
    c["tower.verify_injectivity.skips"] += report.same_level_skips
    c["tower.verify_injectivity.pairs"] += report.trials + report.same_level_skips


def _post_classify(c, args, cls):
    c["analysis.classify.records"] += len(cls.records)
    c["analysis.classify.indeterminate"] += sum(
        1 for r in cls.records if r.verdict == "indeterminate")


def _post_noniso(c, args, report):
    c["inverseiso.check_non_isomorphism.decided"] += report.status != "not_established"


POST_HOOKS = {
    "words.build_word": _post_build_word,
    "words.occurrences": _post_occurrences,
    "tower.name_window": _post_name_window,
    "tower.verify_injectivity": _post_injectivity,
    "analysis.classify": _post_classify,
    "inverseiso.check_non_isomorphism": _post_noniso,
}
