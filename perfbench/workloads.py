"""Seeded inputs of the four workloads.

The spec generators, the point sampler and the pair builders are the
benchmark's own copies, so an edit to the test helpers cannot change what
is measured.  Everything is drawn from ``random.Random`` streams keyed by
the seed; the library only ever sees the generated jobs.

Each job's structure (its kind, its spec's shape, its size) is a fixed
function of its position in the stream, and the seed draws the rest (the
points, the shifts, the spacer constants).  Sizes follow a golden-ratio
sequence, so any prefix of the stream covers the size range evenly: a run
that stops at its time limit measures the same mix whatever the seed, and
medians agree across seeds.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from random import Random
from typing import Iterator

import oracle
from oracle import Rule, Spec, Tower

CAP = 1 << 26  # the library's word cap; walks past it read letter by letter
GOLDEN = (5 ** 0.5 - 1) / 2


class Strata:
    """The golden-ratio sequence on [0, 1): evenly spread from any prefix."""

    def __init__(self, start: float = 0.5):
        self.u = start

    def __call__(self) -> float:
        self.u = (self.u + GOLDEN) % 1.0
        return self.u


def log_uniform(u: float, lo: float, hi: float) -> int:
    return int(round(lo * (hi / lo) ** u))


# ---------------------------------------------------------------------------
# spec generators: copies of the ones the acceptance tests use, with the
# draws split between a ``shape`` stream (cut counts, cycle lengths, growth
# coefficients) and a ``value`` stream (the constant terms)


def random_growth_spec(shape: Random, value: Random, max_r: int = 5) -> Spec:
    """Raw spec meeting the rewriting criterion by construction: bounded
    constant non-final spacers and a last column a*h + b with a >= r and b
    at least the sum of the other spacers."""
    def rule():
        r = shape.randint(2, max_r)
        s = tuple((0, 0, value.randint(0, 6)) for _ in range(r - 1))
        total = sum(e[2] for e in s)
        return Rule(r, s, last=(r + shape.randint(0, 2), 0,
                                total + value.randint(0, 3)))

    pre = tuple(rule() for _ in range(shape.randint(0, 2)))
    cycle = tuple(rule() for _ in range(shape.randint(1, 3)))
    return Spec(cycle, pre)


def random_certified_spec(shape: Random, value: Random, max_r: int = 5) -> Spec:
    return oracle.normalize(random_growth_spec(shape, value, max_r))


def random_normalized_spec(shape: Random, value: Random) -> Spec:
    """Any normalized affine spec, half of them certified."""
    if shape.random() < 0.5:
        return random_certified_spec(shape, value)

    def rule():
        r = shape.randint(2, 4)
        s = tuple((shape.randint(0, 2), 0, value.randint(0, 5))
                  for _ in range(r - 1))
        acc = (shape.randint(0, 1), 0, value.randint(0, 2))
        return Rule(r, s, None, None if acc == oracle.ZERO else acc)

    cycle = tuple(rule() for _ in range(shape.randint(1, 2)))
    return Spec(cycle, tuple(rule() for _ in range(shape.randint(0, 1))))


def random_palindromic_spec(shape: Random, value: Random) -> Spec:
    """Certified, every cycle tuple palindromic: one growth coefficient per
    rule and mirror-symmetric constants."""
    def rule():
        r = shape.randint(2, 4)
        a = shape.randint(1, 2)
        half = [value.randint(0, 4) for _ in range(r // 2)]
        bs = half + list(reversed(half[:(r - 1) // 2]))
        return Rule(r, tuple((a, 0, b) for b in bs))

    return Spec(tuple(rule() for _ in range(shape.randint(1, 2))))


def permuted_twin(rng: Random, spec: Spec) -> Spec:
    """The spec with the spacer slots of one multi-slot cycle rule
    shuffled (the obstruction suite's construction)."""
    slots = [i for i, rule in enumerate(spec.cycle) if len(set(rule.s)) > 1]
    if not slots:
        return spec
    pos = rng.choice(slots)
    rule = spec.cycle[pos]
    perm = list(rule.s)
    while tuple(perm) == rule.s:
        rng.shuffle(perm)
    cycle = list(spec.cycle)
    cycle[pos] = rule._replace(s=tuple(perm))
    return spec._replace(cycle=tuple(cycle))


# ---------------------------------------------------------------------------
# points


def sample_point(tower: Tower, m: int, rng: Random):
    """Canonical point of C_m: uniform level, 53-bit dyadic offset (which
    misses the measure-zero edge orbits)."""
    level = rng.randrange(tower.h(m))
    offset = Fraction(rng.randrange(1 << 53), 1 << 53)
    return tower.canonicalize((m, level, offset))


def cap_stage(tower: Tower) -> int:
    """The last stage whose word fits under the library's cap."""
    n = 0
    while tower.h(n + 1) <= CAP:
        n += 1
    return n


def letters_past_cap(tower: Tower, p, a: int, b: int) -> int:
    """How many letters of the window [a, b) a step-by-step walk from p
    reads while standing in a column taller than the cap: the walk only
    refines at column edges, so it stays at or below stage T until the
    window leaves C_T."""
    T = cap_stage(tower)
    q = tower.canonicalize(p)
    if q[0] > T:
        return b - a
    while q[0] < T:
        q = tower.refine(q)
    if a < 0 and q[1] < -a:
        return b - a
    return max(0, b - max(a, 0) - max(0, tower.h(T) - q[1] - max(a, 0)))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""
    # per-job latency limit for within_limit_ratio.  Each workload's limit
    # sits above its p90 on the seed code (one 15-second run of seed 5,
    # Python 3.11, two vCPUs), in a sparse stretch of its job-time
    # distribution, so that a few per cent of the jobs exceed it: the ratio
    # stays inside (0, 1), steady from run to run, and moves when the slow
    # kind of job gets faster or slower.
    limit_ms = 0.0

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, stream: str) -> Random:
        # the warm-up is the same slice in every run, so set-up time does
        # not depend on the seed; it never shares a stream with timed jobs
        seed = "fixed" if stream == "warmup" else self.seed
        return Random(f"{seed}:{self.name}:{stream}")

    SEEDED_SPECS = 0  # seeded certified specs next to chacon and hk

    def _raw_specs(self) -> dict[str, Spec]:
        # a fixed corpus, like the acceptance tests' seeded specs: every run
        # measures the same constructions and the run seed varies the jobs
        rng = Random(f"{self.name}:specs")
        out = {"chacon": oracle.registry("chacon"), "hk": oracle.registry("hk")}
        for i in range(self.SEEDED_SPECS):
            out[f"cert{i}"] = random_growth_spec(rng, rng, max_r=3)
        return out

    def sources(self) -> dict[str, str]:
        """The fixed specs of a run, resolved during set-up: a registry
        name, or the config text of a seeded raw growth spec."""
        return {key: key if key in ("chacon", "hk") else oracle.spec_text(spec)
                for key, spec in self._raw_specs().items()}

    def specs(self) -> dict[str, Spec]:
        """The same specs, normalized, for the oracle."""
        return {key: oracle.normalize(spec)
                for key, spec in self._raw_specs().items()}

    def jobs(self, stream: str = "jobs", small: bool = False) -> Iterator[dict]:
        """The endless job stream; ``small`` keeps every size at its low end
        (the warm-up slice)."""
        raise NotImplementedError

    def warmup(self) -> list[dict]:
        return []

    def whole_run(self, seconds: float) -> int | None:
        """The number of jobs a run of ``seconds`` takes, or None when the
        run simply stops once its jobs have taken ``seconds``."""
        return None


class OrbitNames(Workload):
    name = "orbit-names"
    why = ("Itineraries read lazily through the tower: every letter comes "
           "from the walker's per-stage word cache or from the per-letter "
           "fallback, and walks that climb past the word cap form a cliff "
           "that sets the tail. Layers: tower and lazy words.")
    limit_ms = 500.0  # p90 186 ms, p95 246, p99 670: about 3% exceed it
    # chains are compute-only and steady in cost, and three in eight put
    # the median job among them, where a drifting host moves it least
    PATTERN = ("name", "chain", "letters", "chain", "name", "deep", "chain",
               "probe")

    SEEDED_SPECS = 1

    @functools.cached_property
    def towers(self) -> dict[str, Tower]:
        return {k: Tower(v) for k, v in self.specs().items()}

    def jobs(self, stream="jobs", small=False):
        keys = sorted(self.towers)
        rng = self.rng(stream)
        strata = {kind: Strata() for kind in self.PATTERN}
        before = Strata(0.75)  # how much of a straddling window precedes 0
        for i in itertools.count():
            kind = self.PATTERN[i % len(self.PATTERN)]
            key = keys[i % len(keys)]
            u = 0.02 if small else strata[kind]()
            yield getattr(self, "_" + kind)(self.towers[key], key, rng, u, i,
                                            before)

    def warmup(self):
        """One small job of each kind but the cap-climbing one, whose big
        column word is not kept between jobs anyway."""
        jobs = self.jobs(stream="warmup", small=True)
        return [job for job in itertools.islice(jobs, len(self.PATTERN))
                if "past_cap" not in job]

    def _name(self, tower, key, rng, u, i, before):
        length = log_uniform(u, 1e2, 1e6)
        a = -int(before() * length) if i % 16 < 8 else 0
        for _ in range(1000):
            p = sample_point(tower, rng.randint(3, 5), rng)
            if letters_past_cap(tower, p, a, a + length) == 0:
                break
        return {"kind": "name", "spec": key, "point": oracle.point_text(p),
                "a": a, "b": a + length}

    def _deep(self, tower, key, rng, u, i, before):
        """A window whose second half lies past the top of the last column
        under the cap: those letters are read one O(n) descent at a time,
        so the job's cost is set by how many there are."""
        past = log_uniform(u, 1e2, 1e4)
        length = 2 * past
        a = -int(before() * past)
        b = a + length
        T = cap_stage(tower)
        offset = Fraction(rng.randrange(1 << 53), 1 << 53)
        p = tower.canonicalize((T, tower.h(T) - (b - past), offset))
        assert letters_past_cap(tower, p, a, b) == past
        return {"kind": "name", "spec": key, "point": oracle.point_text(p),
                "a": a, "b": b, "past_cap": past}

    def _letters(self, tower, key, rng, u, i, before):
        n = 10 + int(u * 31)
        start = rng.randrange(tower.h(n) - 1000)
        return {"kind": "letters", "spec": key, "n": n, "a": start,
                "b": start + 1000}

    def _chain(self, tower, key, rng, u, i, before):
        p = sample_point(tower, rng.randint(3, 5), rng)
        steps = log_uniform(u, 200, 2000) * (1 if i % 16 < 8 else -1)
        return {"kind": "chain", "spec": key, "point": oracle.point_text(p),
                "steps": steps}

    def _probe(self, tower, key, rng, u, i, before):
        return {"kind": "probe", "spec": key, "trials": 4 + int(u * 13),
                "m": 3, "seed": rng.randrange(1 << 31)}


class OccurrenceScan(Workload):
    name = "occurrence-scan"
    why = ("Candidate pairs over materialized windows of 1e4 to 6e6 letters: "
           "build_word plus C-speed scans plus per-occurrence bookkeeping. "
           "The tower does no work here, so tower or decoder changes should "
           "leave it unchanged. Layers: analysis and materialized words.")
    limit_ms = 50.0  # p90 36 ms, p95 142 (megabyte windows): 6% exceed it
    # windows from 1e4 letters on, so that the median job already spends
    # most of its time in the C-speed scans rather than in interpreter
    # overhead, whose speed drifts most on a shared host
    MIN_WINDOW, MAX_WINDOW = 10_000, 6_000_000
    MAX_COPIES = 729  # copies of w_n per window, bounding Python-side work
    PATTERN = ("shift", "corrupt", "corrupt")

    SEEDED_SPECS = 2

    @functools.cached_property
    def plans(self) -> dict[str, tuple]:
        """Per spec: its tower, kappa, the lowest usable n, and the lowest
        and highest window stages."""
        out = {}
        for key, spec in self.specs().items():
            tower = Tower(spec)
            _, R, S, N = oracle.numeric_boundedness(tower, 40)
            kappa = next(k for k in itertools.count() if tower.h(k) > S)
            n0 = max(N, kappa) + 1
            top = max(m for m in range(n0 + 1, 60)
                      if tower.h(m) <= self.MAX_WINDOW)
            low = min(m for m in range(n0 + 1, top + 1)
                      if tower.h(m) >= self.MIN_WINDOW or m == top)
            out[key] = (tower, kappa, n0, low, top)
        return out

    def jobs(self, stream="jobs", small=False):
        plans = self.plans
        keys = sorted(plans)
        rng = self.rng(stream)
        su, sv, sg = Strata(), Strata(0.25), Strata(0.4)
        for i in itertools.count():
            kind = self.PATTERN[i % len(self.PATTERN)]
            key = keys[i % len(keys)]
            tower, kappa, n0, low, top = plans[key]
            u, v = (0.0, 0.0) if small else (su(), sv())
            m = low + min(int(u * (top - low + 1)), top - low)
            lowest = n0
            while lowest < m - 1 and self._copies(tower, lowest, m) > self.MAX_COPIES:
                lowest += 1
            n = lowest + min(int(v * (m - lowest)), m - lowest - 1)
            # stable_rewrite's edge scan is quadratic in |w_N|, so it runs
            # at the highest stage up to n whose word stays short
            rewrite = max(k for k in range(1, n + 1)
                          if k == 1 or tower.h(k) <= 4096)
            job = {"kind": kind, "spec": key, "n": n, "m": m, "kappa": kappa,
                   "block": n + 1, "rewrite": rewrite}
            reach = tower.h(n) - tower.h(kappa)
            if kind == "shift":
                job["ell"] = log_uniform(rng.random(), 1, reach + 1) - 1
            else:
                mode = self.MODES[(i // len(self.PATTERN)) % len(self.MODES)]
                job.update(self._corruption(tower, n, m, reach, mode, sg(), rng))
            yield job

    @staticmethod
    def _copies(tower, n, m):
        count = 1
        for k in range(n, m):
            count *= tower.stage(k).r
        return count

    MODES = ("same", "higher", "lower", "nudge")

    def _corruption(self, tower, n, m, reach, mode, u, rng):
        """One 1-run between w_n copies re-sized with a length taken from
        the same, a higher or a lower stage (or nudged by one or two)."""
        gaps = tower.gaps(n, m)
        away = [k for k, g in enumerate(gaps) if g[0] >= reach + tower.h(m) // 20]
        away = away or range(len(gaps))
        ordinal = away[int(u * len(away))]
        _, old, stage = gaps[ordinal]
        by_stage: dict[int, set] = {}
        for _, length, s in tower.gaps(n, m + 1):
            by_stage.setdefault(s, set()).add(length)
        stages = sorted(by_stage)
        if mode == "same" and len(by_stage[stage]) > 1:
            new = rng.choice(sorted(by_stage[stage] - {old}))
        elif mode == "higher" and any(s > stage for s in stages):
            new = min(by_stage[min(s for s in stages if s > stage)])
        elif mode == "lower" and any(s < stage for s in stages):
            new = max(by_stage[max(s for s in stages if s < stage)])
        else:
            new = old + rng.choice((-1, 1, 2))
        if new == old or new < 0:
            new = old + 1
        # the block dichotomy concerns gaps between blocks, so blocks may
        # not be taller than the corrupted gap's stage
        return {"gap": ordinal, "new": new, "block": min(n + 1, stage)}

    def warmup(self):
        return list(itertools.islice(self.jobs(stream="warmup", small=True), 4))


class Decide(Workload):
    name = "decide"
    why = ("Verdicts on a fresh spec per job: parse, normalize, rewriting "
           "criterion, boundedness, inverse-isomorphism and three "
           "non-isomorphism checks whose grouping search replays stage "
           "registers from stage 0. Layers: params, inverseiso, registry.")
    limit_ms = 250.0  # p90 178 ms, p95 235, p99 411: about 4% exceed it
    PATTERN = ("growth", "certified", "palindromic", "general", "growth",
               "certified", "palindromic", "registry")
    REGISTRY = ("chacon", "hk", "chacon-reversed")

    SHAPES = 64  # spec shapes, cycled so that every run sees the same mix

    def jobs(self, stream="jobs", small=False):
        rng = self.rng(stream)
        su, sh = Strata(), Strata(0.25)
        makers = {
            "growth": random_growth_spec,
            "certified": random_certified_spec,
            "palindromic": random_palindromic_spec,
            "general": random_normalized_spec,
        }
        for i in itertools.count():
            kind = self.PATTERN[i % len(self.PATTERN)]
            u = 0.0 if small else su()
            horizons = [log_uniform(0.0 if small else sh(), 8, 128)
                        for _ in range(3)]
            job = {"kind": kind, "up_to": log_uniform(u, 12, 300),
                   "horizons": horizons}
            if kind == "registry":
                job["spec"] = self.REGISTRY[(i // len(self.PATTERN))
                                            % len(self.REGISTRY)]
            else:
                shape = Random(f"{self.name}:{stream}:{i % self.SHAPES}")
                spec = makers[kind](shape, rng)
                twin = permuted_twin(rng, spec)
                job.update(text=oracle.spec_text(spec), _raw=spec,
                           twin=oracle.spec_text(twin), _twin=twin)
            yield job

    def warmup(self):
        jobs = self.jobs(stream="warmup", small=True)
        first = list(itertools.islice(jobs, len(self.PATTERN)))
        return [first[-1], first[0], {**first[-1], "spec": "hk"},
                {**first[-1], "spec": "chacon-reversed"}]


class CliSession(Workload):
    name = "cli-session"
    why = ("Each job is one rankone process, as a user runs it: start-up plus "
           "one subcommand, all eight in text and JSON, with the README "
           "examples, seeded variants and the known bad inputs. Layer: cli.")
    # p90 240 ms, p95 500 (the climb calls, the hang): about 9% of calls
    # exceed it, besides the known defects, which never count as within
    limit_ms = 400.0
    TIMEOUT_S = 3.0  # per call; the ROADMAP's hanging input runs into it, and
    # the slowest other call takes under 1 s
    # ROADMAP item 3: inputs that end in a traceback, a silent exit 0 or a
    # hang today; their documented result is exit 2 (3 for the hang)
    DEFECTS = (
        (["name", "--spec", "chacon", "--point", "2:0:1/5", "--window", "3"], 2),
        (["analyze", "--spec", "chacon", "--n", "2", "--m", "4", "--y",
          "corrupt:4"], 2),
        (["analyze", "--spec", "chacon", "--n", "2", "--m", "4", "--y",
          "file:.perfbench/missing-image.txt"], 2),
        (["word", "--spec", "chacon", "--n", "-1", "--at", "0"], 2),
        (["check", "--spec", "chacon", "--to", "-1"], 2),
        (["word", "--spec", "chacon", "--n", "3", "--range", "5:2"], 2),
        (["injectivity", "--spec", "finite-odometer"], 3),
    )
    README = (
        ["word", "--spec", "chacon", "--n", "2"],
        ["word", "--spec", "chacon", "--n", "40", "--at", "1000000000"],
        ["check", "--spec", "chacon-raw"],
        ["check", "--spec", "chacon", "--to", "12"],
        ["normalize", "--spec", "hk-raw"],
        ["orbit", "--spec", "chacon", "--point", "1:1:0/1", "--steps", "2"],
        ["name", "--spec", "chacon", "--point", "2:0:1/5", "--window", "0:21"],
        ["analyze", "--spec", "chacon", "--n", "2", "--m", "4", "--y", "shift:3"],
        ["analyze", "--spec", "chacon", "--n", "2", "--m", "4", "--y",
         "corrupt:4:31", "--totally", "3"],
        ["inverse", "--spec", "hk"],
        ["inverse", "--spec", "chacon", "--against", "chacon-reversed"],
        # the README runs 1000 trials (seconds per call); 40 keep it a CLI call
        ["injectivity", "--spec", "chacon", "--trials", "40"],
    )
    VARIANTS = ("word", "letter", "range", "check", "check_to", "normalize",
                "orbit", "name", "shift", "corrupt", "inverse", "against",
                "injectivity", "word", "climb", "orbit", "range", "normalize",
                "shift", "check_to", "letter", "against", "inverse")
    SPACING = 6  # one known-defect input in every six calls
    CYCLE_S = 10.0  # about one cycle of calls on the seed code, the hang included

    def whole_run(self, seconds):
        # whole cycles, as many in every run of the same length: which
        # calls fail is then a function of the code alone, not of how many
        # calls a busy host lets the run fit in
        cycle = len(self.README) + len(self.VARIANTS) + len(self.DEFECTS)
        return cycle * max(1, round(seconds / self.CYCLE_S))

    def jobs(self, stream="jobs", small=False):
        # the order of the calls and their output format are the same in
        # every run (shuffled per cycle by a seed-independent stream); the
        # seed draws the variants' parameters
        rng = self.rng(stream)
        towers = {k: Tower(oracle.registry(k))
                  for k in ("chacon", "hk", "chacon-reversed")}
        for cycle in itertools.count():
            order = Random(f"{self.name}:order:{cycle}")
            normal = [list(argv) for argv in self.README]
            normal += [self._variant(kind, rng, towers, cycle, j)
                       for j, kind in enumerate(self.VARIANTS)]
            order.shuffle(normal)
            defects = list(self.DEFECTS)
            order.shuffle(defects)
            for j in range(len(normal) + len(defects)):
                if j % self.SPACING == self.SPACING - 1 and defects:
                    argv, code = defects.pop()
                    yield {"kind": "defect", "argv": self._fmt(order, argv),
                           "exit": code}
                else:
                    yield {"kind": "cli", "argv": self._fmt(order, normal.pop())}

    @staticmethod
    def _fmt(order, argv):
        return (["--format", "json"] if order.random() < 0.5 else []) + list(argv)

    def _variant(self, kind, rng, towers, cycle, j):
        key = rng.choice(("chacon", "hk"))
        tower = towers[key]
        if kind == "word":
            return ["word", "--spec", rng.choice(sorted(towers)), "--n",
                    str(rng.randint(0, 6))]
        if kind == "letter":
            n = rng.randint(10, 40)
            return ["word", "--spec", key, "--n", str(n), "--at",
                    str(rng.randrange(tower.h(n)))]
        if kind == "range":
            n = rng.randint(5, 30)
            a = rng.randrange(tower.h(n) - 200)
            return ["word", "--spec", key, "--n", str(n), "--range",
                    f"{a}:{a + rng.randint(1, 200)}"]
        if kind == "check":
            return ["check", "--spec", rng.choice(
                ("chacon-raw", "hk-raw", "chacon", "hk", "finite-odometer",
                 self._spec_file(rng, cycle, j)))]
        if kind == "check_to":
            return ["check", "--spec", rng.choice(("chacon", "hk", "chacon-raw")),
                    "--to", str(rng.randint(5, 40))]
        if kind == "normalize":
            return ["normalize", "--spec", rng.choice(
                ("chacon-raw", "hk-raw", self._spec_file(rng, cycle, j)))]
        if kind == "orbit":
            p = sample_point(tower, rng.randint(1, 4), rng)
            return ["orbit", "--spec", key, "--point", oracle.point_text(p),
                    "--steps", str(rng.randint(-20, 20))]
        if kind == "name":
            # short windows that stay in columns of at most 2^20 levels; the
            # one climb per cycle below is what reaches the big words
            for _ in range(100):
                p = sample_point(tower, rng.randint(2, 4), rng)
                length = rng.randint(1, 2000)
                a = -rng.randrange(length) if rng.random() < 0.5 else 0
                if tower.h(tower.embed(p, a, a + length)[0]) <= 1 << 20:
                    break
            return ["name", "--spec", key, "--point", oracle.point_text(p),
                    f"--window={a}:{a + length}"]
        if kind == "climb":
            # a short window across the top of the first copy of C_{T-1} in
            # chacon's last column under the cap, C_T: the walk goes on
            # reading in C_T, so it builds that column's whole word
            tower = towers["chacon"]
            T = cap_stage(tower)
            past = rng.randint(50, 200)
            offset = Fraction(rng.randrange(1 << 53), 1 << 53)
            p = tower.canonicalize((T, tower.h(T - 1) - past, offset))
            return ["name", "--spec", "chacon", "--point", oracle.point_text(p),
                    f"--window=0:{2 * past}"]
        if kind == "shift":
            n = rng.randint(2, 3)
            return ["analyze", "--spec", key, "--n", str(n), "--m", str(n + 2),
                    "--kappa", "1", "--y", f"shift:{rng.randint(0, 40)}"]
        if kind == "corrupt":
            n = rng.randint(2, 3)
            gaps = tower.gaps(n, n + 2)
            g = rng.randrange(len(gaps))
            old = gaps[g][1]
            new = old + rng.choice((-1, 1, 5) if old else (1, 5))
            return ["analyze", "--spec", key, "--n", str(n), "--m", str(n + 2),
                    "--kappa", "1", "--y", f"corrupt:{g}:{new}"]
        if kind == "inverse":
            return ["inverse", "--spec", rng.choice(("chacon", "hk",
                                                     "chacon-reversed"))]
        if kind == "against":
            a = rng.choice(("chacon", "chacon-reversed"))
            b = rng.choice(("chacon", "chacon-reversed"))
            return ["inverse", "--spec", a, "--against", b, "--horizon",
                    str(rng.randint(4, 32))]
        if kind == "injectivity":
            return ["injectivity", "--spec", key, "--trials",
                    str(rng.randint(5, 30))]
        raise ValueError(kind)

    def _spec_file(self, rng, cycle, j):
        """A seeded raw growth spec written as a config file in the
        checkout's scratch directory."""
        spec = random_growth_spec(rng, rng)._replace(name=f"seeded-{cycle}-{j}")
        path = f".perfbench/specs/{self.seed}-{cycle}-{j}.cfg"
        self.files[path] = spec
        return path

    def __init__(self, seed):
        super().__init__(seed)
        self.files: dict[str, Spec] = {}  # config files the jobs name


WORKLOADS = {w.name: w for w in (OrbitNames, OccurrenceScan, Decide, CliSession)}
