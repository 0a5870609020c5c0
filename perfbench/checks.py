"""Judging each job's digest against the oracle, after the timed region.

``Checker.check(job, digest)`` returns None when the library's answer is
right and a one-line reason when it is not.  Known answers are used where
the construction fixes them (a shift pair recovers its shift, hk is
inverse-isomorphic from stage 0, a system is never shown non-isomorphic to
itself); everything else is recomputed by ``oracle``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

import oracle
from oracle import Tower, sha


def _canon(value):
    """Tuples and lists compare alike once serialized."""
    return json.loads(json.dumps(value))


class Checker:
    def __init__(self, workload):
        self.workload = workload
        self.towers = {k: Tower(s) for k, s in workload.specs().items()}
        self._scans: dict = {}

    def tower(self, spec) -> Tower:
        key = spec if isinstance(spec, str) else oracle.spec_text(spec)
        if key not in self.towers:
            self.towers[key] = Tower(oracle.registry(spec)
                                     if isinstance(spec, str) else spec)
        return self.towers[key]

    def check(self, job: dict, digest) -> Optional[str]:
        kind = job["kind"]
        if kind in ("cli", "defect"):
            return self.cli(job, digest)
        if kind in ("shift", "corrupt"):
            return self.pair(job, digest)
        if "horizons" in job:
            return self.decide(job, digest)
        return getattr(self, kind)(job, digest)

    # -- orbit-names -------------------------------------------------------

    def name(self, job, d):
        tower = self.towers[job["spec"]]
        p, a, b = oracle.parse_point(job["point"]), job["a"], job["b"]
        want = tower.name(p, a, b)
        if b - a <= oracle.STEP_WALK_MAX and tower.walk_name(p, a, b) != want:
            return "oracle walk and oracle decode disagree"
        if (d["anchor"], d["length"]) != (a, b - a):
            return f"window [{d['anchor']}, +{d['length']}) is not [{a}, {b})"
        if d["letters"] != sha(want):
            return "name letters differ from the oracle"
        return None

    def letters(self, job, d):
        tower = self.towers[job["spec"]]
        if d["letters"] != sha(tower.decode(job["n"], job["a"], job["b"])):
            return "letters differ from the oracle decode"
        if not d["spacer_agrees"]:
            return "an address disagrees with its letter"
        return None

    def chain(self, job, d):
        tower = self.towers[job["spec"]]
        want = tower.orbit(oracle.parse_point(job["point"]), job["steps"])
        if d["points"] != sha([oracle.point_text(q) for q in want]):
            return "orbit points differ from the oracle"
        return None

    def probe(self, job, d):
        want = {"trials": job["trials"], "separated": job["trials"],
                "failures": 0}
        got = {k: d[k] for k in want}
        return None if got == want else f"injectivity report {got}"

    # -- occurrence-scan ---------------------------------------------------

    def _scan(self, key, n, m):
        """Occurrences of w_n in w_m, shared by the jobs on one window."""
        if (key, n, m) not in self._scans:
            tower = self.towers[key]
            self._scans[key, n, m] = oracle.occurrences(tower.word(n),
                                                        tower.word(m))
        return self._scans[key, n, m]

    def pair(self, job, d):
        key, n, m = job["spec"], job["n"], job["m"]
        tower = self.towers[key]
        word, wn = tower.word(m), tower.word(n)
        if job["kind"] == "shift":
            x, y = word[:len(word) - job["ell"]], word[job["ell"]:]
        else:
            pos, old, _ = tower.gaps(n, m)[job["gap"]]
            image = word[:pos] + b"1" * job["new"] + word[pos + old:]
            shared = min(len(word), len(image))
            x, y = word[:shared], image[:shared]
        xs = [i for i in self._scan(key, n, m) if i + len(wn) <= len(x)]
        ver = oracle.verdicts(x, y, 0, wn, tower.h(job["kappa"]), xs)
        if any(v == "ambiguous" for v, _ in ver.values()):
            return "an ambiguous containment was not rejected"
        records = []
        for i in xs:
            v, rho = ver[i]
            if v == "indeterminate":
                records.append((i, v, None, None, None))
                continue
            gap = oracle.gap_after(x, i + len(wn), wn)
            image_gap = None if v == "bad" else \
                oracle.gap_after(y, i - rho + len(wn), wn)
            records.append((i, v, rho, gap, image_gap))
        if d["records"] != sha(records):
            return "occurrence records differ from the oracle"
        good = sum(1 for r in records if r[1] == "good")
        bad = sum(1 for r in records if r[1] == "bad")
        if tuple(d["counts"]) != (good, bad, len(records) - good - bad):
            return f"counts {d['counts']}"
        if d["y_occurrences"] != sha(oracle.occurrences(wn, y)):
            return "image occurrences differ from the oracle"
        if (why := self._density(tower, d["density"], good, bad)):
            return why
        for law in d["laws"]:
            if (why := self._law(law, ver, xs, x, y, wn)):
                return why
        wm = tower.word(job["block"])
        blocks = oracle.blocks(x, 0, wm, len(wn), ver,
                               [i for i in self._scan(key, job["block"], m)
                                if i + len(wm) <= len(x)])
        if d["blocks"] != sha(blocks):
            return "block verdicts differ from the oracle"
        violations = [nxt[0] for prev, nxt in zip(blocks, blocks[1:])
                      if prev[1] == "totally_good" and nxt[1] == "mixed"]
        if d["violations"] != violations:
            return f"dichotomy violations {d['violations']} != {violations}"
        if job["kind"] == "shift" and good:
            if tuple(d["propagation"]) != ("ok", job["ell"]):
                return f"propagation {d['propagation']} for shift {job['ell']}"
        return self._rewrite(job, d["rewrite"], x)

    def _density(self, tower, got, good, bad):
        _, R, _, _ = oracle.numeric_boundedness(tower, 40)
        threshold = 1 - Fraction(1, 2 * R + 1)
        density = Fraction(good, good + bad) if good + bad else None
        meets = None if density is None else density >= threshold
        want = (good, bad, str(density), str(threshold), meets)
        have = (got[0], got[1], got[3], got[4], got[5])
        return None if have == want else f"density {have} != {want}"

    @staticmethod
    def _law(law, ver, xs, x, y, wn):
        i, a, b, neighbor_verdict, predicted, consistent = law
        if ver.get(i, ("",))[0] != "good":
            return f"gap law seeded at {i}, which is not good"
        want_a = oracle.gap_after(x, i + len(wn), wn)
        want_b = oracle.gap_after(y, i - ver[i][1] + len(wn), wn)
        k = xs.index(i)
        neighbor = ver[xs[k + 1]][0] if k + 1 < len(xs) else None
        neighbor = None if neighbor == "indeterminate" else neighbor
        want_pred = None if want_a is None or want_b is None else want_a == want_b
        want_cons = None
        if want_pred is not None and neighbor is not None:
            want_cons = want_pred == (neighbor == "good")
        want = (i, want_a, want_b, neighbor, want_pred, want_cons)
        return None if tuple(law) == want else f"gap law {tuple(law)} != {want}"

    def _rewrite(self, job, got, x):
        spec = self.towers[job["spec"]].spec
        N = job["rewrite"]
        v = self.towers[job["spec"]].word(N)
        v_rev = self.tower(oracle.reversed_spec(spec)).word(N)
        positions = [i for i in self._scan(job["spec"], N, job["m"])
                     if i + len(v) <= len(x)]
        out = bytearray(x)
        for p in positions:
            out[p:p + len(v)] = v_rev
        first = positions[0] if positions else len(x)
        tail = len(x) - (positions[-1] + len(v) if positions else 0)
        left = any(x.startswith(v[len(v) - k:])
                   for k in range(1, min(len(v) - 1, first) + 1))
        right = any(x.endswith(v[:d]) for d in range(1, min(len(v) - 1, tail) + 1))
        want = (len(positions), left, right, sha(bytes(out)))
        return None if tuple(got) == want else f"rewrite {tuple(got)[:3]} != {want[:3]}"

    # -- decide ------------------------------------------------------------

    def decide(self, job, d):
        kind = job["kind"]
        if kind == "registry":
            raw = spec = oracle.registry(job["spec"])
            twin = spec
        else:
            raw, twin = job["_raw"], oracle.normalize(job["_twin"])
            spec = oracle.normalize(raw)
        want_rules = ([self._rule(r) for r in spec.pre],
                      [self._rule(r) for r in spec.cycle])
        if _canon(d["normalized"]) != _canon(want_rules):
            return "normalized rules differ from the oracle"
        want_criterion = "holds" if kind == "growth" else None
        if d["criterion"] != want_criterion:
            return f"rewriting criterion {d['criterion']}"
        tower = self.tower(spec)
        period = len(spec.cycle)
        sym = d["symbolic"]
        if kind != "general" and sym["status"] != "certified":
            return f"symbolic check says {sym['status']} for a certified spec"
        if sym["status"] == "certified":
            R, S, N, mode = sym["certificate"]
            if mode != "symbolic" or not oracle.certificate_holds(
                    tower, R, S, N, 4 * period + 12):
                return f"certificate {sym['certificate']} fails numerically"
        if sym["status"] == "refuted":
            cond, stage, slot = sym["refutation"]
            st = tower.stage(stage)
            if cond != 3 or st.s[slot] >= st.h:
                return f"refutation {sym['refutation']} does not hold"
        num = oracle.numeric_boundedness(tower, job["up_to"])
        got = d["numeric"]
        if num[0] == "refuted":
            st = tower.stage(job["up_to"])
            slot = max(i for i, s in enumerate(st.s) if s < st.h)
            want = {"status": "refuted", "certificate": None,
                    "refutation": [3, job["up_to"], slot]}
        else:
            want = {"status": "certified", "refutation": None,
                    "certificate": [num[1], num[2], num[3],
                                    f"numeric-up-to({job['up_to']})"]}
        if _canon(got) != _canon(want):
            return f"numeric check {got} != {want}"
        if (why := self._inverse(job, d["inverse"], spec, tower, sym["status"])):
            return why
        partners = (oracle.reversed_spec(spec), spec, twin)
        for label, report, other in zip(("reversal", "self", "twin"),
                                        d["reports"], partners):
            if (why := self._noniso(report, tower, self.tower(other))):
                return f"{label}: {why}"
        if d["reports"][1]["criteria_met"]:
            return "a system was shown non-isomorphic to itself"
        if kind == "registry" and job["spec"] == "chacon":
            w = d["reports"][0]["witness"]
            if not d["reports"][0]["criteria_met"] or w[1] != 27 or len(w[2]) != 26:
                return "chacon against its reversal: not q=27, |t|=26"
        return None

    @staticmethod
    def _rule(rule):
        return (rule.r, [list(e) for e in rule.s], rule.last, rule.acc)

    def _inverse(self, job, got, spec, tower, sym_status):
        if (got is None) != (sym_status != "certified"):
            return f"inverse verdict {got} with symbolic status {sym_status}"
        if got is None:
            return None
        iso, N, positions = got
        known = {"palindromic": True, "hk": True, "chacon": False,
                 "chacon-reversed": False}.get(
            job["spec"] if job["kind"] == "registry" else job["kind"])
        if known is not None and iso != known:
            return f"inverse_isomorphic={iso}, known {known}"
        if known and N != 0:
            return f"inverse threshold N={N}, known 0"
        period, t0 = len(spec.cycle), len(spec.pre)
        if iso:
            if not all(oracle.palindromic(tower.stage(n).s)
                       for n in range(N, N + 4 * period + 4)):
                return f"tuples after N={N} are not palindromic"
            if N > 0 and oracle.palindromic(tower.stage(N - 1).s):
                return f"threshold N={N} is not the first palindromic stage"
        else:
            if not positions:
                return "negative verdict without refuting positions"
            for pos in positions:
                if any(oracle.palindromic(tower.stage(t0 + pos + k * period).s)
                       for k in range(4, 8)):
                    return f"cycle position {pos} is palindromic later on"
        return None

    @staticmethod
    def _noniso(report, a: Tower, b: Tower):
        w = report["witness"]
        if report["criteria_met"] and (report["status"] != "criteria_met" or not w):
            return "criteria met without a witness"
        if w:
            stage, q, t, t_prime = w
            if (q, tuple(t)) != oracle.grouped(a, stage) or \
                    (q, tuple(t_prime)) != oracle.grouped(b, stage):
                return f"witness at stage {stage} differs from the grouped tuples"
            if oracle.compatible(t, t_prime) or oracle.compatible(t_prime, t):
                return f"witness at stage {stage} is compatible"
        if report["status"] == "condition1_fails":
            if all(a.stage(n).r == b.stage(n).r and sum(a.stage(n).s) == sum(b.stage(n).s)
                   for n in range(64)):
                return "condition (1) refuted but cuts and sums agree"
        return None

    # -- cli-session -------------------------------------------------------

    def cli(self, job, d):
        if d["traceback"]:
            return "traceback on stderr"
        if job["kind"] == "defect":
            code = job["exit"]
            return None if d["exit"] == code else f"exit {d['exit']}, documented {code}"
        argv = list(job["argv"])
        as_json = argv[:2] == ["--format", "json"]
        if as_json:
            argv = argv[2:]
        command, opts = argv[0], {}
        rest = argv[1:]
        while rest:
            flag = rest.pop(0)
            if "=" in flag:
                flag, value = flag.split("=", 1)
            else:
                value = rest.pop(0)
            opts[flag[2:]] = value
        payload = None
        if as_json:
            try:
                payload = json.loads(d["stdout"])
            except ValueError:
                return "stdout is not JSON"
        want_exit, why = getattr(self, "cli_" + command)(opts, d["stdout"], payload)
        if why:
            return why
        return None if d["exit"] == want_exit else f"exit {d['exit']}, want {want_exit}"

    def _cli_spec(self, ref):
        files = getattr(self.workload, "files", {})
        return files[ref] if ref in files else oracle.registry(ref)

    def cli_word(self, opts, out, payload):
        tower = self.tower(oracle.normalize(self._cli_spec(opts["spec"])))
        n = int(opts["n"])
        if "at" in opts:
            bit = tower.letter(n, int(opts["at"]))
            ok = payload["letter"] == bit if payload else out == f"{bit}\n"
        elif "range" in opts:
            a, b = (int(v) for v in opts["range"].split(":"))
            letters = tower.decode(n, a, b).decode()
            ok = payload["letters"] == letters if payload else out == letters + "\n"
        else:
            letters = tower.word(n).decode()
            ok = (payload["letters"], payload["length"]) == (letters, len(letters)) \
                if payload else out == letters + "\n"
        return 0, None if ok else "letters differ from the oracle"

    def cli_check(self, opts, out, payload):
        raw = self._cli_spec(opts["spec"])
        tower = self.tower(oracle.normalize(raw))
        if "to" in opts:
            got = oracle.numeric_boundedness(tower, int(opts["to"]))
            if got[0] == "refuted":
                status, text, code = "refuted", "partially bounded: refuted", 1
            else:
                status, code = "certified", 0
                text = (f"certified R={got[1]} S={got[2]} N={got[3]} "
                        f"[numeric-up-to({opts['to']})]")
        elif raw.name == "finite-odometer":
            status, text, code = "refuted", "partially bounded: refuted", 1
        else:
            status, text, code = "certified", "partially bounded: certified", 0
        if payload:
            ok = payload["partial_boundedness"]["status"] == status
        else:
            ok = text in out and (oracle.is_normalized(raw)
                                  or "rewriting criterion: holds" in out)
        return code, None if ok else f"check output lacks {text!r}"

    def cli_normalize(self, opts, out, payload):
        text = oracle.spec_text(oracle.normalize(self._cli_spec(opts["spec"])))
        ok = payload["config"] == text if payload else out == text
        return 0, None if ok else "normalized config differs from the oracle"

    def cli_orbit(self, opts, out, payload):
        tower = self.tower(opts["spec"])
        points = [oracle.point_text(q) for q in
                  tower.orbit(oracle.parse_point(opts["point"]), int(opts["steps"]))]
        ok = payload["points"] == points if payload else out.split() == points
        return 0, None if ok else "orbit differs from the oracle"

    def cli_name(self, opts, out, payload):
        tower = self.tower(opts["spec"])
        a, b = (int(v) for v in opts["window"].split(":"))
        letters = tower.name(oracle.parse_point(opts["point"]), a, b).decode()
        if payload:
            ok = (payload["anchor"], payload["letters"]) == (a, letters)
        else:
            ok = out == f"anchor:{a} letters:{letters}\n"
        return 0, None if ok else "name differs from the oracle"

    def cli_analyze(self, opts, out, payload):
        tower = self.tower(opts["spec"])
        n, m = int(opts["n"]), int(opts["m"])
        kappa = int(opts.get("kappa", 1))
        word, wn = tower.word(m), tower.word(n)
        kind, _, rest = opts["y"].partition(":")
        if kind == "shift":
            ell = int(rest)
            x, y = word[:len(word) - ell], word[ell:]
        else:
            ordinal, length = (int(v) for v in rest.split(":"))
            pos, old, _ = tower.gaps(n, m)[ordinal]
            image = word[:pos] + b"1" * length + word[pos + old:]
            shared = min(len(word), len(image))
            x, y = word[:shared], image[:shared]
        ver = oracle.verdicts(x, y, 0, wn, tower.h(kappa))
        if any(v == "ambiguous" for v, _ in ver.values()):
            return 2, None
        records = sorted(ver.items())
        good = sum(1 for _, (v, _) in records if v == "good")
        bad = sum(1 for _, (v, _) in records if v == "bad")
        _, R, _, _ = oracle.numeric_boundedness(tower, 40)
        threshold = 1 - Fraction(1, 2 * R + 1)
        code = 3 if good + bad == 0 else (0 if Fraction(good, good + bad) >= threshold
                                          else 1)
        if payload:
            got = [(r["index"], r["verdict"], r["rho"]) for r in payload["records"]]
            ok = got == [(i, v, rho) for i, (v, rho) in records]
        else:
            lines = [ln for ln in out.splitlines() if ln.startswith("i=")]
            ok = lines == [f"i={i} verdict={v} rho={'-' if rho is None else rho}"
                           for i, (v, rho) in records]
        return code, None if ok else "occurrence verdicts differ from the oracle"

    def cli_inverse(self, opts, out, payload):
        if "against" in opts:
            met = opts["spec"] != opts["against"]
            if payload:
                ok = payload["criteria_met"] is met and (
                    not met or payload["witness"]["q"] == 27
                    and len(payload["witness"]["t"]) == 26)
            else:
                ok = f"criteria_met={met}" in out and (not met or "q=27" in out)
            return (0 if met else 3), None if ok else "non-isomorphism verdict"
        iso = opts["spec"] == "hk"
        if payload:
            ok = payload["inverse_isomorphic"] is iso and (not iso or payload["N"] == 0)
        else:
            ok = (f"inverse_isomorphic={iso}" + (" N=0" if iso else "")) in out
        return (0 if iso else 1), None if ok else "inverse verdict"

    def cli_injectivity(self, opts, out, payload):
        k = int(opts.get("trials", 100))
        if payload:
            r = payload["report"]
            ok = (r["trials"], r["separated"], r["failures"]) == (k, k, [])
        else:
            ok = out == f"trials={k} separated={k} failures=0\n"
        return 0, None if ok else "injectivity report"
