"""Job runners: the only benchmark code that calls rankone.

``run(ctx, job)`` is the timed call.  ``digest(job, out)`` turns what the
library returned into small plain data for the oracle and runs outside the
timed region; long letter strings and record lists are kept as SHA-1
digests so that memory does not grow with the number of jobs.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tempfile
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import rankone.cli
from rankone import (
    CandidatePair,
    NotCertifiedError,
    TowerPoint,
    apply_T,
    apply_T_inverse,
    build_word,
    check_ab_law,
    check_non_isomorphism,
    check_partially_bounded,
    check_rewriting_criterion,
    classify,
    classify_totally,
    decide_inverse_isomorphic,
    get_spec,
    good_density,
    letter_at,
    name_window,
    normalize,
    parse_spec,
    propagate_goodness,
    reversed_parameters,
    stable_rewrite,
    verify_injectivity,
)
from rankone.registry import names as registry_names
from rankone.tower import NameWindow
from rankone.words import gap_instances

from oracle import sha


class JobTimeout(BaseException):
    """Raised by the per-job alarm; a BaseException so that no handler in
    the library can swallow it."""


class Context:
    """What set-up resolves: every registry spec and the run's fixed specs."""

    def __init__(self, workload, root: str):
        self.root = root
        self.child_usage = None  # peak RSS in KiB of the last CLI call
        self.registry = {name: get_spec(name) for name in registry_names()}
        self.specs = {
            key: get_spec(src) if key == src else normalize(parse_spec(src))
            for key, src in workload.sources().items()
        }


def _point(text: str) -> TowerPoint:
    stage, level, frac = text.split(":")
    num, den = frac.split("/")
    return TowerPoint(int(stage), int(level), Fraction(int(num), int(den)))


# ---------------------------------------------------------------------------
# orbit-names


def run_name(ctx, job):
    return name_window(ctx.specs[job["spec"]], _point(job["point"]),
                       job["a"], job["b"])


def digest_name(job, w):
    return {"anchor": w.anchor, "length": len(w), "letters": sha(w.letters)}


def run_letters(ctx, job):
    spec = ctx.specs[job["spec"]]
    return [letter_at(spec, job["n"], j) for j in range(job["a"], job["b"])]


def digest_letters(job, out):
    letters = bytes(0x30 + bit for bit, _ in out)
    spacer_agrees = all((addr.spacer is not None) == (bit == 1)
                        for bit, addr in out)
    return {"letters": sha(letters), "spacer_agrees": spacer_agrees}


def run_chain(ctx, job):
    spec = ctx.specs[job["spec"]]
    step = apply_T if job["steps"] >= 0 else apply_T_inverse
    points = [_point(job["point"])]
    for _ in range(abs(job["steps"])):
        points.append(step(spec, points[-1]))
    return points


def digest_chain(job, points):
    return {"points": sha([str(p) for p in points])}


def run_probe(ctx, job):
    return verify_injectivity(ctx.specs[job["spec"]], trials=job["trials"],
                              m=job["m"], seed=job["seed"])


def digest_probe(job, report):
    return {"trials": report.trials, "separated": report.separated,
            "skips": report.same_level_skips, "failures": len(report.failures)}


# ---------------------------------------------------------------------------
# occurrence-scan


def _pair(ctx, job):
    spec = ctx.specs[job["spec"]]
    m = job["m"]
    word = build_word(spec, m).letters
    if job["kind"] == "shift":
        ell = job["ell"]
        x = NameWindow(0, word[:len(word) - ell], provenance=f"word:{m}")
        y = NameWindow(0, word[ell:])
    else:
        gap = gap_instances(spec, job["n"], m)[job["gap"]]
        image = (word[:gap.position] + b"1" * job["new"]
                 + word[gap.position + gap.length:])
        shared = min(len(word), len(image))
        x = NameWindow(0, word[:shared],
                       provenance=f"word:{m}" if shared == len(word) else None)
        y = NameWindow(0, image[:shared])
    return CandidatePair(spec=spec, x=x, y=y, kappa=job["kappa"], n=job["n"])


def run_pair(ctx, job):
    pair = _pair(ctx, job)
    cls = classify(pair)
    density = good_density(pair, classification=cls)
    goods = [r.index for r in cls.records if r.verdict == "good"]
    sample = goods[::max(1, len(goods) // 8)][:8]
    laws = [check_ab_law(pair, i, classification=cls) for i in sample]
    totally = classify_totally(pair, job["block"], classification=cls)
    prop = None
    if job["kind"] == "shift" and goods:
        prop = propagate_goodness(pair, goods[0], classification=cls)
    rewrite = stable_rewrite(pair.spec, pair.x, job["rewrite"])
    return cls, density, laws, totally, prop, rewrite


def digest_pair(job, out):
    cls, density, laws, totally, prop, rewrite = out
    return {
        "records": sha([(r.index, r.verdict, r.rho, r.next_gap, r.image_gap)
                        for r in cls.records]),
        "counts": cls.counts(),
        "y_occurrences": sha(list(cls.y_occurrences)),
        "density": (density.good, density.bad, density.indeterminate,
                    str(density.density), str(density.threshold),
                    density.meets_threshold),
        "laws": [(law.index, law.a, law.b, law.neighbor_verdict,
                  law.predicted_good, law.consistent) for law in laws],
        "blocks": sha([(b.index, b.verdict) for b in totally.blocks]),
        "violations": list(totally.dichotomy_violations),
        "propagation": None if prop is None else (prop.status, prop.ell),
        "rewrite": (rewrite.replacements, rewrite.partial_left,
                    rewrite.partial_right, sha(rewrite.window.letters)),
    }


# ---------------------------------------------------------------------------
# decide


def run_decide(ctx, job):
    if job["kind"] == "registry":
        raw = spec = get_spec(job["spec"])
        twin = spec
    else:
        raw = parse_spec(job["text"])
        spec = normalize(raw)
        twin = normalize(parse_spec(job["twin"]))
    rules = raw.preperiod + raw.cycle
    criterion = None
    if all(rule.last is not None for rule in rules):
        criterion = check_rewriting_criterion(raw)
    symbolic = check_partially_bounded(spec, mode="symbolic")
    numeric = check_partially_bounded(spec, mode="numeric", up_to=job["up_to"])
    try:
        inverse = decide_inverse_isomorphic(spec)
    except NotCertifiedError:
        inverse = None
    h1, h2, h3 = job["horizons"]
    reports = (
        check_non_isomorphism(spec, reversed_parameters(spec), horizon_periods=h1),
        check_non_isomorphism(spec, spec, horizon_periods=h2),
        check_non_isomorphism(spec, twin, horizon_periods=h3),
    )
    return spec, criterion, symbolic, numeric, inverse, reports


def _rules(rules):
    def expr(e):
        return None if e is None else (e.a, e.c, e.b)
    return [(r.r, [expr(e) for e in r.spacers], expr(r.last), expr(r.acc))
            for r in rules]


def _boundedness(result):
    cert, ref = result.certificate, result.refutation
    return {
        "status": result.status,
        "certificate": None if cert is None else
        (cert.R_frak, cert.S_frak, cert.N, cert.verified_mode),
        "refutation": None if ref is None else (ref.condition, ref.stage, ref.i),
    }


def _report(report):
    w = report.witness
    return {"criteria_met": report.criteria_met, "status": report.status,
            "witness": None if w is None else
            (w.stage, w.q, list(w.t), list(w.t_prime))}


def digest_decide(job, out):
    spec, criterion, symbolic, numeric, inverse, reports = out
    return {
        "normalized": (_rules(spec.preperiod), _rules(spec.cycle)),
        "criterion": None if criterion is None else criterion.status,
        "symbolic": _boundedness(symbolic),
        "numeric": _boundedness(numeric),
        "inverse": None if inverse is None else
        (inverse.isomorphic_to_inverse, inverse.N,
         list(inverse.refuting_positions)),
        "reports": [_report(r) for r in reports],
    }


# ---------------------------------------------------------------------------
# cli-session: a process per call, or an in-process replay for tracing


def run_cli(ctx, job, timeout):
    """One ``rankone`` process.  It is reaped with ``os.wait4`` so that its
    own peak memory is known; ``ctx.child_usage`` keeps it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
    scratch = os.path.join(ctx.root, ".perfbench")
    with tempfile.TemporaryFile(dir=scratch) as out, \
            tempfile.TemporaryFile(dir=scratch) as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "rankone.cli", *job["argv"]],
            cwd=ctx.root, env=env, stdin=subprocess.DEVNULL, stdout=out,
            stderr=err,
        )
        killed = []

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ctx.child_usage = usage.ru_maxrss
        if killed and proc.returncode < 0:
            raise JobTimeout(f"no exit within {timeout} s")
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"))


def run_cli_inprocess(ctx, job, emitted=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = rankone.cli.main(list(job["argv"]))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error: the interpreter would exit 1
            traceback.print_exc()
            code = 1
    if emitted is not None:
        emitted(len(out.getvalue().encode()))
    return code, out.getvalue(), err.getvalue()


def digest_cli(job, out):
    code, stdout, stderr = out
    return {"exit": code, "stdout": stdout,
            "traceback": "Traceback (most recent call last)" in stderr}


RUNNERS = {
    "name": (run_name, digest_name),
    "letters": (run_letters, digest_letters),
    "chain": (run_chain, digest_chain),
    "probe": (run_probe, digest_probe),
    "shift": (run_pair, digest_pair),
    "corrupt": (run_pair, digest_pair),
    "growth": (run_decide, digest_decide),
    "certified": (run_decide, digest_decide),
    "palindromic": (run_decide, digest_decide),
    "general": (run_decide, digest_decide),
    "registry": (run_decide, digest_decide),
}
