"""Command-line surface.

Exit codes: 0 success or affirmative verdict, 1 refutation or negative
verdict, 2 input error, 3 inconclusive, 4 internal error (a defect in
rankone, never a verdict).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Each subcommand imports the modules it reads, so a call pays at start-up
# only for its own: ``check`` and ``normalize`` load no module but these.
# ``json`` is imported only where it is used, and ``fractions`` only by
# the modules that make Fractions.
from . import params, registry
from .errors import NotCertifiedError, RankOneError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _load_spec(ref: str) -> params.ParameterSpec:
    try:
        return registry.get_spec(ref)
    except RankOneError:
        pass
    path = Path(ref)
    if not path.exists():
        raise RankOneError(
            f"{ref!r} is neither a registry spec ({', '.join(registry.names())}) "
            "nor a config file"
        )
    try:
        text = path.read_text()
    except (OSError, UnicodeError) as exc:
        raise RankOneError(f"cannot read the config file: {exc}") from None
    return params.parse_spec(text)


def _load_normalized(ref: str) -> params.ParameterSpec:
    """The spec, in its normalized presentation when it is given raw."""
    spec = _load_spec(ref)
    return spec if spec.normalized else params.normalize(spec)


def _fraction(x) -> str:
    """A Fraction as p/q."""
    return f"{x.numerator}/{x.denominator}"


def _json_default(obj):
    """JSON for the result types ``json`` does not know; anything else is a
    defect in a subcommand's payload."""
    if isinstance(obj, params.Value):
        return _plain(obj)
    # a Fraction exists only when its module was loaded
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(obj, fractions.Fraction):
        return _fraction(obj)
    if isinstance(obj, bytes):
        return obj.decode("ascii")
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _plain(value):
    """What ``dataclasses.asdict`` makes of a value: a record as the dict
    of its fields, recursively through tuples and lists."""
    if isinstance(value, params.Value):
        return {name: _plain(getattr(value, name)) for name in value.__match_args__}
    if isinstance(value, (tuple, list)):
        return type(value)(_plain(item) for item in value)
    return value


def _verdict(holds: bool | None) -> int:
    """The exit code of a verdict: 0 when it holds, 1 when it is refuted,
    3 when it is undecided."""
    if holds is None:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if holds else EXIT_NEGATIVE


def _ints(text: str, count: int, form: str) -> tuple[int, ...]:
    """``count`` colon-separated integers, or an input error naming ``form``."""
    try:
        values = tuple(int(v) for v in text.split(":"))
    except ValueError:
        values = ()
    if len(values) != count:
        raise RankOneError(f"bad value {text!r}; expected {form}")
    return values


# ---------------------------------------------------------------------------
# subcommands

Result = tuple[int, dict, list[str]]  # exit code, JSON payload, text lines


def cmd_word(args) -> Result:
    from . import words
    spec = _load_normalized(args.spec)
    if args.at is not None:
        letter, address = words.letter_at(spec, args.n, args.at)
        payload = {
            "n": args.n, "at": args.at, "letter": letter,
            "spacer": address.spacer, "path": list(address.path),
        }
        return EXIT_OK, payload, [str(letter)]
    if args.range is not None:
        a, b = _ints(args.range, 2, "a:b")
        chunk = words.decode(spec, args.n, a, b)
        return (EXIT_OK, {"n": args.n, "range": [a, b], "letters": chunk},
                [chunk.decode("ascii")])
    word = words.build_word(spec, args.n)
    return (EXIT_OK, {"n": args.n, "length": len(word), "letters": word.letters},
            [word.to_text()])


def cmd_check(args) -> Result:
    spec = _load_spec(args.spec)
    payload: dict = {"spec": spec.name or args.spec}
    lines = []
    if not spec.normalized:
        try:
            growth = params.check_rewriting_criterion(spec)
        except RankOneError as exc:
            payload["rewriting_criterion"] = None
            lines.append(f"rewriting criterion: not applicable ({exc})")
        else:
            payload["rewriting_criterion"] = growth
            lines.append(
                f"rewriting criterion: {growth.status}"
                + (f" (R={growth.R_frak}, S={growth.S_frak}, "
                   f"threshold={growth.threshold})" if growth.holds else "")
            )
        spec = params.normalize(spec)
    mode = "numeric" if args.to is not None else "symbolic"
    result = params.check_partially_bounded(spec, mode=mode, up_to=args.to)
    payload["partial_boundedness"] = result
    if result.status == "certified":
        c = result.certificate
        lines.append(
            f"partially bounded: certified R={c.R_frak} S={c.S_frak} "
            f"N={c.N} [{c.verified_mode}]"
        )
    elif result.status == "refuted":
        r = result.refutation
        lines.append(
            f"partially bounded: refuted at stage {r.stage} "
            f"(condition {r.condition}: {r.detail})"
        )
    else:
        lines.append(f"partially bounded: unknown ({result.detail})")
    return _verdict(result.holds), payload, lines


def cmd_orbit(args) -> Result:
    from . import tower, words
    spec = _load_spec(args.spec)
    point = tower.canonicalize(spec, tower.parse_point(args.point))
    bound = words.DEFAULT_CAP // 256  # the trace holds every point, ~300 B each
    if abs(args.steps) > bound:
        raise RankOneError(f"|steps| may be at most {bound}, got {args.steps}")
    step = tower.apply_T if args.steps >= 0 else tower.apply_T_inverse
    points = [str(point)]
    for _ in range(abs(args.steps)):
        point = step(spec, point)
        points.append(str(point))
    return EXIT_OK, {"points": points}, points


def cmd_name(args) -> Result:
    from . import tower
    spec = _load_spec(args.spec)
    point = tower.parse_point(args.point)
    a, b = _ints(args.window, 2, "a:b")
    window = tower.name_window(spec, point, a, b)
    payload = {"anchor": window.anchor, "letters": window.letters}
    return EXIT_OK, payload, [f"anchor:{window.anchor} letters:{window.to_text()}"]


def _build_pair(args, spec) -> analysis.CandidatePair:
    from . import analysis, words
    kind, _, rest = args.y.partition(":")
    if kind == "shift":
        (ell,) = _ints(rest, 1, "shift:<l>")
        return analysis.shift_pair(spec, args.n, ell, args.m, kappa=args.kappa)
    if kind == "corrupt":
        ordinal, length = _ints(rest, 2, "corrupt:<gap>:<len>")
        pair, _ = analysis.corrupt_gap_pair(spec, args.n, args.m, ordinal,
                                            length, kappa=args.kappa)
        return pair
    if kind == "file":
        try:
            letters = Path(rest).read_text().strip().encode("ascii")
        except (OSError, UnicodeError) as exc:
            raise RankOneError(f"cannot read the image file: {exc}") from None
        if letters.translate(None, b"01"):
            raise RankOneError("the image file may hold only the letters 0 and 1")
        x = words.build_word(spec, args.m)
        return analysis.cut_pair(spec, args.n, x, letters, kappa=args.kappa)
    raise RankOneError(f"unknown image source {args.y!r}; "
                       "use shift:<l>, corrupt:<gap>:<len>, or file:<path>")


def cmd_analyze(args) -> Result:
    from . import analysis
    spec = _load_normalized(args.spec)
    pair = _build_pair(args, spec)
    cls = analysis.classify(pair)
    density = analysis.good_density(pair, classification=cls)
    lines = []
    for rec in cls.records:
        rho = rec.rho if rec.rho is not None else "-"
        lines.append(f"i={rec.index} verdict={rec.verdict} rho={rho}")
    ratio = "-" if density.density is None else _fraction(density.density)
    lines.append(f"density={ratio} threshold={_fraction(density.threshold)}")
    payload = {
        "occurrences": list(cls.x_occurrences),
        "records": cls.records,
        "density": density,
    }
    if args.totally is not None:
        report = analysis.classify_totally(pair, args.totally, classification=cls)
        payload["totally"] = report
        for block in report.blocks:
            lines.append(f"block i={block.index} verdict={block.verdict}")
        if report.dichotomy_violations:
            lines.append(
                f"dichotomy violations at {list(report.dichotomy_violations)}"
            )
    return _verdict(density.meets_threshold), payload, lines


def cmd_inverse(args) -> Result:
    from . import inverseiso
    if args.against is None and args.horizon is not None:
        raise RankOneError("--horizon applies only with --against")
    spec = _load_normalized(args.spec)
    if args.against is not None:
        other = _load_normalized(args.against)
        horizon = (inverseiso.GROUPING_HORIZON_PERIODS if args.horizon is None
                   else args.horizon)
        report = inverseiso.check_non_isomorphism(
            spec, other, horizon_periods=horizon
        )
        payload = {
            "criteria_met": report.criteria_met, "status": report.status,
            "witness": report.witness, "detail": report.detail,
        }
        lines = [f"criteria_met={report.criteria_met} status={report.status}"]
        if report.witness is not None:
            w = report.witness
            lines.append(f"witness stage={w.stage} q={w.q}")
            lines.append(f"  t ={list(w.t)}")
            lines.append(f"  t'={list(w.t_prime)}")
        return _verdict(report.holds), payload, lines
    verdict = inverseiso.decide_inverse_isomorphic(spec)
    payload = {
        "inverse_isomorphic": verdict.isomorphic_to_inverse,
        "N": verdict.N,
        "witness": {"refuting_positions": list(verdict.refuting_positions),
                    "detail": verdict.detail},
    }
    lines = [f"inverse_isomorphic={verdict.isomorphic_to_inverse} "
             f"N={verdict.N if verdict.N is not None else '-'}"]
    if verdict.detail:
        lines.append(verdict.detail)
    return _verdict(verdict.isomorphic_to_inverse), payload, lines


def cmd_normalize(args) -> Result:
    text = params.serialize_spec(params.normalize(_load_spec(args.spec)))
    return EXIT_OK, {"config": text}, [text.rstrip("\n")]


def cmd_injectivity(args) -> Result:
    from . import tower
    spec = _load_normalized(args.spec)
    report = tower.verify_injectivity(
        spec, trials=args.trials, m=args.m, seed=args.seed
    )
    lines = [
        f"trials={report.trials} separated={report.separated} "
        f"failures={len(report.failures)}"
    ]
    complete = report.trials == args.trials
    if not complete:
        lines.append(
            f"inconclusive: {report.trials} of {args.trials} trials done; "
            f"{tower.SAME_LEVEL_RETRIES} draws in a row put both points in one level"
        )
    holds = (complete or None) if report.ok else False
    return _verdict(holds), {"report": report}, lines


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankone",
        description="Exact-arithmetic toolkit for rank-one cutting-and-stacking "
        "transformations",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--spec", required=True)
        p.set_defaults(func=func)
        return p

    p = command("word", cmd_word, "print or probe a stage word")
    p.add_argument("--n", type=int, required=True)
    probe = p.add_mutually_exclusive_group()
    probe.add_argument("--at", type=int, help="single letter index (lazy decode)")
    probe.add_argument("--range", help="letter range a:b (lazy decode); "
                       "write --range=a:b when a is negative")

    p = command("check", cmd_check, "partial boundedness / rewriting reports")
    p.add_argument("--to", type=int, help="numeric verification up to stage M")

    p = command("orbit", cmd_orbit, "trace the orbit of a point")
    p.add_argument("--point", required=True, help="n:j:p/q")
    p.add_argument("--steps", type=int, required=True)

    p = command("name", cmd_name, "itinerary window of a point")
    p.add_argument("--point", required=True, help="n:j:p/q")
    p.add_argument("--window", required=True,
                   help="a:b; write --window=a:b when a is negative")

    p = command("analyze", cmd_analyze, "classify occurrences against an image")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="window word stage")
    p.add_argument("--kappa", type=int)
    p.add_argument("--y", required=True,
                   help="shift:<l> | corrupt:<gap>:<len> | file:<path>")
    p.add_argument("--totally", type=int, help="also classify w_m blocks")

    p = command("inverse", cmd_inverse, "inverse-isomorphism verdicts")
    p.add_argument("--against", help="second spec for the non-isomorphism criteria")
    p.add_argument("--horizon", type=int,
                   help="grouping horizon in periods (with --against)")

    command("normalize", cmd_normalize, "print the normalized presentation")

    p = command("injectivity", cmd_injectivity, "sampled name-separation probe")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--m", type=int, default=3)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        if args.format == "json":
            import json

            print(json.dumps(payload, indent=2, default=_json_default))
        else:
            for line in lines:
                print(line)
        return code
    except NotCertifiedError as exc:  # a missing hypothesis, not bad input
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except RankOneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a defect must not read as a refutation (exit 1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
