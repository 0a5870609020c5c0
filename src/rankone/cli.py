"""Command-line surface.

Exit codes: 0 success or affirmative verdict, 1 refutation or negative
verdict, 2 input error, 3 inconclusive, 4 internal error (a defect in
rankone, never a verdict).
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

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
    try:
        text = Path(ref).read_text()
    except (FileNotFoundError, NotADirectoryError):
        raise RankOneError(
            f"{ref!r} is neither a registry spec ({', '.join(registry.names())}) "
            "nor a config file"
        ) from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte, bad UTF-8
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
    """JSON for the result types ``json`` does not know, one level at a time
    (``json`` calls it again for each nested value); anything else is a
    defect in a subcommand's payload."""
    if isinstance(obj, params.Value):
        return dict(zip(obj.__match_args__, obj._field_values(obj)))
    # a Fraction exists only when its module was loaded
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(obj, fractions.Fraction):
        return _fraction(obj)
    if isinstance(obj, bytes):
        return obj.decode("ascii")
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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
# The command table: each subcommand's help and options, each option as
# (name, type or choices, required, default, help).  Subcommand X runs
# cmd_X, looked up as argv is read.  build_parser makes argparse's parser
# from the table, and _parse reads a well-formed argv without argparse.

OPTIONS = (("format", ("text", "json"), False, "text", None),
           ("seed", int, False, 0, None))
SPEC, POINT = ("spec", str, True, None, None), ("point", str, True, None, "n:j:p/q")
COMMANDS = {
    "word": ("print or probe a stage word", (
        SPEC, ("n", int, True, None, None),
        ("at", int, False, None, "single letter index (lazy decode)"),
        ("range", str, False, None, "letter range a:b (lazy decode); "
         "write --range=a:b when a is negative"))),
    "check": ("partial boundedness / rewriting reports", (
        SPEC, ("to", int, False, None, "numeric verification up to stage M"))),
    "orbit": ("trace the orbit of a point", (
        SPEC, POINT, ("steps", int, True, None, None))),
    "name": ("itinerary window of a point", (
        SPEC, POINT, ("window", str, True, None,
                      "a:b; write --window=a:b when a is negative"))),
    "analyze": ("classify occurrences against an image", (
        SPEC, ("n", int, True, None, None),
        ("m", int, True, None, "window word stage"),
        ("kappa", int, False, None, None),
        ("y", str, True, None, "shift:<l> | corrupt:<gap>:<len> | file:<path>"),
        ("totally", int, False, None, "also classify w_m blocks"))),
    "inverse": ("inverse-isomorphism verdicts", (
        SPEC, ("against", str, False, None,
               "second spec for the non-isomorphism criteria"),
        ("horizon", int, False, None,
         "grouping horizon in periods (with --against)"))),
    "normalize": ("print the normalized presentation", (SPEC,)),
    "injectivity": ("sampled name-separation probe", (
        SPEC, ("trials", int, False, 100, None), ("m", int, False, 3, None))),
}
EXCLUSIVE = ("at", "range")  # word's two probes: one or neither


def build_parser():
    """The argparse parser of the command table.  It reads each argv that
    ``_parse`` refuses, so it prints the help and every usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rankone",
        description="Exact-arithmetic toolkit for rank-one cutting-and-stacking "
        "transformations",
    )
    targets = [(parser, OPTIONS)]
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help)
        p.set_defaults(func=globals()[f"cmd_{command}"])
        targets.append((p, options))
    for target, options in targets:
        group = None
        for name, kind, required, default, help in options:
            if name in EXCLUSIVE:
                group = group or target.add_mutually_exclusive_group()
            (group if name in EXCLUSIVE else target).add_argument(
                f"--{name}", required=required, default=default, help=help,
                **{"choices" if isinstance(kind, tuple) else "type": kind})
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, read in one pass
    over the command table, or None for an argv that argparse must read: an
    abbreviation, a repeat, ``--``, ``-h`` or a value argparse refuses."""
    options, args, tokens = OPTIONS, {}, iter(argv)
    for token in tokens:
        if "command" not in args and token in COMMANDS:
            options = COMMANDS[token][1]
            args.update(command=token, func=globals()[f"cmd_{token}"])
            continue
        flag, eq, value = token.partition("=")
        option = next((o for o in options if f"--{o[0]}" == flag), None)
        if option is None or option[0] in args:
            return None
        if not eq:
            value = next(tokens, None)
            # argparse takes a separate value that starts with "-" for an
            # option unless it matches ^-\d+$ (\d is isdecimal: not "²")
            if value is None or value[:1] == "-" and not value[1:].isdecimal():
                return None
        name, kind = option[:2]
        try:  # a value outside the choices has no index
            args[name] = kind(value) if callable(kind) else kind[kind.index(value)]
        except ValueError:
            return None
    missing = [o for o in OPTIONS + options if o[0] not in args]
    if ("command" not in args or any(o[2] for o in missing)
            or all(name in args for name in EXCLUSIVE)):
        return None
    return SimpleNamespace(**args, **{o[0]: o[3] for o in missing})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or build_parser().parse_args(argv)
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
