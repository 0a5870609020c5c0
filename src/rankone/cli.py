"""Command-line surface.

Exit codes: 0 success or affirmative verdict, 1 refutation or negative
verdict, 2 input error, 3 inconclusive, 4 internal error (a defect in
rankone, never a verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from pathlib import Path

from . import analysis, inverseiso, params, registry, tower, words
from .errors import RankOneError

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


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bytes):
        return obj.decode("ascii")
    return obj


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(_jsonable(payload), indent=2))
    else:
        for line in text_lines:
            print(line)


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


def cmd_word(args) -> int:
    spec = _load_normalized(args.spec)
    if args.at is not None:
        letter, address = words.letter_at(spec, args.n, args.at)
        payload = {
            "n": args.n, "at": args.at, "letter": letter,
            "spacer": address.spacer, "path": list(address.path),
        }
        _emit(args, payload, [str(letter)])
        return EXIT_OK
    if args.range is not None:
        a, b = _ints(args.range, 2, "a:b")
        chunk = words.decode(spec, args.n, a, b)
        _emit(args, {"n": args.n, "range": [a, b], "letters": chunk},
              [chunk.decode("ascii")])
        return EXIT_OK
    word = words.build_word(spec, args.n)
    _emit(args, {"n": args.n, "length": len(word), "letters": word.letters},
          [word.to_text()])
    return EXIT_OK


def cmd_check(args) -> int:
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
                   f"threshold={growth.threshold})" if growth else "")
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
        code = EXIT_OK
    elif result.status == "refuted":
        r = result.refutation
        lines.append(
            f"partially bounded: refuted at stage {r.stage} "
            f"(condition {r.condition}: {r.detail})"
        )
        code = EXIT_NEGATIVE
    else:
        lines.append(f"partially bounded: unknown ({result.detail})")
        code = EXIT_INCONCLUSIVE
    _emit(args, payload, lines)
    return code


def cmd_orbit(args) -> int:
    spec = _load_spec(args.spec)
    point = tower.parse_point(args.point)
    step = tower.apply_T if args.steps >= 0 else tower.apply_T_inverse
    trace = [tower.canonicalize(spec, point)]
    for _ in range(abs(args.steps)):
        trace.append(step(spec, trace[-1]))
    payload = {"points": [str(p) for p in trace]}
    _emit(args, payload, (str(p) for p in trace))
    return EXIT_OK


def cmd_name(args) -> int:
    spec = _load_spec(args.spec)
    point = tower.parse_point(args.point)
    a, b = _ints(args.window, 2, "a:b")
    window = tower.name_window(spec, point, a, b)
    payload = {"anchor": window.anchor, "letters": window.letters}
    _emit(args, payload, [f"anchor:{window.anchor} letters:{window.to_text()}"])
    return EXIT_OK


def _build_pair(args, spec) -> analysis.CandidatePair:
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


def cmd_analyze(args) -> int:
    spec = _load_normalized(args.spec)
    pair = _build_pair(args, spec)
    cls = analysis.classify(pair)
    density = analysis.good_density(pair, classification=cls)
    lines = []
    for rec in cls.records:
        rho = rec.rho if rec.rho is not None else "-"
        lines.append(f"i={rec.index} verdict={rec.verdict} rho={rho}")
    if density.density is None:
        lines.append("density=- threshold="
                     f"{density.threshold.numerator}/{density.threshold.denominator}")
    else:
        lines.append(
            f"density={density.density.numerator}/{density.density.denominator}"
            f" threshold={density.threshold.numerator}/{density.threshold.denominator}"
        )
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
    _emit(args, payload, lines)
    if density.meets_threshold is None:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if density.meets_threshold else EXIT_NEGATIVE


def cmd_inverse(args) -> int:
    spec = _load_normalized(args.spec)
    if args.against is not None:
        other = _load_normalized(args.against)
        report = inverseiso.check_non_isomorphism(
            spec, other, horizon_periods=args.horizon
        )
        payload = {
            "criteria_met": report.criteria_met, "status": report.status,
            "witness": report.witness, "detail": report.detail,
        }
        lines = [f"criteria_met={report.criteria_met} status={report.status}"]
        if report.witness:
            w = report.witness
            lines.append(f"witness stage={w.stage} q={w.q}")
            lines.append(f"  t ={list(w.t)}")
            lines.append(f"  t'={list(w.t_prime)}")
        _emit(args, payload, lines)
        if report.criteria_met:
            return EXIT_OK
        return (EXIT_NEGATIVE if report.status == "condition1_fails"
                else EXIT_INCONCLUSIVE)
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
    _emit(args, payload, lines)
    return EXIT_OK if verdict.isomorphic_to_inverse else EXIT_NEGATIVE


def cmd_normalize(args) -> int:
    spec = _load_spec(args.spec)
    normalized = params.normalize(spec)
    text = params.serialize_spec(normalized)
    _emit(args, {"config": text}, [text.rstrip("\n")])
    return EXIT_OK


def cmd_injectivity(args) -> int:
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
    _emit(args, {"report": report}, lines)
    if not report.ok:
        return EXIT_NEGATIVE
    return EXIT_OK if complete else EXIT_INCONCLUSIVE


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

    p = sub.add_parser("word", help="print or probe a stage word")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--at", type=int, help="single letter index (lazy decode)")
    p.add_argument("--range", help="letter range a:b (lazy decode)")
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("check", help="partial boundedness / rewriting reports")
    p.add_argument("--spec", required=True)
    p.add_argument("--to", type=int, help="numeric verification up to stage M")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("orbit", help="trace the orbit of a point")
    p.add_argument("--spec", required=True)
    p.add_argument("--point", required=True, help="n:j:p/q")
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("name", help="itinerary window of a point")
    p.add_argument("--spec", required=True)
    p.add_argument("--point", required=True, help="n:j:p/q")
    p.add_argument("--window", required=True, help="a:b")
    p.set_defaults(func=cmd_name)

    p = sub.add_parser("analyze", help="classify occurrences against an image")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="window word stage")
    p.add_argument("--kappa", type=int)
    p.add_argument("--y", required=True,
                   help="shift:<l> | corrupt:<gap>:<len> | file:<path>")
    p.add_argument("--totally", type=int, help="also classify w_m blocks")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("inverse", help="inverse-isomorphism verdicts")
    p.add_argument("--spec", required=True)
    p.add_argument("--against", help="second spec for the non-isomorphism criteria")
    p.add_argument("--horizon", type=int,
                   default=inverseiso.GROUPING_HORIZON_PERIODS)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("normalize", help="print the normalized presentation")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("injectivity", help="sampled name-separation probe")
    p.add_argument("--spec", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--m", type=int, default=3)
    p.set_defaults(func=cmd_injectivity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RankOneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a defect must not read as a refutation (exit 1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
