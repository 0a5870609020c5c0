"""Exact-arithmetic toolkit for rank-one cutting-and-stacking transformations:
words, tower geometry, occurrence classification, and inverse-isomorphism
decisions.

The names below, and the submodules themselves, are imported on first use
(PEP 562), so ``import rankone`` loads no submodule and a program pays only
for the modules it reads."""

from importlib import import_module as _import_module

_EXPORTS = {
    "analysis": ("CandidatePair", "check_ab_law", "classify",
                 "classify_totally", "good_density", "propagate_goodness",
                 "select_kappa"),
    "errors": ("AmbiguousContainmentError", "CapExceededError",
               "NormalizationError", "NotCertifiedError", "ParseError",
               "RankOneError", "SpecError", "UndefinedOrbitError"),
    "inverseiso": ("check_non_isomorphism", "decide_inverse_isomorphic",
                   "group_stages", "incompatible", "reverse", "stable_rewrite",
                   "star"),
    "params": ("ParameterSpec", "PartialBoundednessCertificate", "SpacerExpr",
               "StageRule", "certified", "check_rewriting_criterion",
               "check_partially_bounded", "heights", "normalize", "parse_spec",
               "reversed_parameters", "rule_at", "serialize_spec"),
    "registry": ("get_spec",),
    "tower": ("TowerPoint", "apply_T", "apply_T_inverse", "canonicalize",
              "in_base0", "level_width", "name_window", "refine",
              "sample_point", "verify_injectivity"),
    "words": ("NameWindow", "build_word", "builds", "decode",
              "expected_occurrences", "letter_at", "occurrences"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_HOME]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_HOME[name]}")
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__))
