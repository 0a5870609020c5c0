"""Exact-arithmetic toolkit for rank-one cutting-and-stacking transformations:
words, tower geometry, occurrence classification, and inverse-isomorphism
decisions."""

from .analysis import (
    CandidatePair,
    check_ab_law,
    classify,
    classify_totally,
    good_density,
    propagate_goodness,
    select_kappa,
)
from .errors import (
    AmbiguousContainmentError,
    CapExceededError,
    NormalizationError,
    NotCertifiedError,
    ParseError,
    RankOneError,
    SpecError,
    UndefinedOrbitError,
)
from .inverseiso import (
    check_non_isomorphism,
    decide_inverse_isomorphic,
    group_stages,
    incompatible,
    reverse,
    stable_rewrite,
    star,
)
from .params import (
    ParameterSpec,
    PartialBoundednessCertificate,
    SpacerExpr,
    StageRule,
    certified,
    check_rewriting_criterion,
    check_partially_bounded,
    heights,
    normalize,
    parse_spec,
    reversed_parameters,
    rule_at,
    serialize_spec,
)
from .registry import get_spec
from .tower import (
    TowerPoint,
    apply_T,
    apply_T_inverse,
    canonicalize,
    in_base0,
    level_width,
    name_window,
    refine,
    sample_point,
    verify_injectivity,
)
from .words import (
    NameWindow,
    build_word,
    builds,
    decode,
    expected_occurrences,
    letter_at,
    occurrences,
)

__version__ = "0.1.0"
