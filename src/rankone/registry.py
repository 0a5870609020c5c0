"""Built-in example transformations, shipped both raw and normalized."""

from __future__ import annotations

from functools import lru_cache

from .errors import SpecError
from .params import ParameterSpec, normalize, parse_spec, reversed_parameters

_RAW_CONFIGS = {
    "chacon-raw": """\
name: chacon-raw
preperiod: []
cycle: [r=3, s=(0, 1), last=3h+1]
""",
    "hk-raw": """\
name: hk-raw
preperiod: []
cycle: [r=2, s=(0), last=2h+1]
""",
    # spacerless doubling: a finite-measure construction, the stock
    # negative control for the boundedness checks
    "finite-odometer": """\
name: finite-odometer
preperiod: []
cycle: [r=2, s=(0)]
""",
}


@lru_cache(maxsize=None)
def get_spec(name: str) -> ParameterSpec:
    if name in _RAW_CONFIGS:
        return parse_spec(_RAW_CONFIGS[name])
    if name in ("chacon", "hk"):
        return normalize(get_spec(f"{name}-raw")).replace(name=name)
    if name == "chacon-reversed":
        return reversed_parameters(get_spec("chacon")).replace(name=name)
    raise SpecError(
        f"unknown registry spec {name!r}; available: {', '.join(names())}"
    )


def names() -> list[str]:
    return ["chacon-raw", "chacon", "hk-raw", "hk", "chacon-reversed",
            "finite-odometer"]
