"""Platoon parameters, controller taxonomy and spacing-error models.

A platoon of identical vehicles is described by ten physical parameters.
Each supported combination of controller type, communication configuration
and spacing strategy reduces to one canonical second-order spacing-error
equation

    z_i'' + a1*z_i' + a0*z_i = b1*z_{i-1}' + b0*z_{i-1}

relating the spacing error of a vehicle to the one ahead of it.  The four
coefficients are positive combinations of the physical parameters; which
combination applies is decided by :func:`error_model`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class ControllerType(enum.Enum):
    AUTONOMOUS = "autonomous"          # on-board sensing only
    NON_AUTONOMOUS = "non_autonomous"  # inter-vehicle communication


class Configuration(enum.Enum):
    UNIDIRECTIONAL = "unidirectional"  # reacts to the preceding vehicle only
    BIDIRECTIONAL = "bidirectional"    # reacts to both neighbours


class Strategy(enum.Enum):
    CONSTANT_SPACING = "constant_spacing"
    VARIABLE_SPACING = "variable_spacing"    # constant time headway
    VAR_TIME_HEADWAY = "var_time_headway"    # headway on relative velocity


@dataclass(frozen=True)
class PlatoonParams:
    """The ten physical parameters of a platoon of identical vehicles.

    ``cd`` takes part in validity checking but appears in none of the
    dynamic models; it is carried along for completeness.
    """

    n: int      # number of vehicles
    m: float    # vehicle mass [kg]
    k: float    # disturbance constant, gain on relative position [N/m]
    c: float    # fluctuation constant, gain on relative velocity [N*s/m]
    h: float    # time headway [s]
    ch: float   # fluctuation gain due to time headway [-]
    vd: float   # desired platoon speed [m/s]
    h0: float   # nominal time headway [s]
    ca: float   # additional fluctuation w.r.t. the platoon leader [N*s/m]
    cd: float   # additional fluctuation w.r.t. "virtual" mass [N*s/m]

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError("n must be an integer")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a real number")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)


_FLOAT_FIELDS = ("m", "k", "c", "h", "ch", "vd", "h0", "ca", "cd")

# Validity conjuncts ``bound < field``, checked in this order; the first
# failure is reported.
_CONJUNCTS = (*((name, 0.0) for name in _FLOAT_FIELDS), ("n", 1))


class InvalidPlatoonError(ValueError):
    """A platoon parameter set violates one of the validity conjuncts."""

    def __init__(self, conjunct: str):
        self.conjunct = conjunct
        super().__init__(f"{conjunct} violated")


class UnsupportedControllerError(ValueError):
    """No dynamic model exists for the requested controller combination."""


def failed_conjunct(p: PlatoonParams) -> str | None:
    """First violated validity conjunct (``"0 < m"`` style), or None."""
    for name, bound in _CONJUNCTS:
        if not getattr(p, name) > bound:
            return f"{bound:g} < {name}"
    return None


def is_valid_platoon(p: PlatoonParams) -> bool:
    """True iff all parameters are strictly positive and n > 1.

    Total function: boundary values (e.g. ``m == 0``) are simply invalid.
    """
    return failed_conjunct(p) is None


def validate_platoon(p: PlatoonParams) -> None:
    """Raise :class:`InvalidPlatoonError` naming the first failed conjunct."""
    conjunct = failed_conjunct(p)
    if conjunct is not None:
        raise InvalidPlatoonError(conjunct)


@dataclass(frozen=True)
class ControllerSpec:
    """A controller selection plus the platoon it runs on."""

    controller_type: ControllerType
    configuration: Configuration
    strategy: Strategy
    params: PlatoonParams


@dataclass(frozen=True)
class ErrorModel:
    """Coefficients of ``z'' + a1*z' + a0*z = b1*zp' + b0*zp``.

    The leading coefficient is normalised to 1; a0, b0 are in 1/s^2 and
    a1, b1 in 1/s.  Built from a valid platoon all four are positive.
    """

    a0: float
    a1: float
    b0: float
    b1: float


_AUT, _NON = ControllerType.AUTONOMOUS, ControllerType.NON_AUTONOMOUS
_UNI, _BI = Configuration.UNIDIRECTIONAL, Configuration.BIDIRECTIONAL
_CS, _VS, _VTH = Strategy.CONSTANT_SPACING, Strategy.VARIABLE_SPACING, Strategy.VAR_TIME_HEADWAY

# The coefficient map: ``(a0, a1, b0, b1)`` of each model as a function of
# an object with the parameter attributes, a PlatoonParams or a monitor
# Trace (whose columns carry the same names).  Keys as in :func:`_model_key`.
_MODELS = {
    (_AUT, _UNI, _CS): lambda p: (p.k / p.m, p.c / p.m, p.k / p.m, p.c / p.m),
    (_AUT, _UNI, _VS): lambda p: (p.k / p.m, (p.c + p.k * p.h) / p.m, p.k / p.m, p.c / p.m),
    (_AUT, _UNI, _VTH): lambda p: (p.k / p.m, (p.c + p.k * p.h0 + p.k * p.ch * p.vd) / p.m,
                                   p.k / p.m, (p.c + p.k * p.ch * p.vd) / p.m),
    (_AUT, _BI, _CS): lambda p: ((2.0 * p.k) / p.m, (2.0 * p.c) / p.m, p.k / p.m, p.c / p.m),
    (_AUT, _BI, _VS): lambda p: ((2.0 * p.k) / p.m, (2.0 * p.c + p.k * p.h) / p.m, p.k / p.m, p.c / p.m),
    _NON: lambda p: (p.k / p.m, (p.c + p.ca) / p.m, p.k / p.m, p.c / p.m),
}


def _model_key(ct: ControllerType, cf: Configuration, st: Strategy):
    """Key in :data:`_MODELS` of a combination's model: non-autonomous
    controllers use leader-velocity feedback whatever their configuration
    and strategy; autonomous bidirectional var_time_headway has none."""
    return ct if ct is _NON else (ct, cf, st)


def _raw_error_model(spec: ControllerSpec) -> ErrorModel:
    # Coefficient formulas without validity checking; division by a zero
    # mass propagates as ZeroDivisionError to the caller.
    coefficients = _MODELS.get(_model_key(spec.controller_type, spec.configuration, spec.strategy))
    if coefficients is None:
        raise UnsupportedControllerError(
            "no model for an autonomous bidirectional controller with "
            "variable time headway"
        )
    return ErrorModel(*coefficients(spec.params))


def error_model(spec: ControllerSpec) -> ErrorModel:
    """Spacing-error coefficients for the selected controller, from the
    coefficient map :data:`_MODELS`.

    Non-autonomous controllers always use the leader-velocity feedback
    model regardless of configuration and strategy.  Raises
    :class:`InvalidPlatoonError` for invalid platoons and
    :class:`UnsupportedControllerError` for the one combination with no
    model (autonomous, bidirectional, var_time_headway).
    """
    validate_platoon(spec.params)
    return _raw_error_model(spec)


def model_label(spec: ControllerSpec) -> str:
    """Short human-readable name of the selected dynamic model."""
    if spec.controller_type is ControllerType.NON_AUTONOMOUS:
        return "non-autonomous leader-velocity feedback"
    return "autonomous {} {}".format(
        spec.configuration.value, spec.strategy.value.replace("_", "-")
    )


def controller_spec_to_dict(spec: ControllerSpec) -> dict:
    """JSON-ready dict in the documented spec-file schema."""
    p = spec.params
    return {
        "controller_type": spec.controller_type.value,
        "configuration": spec.configuration.value,
        "strategy": spec.strategy.value,
        "params": {"n": p.n, **{name: getattr(p, name) for name in _FLOAT_FIELDS}},
    }


def controller_spec_from_dict(obj) -> ControllerSpec:
    """Parse the spec-file schema; rejects unknown keys and bad values."""
    if not isinstance(obj, dict):
        raise ValueError("controller spec must be a JSON object")
    expected = {"controller_type", "configuration", "strategy", "params"}
    _check_keys(obj, expected, "controller spec")
    ct = _parse_enum(ControllerType, obj["controller_type"], "controller_type")
    cf = _parse_enum(Configuration, obj["configuration"], "configuration")
    st = _parse_enum(Strategy, obj["strategy"], "strategy")
    raw = obj["params"]
    if not isinstance(raw, dict):
        raise ValueError("params must be a JSON object")
    _check_keys(raw, {"n", *_FLOAT_FIELDS}, "params")
    n = raw["n"]
    if type(n) is not int:
        raise ValueError("params.n: expected an integer")
    if n < 0:
        raise ValueError("params.n: must be >= 0")
    values = {}
    for name in _FLOAT_FIELDS:
        v = raw[name]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"params.{name}: expected a number")
        try:
            v = float(v)
        except OverflowError:  # an integer literal beyond the float range
            v = math.inf
        if not math.isfinite(v):
            raise ValueError(f"params.{name}: must be finite")
        values[name] = v
    return ControllerSpec(ct, cf, st, PlatoonParams(n=n, **values))


def _check_keys(obj: dict, expected: set, label: str) -> None:
    missing = expected - obj.keys()
    if missing:
        raise ValueError(f"{label}: missing key '{sorted(missing)[0]}'")
    extra = obj.keys() - expected
    if extra:
        raise ValueError(f"{label}: unknown key '{sorted(extra)[0]}'")


def _parse_enum(enum_cls, value, label: str):
    try:
        return enum_cls(value)
    except ValueError:
        allowed = "|".join(e.value for e in enum_cls)
        raise ValueError(f"{label}: expected one of {allowed}, got {value!r}") from None
