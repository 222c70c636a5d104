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
import json
import math
import operator
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


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
    dynamic models; it is carried along for completeness.  Each field is
    read through :func:`_check_value`: ``n`` as any integer, so that a
    trace's in-memory columns may hold a negative ``n`` for P1 to report,
    and the nine floats as finite numbers.
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
        for name, kind in _PARAM_KINDS.items():
            object.__setattr__(self, name, _check_value(kind, getattr(self, name), f"{name} "))


_FLOAT_FIELDS = ("m", "k", "c", "h", "ch", "vd", "h0", "ca", "cd")

# The field kinds of a spec file, as _check_value takes them: the enums, and
# the params object's fields in PlatoonParams order.  The trace schema
# (monitor._SCHEMA) takes its kinds from these tables, so a spec file and a
# trace line admit the same values.
_SPEC_ENUMS = {"controller_type": ControllerType, "configuration": Configuration,
               "strategy": Strategy}
_PARAM_KINDS = {"n": int, **dict.fromkeys(_FLOAT_FIELDS, float)}
_INT64_MAX = 2**63 - 1


def _check_value(kind, value, prefix: str, schema: bool = False):
    """``value`` as a field of ``kind``, the one rule for spec files,
    :class:`PlatoonParams`, trace lines and the numbers that public calls
    take: an enum (the member with that value), ``int`` (an int or a numpy
    integer, read through ``operator.index``) or ``float`` (a Python or
    numpy real number, read through ``float``, which must be finite; an
    integer beyond the float range is not), never a bool.  ``schema`` marks
    a field of a spec file or a trace line: an int must lie in
    [0, 2^63-1], and a refusal does not repeat the value, which a call
    argument's does (``got 2.5``).  Other ranges are the caller's to test.
    Raises ValueError with the reason after the caller's ``prefix``, which
    names the field or argument."""
    if isinstance(kind, enum.EnumMeta):
        try:
            return kind(value)
        except ValueError:
            raise ValueError(f"{prefix}must be one of {'|'.join(e.value for e in kind)}") from None
    if not isinstance(value, bool):
        if kind is int:
            try:
                value = operator.index(value)
            except TypeError:
                pass
            else:
                if schema and not 0 <= value <= _INT64_MAX:
                    bound = ">= 0" if value < 0 else f"<= {_INT64_MAX}"
                    raise ValueError(f"{prefix}must be {bound}")
                return value
        elif isinstance(value, (int, float, np.integer, np.floating)):
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ValueError(f"{prefix}must be finite")
            return value
    got = "" if schema else f", got {value!r}"
    raise ValueError(f"{prefix}must be {'an integer' if kind is int else 'a number'}{got}")


def _decode(text: str):
    """The JSON value of ``text``: the one decode of spec files and of the
    trace reader's per-line pass, ``json.loads`` with two structure rules
    that RFC 8259 lets a receiver make.  An object that repeats a name is
    refused, naming it, and so is a value nested deeper than the decoder's
    recursion allows.  ``NaN`` and ``Infinity`` decode to floats, which
    :func:`_check_value` refuses as it does every non-finite number.
    Raises ValueError ``invalid JSON (<reason>)``."""
    try:
        return json.loads(text, object_pairs_hook=_unique_names)
    except RecursionError:
        raise ValueError("invalid JSON (nested too deep)") from None
    except ValueError as exc:
        raise ValueError(f"invalid JSON ({exc})") from None


def _unique_names(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(name for name, _ in pairs)
        raise ValueError(f"duplicate key {next(name for name in counts if counts[name] > 1)!r}")
    return obj


def _check_object(obj, keys, name: str, prefix: str) -> None:
    """Raise ValueError unless ``obj`` is a JSON object with exactly ``keys``,
    naming after ``prefix`` its first unknown key, else the first missing."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown = [key for key in obj if key not in keys]
    missing = [key for key in keys if key not in obj]
    if unknown or missing:
        raise ValueError(prefix + (f"unknown key {unknown[0]!r}" if unknown
                                   else f"missing key {missing[0]!r}"))


@contextmanager
def _allocating(what: str, count: int, unit: str):
    """Where numpy refuses an array that the block makes, as too large for
    its index range (ValueError, or OverflowError for a count beyond it) or
    for the memory there is (MemoryError), raise MemoryError: ``what`` of
    ``count`` ``unit`` is too large to allocate, the count in ``.6g`` form,
    or in full beyond the float range.  The one message of a run, a sweep
    or a trace that cannot be held."""
    try:
        yield
    except (ValueError, OverflowError, MemoryError):
        text = f"{count:.6g}" if count < 1e308 else str(count)
        raise MemoryError(f"{what} of {text} {unit} is too large to allocate") from None


# Validity conjuncts ``bound < field``, checked in this order; the first
# failure is reported.  A field must also be finite: PlatoonParams refuses
# other values, but a monitor Trace's columns can hold them, so each check
# is ``bound < field < inf`` and names the conjunct ``bound < field``.
_CONJUNCTS = (*((name, 0.0) for name in _FLOAT_FIELDS), ("n", 1))


class InvalidPlatoonError(ValueError):
    """A platoon parameter set violates one of the validity conjuncts."""

    def __init__(self, conjunct: str):
        self.conjunct = conjunct
        super().__init__(f"{conjunct} violated")


class UnsupportedControllerError(ValueError):
    """No dynamic model exists for the requested controller combination."""


def failed_conjunct(p: PlatoonParams) -> str | None:
    """First violated validity conjunct (``"0 < m"`` style), or None.

    ``p`` is anything with the parameter attributes: a PlatoonParams, or a
    one-event monitor Trace, whose columns carry the same names."""
    for name, bound in _CONJUNCTS:
        if not bound < getattr(p, name) < math.inf:
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
    a1, b1 in 1/s.  Built from a valid platoon all four are positive.  By
    the Laplace transform the model is also the adjacent-error transfer
    function ``H(s) = (b1*s + b0) / (s^2 + a1*s + a0)``, whose formula
    ``str`` gives.
    """

    a0: float
    a1: float
    b0: float
    b1: float

    def __str__(self):
        return f"H(s) = ({self.b1:g}*s + {self.b0:g}) / (s^2 + {self.a1:g}*s + {self.a0:g})"


_AUT, _NON = ControllerType.AUTONOMOUS, ControllerType.NON_AUTONOMOUS
_UNI, _BI = Configuration.UNIDIRECTIONAL, Configuration.BIDIRECTIONAL
_CS, _VS, _VTH = Strategy.CONSTANT_SPACING, Strategy.VARIABLE_SPACING, Strategy.VAR_TIME_HEADWAY

# The classic controller: the one with the ``w^2 > 2k/m`` bound and a
# vehicle-level state-space form (simulate.simulate_state_space).
_CLASSIC = (_AUT, _UNI, _CS)

# The coefficient map: ``(a0, a1, b0, b1)`` of each model as a function of
# an object with the parameter attributes: a PlatoonParams for error_model,
# or the monitor's columns of the same names for its P2 (a trace's, or one
# event's as one-element columns).  Keys as in :func:`_model_key`.
# A quotient used twice, ``k/m`` or ``c/m``, is divided once and both
# coefficients are that one value: on a trace, one array, so no caller may
# write a coefficient array in place.
_MODELS = {
    _CLASSIC: lambda p: ((km := p.k / p.m), (cm := p.c / p.m), km, cm),
    (_AUT, _UNI, _VS): lambda p: ((km := p.k / p.m), (p.c + p.k * p.h) / p.m, km, p.c / p.m),
    (_AUT, _UNI, _VTH): lambda p: ((km := p.k / p.m),
                                   (p.c + p.k * p.h0 + p.k * p.ch * p.vd) / p.m,
                                   km, (p.c + p.k * p.ch * p.vd) / p.m),
    (_AUT, _BI, _CS): lambda p: (2 * (km := p.k / p.m), 2 * (cm := p.c / p.m), km, cm),
    (_AUT, _BI, _VS): lambda p: (2 * (km := p.k / p.m), (2 * p.c + p.k * p.h) / p.m, km, p.c / p.m),
    _NON: lambda p: ((km := p.k / p.m), (p.c + p.ca) / p.m, km, p.c / p.m),
}


def _model_key(ct: ControllerType, cf: Configuration, st: Strategy):
    """Key in :data:`_MODELS` of a combination's model: non-autonomous
    controllers use leader-velocity feedback whatever their configuration
    and strategy; autonomous bidirectional var_time_headway has none."""
    return ct if ct is _NON else (ct, cf, st)


# The reason of the one combination with no model, as error_model raises it
# and as the monitor reports an event of that combination.
_NO_MODEL = "no model for an autonomous bidirectional controller with variable time headway"


def error_model(spec: ControllerSpec) -> ErrorModel:
    """Spacing-error coefficients for the selected controller, from the
    coefficient map :data:`_MODELS`.

    Non-autonomous controllers always use the leader-velocity feedback
    model regardless of configuration and strategy.  Raises
    :class:`InvalidPlatoonError` for invalid platoons and
    :class:`UnsupportedControllerError` (:data:`_NO_MODEL`) for the one
    combination with no model (autonomous, bidirectional,
    var_time_headway).  The monitor's P2 takes its coefficients from the
    same map, without the validity check, through its own model table
    (``monitor._MODEL_OF``).
    """
    validate_platoon(spec.params)
    coefficients = _MODELS.get(_model_key(spec.controller_type, spec.configuration, spec.strategy))
    if coefficients is None:
        raise UnsupportedControllerError(_NO_MODEL)
    return ErrorModel(*coefficients(spec.params))


def model_label(spec: ControllerSpec) -> str:
    """Short human-readable name of the selected dynamic model."""
    if spec.controller_type is ControllerType.NON_AUTONOMOUS:
        return "non-autonomous leader-velocity feedback"
    return "autonomous {} {}".format(
        spec.configuration.value, spec.strategy.value.replace("_", "-")
    )


def controller_spec_to_dict(spec: ControllerSpec) -> dict:
    """JSON-ready dict in the documented spec-file schema."""
    return {**{key: getattr(spec, key).value for key in _SPEC_ENUMS},
            "params": {key: getattr(spec.params, key) for key in _PARAM_KINDS}}


def controller_spec_from_dict(obj) -> ControllerSpec:
    """Parse the spec-file schema; rejects unknown keys and bad values."""
    _check_object(obj, (*_SPEC_ENUMS, "params"), "controller spec", "controller spec: ")
    enums = [_check_value(kind, obj[key], f"{key}: ") for key, kind in _SPEC_ENUMS.items()]
    raw = obj["params"]
    _check_object(raw, _PARAM_KINDS, "params", "params: ")
    params = [_check_value(kind, raw[key], f"params.{key}: ", schema=True)
              for key, kind in _PARAM_KINDS.items()]
    return ControllerSpec(*enums, PlatoonParams(*params))
