"""Offline monitoring of logged platoon-controller executions.

An execution is a finite sequence of events; each event carries the full
parameter tuple of the platoon plus the angular frequency ``w`` observed
at that instant.  The stability contract is "globally P1 and P2":

* P1 - the parameters form a valid platoon;
* P2 - ``w > 0`` and ``Q(w^2) > 0`` for the event's controller model
  (for the unidirectional constant-spacing controller this is literally
  ``0 < w  and  2k/m < w^2``).

:func:`run_monitor` checks every event, reports the earliest violation
(P1 before P2 when both fail on one event) and counts all failures of
each predicate across the whole trace.

Traces are stored column-wise (one numpy array per field) so the scan is
a handful of vectorised passes; :class:`Event` objects are materialised
only on demand.  The per-event predicates :func:`check_p1` and
:func:`check_p2` agree with the vectorised scan by construction: the
conjuncts, the coefficient map, ``Q`` and P2 are each written once, as
arithmetic that runs on floats and arrays alike.  P2 (:func:`_p2`) is
overflow-safe: where ``Q(w^2)`` evaluated as written is nan (``w^4`` or a
coefficient square overflowed to inf - inf), it is evaluated again with
time rescaled by the power of two ``2**e`` that brings w into [0.5, 1).
That scaling is exact and leaves H, hence the sign of Q, unchanged.

Trace file format: line-delimited JSON, UTF-8, LF, one event per line:

    {"i":0,"ct":"autonomous","cf":"unidirectional","st":"constant_spacing",
     "n":10,"m":1000.0,"k":2000.0,"c":400.0,"h":1.0,"ch":1.0,"vd":25.0,
     "h0":1.0,"ca":50.0,"cd":50.0,"w":3.0}

Malformed lines abort parsing with the offending line number; the monitor
refuses such traces rather than skipping lines.

Files are read and written a chunk of events at a time.  The writer
formats each column of a chunk in one call and joins the lines; its bytes
are those of one ``json.dumps`` per event.  The reader decodes a chunk's
lines and checks the chunk column by column (keys, types, indices, enum
names, ranges, finiteness).  A chunk that fails any of these checks is
parsed again line by line by :func:`_validate_lines`, the one source of
error messages, so the first bad line is named exactly as a line-by-line
reader would name it.  Only the parsed columns of earlier chunks are kept.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from itertools import chain, islice, product
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .model import (
    _CONJUNCTS,
    _FLOAT_FIELDS as _PARAM_KEYS,
    _MODELS,
    Configuration,
    ControllerSpec,
    ControllerType,
    ErrorModel,
    PlatoonParams,
    Strategy,
    UnsupportedControllerError,
    _model_key,
    _raw_error_model,
    error_model,
    failed_conjunct,
    is_valid_platoon,
)
from .frequency import _time_scaled, stability_constraint

_CT_VALUES = tuple(ControllerType)
_CF_VALUES = tuple(Configuration)
_ST_VALUES = tuple(Strategy)
_CT_CODE = {e.value: i for i, e in enumerate(_CT_VALUES)}
_CF_CODE = {e.value: i for i, e in enumerate(_CF_VALUES)}
_ST_CODE = {e.value: i for i, e in enumerate(_ST_VALUES)}

_EVENT_KEYS = ("i", "ct", "cf", "st", "n", *_PARAM_KEYS, "w")

# Position in model._MODELS of the model of each controller combination,
# indexed by its code ``(ct * 2 + cf) * 3 + st``; -1 where none exists.
_MODEL_OF = np.array([list(_MODELS).index(key) if (key := _model_key(*combo)) in _MODELS else -1
                      for combo in product(_CT_VALUES, _CF_VALUES, _ST_VALUES)], dtype=np.int8)


class TraceParseError(ValueError):
    """A trace file line failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class Event:
    """One monitoring sample: position in the trace, controller, frequency."""

    index: int
    spec: ControllerSpec
    omega: float


@dataclass(frozen=True)
class Violation:
    index: int
    predicate: str  # "P1" | "P2"
    reason: str


@dataclass(frozen=True)
class Verdict:
    """Monitor outcome: pass iff both failure counters are zero."""

    passed: bool
    first_violation: Violation | None
    events: int
    p1_failures: int
    p2_failures: int
    seconds: float

    @property
    def outcome(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        fv = None
        if self.first_violation is not None:
            fv = {
                "index": self.first_violation.index,
                "predicate": self.first_violation.predicate,
                "reason": self.first_violation.reason,
            }
        return {
            "outcome": self.outcome,
            "first_violation": fv,
            "events": self.events,
            "p1_failures": self.p1_failures,
            "p2_failures": self.p2_failures,
            "seconds": self.seconds,
        }


class Trace:
    """Ordered finite sequence of events, stored column-wise.

    Indexing and iteration yield :class:`Event` objects; the bulk arrays
    stay private to this module.  Event indices are the positions
    0..len-1.
    """

    __slots__ = ("source", "ct", "cf", "st", "n", "m", "k", "c", "h",
                 "ch", "vd", "h0", "ca", "cd", "w")

    def __init__(self, source, ct, cf, st, n, m, k, c, h, ch, vd, h0, ca, cd, w):
        self.source = source
        self.ct = ct
        self.cf = cf
        self.st = st
        self.n = n
        self.m = m
        self.k = k
        self.c = c
        self.h = h
        self.ch = ch
        self.vd = vd
        self.h0 = h0
        self.ca = ca
        self.cd = cd
        self.w = w

    def __len__(self) -> int:
        return len(self.w)

    def __getitem__(self, i: int) -> Event:
        if not isinstance(i, int):
            raise TypeError("trace indices must be integers")
        size = len(self.w)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("trace index out of range")
        params = PlatoonParams(n=int(self.n[i]),
                               **{name: float(getattr(self, name)[i]) for name in _PARAM_KEYS})
        spec = ControllerSpec(
            _CT_VALUES[self.ct[i]], _CF_VALUES[self.cf[i]], _ST_VALUES[self.st[i]], params
        )
        return Event(index=i, spec=spec, omega=float(self.w[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    @classmethod
    def from_events(cls, events, source: str = "memory") -> "Trace":
        """Build a trace from Event objects; indices must be 0..len-1."""
        events = list(events)
        size = len(events)
        cols = {name: np.empty(size) for name in (*_PARAM_KEYS, "w")}
        ct = np.empty(size, dtype=np.int8)
        cf = np.empty(size, dtype=np.int8)
        st = np.empty(size, dtype=np.int8)
        n = np.empty(size, dtype=np.int64)
        for pos, e in enumerate(events):
            if e.index != pos:
                raise ValueError(f"event index {e.index} at position {pos}; indices must be contiguous")
            ct[pos] = _CT_CODE[e.spec.controller_type.value]
            cf[pos] = _CF_CODE[e.spec.configuration.value]
            st[pos] = _ST_CODE[e.spec.strategy.value]
            n[pos] = e.spec.params.n
            for name in _PARAM_KEYS:
                cols[name][pos] = getattr(e.spec.params, name)
            cols["w"][pos] = e.omega
        return cls(source, ct, cf, st, n, *cols.values())


def check_p1(event: Event) -> bool:
    """Predicate P1: the event's parameters form a valid platoon."""
    return is_valid_platoon(event.spec.params)


def check_p2(event: Event) -> bool:
    """Predicate P2: ``w > 0`` and ``Q(w^2) > 0`` for the event's model.

    Coefficients are evaluated without a validity gate (an invalid platoon
    already fails P1); when they are undefined (zero mass, or a controller
    combination with no model) P2 is false.
    """
    try:
        model = _raw_error_model(event.spec)
    except (ZeroDivisionError, UnsupportedControllerError):
        return False
    return bool(_p2(model, event.omega)[0])


def _p2(model: ErrorModel, w):
    """P2 of a model and frequency, floats or arrays alike, as an array;
    Q is evaluated again with time rescaled where it is nan.  Small w are
    never scaled up, which could overflow ``a0/w^2``."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.atleast_1d(stability_constraint(model).q(w * w))
        redo = np.flatnonzero(np.isnan(q) & (w > 0.0))
        if redo.size:
            w_redo = np.atleast_1d(w)[redo]
            e = np.maximum(np.frexp(w_redo)[1], 0)
            part = ErrorModel(*(np.atleast_1d(coefficient)[redo]
                                for coefficient in (model.a0, model.a1, model.b0, model.b1)))
            w_redo = np.ldexp(w_redo, -e)
            q[redo] = stability_constraint(_time_scaled(part, e)).q(w_redo * w_redo)
        return (w > 0.0) & (q > 0.0)


def _vector_coefficients(trace: Trace) -> np.ndarray:
    """Rows ``a0, a1, b0, b1`` per event from the model table: nan where the
    combination has no model, inf or nan where a formula is undefined."""
    which = _MODEL_OF[(trace.ct * len(_CF_VALUES) + trace.cf) * len(_ST_VALUES) + trace.st]
    coefficients = np.full((4, len(trace)), np.nan)
    with np.errstate(all="ignore"):
        for index, formulas in enumerate(_MODELS.values()):
            rows = np.flatnonzero(which == index)
            if not rows.size:
                continue
            if rows[-1] - rows[0] + 1 == rows.size:  # one run of events: views, no copies
                rows = slice(rows[0], rows[-1] + 1)
            part = SimpleNamespace(**{name: getattr(trace, name)[rows] for name in _PARAM_KEYS})
            for out, value in zip(coefficients, formulas(part)):
                out[rows] = value
    return coefficients


def _vector_masks(trace: Trace):
    p1 = np.ones(len(trace), dtype=bool)
    for name, bound in _CONJUNCTS:
        p1 &= getattr(trace, name) > bound
    return p1, _p2(ErrorModel(*_vector_coefficients(trace)), trace.w)


def run_monitor(trace: Trace) -> Verdict:
    """Evaluate "globally P1 and P2" over the whole trace.

    Always scans every event so the failure counters are complete; the
    reported violation is the earliest failing index, attributing P1
    before P2 when both fail there.  Wall-clock duration of the scan is
    recorded in ``seconds``.
    """
    start = time.perf_counter()
    size = len(trace)
    if size == 0:
        return Verdict(True, None, 0, 0, 0, time.perf_counter() - start)
    p1, p2 = _vector_masks(trace)
    p1_failures = int(np.count_nonzero(~p1))
    p2_failures = int(np.count_nonzero(~p2))
    first = None
    if p1_failures or p2_failures:
        bad = ~(p1 & p2)
        idx = int(np.argmax(bad))
        event = trace[idx]
        if not p1[idx]:
            reason = f"{failed_conjunct(event.spec.params)} violated"
            first = Violation(idx, "P1", reason)
        else:
            if not event.omega > 0.0:
                reason = "0 < omega violated"
            else:
                reason = (
                    f"omega = {event.omega!r} lies in a non-attenuating band "
                    "(Q(omega^2) <= 0)"
                )
            first = Violation(idx, "P2", reason)
    return Verdict(
        passed=first is None,
        first_violation=first,
        events=size,
        p1_failures=p1_failures,
        p2_failures=p2_failures,
        seconds=time.perf_counter() - start,
    )


def generate_trace(seed: int, length: int, template: ControllerSpec, violations=()) -> Trace:
    """Deterministic pseudo-random execution around a template controller.

    Parameters are jittered multiplicatively within valid ranges; each
    event's frequency is drawn from its own stable region (above the
    largest root of Q).  ``violations`` lists ``(index, kind)`` pairs with
    kind "P1" or "P2"; at those indices the named predicate is made false
    (P1 by zeroing one positivity conjunct or dropping n to 1, P2 by a
    frequency inside the non-attenuating band, or a non-positive one when
    the model attenuates everywhere).  Identical arguments produce an
    identical trace.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    error_model(template)  # reject invalid or unsupported templates up front
    plan = [(int(i), str(kind)) for i, kind in violations]
    for i, kind in plan:
        if not 0 <= i < length:
            raise ValueError(f"violation index {i} outside trace of length {length}")
        if kind not in ("P1", "P2"):
            raise ValueError(f"violation kind must be P1 or P2, got {kind!r}")

    rng = np.random.default_rng(seed)
    p = template.params
    factors = rng.uniform(0.85, 1.15, size=(length, 9))
    cols = [factors[:, j] * getattr(p, name) for j, name in enumerate(_PARAM_KEYS)]
    del factors  # the columns are copies; frees 9 floats per event before the roots
    n = rng.integers(max(2, p.n - 2), p.n + 3, size=length)

    trace = Trace(
        f"seed:{seed}",
        np.full(length, _CT_CODE[template.controller_type.value], dtype=np.int8),
        np.full(length, _CF_CODE[template.configuration.value], dtype=np.int8),
        np.full(length, _ST_CODE[template.strategy.value], dtype=np.int8),
        n.astype(np.int64),
        *cols,
        np.zeros(length),
    )
    if length == 0:
        return trace

    coefficients = _vector_coefficients(trace)
    a0 = coefficients[0]
    # The roots of Q on the time scale 2**e that brings a0 near 1, where
    # alpha and beta cannot overflow; scaled back exactly by 4**e.
    e = np.frexp(a0)[1] // 2
    con = stability_constraint(_time_scaled(ErrorModel(*coefficients), e))
    disc = con.alpha * con.alpha - 4.0 * con.beta
    sq = np.sqrt(np.maximum(disc, 0.0))
    u_hi = np.ldexp(0.5 * (-con.alpha + sq), 2 * e)
    u_lo = np.ldexp(np.maximum(0.5 * (-con.alpha - sq), 0.0), 2 * e)
    has_band = (disc >= 0.0) & (u_hi > 0.0)
    # Stable draw: above the largest root when one exists, otherwise any
    # frequency near the natural one works.
    u = np.where(
        has_band,
        u_hi * rng.uniform(1.2, 4.0, size=length),
        a0 * rng.uniform(0.25, 4.0, size=length),
    )
    trace.w[:] = np.sqrt(u)

    for i, kind in plan:
        if kind == "P1":
            name, bound = _CONJUNCTS[int(rng.integers(0, len(_CONJUNCTS)))]
            getattr(trace, name)[i] = bound
        else:
            if has_band[i]:
                u_bad = u_lo[i] + (u_hi[i] - u_lo[i]) * rng.uniform(0.25, 0.75)
                trace.w[i] = math.sqrt(u_bad)
            else:
                trace.w[i] = 0.0
    return trace


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} not allowed")


# Trace files are read and written this many events at a time.
_CHUNK = 4096
_INT64_MAX = int(np.iinfo(np.int64).max)
_FLOAT_KEYS = (*_PARAM_KEYS, "w")
_decode = json.JSONDecoder(parse_constant=_reject_constant).decode
_event_fields = itemgetter(*_EVENT_KEYS)


def parse_trace(path) -> Trace:
    """Read a line-delimited JSON trace file (UTF-8, one event per line)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace_lines(fh, source=str(path))


def parse_trace_lines(lines, source: str = "<stream>") -> Trace:
    """Parse trace lines; any malformed line raises :class:`TraceParseError`.

    Lines are taken :data:`_CHUNK` at a time.  A chunk that passes the
    column-wise checks of :func:`_parse_chunk` is kept as arrays; any other
    chunk goes through :func:`_validate_lines`, which yields the same
    columns for good lines and names the first bad one.
    """
    lines = iter(lines)
    chunks = [_validate_lines([], 0)]  # typed empty columns
    offset = 0
    while block := list(islice(lines, _CHUNK)):
        try:
            columns = _parse_chunk(block, offset)
        except Exception:  # the per-line pass raises what applies, in line order
            columns = None
        chunks.append(columns or _validate_lines(block, offset))
        offset += len(block)
    return Trace(source, *map(np.concatenate, zip(*chunks)))


def _parse_chunk(block, offset):
    """Columns of a chunk of well-formed lines, or None when a check fails.

    Every check here is one that :func:`_validate_lines` makes line by
    line, so a chunk accepted here yields the same columns there.
    """
    size = len(block)
    events = list(map(_decode, block))
    if set(map(type, events)) != {dict} or set(map(len, events)) != {len(_EVENT_KEYS)}:
        return None
    i, ct, cf, st, n, *numbers = zip(*map(_event_fields, events))
    del events
    if set(map(type, i)) != {int} or i != tuple(range(offset, offset + size)):
        return None
    if set(map(type, n)) != {int} or min(n) < 0 or max(n) > _INT64_MAX:
        return None
    if not set(map(type, chain.from_iterable(numbers))) <= {float, int}:
        return None
    floats = np.array(numbers, dtype=np.float64)  # raises on ints beyond float range
    if not np.isfinite(floats).all():
        return None
    return (
        np.fromiter(map(_CT_CODE.__getitem__, ct), np.int8, size),
        np.fromiter(map(_CF_CODE.__getitem__, cf), np.int8, size),
        np.fromiter(map(_ST_CODE.__getitem__, st), np.int8, size),
        np.array(n, dtype=np.int64),
        *floats,
    )


def _validate_lines(block, offset):
    """Per-line parse of a chunk whose first line is event ``offset``.

    The reference for what a trace line may hold: raises
    :class:`TraceParseError` naming the first bad line.
    """
    ct, cf, st = [], [], []
    n = []
    cols = {name: [] for name in _FLOAT_KEYS}
    for count, line in enumerate(block, offset):
        lineno = count + 1
        line = line.rstrip("\n")
        if not line.strip():
            raise TraceParseError(lineno, "empty line")
        try:
            obj = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            raise TraceParseError(lineno, f"invalid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise TraceParseError(lineno, "event must be a JSON object")
        if len(obj) != len(_EVENT_KEYS) or any(key not in obj for key in _EVENT_KEYS):
            unknown = [key for key in obj if key not in _EVENT_KEYS]
            if unknown:
                raise TraceParseError(lineno, f"unknown key {unknown[0]!r}")
            missing = [key for key in _EVENT_KEYS if key not in obj]
            raise TraceParseError(lineno, f"missing key {missing[0]!r}")
        idx = obj["i"]
        if type(idx) is not int:
            raise TraceParseError(lineno, "'i' must be an integer")
        if idx != count:
            raise TraceParseError(lineno, f"event index {idx} does not match position {count}")
        for code_map, key, dest in ((_CT_CODE, "ct", ct), (_CF_CODE, "cf", cf), (_ST_CODE, "st", st)):
            value = obj[key]
            if not isinstance(value, str) or value not in code_map:
                allowed = "|".join(code_map)
                raise TraceParseError(lineno, f"'{key}' must be one of {allowed}")
            dest.append(code_map[value])
        nv = obj["n"]
        if type(nv) is not int:
            raise TraceParseError(lineno, "'n' must be an integer")
        if nv < 0:
            raise TraceParseError(lineno, "'n' must be >= 0")
        if nv > _INT64_MAX:
            raise TraceParseError(lineno, f"'n' must be <= {_INT64_MAX}")
        n.append(nv)
        for key in _FLOAT_KEYS:
            value = obj[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TraceParseError(lineno, f"'{key}' must be a number")
            try:
                value = float(value)
            except OverflowError:  # an integer literal beyond the float range
                value = math.inf
            if not math.isfinite(value):
                raise TraceParseError(lineno, f"'{key}' must be finite")
            cols[key].append(value)
    return (
        np.asarray(ct, dtype=np.int8),
        np.asarray(cf, dtype=np.int8),
        np.asarray(st, dtype=np.int8),
        np.asarray(n, dtype=np.int64),
        *(np.asarray(cols[name]) for name in _FLOAT_KEYS),
    )


_CT_JSON = tuple(json.dumps(e.value) for e in _CT_VALUES)
_CF_JSON = tuple(json.dumps(e.value) for e in _CF_VALUES)
_ST_JSON = tuple(json.dumps(e.value) for e in _ST_VALUES)
_LINE = ("{{" + ",".join(f'"{key}":{{}}' for key in _EVENT_KEYS) + "}}\n").format


def _json_numbers(column) -> list[str]:
    """``json.dumps`` text of each value, ``NaN`` and ``Infinity`` included."""
    return json.dumps(column.tolist(), separators=(",", ":"))[1:-1].split(",")


def write_trace(trace: Trace, fh) -> None:
    """Write the line-delimited JSON form; identical traces give identical
    bytes."""
    for start in range(0, len(trace), _CHUNK):
        part = slice(start, start + _CHUNK)
        n = trace.n[part].tolist()
        fh.write("".join(map(
            _LINE,
            range(start, start + len(n)),
            map(_CT_JSON.__getitem__, trace.ct[part].tolist()),
            map(_CF_JSON.__getitem__, trace.cf[part].tolist()),
            map(_ST_JSON.__getitem__, trace.st[part].tolist()),
            n,
            *(_json_numbers(getattr(trace, key)[part]) for key in _FLOAT_KEYS),
        )))


def write_trace_file(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_trace(trace, fh)
