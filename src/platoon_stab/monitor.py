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
each predicate across the whole trace.  It scans a block of events at a
time (``_BLOCK``), and :func:`generate_trace` draws and derives its
columns a smaller block at a time (``_DRAW_BLOCK``): their temporaries
have a fixed size, whatever the length of the trace.

Traces are stored column-wise (one numpy array per field) so the scan is
a handful of vectorised passes; :class:`Event` objects are materialised
only on demand.  A block is cleared with whole-column reductions where
they decide: P1 holds throughout when each conjunct's column has its
minimum above the bound and its maximum below inf, a block of one
controller combination runs its model's formulas once on the columns,
and Q is searched for nan rows only when its sum is nan.  Per-event P1
masks, and coefficients grouped by model, are built only for the blocks
that these tests cannot clear.  The per-event predicates
:func:`check_p1` and :func:`check_p2` agree with the vectorised scan by
construction: the conjuncts, the coefficient map, ``Q`` and P2 are each
written once, as arithmetic that runs on floats and arrays alike.  P2's
arithmetic, and the generator's stable band, are ``frequency``'s
(:func:`_attenuates`, :func:`_stable_band`), which alone picks the time
units that keep them in range.

Trace file format: line-delimited JSON, UTF-8, LF, one event per line:

    {"i":0,"ct":"autonomous","cf":"unidirectional","st":"constant_spacing",
     "n":10,"m":1000.0,"k":2000.0,"c":400.0,"h":1.0,"ch":1.0,"vd":25.0,
     "h0":1.0,"ca":50.0,"cd":50.0,"w":3.0}

The table ``_SCHEMA`` is the one definition of this line format; the
trace's columns, reader, validator and writer are derived from it.
``i`` is the index, the line's 0-based position; ``ct`` (autonomous|
non_autonomous), ``cf`` (unidirectional|bidirectional) and ``st``
(constant_spacing|variable_spacing|var_time_headway) are enums; ``n`` is
an integer in [0, 2^63-1]; ``m``, ``k``, ``c``, ``h``, ``ch``, ``vd``,
``h0``, ``ca``, ``cd`` and ``w`` are finite floats.  A spec file's
fields admit the same values: one function, ``model._check_value``,
checks both, and one function, ``model._decode``, decodes both, refusing
a repeated name and nesting too deep to decode.  Malformed lines abort
parsing with the offending line number (``line N: invalid UTF-8`` for a
line that is not UTF-8); the monitor refuses such traces rather than
skipping lines.

Files are read and written a chunk of events at a time.  The writer turns
a chunk's ten float columns into text in one array call, its ints and
enums in one call each, and lays out the lines in one more (see
``_text``); its bytes are those of one ``json.dumps`` per event, floats in
``repr`` form and non-finite ones as ``NaN`` and ``Infinity``.  The reader
decodes a chunk's lines in one call and checks them column by column.  A
chunk that fails a check is parsed again line by line by
:func:`_validate_lines`, the one source of error messages, so the first bad
line is named exactly as a line-by-line reader would name it.
:func:`parse_trace` counts a file's lines first and parses each chunk
straight into columns of that length, so beyond the columns it holds one
chunk.  A stream that cannot be read twice, such as a pipe, is parsed
chunk by chunk in this process and the chunks are joined at the end.

A file of at least ``2 * _SPLIT`` lines (6144), or a trace of as many
events, is read or written by one process per usable CPU, at most
``_RANGES`` and each with at least ``_SPLIT`` lines; by this process alone
below that size, where a second process costs more than it saves, and
where it cannot fork or runs a second thread.  The parse splits the file
into line ranges: this process parses the first, a forked child each of
the others.  Every range, here or in a child, is parsed by one function,
:func:`_parse_range`.  The writer deals its chunks out in turn: chunk j
goes to process j mod k, this process the first.  Every child answers by
one protocol: :func:`_fork` sends each block the child makes through a
pipe, its size in bytes as ASCII digits and a newline, then its bytes, and
:func:`_next_block` reads each block back, a parse child's column rows
straight into the caller's columns and a write child's chunk text as
bytes, which this process writes in order.  That one function finds a
block that is short, missing or of another size than the rows it fills,
and a child that sent one leaves its range or its remaining chunks to this
process, so every error is raised here, as in one process, and the bytes
written never depend on the children.  No process holds much more than one
chunk of text.  Reader and writer start and end their children through
the same two functions, :func:`_fork` and :func:`_children`: a child's
memory is its own and does not count in the caller's peak RSS, and no
child outlives the call, whether it returns or raises.
"""

from __future__ import annotations

import json
import math
import operator
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from enum import EnumMeta
from itertools import chain, islice, product
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from . import _text
from .model import (
    _CONJUNCTS,
    _FLOAT_FIELDS as _PARAM_KEYS,
    _INT64_MAX,
    _MODELS,
    _PARAM_KINDS,
    _SPEC_ENUMS,
    ControllerSpec,
    ErrorModel,
    PlatoonParams,
    UnsupportedControllerError,
    _allocating,
    _check_object,
    _check_value,
    _decode,
    _model_key,
    _raw_error_model,
    error_model,
    failed_conjunct,
    is_valid_platoon,
)
from .frequency import _attenuates, _stable_band

# The trace schema: an event line's keys in order, each with its kind from the
# spec file's tables (the ControllerSpec enums, then the PlatoonParams fields,
# in order), and the frequency last.  The index "i" has no column; an enum's
# column holds int8 codes, positions in the enum.
_SCHEMA = {"i": None, **dict(zip(("ct", "cf", "st"), _SPEC_ENUMS.values())), **_PARAM_KINDS,
           "w": float}
_COLUMNS = tuple(_SCHEMA)[1:]
_ENUMS = {key: tuple(kind) for key, kind in _SCHEMA.items() if isinstance(kind, EnumMeta)}
_CODES = {key: {e.value: code for code, e in enumerate(members)} for key, members in _ENUMS.items()}
_DTYPES = tuple({int: np.int64, float: np.float64}.get(_SCHEMA[key], np.int8) for key in _COLUMNS)

# Position in model._MODELS, and in _FORMULAS, of the model of each
# controller combination, indexed by the combination's position in the
# product of the enums; -1 where none exists.
_MODEL_OF = np.array([list(_MODELS).index(key) if (key := _model_key(*combo)) in _MODELS else -1
                      for combo in product(*_ENUMS.values())], dtype=np.int8)
_FORMULAS = tuple(_MODELS.values())


def _codes(spec: ControllerSpec) -> list[int]:
    """The codes of a spec's enum columns."""
    return [_CODES[key][getattr(spec, name).value] for key, name in zip(_ENUMS, _SPEC_ENUMS)]


def _typed(rows) -> list[np.ndarray]:
    """Columns of the schema's dtypes from rows of column values."""
    columns = list(zip(*rows)) or [()] * len(_COLUMNS)
    return [np.array(values, dtype) for values, dtype in zip(columns, _DTYPES)]


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
    """Monitor outcome: pass iff no event failed, so there is no first
    violation and both failure counters are zero."""

    first_violation: Violation | None
    events: int
    p1_failures: int
    p2_failures: int
    seconds: float

    @property
    def passed(self) -> bool:
        return self.first_violation is None

    @property
    def outcome(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {"outcome": self.outcome, **asdict(self)}


class Trace:
    """Ordered finite sequence of events, stored column-wise.

    Indexing and iteration yield :class:`Event` objects; the bulk arrays
    stay private to this module.  Event indices are the positions
    0..len-1.  Every column holds one value per event: columns of unequal
    length raise ValueError naming the odd one out.  A row whose parameter
    is nan or infinite, which :func:`run_monitor` reports as a P1 failure,
    cannot become an Event: indexing it raises ValueError naming the event
    and the field, as ``event 2: m must be finite``.
    """

    __slots__ = ("source", *_COLUMNS)

    def __init__(self, source, *columns):
        if len(columns) != len(_COLUMNS):
            raise TypeError(f"Trace takes a source and {len(_COLUMNS)} columns, got {len(columns)}")
        lengths = list(map(len, columns))
        if lengths.count(lengths[0]) != len(lengths):
            size = max(lengths, key=lengths.count)
            key, length = next((key, n) for key, n in zip(_COLUMNS, lengths) if n != size)
            raise ValueError(f"column {key!r} has {length} events, most columns {size}")
        for name, value in zip(self.__slots__, (source, *columns)):
            setattr(self, name, value)

    def __len__(self) -> int:
        return len(self.w)

    def __getitem__(self, i: int) -> Event:
        try:
            i = operator.index(i)
        except TypeError:
            raise TypeError("trace indices must be integers") from None
        if not -len(self) <= i < len(self):
            raise IndexError("trace index out of range")
        i %= len(self)
        row = [getattr(self, key)[i].item() for key in _COLUMNS]
        members = [values[code] for values, code in zip(_ENUMS.values(), row)]
        *params, omega = row[len(members):]
        try:
            params = PlatoonParams(*params)
        except ValueError as exc:
            raise ValueError(f"event {i}: {exc}") from None
        return Event(index=i, spec=ControllerSpec(*members, params), omega=omega)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def _rows(self, a: int, b: int) -> "Trace":
        """Events ``a`` to ``b - 1`` as a trace of column views, no copies;
        event ``a`` is at position 0 of the view."""
        return Trace(self.source, *(getattr(self, key)[a:b] for key in _COLUMNS))

    @classmethod
    def from_events(cls, events, source: str = "memory") -> "Trace":
        """Build a trace from Event objects; indices must be 0..len-1."""
        rows = []
        for pos, e in enumerate(events):
            if e.index != pos:
                raise ValueError(f"event index {e.index} at position {pos}; indices must be contiguous")
            params = [getattr(e.spec.params, key) for key in _PARAM_KINDS]
            rows.append((*_codes(e.spec), *params, e.omega))
        return cls(source, *_typed(rows))


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
    return bool(_attenuates(model, event.omega)[0])


def _vector_coefficients(trace: Trace):
    """Rows ``a0, a1, b0, b1`` per event from the model table: nan where the
    combination has no model, inf or nan where a formula is undefined.

    A trace whose enum columns are each constant holds one combination: its
    model's formulas run once, on the whole columns.  Otherwise the events
    are grouped by model."""
    codes = [getattr(trace, key) for key in _ENUMS]
    one = len(trace) > 0 and all(column.min() == column.max() for column in codes)
    combination = 0  # its position in the product of the enums
    for column, members in zip(codes, _ENUMS.values()):
        combination = combination * len(members) + (int(column[0]) if one else column)
    which = _MODEL_OF[combination]
    if one and which >= 0:
        with np.errstate(all="ignore"):
            return _FORMULAS[which](trace)
    coefficients = np.full((4, len(trace)), np.nan)
    with np.errstate(all="ignore"):
        for index, formulas in enumerate(_FORMULAS):
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
    """The P1 and P2 masks of every event.

    P1 holds for the whole trace when each conjunct's column has its
    ``min()`` above the bound and its ``max()`` below inf; both propagate
    nan, so a nan fails this test.  Only a trace that fails it is checked
    event by event.  P2 takes the coefficients of
    :func:`_vector_coefficients`, one model's formulas on whole columns
    where the trace holds one controller combination."""
    p1 = np.ones(len(trace), dtype=bool)
    conjuncts = [(getattr(trace, name), bound) for name, bound in _CONJUNCTS]
    if len(trace) and not all(bound < column.min() and column.max() < np.inf
                              for column, bound in conjuncts):
        for column, bound in conjuncts:
            p1 &= (column > bound) & (column < np.inf)
    return p1, _attenuates(ErrorModel(*_vector_coefficients(trace)), trace.w)


# The scan and the generator work on this many events at a time, so their
# temporaries take a fixed amount of memory whatever the trace length.  The
# scan's block is larger: at 8192 events it is a quarter slower.
_BLOCK = 32768
_DRAW_BLOCK = 8192
# Range of the generator's multiplicative parameter jitter.
_JITTER = (0.85, 1.15)


def run_monitor(trace: Trace) -> Verdict:
    """Evaluate "globally P1 and P2" over the whole trace.

    Always scans every event so the failure counters are complete; the
    reported violation is the earliest failing index, attributing P1
    before P2 when both fail there.  Wall-clock duration of the scan is
    recorded in ``seconds``.
    """
    start = time.perf_counter()
    size = len(trace)
    p1_failures = p2_failures = 0
    earliest = first = None
    for a in range(0, size, _BLOCK):
        p1, p2 = _vector_masks(trace._rows(a, a + _BLOCK))
        p1_failures += p1.size - int(np.count_nonzero(p1))
        p2_failures += p2.size - int(np.count_nonzero(p2))
        if earliest is None and p1_failures + p2_failures:
            at = int(np.argmin(p1 & p2))
            earliest = (a + at, bool(p1[at]))
    if earliest is not None:
        idx, p1_holds = earliest
        omega = float(trace.w[idx])
        if not p1_holds:
            first = Violation(idx, "P1", f"{failed_conjunct(trace._rows(idx, idx + 1))} violated")
        elif not omega > 0.0:
            first = Violation(idx, "P2", "0 < omega violated")
        else:
            try:  # P1 holds, so the event is valid; its combination may have no model
                _raw_error_model(trace[idx].spec)
            except UnsupportedControllerError as exc:
                first = Violation(idx, "P2", str(exc))
            else:
                first = Violation(idx, "P2", f"omega = {omega!r} lies in a non-attenuating "
                                             "band (Q(omega^2) <= 0)")
    return Verdict(
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
    identical trace; ``seed`` must be a non-negative int.  Raises
    ValueError, naming the first such event, where a drawn or injected
    frequency is not a finite double: the template's band, ``w^2``, leaves
    the float range.
    """
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if length < 0:
        raise ValueError("length must be >= 0")
    error_model(template)  # reject invalid or unsupported templates up front
    plan = [(int(i), str(kind)) for i, kind in violations]
    for i, kind in plan:
        if not 0 <= i < length:
            raise ValueError(f"violation index {i} outside trace of length {length}")
        if kind not in ("P1", "P2"):
            raise ValueError(f"violation kind must be P1 or P2, got {kind!r}")

    p = template.params
    for name in _PARAM_KEYS:
        if not math.isfinite(_JITTER[1] * getattr(p, name)):
            raise ValueError(f"template {name} = {getattr(p, name)!r} overflows when jittered "
                             f"by up to {_JITTER[1]}x")
    if p.n + 2 > _INT64_MAX:
        raise ValueError(f"template n = {p.n!r} overflows when jittered by up to +2")

    rng = np.random.default_rng(seed)
    blocks = range(0, length, _DRAW_BLOCK)
    with _allocating("a trace", length, "events"):
        cols = [np.empty(length) for _ in _PARAM_KEYS]
    for a in blocks:
        factors = rng.uniform(*_JITTER, size=(min(_DRAW_BLOCK, length - a), len(_PARAM_KEYS)))
        for col, factor, name in zip(cols, factors.T, _PARAM_KEYS):
            np.multiply(factor, getattr(p, name), out=col[a:a + _DRAW_BLOCK])
    codes = (np.full(length, code, dtype=np.int8) for code in _codes(template))
    trace = Trace(f"seed:{seed}", *codes, rng.integers(max(2, p.n - 2), p.n + 3, size=length),
                  *cols, np.empty(length))
    # Stable draw: above the largest root of Q when one exists, otherwise
    # any frequency near the natural one works.  The draws above the root
    # come first, for every event, then those near the natural frequency.
    for a in blocks:
        trace.w[a:a + _DRAW_BLOCK] = rng.uniform(1.2, 4.0, size=min(_DRAW_BLOCK, length - a))
    targets = np.array([i for i, kind in plan if kind == "P2"], dtype=np.int64)
    bands = {}
    for a in blocks:
        block = trace._rows(a, a + _DRAW_BLOCK)
        model = ErrorModel(*_vector_coefficients(block))
        lo, hi = _stable_band(model)
        with np.errstate(over="ignore", invalid="ignore"):
            near = model.a0 * rng.uniform(0.25, 4.0, size=len(block))
            np.sqrt(np.where(hi > 0.0, hi * block.w, near), out=block.w)
        # Bands of the P2 targets, from their parameters before any injection.
        at = targets[(a <= targets) & (targets < a + _DRAW_BLOCK)] - a
        bands.update(zip((a + at).tolist(), zip(lo[at], hi[at])))
    for i, kind in plan:
        if kind == "P1":
            name, bound = _CONJUNCTS[int(rng.integers(0, len(_CONJUNCTS)))]
            getattr(trace, name)[i] = bound
        else:
            lo_i, hi_i = bands[i]
            if hi_i > 0.0:
                u_lo = max(lo_i, 0.0)
                trace.w[i] = math.sqrt(u_lo + (hi_i - u_lo) * rng.uniform(0.25, 0.75))
            else:
                trace.w[i] = 0.0
    finite = np.isfinite(trace.w)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"event {i} draws w = {float(trace.w[i])!r}: the template's stable "
                         "band leaves the float range")
    return trace


# Trace files are read this many events at a time, and written half as
# many: ten floats an event make about 5k values per call of the formatter.
_CHUNK = 1024
# A file of at least twice _SPLIT lines is parsed in line ranges at once, a
# range per usable CPU and at least _SPLIT lines each, and a trace of as
# many events is written by as many processes.  Below that the fork, the
# child's exit and the blocks sent back cost what the second CPU saves.
# Medians of 90 rounds on two CPUs (six batches of 15, one process holding
# 20 MB, one and two processes alternating), us a line, write and parse, one
# process against two: 4096 lines 4.45/4.80 and 8.33/8.31; 5120 lines
# 4.47/4.53 and 8.48/8.40; 6144 lines 4.47/4.26 and 7.79/7.80; 8192 lines
# 4.52/3.96 and 7.95/7.22.  The gain moves with the load on the host's
# other CPU: a batch's ratio at 8192 lines ran from 0.62 to 1.35.  At most
# _RANGES ranges, so that a many-core host forks a few children.
_SPLIT = 3072
_RANGES = 4


def parse_trace(path) -> Trace:
    """Read a line-delimited JSON trace file (UTF-8, one event per line).

    The file is read twice: once to count its lines, then to parse each
    chunk into columns of that length.  A large file is parsed in line
    ranges at once (:func:`_ranges`): this process parses the first range
    while a forked child parses each of the others and sends back its
    columns.  The first range, which has no child, and a range whose child
    fails in any way are parsed here, in order, by :func:`_parse_range`
    from the handle that counted the lines, so every error is raised here,
    the earliest range's first.  A file that cannot be read twice (a pipe)
    goes through :func:`parse_trace_lines`.
    """
    # Bytes that are not UTF-8 become lone surrogates, which _validate_lines refuses.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        if not fh.seekable():
            return parse_trace_lines(fh, source=str(path))
        size = sum(1 for _ in fh)  # lines as the parse below splits them
        fh.seek(0)
        columns = [np.empty(size, dtype) for dtype in _DTYPES]
        bounds = _ranges(size)
        ranges = list(zip(bounds, bounds[1:]))
        stat = os.fstat(fh.fileno())
        with _children() as children:
            for a, b in ranges[1:]:
                children.append(_fork_range(path, (stat.st_dev, stat.st_ino), columns, a, b, size))
            done = 0  # the lines of fh read so far
            for (a, b), child in zip(ranges, [None, *children]):
                if any(_next_block(child and child[1], column[a:b]) is None for column in columns):
                    _parse_range(fh, done, columns, a, b, size, path)
                    done = b
    return Trace(str(path), *columns)


def _processes(size) -> int:
    """How many processes share the parse or the write of ``size`` lines:
    one per usable CPU, at most :data:`_RANGES` and each with at least
    :data:`_SPLIT` lines.  One where the process cannot fork, or has a
    second thread, which a forked child could find holding a lock."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, size // _SPLIT, _RANGES))


def _ranges(size) -> list[int]:
    """The bounds of the line ranges that :func:`parse_trace` parses at
    once, one per process (:func:`_processes`): 0, multiples of
    :data:`_CHUNK`, then ``size``."""
    count = _processes(size)
    chunks = -(-size // _CHUNK)
    return [chunks * i // count * _CHUNK for i in range(count)] + [size]


def _parse_range(fh, at, columns, a, b, size, path):
    """Parse lines ``a`` to ``b - 1`` of ``fh``, which is at line ``at``,
    into rows ``a`` to ``b - 1`` of the columns.  The last range reads on to
    the end of the file, so that lines added since the count show; the
    lines must end at line ``b``, else the file changed since it was
    counted."""
    next(islice(fh, a - at, a - at), None)
    end = a
    for start, chunk in _chunks(fh if b == size else islice(fh, b - a), a):
        end = start + len(chunk[0])
        if end > b:
            break
        for column, part in zip(columns, chunk):
            column[start:end] = part
    if end != b:
        raise ValueError(f"{path}: the file changed while it was read")


@contextmanager
def _children():
    """A list for the ``(pid, pipe)`` of each child that :func:`_fork`
    starts, or None for one that did not start.  On leaving, whatever
    raised, each pipe is closed and each child killed and reaped, so that
    none outlives the block."""
    children = []
    try:
        yield children
    finally:
        for pid, pipe in filter(None, children):
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(blocks):
    """Fork a child that sends each block of ``blocks``, an iterable of
    bytes-like objects that the child alone consumes (a generator runs its
    body there), through a pipe: the block's size in bytes as ASCII digits
    and a newline, then its bytes; :func:`_next_block` reads them back.
    Returns the child's pid and the pipe's read end, or None when no child
    can start.  The child ends through ``os._exit``, whether ``blocks``
    runs out or raises, so it runs no exit handlers and flushes no
    inherited buffer, such as that of the caller's output."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: the caller does the job
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as out:
            for block in blocks:
                out.write(b"%d\n" % memoryview(block).nbytes)
                out.write(block)
    finally:
        os._exit(0)


def _next_block(pipe, into=None):
    """The next block from a child's pipe (:func:`_fork`): its bytes, or,
    given ``into``, that buffer once the block is read straight into it.
    None when there is no pipe, or the child sent less than a whole block,
    or a block whose size is not ``into``'s: the one check of a child's
    answer.  A child that sent less has closed its pipe, so later calls on
    it return None too; after a block of another size the caller reads the
    pipe no more."""
    if pipe is None:
        return None
    head = pipe.readline()
    if not head.endswith(b"\n"):
        return None
    size = int(head)
    if into is None:
        block = pipe.read(size)
        return block if len(block) == size else None
    return into if pipe.readinto(into) == size else None  # reads into.nbytes at most


def _fork_range(path, identity, columns, a, b, size):
    """Fork a child (:func:`_fork`) that parses lines ``a`` to ``b - 1`` of
    the file into its copy of the columns and sends those rows of each
    column as a block.

    A forked child shares the parent's file offset, so the child opens the
    file again and parses the range with :func:`_parse_range` from line 0.
    It sends nothing unless it is the same file (``identity`` is its device
    and inode) and the whole range parsed.
    """
    def blocks():
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            stat = os.fstat(fh.fileno())
            if (stat.st_dev, stat.st_ino) == identity:
                _parse_range(fh, 0, columns, a, b, size, path)
                yield from (column[a:b] for column in columns)

    return _fork(blocks())


def parse_trace_lines(lines, source: str = "<stream>") -> Trace:
    """Parse trace lines; any malformed line raises :class:`TraceParseError`."""
    chunks = [_typed([]), *(chunk for _, chunk in _chunks(lines))]
    return Trace(source, *map(np.concatenate, zip(*chunks)))


def _chunks(lines, offset=0):
    """The columns of each :data:`_CHUNK` lines, with the index of the
    chunk's first event; the first line is event ``offset``.

    A chunk that passes the column-wise checks of :func:`_parse_chunk` is
    taken as it is; any other chunk goes through :func:`_validate_lines`,
    which yields the same columns for good lines and names the first bad
    one.
    """
    lines = iter(lines)
    while block := list(islice(lines, _CHUNK)):
        try:
            columns = _parse_chunk(block, offset)
        except Exception:  # the per-line pass raises what applies, in line order
            columns = None
        yield offset, columns or _validate_lines(block, offset)
        offset += len(block)


def _parse_chunk(block, offset):
    """Columns of a chunk of well-formed lines, or None when a check fails.

    Every check here is one that :func:`_validate_lines` makes line by
    line, so a chunk accepted here yields the same columns there.
    """
    size = len(block)
    # One decode for the chunk, each line wrapped in brackets of its own.  A
    # valid event holds no bracket, so rows of one event each are lines of
    # one event each.  Joined by commas alone, an event split over two lines
    # next to two events on one line would pass as well-formed.
    text = f"[[{'],['.join(block)}]]"
    # A colon follows each name of an object.  So a chunk of len(_SCHEMA)
    # colons a line, whose events below each decode to len(_SCHEMA) keys,
    # repeats no name (json.loads would keep the last value).  Any other
    # chunk goes to the per-line pass, which names a repeated key.
    if text.count(":") != len(_SCHEMA) * size:
        return None
    rows = json.loads(text)
    if len(rows) != size or set(map(len, rows)) != {1}:
        return None
    events = list(chain.from_iterable(rows))
    if set(map(type, events)) != {dict} or set(map(len, events)) != {len(_SCHEMA)}:
        return None
    i, *values = zip(*map(itemgetter(*_SCHEMA), events))
    del text, rows, events
    if set(map(type, i)) != {int} or i != tuple(range(offset, offset + size)):
        return None
    columns = []
    for key, column, dtype in zip(_COLUMNS, values, _DTYPES):
        if key in _CODES:
            columns.append(np.fromiter(map(_CODES[key].__getitem__, column), np.int8, size))
            continue
        integer = _SCHEMA[key] is int
        if not set(map(type, column)) <= ({int} if integer else {float, int}):
            return None
        columns.append(np.array(column, dtype=dtype))  # raises on ints beyond its range
        if not (columns[-1] >= 0 if integer else np.isfinite(columns[-1])).all():
            return None
    return columns


def _validate_lines(block, offset):
    """Per-line parse of a chunk whose first line is event ``offset``.

    The reference for what a trace line may hold: raises
    :class:`TraceParseError` naming the first bad line.
    """
    rows = []
    for count, line in enumerate(block, offset):
        try:
            rows.append(_check_line(line, count))
        except ValueError as exc:
            raise TraceParseError(count + 1, str(exc)) from None
    return _typed(rows)


def _check_line(line, count):
    """The column values of the line of event ``count``, or ValueError
    saying what is wrong with it."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:  # undecodable bytes, read as lone surrogates
        raise ValueError("invalid UTF-8") from None
    line = line.rstrip("\n")
    if not line.strip():
        raise ValueError("empty line")
    obj = _decode(line)
    _check_object(obj, _SCHEMA, "event", "")
    idx = obj["i"]
    if type(idx) is not int:
        raise ValueError("'i' must be an integer")
    if idx != count:
        raise ValueError(f"event index {idx} does not match position {count}")
    values = [_check_value(_SCHEMA[key], obj[key], f"'{key}' ") for key in _COLUMNS]
    return [_CODES[key][v.value] if key in _CODES else v for key, v in zip(_COLUMNS, values)]


# The text of a line around its values, the JSON text of each enum code,
# and the int and float columns; the floats end the line.
_LITERALS = (*(("," if i else "{") + f'"{key}":' for i, key in enumerate(_SCHEMA)), "}\n")
_ENUM_TEXTS = {key: _text.texts([json.dumps(e.value) for e in members])
               for key, members in _ENUMS.items()}
_INTS = [key for key in _COLUMNS if _SCHEMA[key] is int]
_FLOATS = [key for key in _COLUMNS if _SCHEMA[key] is float]


def write_trace(trace: Trace, fh) -> None:
    """Write the line-delimited JSON form; identical traces give identical
    bytes.

    Chunk j of ``_CHUNK // 2`` events is formatted by process j mod k
    (:func:`_processes`), this process the first and a forked child each
    of the others, which sends the text of each of its chunks as a block
    (:func:`_fork`).  Every chunk is written to ``fh`` in order, a child's
    once all of it has arrived; a child that stops early, for whatever
    reason, leaves the rest of its chunks to this process.
    """
    starts = range(0, len(trace), _CHUNK // 2)
    count = _processes(len(trace))
    with _children() as children:
        for i in range(1, count):
            children.append(_fork(_chunk_text(trace, start).encode("ascii")
                                  for start in starts[i::count]))
        pipes = [None, *(child and child[1] for child in children)]
        for j, start in enumerate(starts):
            block = _next_block(pipes[j % count])
            fh.write(_chunk_text(trace, start) if block is None else block.decode("ascii"))


def _chunk_text(trace, start) -> str:
    """The lines of the ``_CHUNK // 2`` events of the trace from ``start``."""
    part = trace._rows(start, start + _CHUNK // 2)
    index = np.arange(start, start + len(part))
    ints = _text.ints(np.stack([index, *(getattr(part, key) for key in _INTS)]))
    texts = dict(zip(["i", *_INTS], zip(*ints)))
    texts.update((key, _text.pick(_ENUM_TEXTS[key], getattr(part, key))) for key in _ENUMS)
    floats = np.column_stack([getattr(part, key) for key in _FLOATS])
    fields = [texts[key] for key in _SCHEMA if key not in _FLOATS]
    return _text.join(_LITERALS, [*fields, _text.floats(floats, json.dumps)])


def write_trace_file(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_trace(trace, fh)
