"""Every malformed input exits 2 and names its line, and every number a
public call takes follows the rule of spec files and trace lines.

One property over bytes derived from a valid trace file and a valid spec
file, in two tests, one for each input.  The mutations follow the catalogue of N. Seriot, "Parsing JSON is a
Minefield" (2016): deep nesting, duplicate and missing names, a byte order
mark, NUL bytes, lone surrogates, CR and CRLF line ends, long numbers and
huge exponents, the ``NaN`` and ``Infinity`` tokens, and truncation.  Each
mutation is written here by hand and says whether it makes its line
malformed, so the expected outcome does not come from the reader under
test.  ``cli.main`` runs in this process.

A third property calls the library: each numeric argument of a public call,
given as a numpy integer or float equal to a valid Python value, gives the
result of that value bit for bit, and a bool, a string, None, or a nan or
an infinity for a float argument, is a ValueError that names the argument.
"""

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

import numpy as np

from platoon_stab import (
    ErrorModel,
    SimConfig,
    controller_spec_to_dict,
    frequency_response,
    generate_trace,
    is_stable_at,
    monitor,
    simulate_chain,
    sine_input,
    sweep,
    write_trace,
)
from platoon_stab.cli import main
from platoon_stab.model import _PARAM_KINDS, _SPEC_ENUMS
from platoon_stab.monitor import _CHUNK, _SCHEMA
from conftest import NON, UNI, CS, make_params, make_spec

# Two chunks, so that a split parse reads them in two ranges.
LINES = _CHUNK + 40
DEEP = 5000  # far beyond sys.getrecursionlimit()
FLOATS = [key for key, kind in _SCHEMA.items() if kind is float]


def _value(key, text):
    """Replace the value of ``key``, a string or a number, by
    ``text(value, at)``."""
    def mutate(data, at):
        pattern = rb'("%s": ?)([^,}]+)' % key.encode()
        return re.sub(pattern, lambda m: m[1] + text(m[2], at), data, count=1)
    return mutate


def _drop(key):
    """Remove the pair of ``key`` and the comma that joins it."""
    def mutate(data, at):
        pair = rb'"%s": ?[^,}]+' % key.encode()
        return re.sub(pair + rb", ?|, ?" + pair, b"", data, count=1)
    return mutate


def _insert(byte, span):
    """Insert ``byte`` at a position drawn in ``span(data)``."""
    def mutate(data, at):
        lo, hi = span(data)
        at = lo + at % (hi - lo)
        return data[:at] + byte + data[at:]
    return mutate


def _long(value, at):
    """The same number with 400 more digits: zeros at the mantissa's end."""
    mantissa, e, exponent = value.partition(b"e")
    return mantissa + (b"" if b"." in mantissa else b".") + b"0" * 400 + e + exponent


# The mutations of one key: name -> (function of the text and a drawn int,
# whether the result is malformed).  Each text, a trace line or a spec
# file, ends with its closing brace and a newline.
def mutations(key):
    return {
        "nested-array": (_value(key, lambda v, at: b"[" * DEEP + b"]" * DEEP), True),
        "nested-object": (_value(key, lambda v, at: b'{"a":' * DEEP + b"0" + b"}" * DEEP), True),
        "duplicate-key": (_value(key, lambda v, at: v + b',"%s":' % key.encode() + v), True),
        "missing-key": (_drop(key), True),
        "bom": (lambda data, at: b"\xef\xbb\xbf" + data, True),
        "nul": (_insert(b"\x00", lambda data: (0, len(data))), True),
        "surrogate-bytes": (_value(key, lambda v, at: b'"\xed\xa0\x80"'), True),
        "surrogate-escape": (_value(key, lambda v, at: b'"\\ud800"'), True),
        "cr-in-string": (_value(key, lambda v, at: b'"auto\rnomous"'), True),
        "huge-exponent": (_value(key, lambda v, at: b"-1e999999999999"[at % 2:]), True),
        "long-integer": (_value(key, lambda v, at: b"9" * (401, 5000)[at % 2]), True),
        "token": (_value(key, lambda v, at: (b"NaN", b"Infinity", b"-Infinity")[at % 3]), True),
        "truncated": (lambda data, at: data[:1 + at % (len(data) - 2)], True),
        # Only a trace line ends at a line end, so only a trace line is
        # malformed by a CR inside it, or not by one at its end.
        "cr-inside": (_insert(b"\r", lambda data: (0, len(data) - 1)), True),
        "cr-ending": (lambda data, at: data[:-1] + (b"\r", b"\r\n")[at % 2], False),
        # Valid numbers: float keys only, as "i" and "n" take integers.
        "long-float": (_value(key if key in FLOATS else "w", _long), False),
        "tiny-exponent": (_value(key if key in FLOATS else "w", lambda v, at: b"1e-999999"), False),
    }


TRACE_ONLY = {"cr-inside", "cr-ending", "long-float", "tiny-exponent"}
NAMES = sorted(mutations("w"))
SPEC_NAMES = sorted(set(NAMES) - TRACE_ONLY)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The lines of a valid trace, a valid spec file, and a directory."""
    trace = generate_trace(5, LINES, make_spec(NON, UNI, CS), [(3, "P2"), (_CHUNK + 2, "P1")])
    text = io.StringIO()
    write_trace(trace, text)
    spec = json.dumps(controller_spec_to_dict(make_spec())).encode() + b"\n"
    return text.getvalue().encode().splitlines(True), spec, tmp_path_factory.mktemp("fuzz")


def run(*argv):
    """The exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


EDGES = st.sampled_from([1, 2, _CHUNK, _CHUNK + 1, LINES]) | st.integers(1, LINES)
MUTATION = st.tuples(st.sampled_from(NAMES), st.sampled_from(list(_SCHEMA)), st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(changes=st.dictionaries(EDGES, MUTATION, min_size=1, max_size=3))
@example(changes={_CHUNK + 1: ("nested-array", "w", 0)})
@example(changes={_CHUNK: ("duplicate-key", "w", 0)})
@example(changes={1: ("cr-ending", "m", 1), LINES: ("token", "m", 0)})
@example(changes={2: ("truncated", "ct", 9), _CHUNK + 1: ("bom", "i", 0)})
def test_a_mutated_trace_exits_0_2_or_4_naming_its_first_bad_line(files, changes):
    lines, _, folder = files
    lines = list(lines)
    bad = []
    for lineno, (name, key, at) in sorted(changes.items()):
        if lineno > len(lines):  # cut off by a truncation above
            break
        mutate, malformed = mutations(key)[name]
        lines[lineno - 1] = mutate(lines[lineno - 1], at)
        if malformed:
            bad.append(lineno)
        if name == "truncated":
            del lines[lineno:]
    path = folder / "trace.jsonl"
    path.write_bytes(b"".join(lines))
    outcomes = []
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monitor, "_SPLIT", _CHUNK // 2)
            patch.setattr(monitor.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                          raising=False)
            code, out, err = run("monitor", "--trace", str(path))
        verdict = out and json.loads(out)
        if verdict:
            del verdict["seconds"]
        outcomes.append((code, verdict, err))
    assert outcomes[0] == outcomes[1]
    code, verdict, err = outcomes[0]
    if bad:
        assert (code, verdict) == (2, "")
        assert re.fullmatch(rf"error: line {min(bad)}: [^\n]+\n", err), err
    else:
        assert code in (0, 4) and verdict["events"] == len(lines)
        assert err == ""


SPEC_KEYS = [*_SPEC_ENUMS, *_PARAM_KINDS]
COMMANDS = [
    ["analyze"],
    ["sweep", "--omega-min", "1", "--omega-max", "2", "--points", "3", "--out"],
    ["simulate", "--n", "2", "--omega", "3", "--duration", "1", "--report"],
    ["gen-trace", "--seed", "1", "--len", "3", "--out"],
]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(SPEC_NAMES), key=st.sampled_from(SPEC_KEYS), at=st.integers(0, 2**16))
@example(name="nested-array", key="m", at=0)
@example(name="duplicate-key", key="n", at=0)
def test_every_command_on_a_mutated_spec_exits_2_with_one_error_line(files, name, key, at):
    _, spec, folder = files
    mutate, malformed = mutations(key)[name]
    assert malformed
    path = folder / "spec.json"
    path.write_bytes(mutate(spec, at))
    out = folder / "out"
    for command in COMMANDS:
        if command[-1].startswith("--"):
            command = [*command, str(out)]
        code, stdout, err = run(*command, "--spec", str(path))
        assert (code, stdout) == (2, ""), (command, err)
        assert re.fullmatch(r"error: [^\n]+\n", err), err
        assert not out.exists()


MODEL = ErrorModel(a0=2.0, a1=0.4, b0=2.0, b1=0.4)
CFG = SimConfig(dt=1 / 16, duration=8.0)


def _written(trace):
    text = io.StringIO()
    write_trace(trace, text)
    return text.getvalue()


def _series(series):
    return series.t.tobytes(), series.z.tobytes(), series.zdot.tobytes()


def _sweep(result):
    return tuple(getattr(result, key).tobytes()
                 for key in ("omega", "value", "magnitude", "stable"))


# Multiples of 1/8, which every numpy float type holds exactly.
EIGHTHS = st.integers(1, 64).map(lambda k: k / 8)

# Each numeric argument of a public call, as "call.argument" -> (the call
# with that argument and valid others, as a comparable result; its kind;
# valid Python values).
ARGUMENTS = {
    **{f"PlatoonParams.{name}": (lambda v, name=name: make_params(**{name: v}), float, EIGHTHS)
       for name, kind in _PARAM_KINDS.items() if kind is float},
    "PlatoonParams.n": (lambda v: make_params(n=v), int, st.integers(-100, 300)),
    "SimConfig.dt": (lambda v: SimConfig(dt=v, duration=8.0), float,
                     st.integers(4, 8).map(lambda k: 2.0 ** -k)),
    "SimConfig.duration": (lambda v: SimConfig(dt=1 / 16, duration=v), float,
                           st.integers(13, 40).map(lambda k: k / 2)),
    "SimConfig.discard": (lambda v: SimConfig(dt=1 / 16, duration=8.0, discard=v), float,
                          st.integers(0, 7).map(lambda k: k / 8)),
    "simulate_chain.n": (lambda v: _series(simulate_chain(MODEL, v, CFG, sine_input(1.0, 3.0))),
                         int, st.integers(2, 5)),
    "sweep.omega_min": (lambda v: _sweep(sweep(MODEL, v, 9.0, 7)), float, EIGHTHS),
    "sweep.omega_max": (lambda v: _sweep(sweep(MODEL, 0.5, v, 7)), float,
                        EIGHTHS.map(lambda w: 1.0 + w)),
    "sweep.points": (lambda v: _sweep(sweep(MODEL, 0.5, 9.0, v, "linear")), int,
                     st.integers(2, 200)),
    "frequency_response.omega": (lambda v: frequency_response(MODEL, v), float, EIGHTHS),
    "is_stable_at.omega": (lambda v: is_stable_at(MODEL, v), float, EIGHTHS),
    "generate_trace.seed": (lambda v: _written(generate_trace(v, 5, make_spec())), int,
                            st.integers(0, 300)),
    "generate_trace.length": (lambda v: _written(generate_trace(1, v, make_spec())), int,
                              st.integers(0, 40)),
    "generate_trace.violation index": (
        lambda v: _written(generate_trace(1, 5, make_spec(), [(v, "P2")])), int,
        st.integers(0, 4)),
}
NUMPY_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
               np.float16, np.float32, np.float64, np.longdouble]


def _holds(kind, number_type, value):
    """Whether ``number_type`` holds ``value`` exactly, as an integer where
    ``kind`` is int."""
    if kind is int and not issubclass(number_type, np.integer):
        return False
    try:
        return number_type(value) == value
    except OverflowError:
        return False


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(ARGUMENTS)), data=st.data())
def test_a_numpy_number_gives_the_result_of_its_value(name, data):
    call, kind, values = ARGUMENTS[name]
    value = data.draw(values, label="value")
    types = [t for t in NUMPY_TYPES if _holds(kind, t, value)]
    number = data.draw(st.sampled_from(types), label="type")(value)
    assert call(number) == call(value)


NOT_NUMBERS = [True, False, np.True_, np.False_, "1", None]
NOT_FINITE = [math.nan, math.inf, -math.inf, np.float32("nan"), np.float64("-inf")]


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(ARGUMENTS)), data=st.data())
def test_a_bool_a_string_none_or_a_non_finite_float_is_refused_by_name(name, data):
    call, kind, _ = ARGUMENTS[name]
    at = data.draw(st.integers(0, len(NOT_NUMBERS) + len(NOT_FINITE) * (kind is float) - 1),
                   label="at")
    value = (NOT_NUMBERS + NOT_FINITE)[at]
    argument = name.partition(".")[2]
    with pytest.raises(ValueError) as excinfo:
        call(value)
    what = "an integer" if kind is int else "a number"
    expected = f"must be {what}, got {value!r}" if at < len(NOT_NUMBERS) else "must be finite"
    assert str(excinfo.value) == f"{argument} {expected}"
