"""Power-of-two rescaling: every command is equivariant under a change of
time unit.

Measuring time in units of ``2**-e`` multiplies ``m`` by ``4**-e`` and
``c``, ``h``, ``h0``, ``ch``, ``ca`` and ``cd`` by ``2**-e``; ``k``, ``vd``
and ``n`` keep their values.  Every rate of the spacing-error model, and so
every frequency, is then multiplied by ``2**e``, and every time by
``2**-e``.  The scaling is exact while the numbers stay normal, so each
command must give the same result bit for bit, its frequencies and times
scaled:

* ``analyze``'s critical frequencies and stable intervals, and the ``w``
  column of ``gen-trace``, scale by exactly ``2**e``;
* ``monitor``'s verdict on the generated trace is unchanged, apart from
  the omega its reason prints;
* a linear ``sweep`` over the scaled range writes the same ``re``, ``im``,
  ``magnitude`` and ``stable`` text, and its ``omega`` column scales;
* ``simulate --dt auto`` with omega scaled by ``2**e`` and the duration by
  ``2**-e`` reports the same attenuation ratios.

On the README parameters of all six models the property was measured to
hold for every ``e`` from ``E_MIN`` to ``E_MAX`` in steps of 8; the tests
check a grid of that range with both ends.  Beyond it ``analyze`` breaks:
at ``e = 256`` it and ``sweep`` refuse the spec, and at ``e = -272`` a
bidirectional model's ``beta`` underflows and ``analyze`` loses its low
stable band.  A change that widens what the commands handle widens this
range.

The ``gen-trace`` then ``monitor`` pair holds its verdict over the wider
range ``PAIR_E_MIN`` to ``PAIR_E_MAX``: the monitor evaluates ``Q(w^2)``
again on a scaled frequency unit wherever it is not a normal number, and
so reads neither an overflowed nor an underflowed ``Q``.  The range ends at
``e = 504``, the last step of 8 at which every scaled README parameter and
coefficient is still finite: at ``-512`` the mass, and at ``512`` the
bidirectional ``a0 = 2*k/m``, leaves the float range.  The pair is checked
on the README models and as a property of drawn specs.

A second family changes no unit of time: ``m``, ``k``, ``c``, ``ca`` and
``cd`` multiplied by ``2**j`` leave every coefficient the same double, so
``analyze``, the ``w`` column of ``gen-trace`` and ``monitor``'s verdict
are unchanged, for ``j`` from ``J_MIN`` to ``J_MAX``.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from platoon_stab import controller_spec_to_dict
from platoon_stab.cli import main
from conftest import AUT, BI, CS, SUPPORTED_COMBOS, UNI, VS, make_spec

E_MIN, E_MAX = -264, 248
PAIR_E_MIN, PAIR_E_MAX = -504, 504
# Every 16th exponent of the range, ends included, for the frequency-domain
# commands; every 24th and both ends for simulate, whose runs take longer.
_GRID = range(E_MIN, E_MAX + 1, 16)
_SIMULATE_GRID = sorted({*range(E_MIN, E_MAX + 1, 24), E_MAX})
# Every 32nd exponent of the pair's range, ends included.
_PAIR_GRID = sorted({*range(PAIR_E_MIN, PAIR_E_MAX + 1, 32), PAIR_E_MAX})
_TIME_FIELDS = ("c", "h", "h0", "ch", "ca", "cd")


def _scaled_spec(combo, e, **params):
    """The README spec of ``combo``, or of it with ``params`` in place of
    its parameters, with time in units of ``2**-e``."""
    spec = controller_spec_to_dict(make_spec(*combo, **params))
    params = spec["params"]
    params["m"] = math.ldexp(params["m"], -2 * e)
    for name in _TIME_FIELDS:
        params[name] = math.ldexp(params[name], -e)
    return spec


def _run(argv):
    """``main(argv)``'s exit code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _commands(spec_path, trace_path, e):
    """What the four frequency-domain commands give on the spec at
    ``spec_path``, with the frequencies the caller passes scaled by
    ``2**e``: analyze's report, the generated trace's events, the monitor's
    verdict without its timing, and the sweep's CSV rows."""
    code, out, err = _run(["analyze", "--spec", spec_path])
    assert (code, err) == (0, ""), err
    report = json.loads(out)
    code, _, err = _run(["gen-trace", "--seed", "7", "--len", "24", "--spec", spec_path,
                         "--violate", "17:P2", "--out", trace_path])
    assert (code, err) == (0, ""), err
    with open(trace_path, encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh]
    code, out, err = _run(["monitor", "--trace", trace_path])
    assert (code, err) == (4, ""), err
    verdict = json.loads(out)
    del verdict["seconds"]
    code, out, err = _run(["sweep", "--spec", spec_path, "--omega-min", repr(math.ldexp(0.1, e)),
                           "--omega-max", repr(math.ldexp(10.0, e)), "--points", "200",
                           "--spacing", "linear"])
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    return report, events, verdict, rows


@pytest.mark.parametrize("combo", SUPPORTED_COMBOS,
                         ids=["-".join(member.value for member in combo)
                              for combo in SUPPORTED_COMBOS])
def test_frequency_commands_are_equivariant_under_rescaling(tmp_path, combo):
    def write(spec, name):
        path = tmp_path / name
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    trace = str(tmp_path / "trace.jsonl")
    report, events, verdict, rows = _commands(write(_scaled_spec(combo, 0), "base.json"),
                                              trace, 0)
    assert verdict["first_violation"]["index"] == 17
    for e in _GRID:
        got_report, got_events, got_verdict, got_rows = _commands(
            write(_scaled_spec(combo, e), f"{e}.json"), trace, e)
        assert got_report["critical_frequencies"] == [
            math.ldexp(w, e) for w in report["critical_frequencies"]], e
        assert got_report["stable_intervals"] == [
            [math.ldexp(lo, e), None if hi is None else math.ldexp(hi, e)]
            for lo, hi in report["stable_intervals"]], e
        assert [event["w"] for event in got_events] == [
            math.ldexp(event["w"], e) for event in events], e
        omega = events[17]["w"]
        reason = verdict["first_violation"]["reason"]
        assert got_verdict == {**verdict, "first_violation": {
            **verdict["first_violation"],
            "reason": reason.replace(repr(omega), repr(math.ldexp(omega, e)))}}, e
        assert [row[1:] for row in got_rows] == [row[1:] for row in rows], e
        assert [float(row[0]) for row in got_rows] == [
            math.ldexp(float(row[0]), e) for row in rows], e


@pytest.mark.parametrize("combo", [(AUT, UNI, CS), (AUT, BI, VS)], ids=["classic", "bi-vs"])
def test_simulate_is_equivariant_under_rescaling(tmp_path, combo):
    def ratios(e):
        spec = tmp_path / f"{e}.json"
        spec.write_text(json.dumps(_scaled_spec(combo, e)), encoding="utf-8")
        report = tmp_path / "report.json"
        code, _, err = _run(["simulate", "--spec", str(spec), "--n", "4",
                             "--omega", repr(math.ldexp(3.0, e)),
                             "--duration", repr(math.ldexp(40.0, -e)), "--dt", "auto",
                             "--out", str(tmp_path / "t.csv"), "--report", str(report)])
        assert (code, err) == (0, ""), err
        return json.loads(report.read_text(encoding="utf-8"))["ratios"]

    expected = ratios(0)
    for e in _SIMULATE_GRID:
        assert ratios(e) == expected, e


def _monitored(spec, tmp_path, seed):
    """gen-trace's exit code and standard error on 24 events of ``spec``
    with a P2 violation at index 7, and the monitor's verdict on them
    without its timing (None where gen-trace refuses the spec)."""
    spec_path, trace_path = tmp_path / "spec.json", tmp_path / "trace.jsonl"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = _run(["gen-trace", "--seed", str(seed), "--len", "24", "--spec", str(spec_path),
                         "--violate", "7:P2", "--out", str(trace_path)])
    if code:
        return code, err, None
    with open(trace_path, encoding="utf-8") as fh:
        omega = [json.loads(line)["w"] for line in fh][7]
    code, out, err = _run(["monitor", "--trace", str(trace_path)])
    assert (code, err) == (4, ""), err
    verdict = json.loads(out)
    del verdict["seconds"]
    first = verdict["first_violation"]
    assert first["index"] == 7
    first["reason"] = first["reason"].replace(repr(omega), "<omega>")
    return 0, "", verdict


@pytest.mark.parametrize("combo", SUPPORTED_COMBOS,
                         ids=["-".join(member.value for member in combo)
                              for combo in SUPPORTED_COMBOS])
def test_monitor_verdict_on_a_generated_trace_holds_over_the_pair_range(tmp_path, combo):
    expected = _monitored(_scaled_spec(combo, 0), tmp_path, 7)
    assert expected[0] == 0
    for e in _PAIR_GRID:
        assert _monitored(_scaled_spec(combo, e), tmp_path, 7) == expected, e


_LOG_UNIFORM = st.floats(-2.0, 2.0).map(lambda x: 10.0 ** x)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SUPPORTED_COMBOS),
       st.fixed_dictionaries({name: _LOG_UNIFORM for name in ("m", "k", *_TIME_FIELDS, "vd")}),
       st.integers(0, 2 ** 32 - 1), st.integers(PAIR_E_MIN, PAIR_E_MAX))
@example((AUT, UNI, CS), {**dict.fromkeys((*_TIME_FIELDS, "vd"), 1.0), "m": 0.01, "k": 100.0},
         7, PAIR_E_MAX)  # passes: k/m = 1e4 times 4**504 is 2.7e307, w^2 overflows, w fits
def test_monitor_verdict_on_a_generated_trace_holds_for_drawn_specs(tmp_path_factory, combo,
                                                                    params, seed, e):
    tmp_path = tmp_path_factory.mktemp("pair")
    expected = _monitored(_scaled_spec(combo, 0, **params), tmp_path, seed)
    assert expected[0] == 0
    assert _monitored(_scaled_spec(combo, e, **params), tmp_path, seed) == expected, e


# The second family: m, k, c, ca and cd multiplied by 2**j divide out of
# every coefficient, which stays the same double while the scaled numbers
# are normal: from J_MIN, where ca = cd = 50 * 2**-1024 is the smallest of
# them, to J_MAX.  Below J_MIN a scaled parameter is subnormal and the
# generated w column differs (from j = -1032 down).  Above J_MAX the
# var_time_headway model's k * ch * vd, on an event's jittered parameters,
# can overflow before its division by m: at j = 1008 analyze still reports
# the coefficients of j = 0, but the monitor fails P2 on 55 of the 2000
# generated events.  Measured on every 8th j from -1048 to 1008.
J_MIN, J_MAX = -1024, 1000
_MASS_GRID = sorted({*range(J_MIN, J_MAX + 1, 448), J_MAX})
_MASS_FIELDS = ("m", "k", "c", "ca", "cd")


def _mass_scaled_spec(combo, j):
    """The README spec of ``combo`` with m, k, c, ca and cd times ``2**j``."""
    spec = controller_spec_to_dict(make_spec(*combo))
    for name in _MASS_FIELDS:
        spec["params"][name] = math.ldexp(spec["params"][name], j)
    return spec


def _verdicts(spec_path, trace_path):
    """analyze's report, the ``w`` column of 2000 generated events with a
    P2 violation at index 7, and the monitor's verdict on them without its
    timing."""
    code, out, err = _run(["analyze", "--spec", spec_path])
    assert (code, err) == (0, ""), err
    report = json.loads(out)
    code, _, err = _run(["gen-trace", "--seed", "3", "--len", "2000", "--spec", spec_path,
                         "--violate", "7:P2", "--out", trace_path])
    assert (code, err) == (0, ""), err
    with open(trace_path, encoding="utf-8") as fh:
        w = [json.loads(line)["w"] for line in fh]
    code, out, err = _run(["monitor", "--trace", trace_path])
    assert (code, err) == (4, ""), err
    verdict = json.loads(out)
    del verdict["seconds"]
    return report, w, verdict


@pytest.mark.parametrize("combo", SUPPORTED_COMBOS,
                         ids=["-".join(member.value for member in combo)
                              for combo in SUPPORTED_COMBOS])
def test_commands_are_invariant_under_scaling_the_mass_and_gains(tmp_path, combo):
    def verdicts(j):
        spec = tmp_path / f"{j}.json"
        spec.write_text(json.dumps(_mass_scaled_spec(combo, j)), encoding="utf-8")
        return _verdicts(str(spec), str(tmp_path / "trace.jsonl"))

    report, w, verdict = verdicts(0)
    assert verdict["first_violation"]["index"] == 7
    for j in _MASS_GRID:
        assert verdicts(j) == (report, w, verdict), j
