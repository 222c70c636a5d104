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
check a grid of that range with both ends.  Beyond it the commands break
today: at ``e = 256`` ``analyze`` and ``sweep`` refuse the spec, and at
``e = -272`` ``monitor`` fails a trace that ``gen-trace`` generated.  A
change that widens what the commands handle widens this range.
"""

import contextlib
import io
import json
import math

import pytest

from platoon_stab import controller_spec_to_dict
from platoon_stab.cli import main
from conftest import AUT, BI, CS, SUPPORTED_COMBOS, UNI, VS, make_spec

E_MIN, E_MAX = -264, 248
# Every 16th exponent of the range, ends included, for the frequency-domain
# commands; every 24th and both ends for simulate, whose runs take longer.
_GRID = range(E_MIN, E_MAX + 1, 16)
_SIMULATE_GRID = sorted({*range(E_MIN, E_MAX + 1, 24), E_MAX})
_TIME_FIELDS = ("c", "h", "h0", "ch", "ca", "cd")


def _scaled_spec(combo, e):
    """The README spec of ``combo`` with time in units of ``2**-e``."""
    spec = controller_spec_to_dict(make_spec(*combo))
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
