import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoon_stab import (
    Configuration,
    ControllerSpec,
    ControllerType,
    Event,
    critical_frequencies,
    error_model,
    is_stable_at,
    stability_constraint,
    Trace,
    TraceParseError,
    check_p1,
    check_p2,
    generate_trace,
    parse_trace,
    parse_trace_lines,
    run_monitor,
    Strategy,
    write_trace,
    write_trace_file,
)
from platoon_stab.monitor import _validate_lines, _vector_masks
from conftest import AUT, BI, CS, NON, SUPPORTED_COMBOS, UNI, VS, VTH, make_spec, random_params


def event(index=0, spec=None, omega=3.0, **param_overrides):
    return Event(index=index, spec=spec or make_spec(**param_overrides), omega=omega)


def naive_fold(trace):
    """Independent per-event re-implementation of the monitor."""
    p1_failures = p2_failures = 0
    first = None
    for e in trace:
        ok1 = check_p1(e)
        ok2 = check_p2(e)
        if not ok1:
            p1_failures += 1
        if not ok2:
            p2_failures += 1
        if first is None and not (ok1 and ok2):
            first = (e.index, "P1" if not ok1 else "P2")
    return p1_failures == 0 and p2_failures == 0, first, p1_failures, p2_failures


class TestPredicates:
    def test_p1_is_platoon_validity(self):
        assert check_p1(event())
        assert not check_p1(event(ca=0.0))
        assert check_p1(event(n=2))
        assert not check_p1(event(n=1))

    def test_p2_examples_around_the_bound(self):
        # 2k/m = 4 for the default parameters.
        assert check_p2(event(omega=3.0))
        assert not check_p2(event(omega=2.0))  # boundary fails strictly
        assert not check_p2(event(omega=-1.0))
        assert not check_p2(event(omega=0.0))

    def test_p2_equals_classic_bound_for_constant_spacing(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = random_params(rng)
            w = float(rng.uniform(0.01, 10.0))
            e = Event(0, ControllerSpec(AUT, UNI, CS, p), w)
            assert check_p2(e) == (w > 0 and 2.0 * p.k / p.m < w * w)

    def test_p2_total_on_undefined_coefficients(self):
        assert not check_p2(event(omega=3.0, m=0.0))   # division blows up
        assert not check_p2(event(spec=make_spec(AUT, BI, VTH), omega=3.0))

    def test_p2_evaluates_invalid_but_computable_platoons(self):
        # cd does not enter the coefficients, so P2 can still hold.
        assert check_p2(event(omega=3.0, cd=0.0))
        assert not check_p1(event(cd=0.0))


def reference_masks(trace):
    """P1 and P2 masks with the conjuncts, the coefficient map and Q each
    written out by hand, as the scan computed them before the model table."""
    p1 = (
        (trace.m > 0.0) & (trace.k > 0.0) & (trace.c > 0.0) & (trace.h > 0.0)
        & (trace.ch > 0.0) & (trace.vd > 0.0) & (trace.h0 > 0.0)
        & (trace.ca > 0.0) & (trace.cd > 0.0) & (trace.n > 1)
    )
    m, k, c = trace.m, trace.k, trace.c
    aut, uni = trace.ct == 0, trace.cf == 0
    cs, vs, vth = trace.st == 0, trace.st == 1, trace.st == 2
    uni_const, uni_var, uni_headway = aut & uni & cs, aut & uni & vs, aut & uni & vth
    bi_const, bi_var, non_auto = aut & ~uni & cs, aut & ~uni & vs, ~aut
    supported = non_auto | uni_const | uni_var | uni_headway | bi_const | bi_var
    with np.errstate(divide="ignore", invalid="ignore"):
        a0 = np.select([bi_const | bi_var, supported], [(2.0 * k) / m, k / m], default=np.nan)
        a1 = np.select(
            [uni_const, uni_var, uni_headway, bi_const, bi_var, non_auto],
            [c / m, (c + k * trace.h) / m, (c + k * trace.h0 + k * trace.ch * trace.vd) / m,
             (2.0 * c) / m, (2.0 * c + k * trace.h) / m, (c + trace.ca) / m],
            default=np.nan,
        )
        b0 = np.where(supported, k / m, np.nan)
        b1 = np.select([uni_headway, supported], [(c + k * trace.ch * trace.vd) / m, c / m], default=np.nan)
        alpha = a1 * a1 - b1 * b1 - 2.0 * a0
        beta = a0 * a0 - b0 * b0
        u = trace.w * trace.w
        p2 = (trace.w > 0.0) & (u * u + alpha * u + beta > 0.0)
    return p1, p2


@st.composite
def in_range_traces(draw):
    """Traces over all twelve controller combinations whose arithmetic
    cannot overflow, with zero and negative parameters and frequencies."""
    size = draw(st.integers(1, 40))
    edge = st.sampled_from((0.0, -0.0, -1.0))
    param = st.one_of(st.floats(1e-3, 1e4), edge)
    floats = draw(st.lists(param, min_size=9 * size, max_size=9 * size))
    w = draw(st.lists(st.one_of(st.floats(1e-3, 1e4), edge), min_size=size, max_size=size))
    combos = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2)),
                           min_size=size, max_size=size))
    n = draw(st.lists(st.integers(0, 20), min_size=size, max_size=size))
    ct, cf, st_ = np.array(combos, dtype=np.int8).T
    return Trace("hypothesis", ct, cf, st_, np.array(n, dtype=np.int64),
                 *np.array(floats).reshape(9, size), np.array(w))


class TestScanMasks:
    @settings(max_examples=40, deadline=None)
    @given(in_range_traces())
    def test_masks_match_hand_written_formulas(self, trace):
        p1, p2 = _vector_masks(trace)
        expected_p1, expected_p2 = reference_masks(trace)
        assert np.array_equal(p1, expected_p1)
        assert np.array_equal(p2, expected_p2)
        assert [check_p1(e) for e in trace] == p1.tolist()
        assert [check_p2(e) for e in trace] == p2.tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SUPPORTED_COMBOS), st.integers(0, 2 ** 32 - 1),
           st.lists(st.floats(-3.0, 300.0), min_size=1, max_size=50))
    def test_p2_agrees_with_magnitude_test_up_to_1e300(self, combo, seed, exponents):
        # Q(w^2) overflows from w near 1e77 on; P2 must still be |H| < 1.
        spec = ControllerSpec(*combo, random_params(np.random.default_rng(seed)))
        model = error_model(spec)
        crits = critical_frequencies(stability_constraint(model))
        omegas = [10.0 ** x for x in exponents]
        omegas = [w for w in omegas if not any(abs(w - c) <= 1e-9 * c for c in crits)]
        events = [Event(i, spec, w) for i, w in enumerate(omegas)]
        _, p2 = _vector_masks(Trace.from_events(events))
        for event, scanned in zip(events, p2.tolist()):
            expected = is_stable_at(model, event.omega)
            assert check_p2(event) == expected, event.omega
            assert scanned == expected, event.omega


class TestRunMonitor:
    def test_empty_trace_passes_vacuously(self):
        verdict = run_monitor(Trace.from_events([]))
        assert verdict.passed
        assert verdict.outcome == "pass"
        assert verdict.first_violation is None
        assert verdict.events == 0

    def test_clean_generated_trace_passes(self, const_spacing_spec):
        verdict = run_monitor(generate_trace(42, 1000, const_spacing_spec))
        assert verdict.passed
        assert verdict.events == 1000
        assert verdict.p1_failures == 0 and verdict.p2_failures == 0

    def test_injected_violation_is_localised_exactly(self, const_spacing_spec):
        verdict = run_monitor(generate_trace(7, 1000, const_spacing_spec, [(500, "P2")]))
        assert not verdict.passed
        assert verdict.first_violation.index == 500
        assert verdict.first_violation.predicate == "P2"
        assert verdict.p2_failures == 1

    def test_zero_frequency_event_fails_p2(self, const_spacing_spec):
        events = [Event(i, const_spacing_spec, 3.0) for i in range(1000)]
        events[417] = Event(417, const_spacing_spec, 0.0)
        verdict = run_monitor(Trace.from_events(events))
        assert not verdict.passed
        assert verdict.first_violation.index == 417
        assert verdict.first_violation.predicate == "P2"
        assert "0 < omega" in verdict.first_violation.reason

    def test_p1_reported_before_p2_on_the_same_event(self, const_spacing_spec):
        bad = Event(1, make_spec(m=0.0), -1.0)  # fails both predicates
        trace = Trace.from_events([Event(0, const_spacing_spec, 3.0), bad])
        verdict = run_monitor(trace)
        assert verdict.first_violation.index == 1
        assert verdict.first_violation.predicate == "P1"
        assert "0 < m violated" in verdict.first_violation.reason
        assert verdict.p1_failures == 1
        assert verdict.p2_failures == 1

    def test_counters_cover_the_whole_trace(self, const_spacing_spec):
        trace = generate_trace(3, 200, const_spacing_spec, [(10, "P1"), (50, "P2"), (120, "P2")])
        verdict = run_monitor(trace)
        assert verdict.first_violation.index == 10
        assert verdict.p1_failures >= 1
        assert verdict.p2_failures >= 2  # P1 injections may break P2 too
        assert verdict.events == 200

    def test_agrees_with_naive_fold(self):
        rng = np.random.default_rng(53)
        templates = [make_spec(*combo) for combo in SUPPORTED_COMBOS]
        for trial in range(20):
            template = templates[trial % len(templates)]
            length = int(rng.integers(0, 500))
            plan = []
            if length:
                picks = rng.choice(length, size=min(int(rng.integers(0, 4)), length), replace=False)
                plan = [(int(i), "P1" if rng.integers(2) else "P2") for i in picks]
            trace = generate_trace(int(rng.integers(1 << 30)), length, template, plan)
            verdict = run_monitor(trace)
            passed, first, p1f, p2f = naive_fold(trace)
            assert verdict.passed == passed
            assert verdict.p1_failures == p1f
            assert verdict.p2_failures == p2f
            if first is None:
                assert verdict.first_violation is None
            else:
                assert (verdict.first_violation.index, verdict.first_violation.predicate) == first

    def test_deterministic_verdict_fields(self, const_spacing_spec):
        trace = generate_trace(11, 300, const_spacing_spec, [(200, "P2")])
        a = run_monitor(trace)
        b = run_monitor(trace)
        assert a.to_dict() | {"seconds": 0} == b.to_dict() | {"seconds": 0}

    def test_appending_events_never_unfails(self, const_spacing_spec):
        failing = generate_trace(5, 50, const_spacing_spec, [(25, "P1")])
        assert not run_monitor(failing).passed
        extended = list(failing) + [Event(50 + i, const_spacing_spec, 3.0) for i in range(50)]
        verdict = run_monitor(Trace.from_events(extended))
        assert not verdict.passed
        assert verdict.first_violation.index == 25

    def test_verdict_json_shape(self, const_spacing_spec):
        verdict = run_monitor(generate_trace(1, 10, const_spacing_spec, [(4, "P2")]))
        obj = verdict.to_dict()
        assert obj["outcome"] == "fail"
        assert obj["first_violation"] == {
            "index": 4,
            "predicate": "P2",
            "reason": obj["first_violation"]["reason"],
        }
        assert set(obj) == {"outcome", "first_violation", "events",
                            "p1_failures", "p2_failures", "seconds"}
        json.dumps(obj)  # serialisable


class TestGenerator:
    def test_deterministic_bytes(self, const_spacing_spec):
        a, b = io.StringIO(), io.StringIO()
        write_trace(generate_trace(42, 200, const_spacing_spec, [(9, "P1")]), a)
        write_trace(generate_trace(42, 200, const_spacing_spec, [(9, "P1")]), b)
        assert a.getvalue() == b.getvalue()
        assert len(a.getvalue().splitlines()) == 200

    def test_different_seeds_differ(self, const_spacing_spec):
        a, b = io.StringIO(), io.StringIO()
        write_trace(generate_trace(1, 50, const_spacing_spec), a)
        write_trace(generate_trace(2, 50, const_spacing_spec), b)
        assert a.getvalue() != b.getvalue()

    def test_empty_trace(self, const_spacing_spec):
        trace = generate_trace(42, 0, const_spacing_spec)
        assert len(trace) == 0
        assert run_monitor(trace).passed

    def test_plan_validation(self, const_spacing_spec):
        with pytest.raises(ValueError):
            generate_trace(1, 10, const_spacing_spec, [(10, "P2")])
        with pytest.raises(ValueError):
            generate_trace(1, 10, const_spacing_spec, [(-1, "P1")])
        with pytest.raises(ValueError):
            generate_trace(1, 10, const_spacing_spec, [(3, "P3")])
        with pytest.raises(ValueError):
            generate_trace(1, -5, const_spacing_spec)

    def test_rejects_invalid_or_unsupported_template(self):
        with pytest.raises(ValueError):
            generate_trace(1, 10, make_spec(m=0.0))
        with pytest.raises(ValueError):
            generate_trace(1, 10, make_spec(AUT, BI, VTH))

    def test_p2_injection_on_everywhere_stable_model_uses_nonpositive_omega(self):
        # With the default headway-fluctuation gain the variable-headway
        # model attenuates at every positive frequency (for any jitter in
        # range), so the injector must fall back to a non-positive omega.
        template = make_spec(AUT, UNI, VTH)
        trace = generate_trace(13, 50, template, [(20, "P2")])
        assert trace[20].omega <= 0.0
        verdict = run_monitor(trace)
        assert verdict.first_violation.index == 20
        assert verdict.first_violation.predicate == "P2"

    def test_generated_events_jitter_around_template(self, const_spacing_spec):
        trace = generate_trace(99, 500, const_spacing_spec)
        m = np.array([e.spec.params.m for e in trace])
        assert 850.0 <= m.min() and m.max() <= 1150.0
        assert m.std() > 0.0

    def test_all_templates_produce_clean_traces(self):
        # The last template's gains square beyond the float range.
        templates = [make_spec(*combo) for combo in SUPPORTED_COMBOS] + [make_spec(k=1e308, c=1e308)]
        for i, template in enumerate(templates):
            trace = generate_trace(100 + i, 300, template)
            assert run_monitor(trace).passed


class TestTraceIO:
    def test_round_trip_preserves_verdict_and_bytes(self, const_spacing_spec, tmp_path):
        trace = generate_trace(21, 400, const_spacing_spec, [(123, "P2")])
        path = tmp_path / "trace.jsonl"
        write_trace_file(trace, path)
        parsed = parse_trace(path)
        assert len(parsed) == 400
        a = run_monitor(trace).to_dict() | {"seconds": 0}
        b = run_monitor(parsed).to_dict() | {"seconds": 0}
        assert a == b
        again = tmp_path / "again.jsonl"
        write_trace_file(parsed, again)
        assert path.read_bytes() == again.read_bytes()

    def test_line_format(self, const_spacing_spec):
        buf = io.StringIO()
        write_trace(generate_trace(2, 3, const_spacing_spec), buf)
        lines = buf.getvalue().splitlines()
        obj = json.loads(lines[1])
        assert list(obj) == ["i", "ct", "cf", "st", "n", "m", "k", "c", "h",
                             "ch", "vd", "h0", "ca", "cd", "w"]
        assert obj["i"] == 1
        assert obj["ct"] == "autonomous"

    def test_events_round_trip_through_lines(self, const_spacing_spec):
        trace = Trace.from_events([Event(0, const_spacing_spec, 2.5), Event(1, make_spec(NON, BI, VS), 0.7)])
        buf = io.StringIO()
        write_trace(trace, buf)
        parsed = parse_trace_lines(io.StringIO(buf.getvalue()))
        assert parsed[0] == trace[0]
        assert parsed[1] == trace[1]

    @pytest.mark.parametrize("line,fragment", [
        ('{"i":0,"ct":"autonomous"', "invalid JSON"),
        ("", "empty line"),
        ("[1,2]", "JSON object"),
        ('{"i":0.5}', "missing key"),
        ('{"i":"0","ct":"autonomous","cf":"unidirectional","st":"constant_spacing",'
         '"n":2,"m":1.0,"k":1.0,"c":1.0,"h":1.0,"ch":1.0,"vd":1.0,"h0":1.0,"ca":1.0,"cd":1.0,"w":3.0}',
         "'i' must be an integer"),
        ('{"i":5,"ct":"autonomous","cf":"unidirectional","st":"constant_spacing",'
         '"n":2,"m":1.0,"k":1.0,"c":1.0,"h":1.0,"ch":1.0,"vd":1.0,"h0":1.0,"ca":1.0,"cd":1.0,"w":3.0}',
         "does not match position"),
        ('{"i":0,"ct":"manual","cf":"unidirectional","st":"constant_spacing",'
         '"n":2,"m":1.0,"k":1.0,"c":1.0,"h":1.0,"ch":1.0,"vd":1.0,"h0":1.0,"ca":1.0,"cd":1.0,"w":3.0}',
         "'ct' must be one of"),
        ('{"i":0,"ct":"autonomous","cf":"unidirectional","st":"constant_spacing",'
         '"n":2.0,"m":1.0,"k":1.0,"c":1.0,"h":1.0,"ch":1.0,"vd":1.0,"h0":1.0,"ca":1.0,"cd":1.0,"w":3.0}',
         "'n' must be an integer"),
        ('{"i":0,"ct":"autonomous","cf":"unidirectional","st":"constant_spacing",'
         '"n":2,"m":NaN,"k":1.0,"c":1.0,"h":1.0,"ch":1.0,"vd":1.0,"h0":1.0,"ca":1.0,"cd":1.0,"w":3.0}',
         "invalid JSON"),
        ('{"i":0,"ct":"autonomous","cf":"unidirectional","st":"constant_spacing",'
         '"n":2,"m":1e999,"k":1.0,"c":1.0,"h":1.0,"ch":1.0,"vd":1.0,"h0":1.0,"ca":1.0,"cd":1.0,"w":3.0}',
         "'m' must be finite"),
        ('{"i":0,"ct":"autonomous","cf":"unidirectional","st":"constant_spacing",'
         '"n":2,"m":true,"k":1.0,"c":1.0,"h":1.0,"ch":1.0,"vd":1.0,"h0":1.0,"ca":1.0,"cd":1.0,"w":3.0}',
         "'m' must be a number"),
        ('{"i":0,"ct":"autonomous","cf":"unidirectional","st":"constant_spacing","extra":1,'
         '"n":2,"m":1.0,"k":1.0,"c":1.0,"h":1.0,"ch":1.0,"vd":1.0,"h0":1.0,"ca":1.0,"cd":1.0,"w":3.0}',
         "unknown key 'extra'"),
    ])
    def test_malformed_lines_are_refused(self, line, fragment):
        with pytest.raises(TraceParseError, match="line 1") as excinfo:
            parse_trace_lines(io.StringIO(line + "\n"))
        assert fragment in str(excinfo.value)

    def test_error_names_the_right_line(self, const_spacing_spec):
        buf = io.StringIO()
        write_trace(generate_trace(2, 5, const_spacing_spec), buf)
        lines = buf.getvalue().splitlines()
        lines[3] = lines[3][:-10]  # truncate the fourth event
        with pytest.raises(TraceParseError, match="line 4"):
            parse_trace_lines(io.StringIO("\n".join(lines) + "\n"))

    def test_from_events_requires_contiguous_indices(self, const_spacing_spec):
        with pytest.raises(ValueError, match="contiguous"):
            Trace.from_events([Event(1, const_spacing_spec, 3.0)])

    def test_trace_indexing(self, const_spacing_spec):
        trace = generate_trace(8, 10, const_spacing_spec)
        assert trace[0].index == 0
        assert trace[-1].index == 9
        with pytest.raises(IndexError):
            trace[10]
        with pytest.raises(TypeError):
            trace["0"]


# -- Chunked trace I/O against per-event references -------------------------

_FLOAT_KEYS = ("m", "k", "c", "h", "ch", "vd", "h0", "ca", "cd", "w")
_COLUMNS = ("ct", "cf", "st", "n", *_FLOAT_KEYS)


def reference_write_trace(trace, fh):
    """One ``json.dumps`` per event: the writer format the chunked one must match."""
    ct, cf, st_ = tuple(ControllerType), tuple(Configuration), tuple(Strategy)
    for i in range(len(trace)):
        obj = {
            "i": i,
            "ct": ct[trace.ct[i]].value,
            "cf": cf[trace.cf[i]].value,
            "st": st_[trace.st[i]].value,
            "n": int(trace.n[i]),
            **{key: float(getattr(trace, key)[i]) for key in _FLOAT_KEYS},
        }
        fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def written(trace, writer=write_trace):
    buf = io.StringIO()
    writer(trace, buf)
    return buf.getvalue()


def assert_same_lines(actual, expected):
    """Compare two trace texts line by line, naming the first that differs."""
    actual, expected = actual.splitlines(True), expected.splitlines(True)
    for lineno, (a, b) in enumerate(zip(actual, expected), 1):
        assert a == b, f"line {lineno}"
    assert len(actual) == len(expected)


def columns(trace_or_tuple):
    """Dtype and bytes of every column, so -0.0 and 0.0 differ."""
    if isinstance(trace_or_tuple, Trace):
        trace_or_tuple = [getattr(trace_or_tuple, name) for name in _COLUMNS]
    return [(a.dtype.str, a.tobytes()) for a in trace_or_tuple]


def parsed_or_error(text):
    try:
        return columns(parse_trace_lines(io.StringIO(text)))
    except TraceParseError as exc:
        return str(exc)


def validated_or_error(text):
    """The per-line validator over the whole text as one block."""
    try:
        return columns(_validate_lines(io.StringIO(text).readlines(), 0))
    except TraceParseError as exc:
        return str(exc)


_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300,
                   1e-300, 3.0, -7.0, 2.0 ** 53, float("nan"), float("inf"), float("-inf"))


@st.composite
def column_traces(draw, finite=False, max_size=16):
    size = draw(st.integers(0, max_size))
    special = [v for v in _SPECIAL_FLOATS if not finite or np.isfinite(v)]
    number = st.one_of(st.floats(allow_nan=not finite, allow_infinity=not finite),
                       st.sampled_from(special), st.integers(-10**6, 10**6).map(float))
    floats = draw(st.lists(number, min_size=10 * size, max_size=10 * size))
    codes = draw(st.lists(st.integers(0, 5), min_size=3 * size, max_size=3 * size))
    n = draw(st.lists(st.integers(0, 2 ** 63 - 1), min_size=size, max_size=size))
    ct, cf, st_ = np.array(codes, dtype=np.int8).reshape(3, size)
    return Trace(
        "hypothesis",
        ct % len(ControllerType), cf % len(Configuration), st_ % len(Strategy),
        np.array(n, dtype=np.int64),
        *np.array(floats, dtype=np.float64).reshape(10, size),
    )


class TestChunkedTraceIO:
    @settings(max_examples=50, deadline=None)
    @given(column_traces())
    def test_writer_matches_per_event_json_dumps(self, trace):
        assert_same_lines(written(trace), written(trace, reference_write_trace))

    def test_writer_non_finite_omega_from_events(self, const_spacing_spec):
        omegas = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300, 1e-300, 4.0]
        trace = Trace.from_events([Event(i, const_spacing_spec, w) for i, w in enumerate(omegas)])
        text = written(trace)
        assert_same_lines(text, written(trace, reference_write_trace))
        assert '"w":NaN}' in text and '"w":Infinity}' in text and '"w":-Infinity}' in text

    def test_writer_matches_across_chunks(self):
        template = make_spec(AUT, BI, VS)
        trace = generate_trace(17, 3 * 4096 + 5, template, [(4095, "P1"), (4096, "P2")])
        assert_same_lines(written(trace), written(trace, reference_write_trace))

    @settings(max_examples=40, deadline=None)
    @given(column_traces(finite=True))
    def test_parser_round_trips_and_matches_validator(self, trace):
        text = written(trace)
        result = parsed_or_error(text)
        assert result == columns(trace)
        assert result == validated_or_error(text)

    def test_integer_literals_parse_as_their_float_values(self):
        line = ('{"i":0,"ct":"autonomous","cf":"unidirectional","st":"constant_spacing",'
                '"n":2,"m":1000,"k":18446744073709551617,"c":-3,"h":1,"ch":1,"vd":1,'
                '"h0":1,"ca":1,"cd":1,"w":3}\n')
        parsed = parse_trace_lines(io.StringIO(line))
        assert parsed.m.tolist() == [1000.0]
        assert parsed.k.tolist() == [float(2 ** 64 + 1)]
        assert columns(parsed) == validated_or_error(line)


def _set(key, text):
    """Replace the value of one top-level field in an event line."""
    return lambda line: re.sub(rf'"{key}":[^,}}]+', f'"{key}":{text}', line, count=1)


_MUTATIONS = {
    # The malformed lines of TestTraceIO.test_malformed_lines_are_refused.
    "truncated": lambda line: line[:-10],
    "empty": lambda line: "",
    "array": lambda line: "[1,2]",
    "missing-key": lambda line: '{"i":0.5}',
    "i-string": _set("i", '"0"'),
    "index-gap": _set("i", "99999"),
    "ct-unknown": _set("ct", '"manual"'),
    "n-float": _set("n", "2.0"),
    "nan": _set("m", "NaN"),
    "overflowing-float": _set("m", "1e999"),
    "m-bool": _set("m", "true"),
    "unknown-key": lambda line: line[:-1] + ',"extra":1}',
    # Type and range edges of the column-wise checks.
    "i-bool": _set("i", "false"),  # equal to the index of line 1
    "i-float": _set("i", "0.0"),
    "n-bool": _set("n", "false"),
    "n-negative": _set("n", "-1"),
    "n-above-int64": _set("n", str(2 ** 63)),
    "n-int64-max": _set("n", str(2 ** 63 - 1)),
    "401-digits": _set("w", "9" * 401),
    "integer-valued": _set("m", "1000"),
    "integer-above-int64": _set("k", str(2 ** 64 + 1)),
    # Lines JSON accepts with surrounding whitespace.
    "padded": lambda line: "  " + line + " \t",
    "crlf": lambda line: line + "\r",
}


@pytest.fixture(scope="module")
def boundary_trace():
    """A trace one event past the second chunk boundary (4098 lines), and
    the per-line validator's columns for it."""
    trace = generate_trace(31, 4098, make_spec(NON, UNI, CS), [(4096, "P2")])
    lines = written(trace).splitlines()
    return lines, _validate_lines(lines, 0)


def mutated(boundary_trace, name, lineno):
    """The text with one line mutated, and the per-line validator's verdict.

    The validator checks each line on its own, given its position, so its
    verdict on the whole text is its verdict on the mutated line spliced
    into the columns of the intact trace.
    """
    lines, intact = boundary_trace
    lines = list(lines)
    lines[lineno - 1] = _MUTATIONS[name](lines[lineno - 1])
    try:
        row = _validate_lines([lines[lineno - 1]], lineno - 1)
    except TraceParseError as exc:
        expected = str(exc)
    else:
        expected = columns(np.concatenate([col[:lineno - 1], r, col[lineno:]])
                           for col, r in zip(intact, row))
    return "\n".join(lines) + "\n", expected


class TestChunkBoundaries:
    @pytest.mark.parametrize("name", sorted(_MUTATIONS))
    def test_mutation_matches_per_line_validator(self, boundary_trace, name):
        for lineno in (1, 4096, 4097, 4098):
            text, expected = mutated(boundary_trace, name, lineno)
            assert parsed_or_error(text) == expected
            if isinstance(expected, str):
                assert expected.startswith(f"line {lineno}: ")

    def test_splice_agrees_with_whole_text_validation(self, boundary_trace):
        for name, lineno in (("truncated", 4097), ("padded", 4096), ("401-digits", 1)):
            text, expected = mutated(boundary_trace, name, lineno)
            assert validated_or_error(text) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(_MUTATIONS)), st.integers(1, 4098))
    def test_mutation_anywhere(self, boundary_trace, name, lineno):
        text, expected = mutated(boundary_trace, name, lineno)
        assert parsed_or_error(text) == expected


def test_parse_peak_memory_is_a_small_multiple_of_the_columns(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_trace_file(generate_trace(3, 50_000, make_spec()), path)
    tracemalloc.start()
    try:
        trace = parse_trace(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    column_bytes = sum(getattr(trace, name).nbytes for name in _COLUMNS)
    assert peak < 4 * column_bytes, (peak, column_bytes)
