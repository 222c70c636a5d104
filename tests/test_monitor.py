import hashlib
import io
import json
import math
import os
import re
import signal
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from platoon_stab import monitor
from platoon_stab import (
    ChainSeries,
    Configuration,
    ControllerSpec,
    ControllerType,
    Event,
    controller_spec_from_dict,
    controller_spec_to_dict,
    critical_frequencies,
    error_model,
    is_stable_at,
    stability_constraint,
    Trace,
    TraceParseError,
    UnsupportedControllerError,
    Violation,
    check_p1,
    check_p2,
    generate_trace,
    parse_trace,
    parse_trace_lines,
    run_monitor,
    Strategy,
    StateSeries,
    SweepResult,
    write_chain_csv,
    write_state_csv,
    write_sweep_csv,
    write_trace,
    write_trace_file,
)
from platoon_stab.monitor import _BLOCK, _CHUNK, _validate_lines, _vector_masks
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
    cannot overflow, with zero and negative parameters and frequencies.
    Half of them hold one combination for every event, the one with no
    model included, and half have only valid platoons: the scan's
    whole-column paths for the model and for P1."""
    size = draw(st.integers(1, 40))
    edge = st.sampled_from((0.0, -0.0, -1.0))
    valid = draw(st.booleans())
    param = st.floats(1e-3, 1e4) if valid else st.one_of(st.floats(1e-3, 1e4), edge)
    floats = draw(st.lists(param, min_size=9 * size, max_size=9 * size))
    w = draw(st.lists(st.one_of(st.floats(1e-3, 1e4), edge), min_size=size, max_size=size))
    combo = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2))
    if draw(st.booleans()):
        combos = [draw(combo)] * size
    else:
        combos = draw(st.lists(combo, min_size=size, max_size=size))
    n = draw(st.lists(st.integers(2 if valid else 0, 20), min_size=size, max_size=size))
    ct, cf, st_ = np.array(combos, dtype=np.int8).T
    return Trace("hypothesis", ct, cf, st_, np.array(n, dtype=np.int64),
                 *np.array(floats).reshape(9, size), np.array(w))


class TestScanMasks:
    @settings(max_examples=40, deadline=None)
    @given(in_range_traces())
    @example(Trace.from_events([event(i, make_spec(AUT, BI, VTH), w)  # no model: P2 false
                                for i, w in enumerate((0.5, 3.0, 100.0))]))
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

    def test_a_combination_without_a_model_is_named_in_the_reason(self, const_spacing_spec):
        # It has no Q to blame: the reason is the error the model layer gives.
        no_model = make_spec(AUT, BI, VTH)
        events = [Event(0, const_spacing_spec, 3.0),
                  *(event(i, no_model, w) for i, w in enumerate((0.5, 3.0, 100.0), 1))]
        verdict = run_monitor(Trace.from_events(events))
        with pytest.raises(UnsupportedControllerError) as excinfo:
            error_model(no_model)
        assert verdict.first_violation == Violation(1, "P2", str(excinfo.value))
        assert (verdict.p1_failures, verdict.p2_failures) == (0, 3)

    def test_p1_reported_before_p2_on_the_same_event(self, const_spacing_spec):
        bad = Event(1, make_spec(m=0.0), -1.0)  # fails both predicates
        trace = Trace.from_events([Event(0, const_spacing_spec, 3.0), bad])
        verdict = run_monitor(trace)
        assert verdict.first_violation.index == 1
        assert verdict.first_violation.predicate == "P1"
        assert "0 < m violated" in verdict.first_violation.reason
        assert verdict.p1_failures == 1
        assert verdict.p2_failures == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", monitor._PARAM_KEYS)
    def test_non_finite_parameter_fails_p1(self, const_spacing_spec, name, value):
        # An in-memory trace can hold values that no trace file or
        # PlatoonParams admits; P1 reports them instead of raising.
        trace = generate_trace(1, 10, const_spacing_spec)
        trace = Trace(trace.source, *(getattr(trace, key).copy() for key in monitor._COLUMNS))
        getattr(trace, name)[3] = value
        verdict = run_monitor(trace)
        assert (verdict.first_violation.index, verdict.first_violation.predicate) == (3, "P1")
        assert verdict.first_violation.reason == f"0 < {name} violated"
        assert verdict.p1_failures == 1

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

    def test_passed_is_decided_by_the_first_violation(self, const_spacing_spec):
        # Not a stored field: the verdict JSON keeps its keys in their order.
        for plan, passed in (([], True), ([(4, "P1")], False)):
            verdict = run_monitor(generate_trace(1, 10, const_spacing_spec, plan))
            assert verdict.passed is passed is (verdict.first_violation is None)
            assert verdict.outcome == ("pass" if passed else "fail")
            assert list(verdict.to_dict()) == ["outcome", "first_violation", "events",
                                               "p1_failures", "p2_failures", "seconds"]
        assert "passed" not in vars(verdict)


# A positive finite double, log-uniform from 5e-324 to 1.5e308.
_ANY_POSITIVE = st.floats(-1074.0, math.log2(1.5e308)).map(lambda x: 2.0 ** x)


@st.composite
def full_range_specs(draw):
    """A valid spec of any supported model, n from 2 to 12, every float
    parameter log-uniform over the positive finite doubles."""
    floats = {name: draw(_ANY_POSITIVE) for name in ("m", "k", "c", "h", "ch", "vd", "h0", "ca", "cd")}
    return make_spec(*draw(st.sampled_from(SUPPORTED_COMBOS)), n=draw(st.integers(2, 12)), **floats)


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

    @pytest.mark.parametrize("seed", [-1, None, 1.0, True, "1", np.int64(1)],
                             ids=["negative", "none", "float", "bool", "str", "numpy-int"])
    def test_refuses_a_seed_that_is_not_a_non_negative_int(self, const_spacing_spec, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, "
                                                       f"got {seed!r}")):
            generate_trace(seed, 3, const_spacing_spec)

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

    @pytest.mark.parametrize("name", ["m", "k", "c", "h", "ch", "vd", "h0", "ca", "cd"])
    def test_refuses_a_template_that_jitters_past_the_float_range(self, name):
        with pytest.raises(ValueError, match=f"template {name} = 1.6e\\+308 overflows"):
            generate_trace(1, 10, make_spec(**{name: 1.6e308}))

    def test_accepts_a_template_just_inside_the_float_range(self):
        trace = generate_trace(1, 10, make_spec(cd=1.5e308))  # 1.15 * cd < 1.8e308
        assert np.isfinite(trace.cd).all() and run_monitor(trace).passed

    def test_time_scale_comes_from_all_four_coefficients(self):
        # a0 = 1e-300 but a1 = 1e10: a scale chosen from a0 alone overflows a1^2.
        trace = generate_trace(3, 300, make_spec(m=1.0, k=1e-300, c=1e10))
        for e in trace:
            a0, a1, b0, b1 = map(Fraction, vars(error_model(e.spec)).values())
            u = Fraction(e.omega) ** 2
            assert (a0 - u) ** 2 + a1 * a1 * u > b0 * b0 + b1 * b1 * u

    def test_all_templates_produce_clean_traces(self):
        # The last two templates' gains square beyond the float range.
        templates = [make_spec(*combo) for combo in SUPPORTED_COMBOS] + [
            make_spec(k=1e308, c=1e308), make_spec(AUT, BI, CS, k=1e308, c=1e308)]
        for i, template in enumerate(templates):
            trace = generate_trace(100 + i, 300, template)
            assert run_monitor(trace).passed

    @settings(max_examples=200, deadline=None)
    @given(full_range_specs(), st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.integers(0, 29), st.sampled_from(("P1", "P2"))), max_size=3))
    def test_every_trace_over_the_whole_float_range_reads_back(self, template, seed, plan):
        # Either a refusal that names the float range, or a trace whose
        # written text parses back to the same columns; never a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                trace = generate_trace(seed, 30, template, plan)
            except ValueError as exc:
                assert "band leaves the float range" in str(exc)
                return
            assert columns(parse_trace_lines(io.StringIO(written(trace)))) == columns(trace)


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
         "'m' must be finite"),
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

    def test_trace_takes_numpy_integer_indices(self, const_spacing_spec):
        trace = generate_trace(8, 10, const_spacing_spec)
        assert trace[np.int64(3)] == trace[3]
        assert trace[np.intp(-1)].index == 9
        i = np.argmax([event.omega for event in trace])
        assert trace[i].omega == max(event.omega for event in trace)
        with pytest.raises(IndexError, match="out of range"):
            trace[np.int64(10)]
        for bad in (1.0, np.float64(1.0), "0"):
            with pytest.raises(TypeError, match="^trace indices must be integers$"):
                trace[bad]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", monitor._PARAM_KEYS)
    def test_a_non_finite_row_names_its_event(self, const_spacing_spec, name, value):
        # run_monitor reports the row as a P1 failure at index 2; as an
        # Event it cannot exist, and the error names the event.
        trace = generate_trace(1, 5, const_spacing_spec)
        getattr(trace, name)[2] = value
        assert run_monitor(trace).first_violation == Violation(2, "P1", f"0 < {name} violated")
        message = f"^event 2: {name} must be finite$"
        with pytest.raises(ValueError, match=message):
            trace[2]
        with pytest.raises(ValueError, match=message):
            list(trace)
        assert trace[1].index == 1


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

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_cr_and_crlf_files_parse_as_the_lf_file(self, tmp_path, newline):
        trace = generate_trace(5, 2 * _CHUNK + 7, make_spec(), [(_CHUNK, "P2")])
        text = written(trace)
        lf, other = tmp_path / "lf.jsonl", tmp_path / "other.jsonl"
        lf.write_bytes(text.encode())
        other.write_bytes(text.replace("\n", newline).encode())
        parsed = parse_trace(other)
        assert columns(parsed) == columns(parse_trace(lf)) == columns(trace)
        verdicts = [run_monitor(t).to_dict() for t in (parsed, trace)]
        for verdict in verdicts:
            del verdict["seconds"]
        assert verdicts[0] == verdicts[1]
        assert verdicts[0]["first_violation"]["index"] == _CHUNK

    def test_integer_literals_parse_as_their_float_values(self):
        line = ('{"i":0,"ct":"autonomous","cf":"unidirectional","st":"constant_spacing",'
                '"n":2,"m":1000,"k":18446744073709551617,"c":-3,"h":1,"ch":1,"vd":1,'
                '"h0":1,"ca":1,"cd":1,"w":3}\n')
        parsed = parse_trace_lines(io.StringIO(line))
        assert parsed.m.tolist() == [1000.0]
        assert parsed.k.tolist() == [float(2 ** 64 + 1)]
        assert columns(parsed) == validated_or_error(line)


# Each field a spec file shares with a trace line: its path in the spec file
# and its key in the trace line.
SHARED_FIELDS = [(("controller_type",), "ct"), (("configuration",), "cf"), (("strategy",), "st"),
                 *((("params", key), key) for key in monitor._COLUMNS[3:-1])]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**1100, 2**1100)
    | st.floats() | st.text()
    | st.sampled_from([e.value for enum in (ControllerType, Configuration, Strategy) for e in enum]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


def reason(call, prefix):
    """The message of the ValueError ``call`` raises, after ``prefix``, or
    None when it raises none."""
    try:
        call()
    except ValueError as exc:
        assert str(exc).startswith(prefix)
        return str(exc)[len(prefix):]
    return None


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(SHARED_FIELDS), value=JSON_VALUES)
@example(field=SHARED_FIELDS[3], value=2**63)
@example(field=SHARED_FIELDS[3], value=2**63 - 1)
@example(field=SHARED_FIELDS[3], value=-1)
@example(field=SHARED_FIELDS[4], value=10**400)
@example(field=SHARED_FIELDS[4], value=True)
@example(field=SHARED_FIELDS[1], value="autonomous")
@example(field=SHARED_FIELDS[4], value=math.nan)
@example(field=SHARED_FIELDS[0], value=math.inf)
def test_spec_files_and_trace_lines_admit_the_same_values(field, value):
    (*path, key), trace_key = field
    value = json.loads(json.dumps(value))
    spec = controller_spec_to_dict(make_spec())
    (spec["params"] if path else spec)[key] = value
    line = json.dumps({"i": 0, "ct": spec["controller_type"], "cf": spec["configuration"],
                       "st": spec["strategy"], **spec["params"], "w": 3.0})
    expected = reason(lambda: controller_spec_from_dict(spec), f"{'.'.join((*path, key))}: ")
    assert reason(lambda: _validate_lines([line], 0), f"line 1: '{trace_key}' ") == expected


class TestTraceLayout:
    """The column order and dtypes that callers read positionally."""

    def test_slots_are_pinned(self):
        assert Trace.__slots__ == ("source", "ct", "cf", "st", "n", "m", "k", "c", "h",
                                   "ch", "vd", "h0", "ca", "cd", "w")

    @pytest.mark.parametrize("count", [13, 15])
    def test_wrong_column_count_is_a_type_error(self, count):
        with pytest.raises(TypeError):
            Trace("memory", *(np.empty(0) for _ in range(count)))

    @pytest.mark.parametrize("name", ["ct", "m", "w"])
    @pytest.mark.parametrize("size", [0, 1, 3, 11])
    def test_columns_of_unequal_length_are_refused(self, name, size):
        # A short column would otherwise pass the scan's whole-column checks
        # on its own values and fail later, in indexing or broadcasting.
        trace = generate_trace(1, 10, make_spec())
        columns = [getattr(trace, key) for key in _COLUMNS]
        at = _COLUMNS.index(name)
        columns[at] = np.resize(columns[at], size)
        with pytest.raises(ValueError, match=f"column '{name}' has {size} events"):
            Trace("memory", *columns)

    def test_empty_traces_have_the_column_dtypes(self):
        dtypes = [np.dtype(np.int8)] * 3 + [np.dtype(np.int64)] + [np.dtype(np.float64)] * 10
        trace = generate_trace(1, 3, make_spec())
        for empty in (Trace.from_events([]), parse_trace_lines([]), trace._rows(0, 0)):
            assert [getattr(empty, name).dtype for name in _COLUMNS] == dtypes


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
    # An undecodable byte, as parse_trace reads it: a lone surrogate.
    "lone-surrogate": _set("ct", '"\udcff"'),
    # Lines that change the shape of a chunk decoded as one JSON text.
    "two-events": lambda line: line + "," + line,
    "open-bracket": lambda line: "[" + line,
    "close-bracket": lambda line: line + "]",
    "whitespace-only": lambda line: " \t ",
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

    @pytest.mark.parametrize("name", sorted(_MUTATIONS))
    def test_mutation_at_the_first_chunk_edge(self, boundary_trace, name):
        for lineno in (_CHUNK, _CHUNK + 1):
            text, expected = mutated(boundary_trace, name, lineno)
            assert parsed_or_error(text) == expected
            if isinstance(expected, str):
                assert expected.startswith(f"line {lineno}: ")

    @pytest.mark.parametrize("first", [1, _CHUNK - 1, _CHUNK + 1])
    def test_event_split_over_two_lines_is_refused(self, boundary_trace, first):
        # Line ``first`` and the next hold the two halves of one event, split
        # between two keys, and the line after holds the next two events:
        # as many events as lines, with contiguous indices.
        lines = list(boundary_trace[0])
        head, sep, tail = lines[first - 1].partition(',"m":')
        lines[first - 1:first + 2] = [head, sep[1:] + tail, lines[first] + "," + lines[first + 1]]
        text = "\n".join(lines) + "\n"
        expected = validated_or_error(text)
        assert expected.startswith(f"line {first}: invalid JSON")
        assert parsed_or_error(text) == expected

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


def parse_overhead(path):
    """parse_trace's tracemalloc peak beyond the bytes of the columns it returns."""
    tracemalloc.start()
    try:
        trace = parse_trace(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - sum(getattr(trace, name).nbytes for name in _COLUMNS)


def test_parse_memory_beyond_the_columns_is_small_and_flat(tmp_path):
    trace = generate_trace(3, 200_000, make_spec())
    overheads = []
    for size in (50_000, 200_000):
        path = tmp_path / f"{size}.jsonl"
        write_trace_file(trace._rows(0, size), path)
        overheads.append(parse_overhead(path))
    assert overheads[0] <= 4 * 2 ** 20, overheads
    assert overheads[1] <= overheads[0] + 2 ** 20, overheads


class NullSink:
    def write(self, text):
        pass


def writer_peak(write, data):
    """A writer's tracemalloc peak into a sink that keeps nothing."""
    tracemalloc.start()
    try:
        write(data, NullSink())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_peak_memory_is_flat_in_the_rows():
    # The formatter's temporaries are those of one chunk: 1e5 rows take at
    # most 256 KiB more than 1e4 rows, and no writer takes 8 MiB.
    values = np.random.default_rng(11).standard_normal((100_000, 33))
    trace = generate_trace(11, 100_000, make_spec(AUT, BI, VS))
    value = values[:, 1] + 1j * values[:, 2]
    peaks = []
    for size in (10_000, 100_000):
        rows = slice(0, size)
        sweep_result = SweepResult(omega=values[rows, 0], value=value[rows],
                                   magnitude=values[rows, 3], stable=values[rows, 3] < 1.0)
        chain = ChainSeries(t=values[rows, 0], z=values[rows, 1:17], zdot=values[rows, 17:])
        peaks.append([writer_peak(write_trace, trace._rows(0, size)),
                      writer_peak(write_sweep_csv, sweep_result),
                      writer_peak(write_chain_csv, chain)])
    for small, large in zip(*peaks):
        assert large <= small + 2 ** 18 and large < 8 * 2 ** 20, peaks


def test_writer_peaks_stay_under_their_ceilings(monkeypatch):
    # What each writer holds while it writes, on its warm tables: the CSV
    # writers at n = 16, about 16384 values a chunk, at most 3 MiB on 1e5
    # rows; the trace writer in one process, 512 events a chunk, at most
    # 1.68 MiB on 2000 events.
    values = np.random.default_rng(11).standard_normal((100_000, 33))
    monkeypatch.setattr(monitor, "_processes", lambda size: 1)
    writes = [
        (write_chain_csv, ChainSeries(t=values[:, 0], z=values[:, 1:17], zdot=values[:, 17:]), 3.0),
        (write_state_csv, StateSeries(t=values[:, 0], x=values[:, 1:17], v=values[:, 17:]), 3.0),
        (write_sweep_csv, SweepResult(omega=values[:, 0], value=values[:, 1] + 1j * values[:, 2],
                                      magnitude=values[:, 3], stable=values[:, 3] < 1.0), 3.0),
        (write_trace, generate_trace(11, 2000, make_spec()), 1.68),
    ]
    for write, data, ceiling in writes:
        write(data, NullSink())  # builds the cached tables this writer needs
        peak = writer_peak(write, data)
        assert peak <= ceiling * 2 ** 20, (write.__name__, peak)


@pytest.mark.parametrize("change", ["grows", "shrinks"])
def test_a_file_that_changes_while_it_is_read_is_refused(tmp_path, monkeypatch, change):
    lines = written(generate_trace(1, 2 * _CHUNK + 3, make_spec())).splitlines(True)
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(lines[:2 * _CHUNK]))
    chunks = monitor._chunks

    def changing(fh, offset):  # called after the lines are counted
        if change == "grows":
            with open(path, "a") as out:
                out.writelines(lines[2 * _CHUNK:])
        else:
            path.write_text("".join(lines[:3]))
        return chunks(fh, offset)

    monkeypatch.setattr(monitor, "_chunks", changing)
    with pytest.raises(ValueError, match="changed while it was read"):
        parse_trace(path)


def force_split(patch, split=2 * _CHUNK, cpus=3):
    """Let parse_trace split files of ``2 * split`` lines or more on
    ``cpus`` usable CPUs, whatever the host has."""
    patch.setattr(monitor, "_SPLIT", split)
    patch.setattr(monitor.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def counting(patch, name):
    """Wrap ``monitor.<name>`` so that the calls made in this process are
    counted; a forked child's calls are not."""
    calls = []
    original = getattr(monitor, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    patch.setattr(monitor, name, wrapper)
    return calls


def parsed_file_or_error(path):
    try:
        return columns(parse_trace(path))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.fixture(scope="module")
def split_trace():
    """Lines of a trace of a little over six chunks, with violations."""
    trace = generate_trace(41, 6 * _CHUNK + 5, make_spec(AUT, BI, CS), [(_CHUNK, "P1"), (4000, "P2")])
    return trace, written(trace).splitlines(True)


class TestSplitParse:
    """parse_trace on line ranges at once: the first range here, each other
    range in a forked child."""

    @settings(max_examples=30, deadline=None)
    @given(length=st.integers(0, 6 * _CHUNK + 5), cpus=st.integers(1, 5),
           split=st.sampled_from([1, _CHUNK // 2, _CHUNK, 2 * _CHUNK]),
           newline=st.sampled_from(["\n", "\r", "\r\n"]))
    @example(length=6 * _CHUNK + 5, cpus=3, split=2 * _CHUNK, newline="\n")
    @example(length=2 * _CHUNK, cpus=2, split=_CHUNK, newline="\n")
    @example(length=5, cpus=4, split=1, newline="\r\n")  # ranges with no lines
    def test_columns_equal_the_serial_parse(self, split_trace, tmp_path_factory, length, cpus,
                                            split, newline):
        trace, lines = split_trace
        path = tmp_path_factory.mktemp("split") / "trace.jsonl"
        path.write_bytes("".join(lines[:length]).replace("\n", newline).encode())
        with pytest.MonkeyPatch.context() as patch:
            force_split(patch, split, cpus)
            chunk_calls, forks = counting(patch, "_chunks"), counting(patch, "_fork_range")
            parsed = parse_trace(path)
            bounds = monitor._ranges(length)
        assert columns(parsed) == columns(trace._rows(0, length))
        assert len(bounds) - 1 == max(1, min(cpus, length // split, monitor._RANGES))
        assert all(a % _CHUNK == 0 for a in bounds[:-1])
        assert [fork[3:5] for fork in forks] == list(zip(bounds[1:-1], bounds[2:]))
        assert len(chunk_calls) == 1  # every child sent its range

    def test_a_child_range_that_fails_is_parsed_here(self, split_trace, tmp_path, monkeypatch):
        trace, lines = split_trace
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(lines))
        force_split(monkeypatch)
        monkeypatch.setattr(monitor, "_fork_range", lambda *args: None)
        chunk_calls = counting(monkeypatch, "_chunks")
        assert columns(parse_trace(path)) == columns(trace)
        assert [call[1:] for call in chunk_calls] == [(0,), (2 * _CHUNK,), (4 * _CHUNK,)]

    # The benchmark's five corruptions, then lines that only a file can hold.
    CORRUPTIONS = {
        "bad-json": lambda line: line[:-2] + b"\n",
        "unknown-key": lambda line: line[:-2] + b',"zz":0}\n',
        "nan": lambda line: re.sub(rb'"w":[^}]+', b'"w":NaN', line),
        "index-gap": lambda line: re.sub(rb'"i":(\d+)', lambda m: b'"i":%d' % (int(m[1]) + 1), line),
        "401-digits": lambda line: re.sub(rb'"m":[^,]+', b'"m":1' + b"0" * 400, line),
        "invalid-utf8": lambda line: line.replace(b"autonomous", b"auto\xffnomous"),
        "empty": lambda line: b"\n",
        "cr-inside": lambda line: line.replace(b',"m"', b'\r,"m"'),
        "crlf-ending": lambda line: line[:-1] + b"\r\n",
    }
    # 1-based lines in a file of three ranges that start at lines 1, 2049
    # and 4097: in range 0, in a later range, on a range's first line, on
    # the last line, and in two ranges at once.
    PLACES = {"range-0": (7,), "later-range": (3000,), "range-start": (2 * _CHUNK + 1,),
              "last-line": (6 * _CHUNK + 5,), "two-ranges": (4 * _CHUNK + 1, 2 * _CHUNK + 9)}

    @pytest.mark.parametrize("place", sorted(PLACES))
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_errors_equal_the_serial_parse(self, split_trace, tmp_path, monkeypatch, name, place):
        lines = [line.encode() for line in split_trace[1]]
        for lineno in self.PLACES[place]:
            lines[lineno - 1] = self.CORRUPTIONS[name](lines[lineno - 1])
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"".join(lines))
        with monkeypatch.context() as patch:
            force_split(patch, cpus=1)
            serial = parsed_file_or_error(path)
        force_split(monkeypatch)
        forks = counting(monkeypatch, "_fork_range")
        assert parsed_file_or_error(path) == serial
        assert len(forks) == 2
        if name != "crlf-ending":
            assert serial.startswith(f"TraceParseError: line {min(self.PLACES[place])}: ")

    # Corruptions of lines N and N + 1 that keep the chunk's colon count, so
    # that the chunk decodes and then fails one of _parse_chunk's structure
    # checks: a row that is not one value, or an event without every key.
    STRUCTURE = {
        "two-events-on-a-line": (lambda a, b: (a[:-1] + b"," + b, b"7\n"),
                                 "invalid JSON (Extra data: "),
        "object-w-and-missing-cd": (lambda a, b: (re.sub(rb'"w":[^}]+', b'"w":{"x":1}', a),
                                                  re.sub(rb',"cd":[^,]+', b"", b)),
                                    "'w' must be a number"),
    }

    @pytest.mark.parametrize("lineno", [2, 3000])
    @pytest.mark.parametrize("name", sorted(STRUCTURE))
    def test_a_chunk_that_fails_a_structure_check_is_named_line_by_line(
            self, split_trace, tmp_path, monkeypatch, name, lineno):
        lines = [line.encode() for line in split_trace[1]]
        corrupt, message = self.STRUCTURE[name]
        lines[lineno - 1:lineno + 1] = corrupt(*lines[lineno - 1:lineno + 1])
        start = (lineno - 1) // _CHUNK * _CHUNK
        block = [line.decode()[:-1] for line in lines[start:start + _CHUNK]]
        assert "".join(block).count(":") == len(monitor._SCHEMA) * len(block)
        assert monitor._parse_chunk(block, start) is None
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"".join(lines))
        with monkeypatch.context() as patch:
            force_split(patch, cpus=1)
            serial = parsed_file_or_error(path)
        force_split(monkeypatch)
        assert parsed_file_or_error(path) == serial
        assert serial.startswith(f"TraceParseError: line {lineno}: {message}")

    def test_an_error_in_the_first_range_leaves_no_child(self, split_trace, tmp_path, monkeypatch):
        lines = list(split_trace[1])
        lines[2] = "{}\n"
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(lines))
        force_split(monkeypatch)
        forks = counting(monkeypatch, "_fork_range")
        with pytest.raises(TraceParseError, match="^line 3: "):
            parse_trace(path)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("change", ["grows", "shrinks-into-range-0", "shrinks-into-range-2"])
    def test_a_file_that_changes_while_it_is_read_is_refused(self, split_trace, tmp_path,
                                                             monkeypatch, change):
        lines = split_trace[1]
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(lines[:6 * _CHUNK]))
        ranges = monitor._ranges

        def changing(size):  # called after the lines are counted, before any child starts
            if change == "grows":
                with open(path, "a") as out:
                    out.writelines(lines[6 * _CHUNK:])
            else:
                path.write_text("".join(lines[:3 if change.endswith("0") else 5 * _CHUNK]))
            return ranges(size)

        force_split(monkeypatch)
        monkeypatch.setattr(monitor, "_ranges", changing)
        forks = counting(monkeypatch, "_fork_range")
        with pytest.raises(ValueError, match="changed while it was read"):
            parse_trace(path)
        assert len(forks) == 2

    def test_a_file_replaced_after_the_count_is_parsed_from_the_counted_handle(
            self, split_trace, tmp_path, monkeypatch):
        trace, lines = split_trace
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(lines))
        other = tmp_path / "other.jsonl"
        other.write_text(written(generate_trace(42, 6 * _CHUNK + 5, make_spec())))
        ranges = monitor._ranges

        def replacing(size):  # called after the lines are counted, before any child starts
            os.replace(other, path)
            return ranges(size)

        force_split(monkeypatch)
        monkeypatch.setattr(monitor, "_ranges", replacing)
        forks = counting(monkeypatch, "_fork_range")
        chunk_calls = counting(monkeypatch, "_chunks")
        assert columns(parse_trace(path)) == columns(trace)
        assert len(forks) == 2  # each child opens the new file and sends nothing
        assert len(chunk_calls) == 3  # so every range is parsed here

    @pytest.mark.parametrize("case", ["one-cpu", "pipe", "second-thread"])
    def test_stays_in_one_process(self, split_trace, tmp_path, monkeypatch, case):
        trace, lines = split_trace
        text = "".join(lines[:40])
        force_split(monkeypatch, split=1, cpus=1 if case == "one-cpu" else 3)
        monkeypatch.setattr(monitor, "_fork_range", None)  # a call would raise
        source = tmp_path / "trace.jsonl"
        source.write_text(text)
        if case == "pipe":  # 40 lines fit in the pipe's buffer
            source, write_end = os.pipe()
            with open(write_end, "w") as out:
                out.write(text)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if case == "second-thread":
            thread.start()
        try:
            parsed = parse_trace(source)
        finally:
            stop.set()
            if case == "second-thread":
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert columns(parsed) == columns(trace._rows(0, 40))


@pytest.fixture(scope="module")
def write_sample():
    """A trace of thirteen writer chunks, the last of 56 events, with
    violations, and frequencies that take the formatter's fallback in the
    chunks of both children of a three-process write."""
    trace = generate_trace(43, 6200, make_spec(AUT, UNI, VTH), [(0, "P2"), (3000, "P1")])
    trace.w[[600, 1100, 2000, 6199]] = [np.nan, np.inf, 5e-324, -0.0]
    return trace


def serial_written(trace):
    """The text of the one-process writer."""
    with pytest.MonkeyPatch.context() as patch:
        force_split(patch, cpus=1)
        return written(trace)


class TestSplitWrite:
    """write_trace on several processes: writer chunk j by process j mod k,
    this process the first and a forked child each of the others."""

    STEP = _CHUNK // 2  # events per writer chunk

    @settings(max_examples=30, deadline=None)
    @given(length=st.integers(0, 6200), cpus=st.integers(1, 5),
           split=st.sampled_from([1, _CHUNK // 2, _CHUNK, 2 * _CHUNK]))
    @example(length=6200, cpus=5, split=1)
    @example(length=2 * _CHUNK, cpus=2, split=_CHUNK)
    @example(length=3, cpus=4, split=1)  # children with no chunk
    def test_bytes_equal_the_one_process_writer(self, write_sample, tmp_path_factory, length,
                                                cpus, split):
        trace = write_sample._rows(0, length)
        expected = serial_written(trace)
        path = tmp_path_factory.mktemp("write") / "trace.jsonl"
        with pytest.MonkeyPatch.context() as patch:
            force_split(patch, split, cpus)
            forks, here = counting(patch, "_fork"), counting(patch, "_chunk_text")
            text = written(trace)
            write_trace_file(trace, path)
        count = max(1, min(cpus, length // split, monitor._RANGES))
        assert text == expected
        assert path.read_bytes() == expected.encode()
        assert len(forks) == 2 * (count - 1)
        # Every child sent all of its chunks, so this process formatted its own only.
        assert [start for _, start in here] == 2 * list(range(0, length, self.STEP)[::count])

    # Thirteen chunks on three processes: child 1 formats chunks 1, 4, 7 and
    # 10, child 2 chunks 2, 5, 8 and 11.  The chunks each case leaves here.
    STOPS = {"fork-refused": range(13),
             "raises-on-first": [0, 1, 3, 4, 6, 7, 9, 10, 12],
             "raises-on-middle": [0, 3, 6, 7, 9, 10, 12],
             "killed": [0, 3, 4, 6, 7, 9, 10, 12]}

    @pytest.mark.parametrize("case", sorted(STOPS))
    def test_a_child_that_stops_leaves_its_chunks_here(self, write_sample, monkeypatch, case):
        expected = serial_written(write_sample)
        force_split(monkeypatch, split=self.STEP, cpus=3)
        parent, chunk_text, here = os.getpid(), monitor._chunk_text, []
        stop = {"raises-on-first": 1, "raises-on-middle": 7, "killed": 4}.get(case)

        def stopping(trace, start):
            if os.getpid() == parent:
                here.append(start // self.STEP)
            elif start == self.STEP * stop and case == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            elif start == self.STEP * stop:
                raise RuntimeError("a child fails")
            return chunk_text(trace, start)

        def refused():
            raise OSError("out of processes")

        monkeypatch.setattr(monitor, "_chunk_text", stopping)
        if case == "fork-refused":
            monkeypatch.setattr(monitor.os, "fork", refused)
        assert written(write_sample) == expected
        assert here == list(self.STOPS[case])

    def test_an_output_error_propagates_and_leaves_no_child(self, write_sample, monkeypatch):
        class Full:
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 5:  # a child's chunk, with both children running
                    raise OSError("no space left on device")

        force_split(monkeypatch, split=self.STEP, cpus=3)
        with pytest.raises(OSError, match="no space left"):
            write_trace(write_sample, Full())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_second_thread_keeps_the_write_in_one_process(self, write_sample, monkeypatch):
        expected = serial_written(write_sample)
        force_split(monkeypatch, split=1, cpus=3)
        monkeypatch.setattr(monitor, "_fork", None)  # a call would raise
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            text = written(write_sample)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert text == expected


def frame(block):
    """A block as _fork sends it: its size in ASCII digits, a newline, its bytes."""
    return b"%d\n%s" % (len(block), block)


# The bytes a faulty child of the reader or the writer sends, from the
# blocks its job yields: a reader child's column slices, a writer child's
# chunk texts.  A misframed block's header is 8 bytes over its size.  The
# reader knows each block's size, so its misframed child goes on to send
# the rest of its blocks; the writer does not, so its misframed child
# stops, as every other faulty child does, and the block comes up short.
FAULTS = {
    "half-block": lambda blocks, side: frame(blocks[0]) + frame(blocks[1])[:-(len(blocks[1]) // 2)],
    "header-only": lambda blocks, side: b"%d\n" % len(blocks[0]),
    "misframed": lambda blocks, side: b"%d\n%s" % (len(blocks[0]) + 8, blocks[0]) + b"".join(
        map(frame, blocks[1:] if side == "reader" else [])),
}


def faulty_fork(side, fault):
    """A stand-in for monitor._fork whose child makes its blocks, as the
    real one does, and sends the bytes ``FAULTS[fault]`` makes of them."""
    def fork(blocks):
        read_fd, write_fd = os.pipe()
        if pid := os.fork():
            os.close(write_fd)
            return pid, open(read_fd, "rb")
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                out.write(FAULTS[fault]([memoryview(block).tobytes() for block in blocks], side))
        finally:
            os._exit(0)

    return fork


# The writer's chunks that stay here when both children of a three-process
# write of write_sample are faulty: child 1 has chunks 1, 4, 7 and 10, child
# 2 chunks 2, 5, 8 and 11, and only a half-block child sends its first.
FAULT_CHUNKS_HERE = {"half-block": [0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
                     "header-only": list(range(13)), "misframed": list(range(13))}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("side", ["reader", "writer"])
def test_a_child_that_breaks_the_protocol_leaves_its_share_here(
        split_trace, write_sample, tmp_path, monkeypatch, side, fault):
    """Reader and writer children send their blocks by one protocol, so one
    check finds a short, missing or misframed block on either side."""
    if side == "reader":
        trace, lines = split_trace
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(lines))
        force_split(monkeypatch)
        chunk_calls = counting(monkeypatch, "_chunks")
        monkeypatch.setattr(monitor, "_fork", faulty_fork(side, fault))
        assert columns(parse_trace(path)) == columns(trace)
        assert [call[1:] for call in chunk_calls] == [(0,), (2 * _CHUNK,), (4 * _CHUNK,)]
    else:
        expected = serial_written(write_sample)
        force_split(monkeypatch, split=_CHUNK // 2, cpus=3)
        here = counting(monkeypatch, "_chunk_text")
        monkeypatch.setattr(monitor, "_fork", faulty_fork(side, fault))
        assert written(write_sample) == expected
        assert [start // (_CHUNK // 2) for _, start in here] == FAULT_CHUNKS_HERE[fault]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("lines,forks", [(2 * monitor._SPLIT - 1, 0), (2 * monitor._SPLIT, 1)])
def test_two_cpus_fork_from_twice_split_lines(tmp_path, monkeypatch, lines, forks):
    """The real split rule on two usable CPUs: the write of a trace and the
    parse of its file fork a child each from 2 * _SPLIT lines, not below."""
    trace = generate_trace(47, lines, make_spec())
    expected = serial_written(trace)
    monkeypatch.setattr(monitor.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    fork_calls = counting(monkeypatch, "_fork")
    path = tmp_path / "trace.jsonl"
    write_trace_file(trace, path)
    assert len(fork_calls) == forks
    assert path.read_bytes() == expected.encode()
    parsed = parse_trace(path)
    assert len(fork_calls) == 2 * forks
    assert columns(parsed) == columns(trace)


class TestChunkBoundariesUnderSplit(TestChunkBoundaries):
    """The chunk-boundary tests again, each text parsed from a file in three
    ranges, which start at lines 1, 1025 and 3073 of the 4098."""

    @pytest.fixture(autouse=True, scope="class")
    def split(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("boundaries") / "trace.jsonl"

        def parsed_from_file(text):
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            assert len(monitor._ranges(text.count("\n"))) == 4
            result = parsed_file_or_error(path)
            return result.removeprefix("TraceParseError: ") if isinstance(result, str) else result

        with pytest.MonkeyPatch.context() as patch:
            force_split(patch, split=_CHUNK)
            patch.setitem(globals(), "parsed_or_error", parsed_from_file)
            yield

    # Hypothesis runs a test on one class only, so this one is declared again.
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(_MUTATIONS)), st.integers(1, 4098))
    @example("truncated", _CHUNK + 1)
    @example("index-gap", 3 * _CHUNK + 1)
    def test_mutation_anywhere(self, boundary_trace, name, lineno):
        text, expected = mutated(boundary_trace, name, lineno)
        assert parsed_or_error(text) == expected


def one_pass(trace):
    """Verdict fields of one pass of the scan over the whole trace."""
    p1, p2 = _vector_masks(trace)
    bad = ~(p1 & p2)
    first = None
    if bad.any():
        index = int(np.argmax(bad))
        first = (index, "P1" if not p1[index] else "P2")
    return int(np.count_nonzero(~p1)), int(np.count_nonzero(~p2)), first


def scanned(trace):
    verdict = run_monitor(trace)
    fv = verdict.first_violation
    return verdict.p1_failures, verdict.p2_failures, fv and (fv.index, fv.predicate)


class TestBlocks:
    """The scan and the generator work a block of events at a time."""

    LENGTH = 2 * _BLOCK + 5
    EDGES = (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 4)

    @pytest.mark.parametrize("kind", ["P1", "P2"])
    @pytest.mark.parametrize("where", [*((i,) for i in EDGES), EDGES[1:], EDGES[2:]])
    def test_scan_equals_one_pass_at_block_edges(self, kind, where):
        plan = [(i, kind) for i in where]
        trace = generate_trace(sum(where), self.LENGTH, make_spec(), plan)
        expected = one_pass(trace)
        assert expected[2] == (where[0], kind)
        assert scanned(trace) == expected

    @pytest.mark.parametrize("at", EDGES[1:4])
    def test_p1_and_p2_on_one_event_at_a_block_edge(self, at):
        for combo in SUPPORTED_COMBOS:
            trace = generate_trace(at, self.LENGTH, make_spec(*combo), [(at, "P2"), (at, "P1")])
            expected = one_pass(trace)
            assert expected[2] == (at, "P1")
            assert scanned(trace) == expected

    def test_scan_peak_memory_does_not_grow_with_the_trace(self):
        trace = generate_trace(8, 1_000_000, make_spec(), [(999_999, "P2")])
        peaks = []
        for size in (100_000, 1_000_000):
            tracemalloc.start()
            try:
                run_monitor(trace._rows(0, size))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 ** 20, peaks

    def test_generator_peak_memory_is_close_to_its_columns(self):
        tracemalloc.start()
        try:
            trace = generate_trace(9, 1_000_000, make_spec(AUT, BI, VS), [(500_000, "P2")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column_bytes = sum(getattr(trace, name).nbytes for name in _COLUMNS)
        assert peak <= 1.25 * column_bytes, (peak, column_bytes)

    def test_generator_memory_beyond_its_columns_is_small(self):
        tracemalloc.start()
        try:
            trace = generate_trace(9, 100_000, make_spec(AUT, BI, VS), [(50_000, "P2")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        column_bytes = sum(getattr(trace, name).nbytes for name in _COLUMNS)
        assert peak <= column_bytes + 3 * 2 ** 20, (peak, column_bytes)

    # sha256 of the written trace, computed with the whole-trace generator,
    # at lengths around the edge of a 32768-event block.
    @pytest.mark.parametrize("combo,seed,length,plan,digest", [
        ((AUT, UNI, CS), 1, 32770, [(32767, "P2"), (32768, "P1"), (32769, "P2")],
         "9903e0a9b7b113f44e72b10be9dca3dab29b1e3c81fa889b3ccacc3f2fe33d50"),
        ((AUT, BI, VS), 2, 32769, [(32768, "P1"), (32768, "P2")],
         "680f10c7f393ba4b74f4ca3d3ea380913075e24b87025b7a37cd31a8c3fdd44e"),
        ((NON, UNI, CS), 3, 32768, [(0, "P2"), (32767, "P1"), (32767, "P2")],
         "7fd8448b7e64dd4776b274b619fc490702185542d7dd49e5b1df369ac6f2389b"),
        ((AUT, UNI, VTH), 4, 32770, [(32769, "P2"), (32769, "P1"), (32767, "P2")],
         "1804404327ca645a63054763189c046bab30bf00602955d53a49b133c1ea9a18"),
        ((AUT, BI, CS), 5, 32769, [(32767, "P2"), (32768, "P2")],
         "9dc0cd786ddb048e201d5f3ad54ab91e1af0069c423bc8f8bbf639ea1b053f8f"),
    ])
    def test_generated_bytes_are_pinned(self, combo, seed, length, plan, digest):
        text = written(generate_trace(seed, length, make_spec(*combo), plan))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
