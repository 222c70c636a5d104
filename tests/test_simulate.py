import dataclasses
import io
import math
import re
import sys
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from platoon_stab import _text, simulate
from platoon_stab import (
    ChainSeries,
    ControllerSpec,
    DegenerateInputError,
    DivergenceError,
    ErrorModel,
    SimConfig,
    StateSeries,
    attenuation_report,
    default_dt,
    error_model,
    frequency_response,
    simulate_chain,
    simulate_state_space,
    sine_input,
    tabulated_input,
    transfer_function,
    write_chain_csv,
    write_state_csv,
)
from conftest import AUT, CS, SUPPORTED_COMBOS, UNI, make_params, make_spec, random_params


@pytest.fixture
def const_spacing_model(const_spacing_spec):
    return error_model(const_spacing_spec)


def gain_at(model, omega):
    return frequency_response(transfer_function(model), omega).magnitude


class TestSimConfig:
    def test_rejects_bad_steps_and_windows(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, duration=10.0)
        with pytest.raises(ValueError):
            SimConfig(dt=-0.1, duration=10.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.5, duration=10.0)  # fewer than 100 steps
        with pytest.raises(ValueError):
            SimConfig(dt=0.01, duration=10.0, discard=1.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.01, duration=10.0, discard=-0.1)
        # The run, not the config, refuses an input that is not finite.
        with pytest.raises(ValueError, match=r"^input at t = 0 s is not finite$"):
            simulate_chain(_README_MODEL, 2, SimConfig(dt=0.01, duration=10.0),
                           sine_input(math.nan, 0.0))

    def test_rejects_an_overflowing_input_phase_or_rate(self):
        # Refused by the run, at the first input time where each overflows.
        cfg = SimConfig(dt=1e300, duration=1e302)
        with pytest.raises(ValueError, match=r"^input at t = 5e\+299 s is not finite$"):
            simulate_chain(_README_MODEL, 2, cfg, sine_input(1.0, 1e300))
        cfg = SimConfig(dt=1e-3, duration=1.0)
        with pytest.raises(ValueError, match=r"^input at t = 0 s is not finite$"):
            simulate_chain(_README_MODEL, 2, cfg, sine_input(1e300, 1e10))

    def test_holds_the_grid_and_the_report_window_only(self):
        assert [f.name for f in dataclasses.fields(SimConfig)] == ["dt", "duration", "discard"]
        assert SimConfig(0.01, 10.0, discard=0.8).discard == 0.8
        with pytest.raises(TypeError):
            SimConfig(0.01, 10.0, 0.8)  # discard is keyword-only
        with pytest.raises(TypeError):
            SimConfig(dt=0.01, duration=10.0, amplitude=1.0)

    def test_default_dt_heuristic(self):
        # 200 samples per period against resolving the natural frequency.
        assert default_dt(3.0, 2.0) == pytest.approx(2.0 * math.pi / 600.0)
        assert default_dt(0.01, 2.0) == pytest.approx(1.0 / (20.0 * math.sqrt(2.0)))
        assert default_dt(0.0, 4.0) == pytest.approx(1.0 / 40.0)

    @pytest.mark.parametrize("a0,a1", [(1.0, 202.0), (2.0, 0.5), (4.0, 4.0), (1e-6, 1e6),
                                       (1.0, 1e300), (1e300, 1.0)])
    def test_default_dt_keeps_both_roots_in_the_rk4_stability_region(self, a0, a1):
        h = default_dt(1.0, a0, a1)
        assert h * fastest_rate(a0, a1) <= 1.0 + 1e-12
        for lam in np.roots([1.0, a1, a0]):
            z = h * lam
            assert abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) <= 1.0
        if a1 <= 2.0 * math.sqrt(a0):  # complex or double roots: no smaller step
            assert h == default_dt(1.0, a0)


class TestChainSimulator:
    def test_rejects_single_vehicle(self, const_spacing_model):
        with pytest.raises(ValueError):
            simulate_chain(const_spacing_model, 1, SimConfig(dt=0.01, duration=10.0))

    def test_a_grid_too_large_to_allocate_names_its_step_count(self, const_spacing_model):
        # numpy refuses the shape itself: more rows than an array can index.
        cfg = SimConfig(dt=1e-300, duration=1e3)
        with pytest.raises(MemoryError) as excinfo:
            simulate_chain(const_spacing_model, 2, cfg, sine_input(1.0, 3.0))
        assert str(excinfo.value) == "a run of 1e+303 steps of 4 states is too large to allocate"
        assert excinfo.value.__cause__ is None and excinfo.value.__suppress_context__

    def test_zero_input_stays_exactly_at_rest(self, const_spacing_model):
        cfg = SimConfig(dt=0.01, duration=5.0)
        series = simulate_chain(const_spacing_model, 4, cfg)
        assert np.all(series.z == 0.0)
        assert np.all(series.zdot == 0.0)

    def test_steady_state_gain_matches_frequency_response_when_stable(self, const_spacing_model):
        cfg = SimConfig(dt=default_dt(3.0, const_spacing_model.a0), duration=120.0)
        series = simulate_chain(const_spacing_model, 3, cfg, sine_input(1.0, 3.0))
        report = attenuation_report(series, cfg)
        expected = gain_at(const_spacing_model, 3.0)
        assert report.ratios[0] == pytest.approx(expected, rel=0.01)
        assert report.all_attenuating

    def test_steady_state_gain_matches_frequency_response_when_amplifying(self, const_spacing_model):
        cfg = SimConfig(dt=default_dt(1.0, const_spacing_model.a0), duration=120.0)
        series = simulate_chain(const_spacing_model, 3, cfg, sine_input(1.0, 1.0))
        report = attenuation_report(series, cfg)
        expected = gain_at(const_spacing_model, 1.0)  # ~1.894
        assert report.ratios[0] == pytest.approx(expected, rel=0.01)
        assert not report.all_attenuating
        assert report.ratios[0] > 1.0

    def test_time_grid_and_input_column(self, const_spacing_model):
        cfg = SimConfig(dt=0.02, duration=10.0)
        series = simulate_chain(const_spacing_model, 2, cfg, sine_input(0.5, 2.0))
        assert len(series.t) == 501
        assert series.t[0] == 0.0
        assert series.t[-1] == pytest.approx(10.0)
        expected_input = 0.5 * np.sin(2.0 * series.t)
        assert np.allclose(series.z[:, 0], expected_input, atol=1e-12)

    def test_divergence_aborts_with_error(self):
        # Negative-damping model: the state grows without bound.  The
        # overflow on the way must not leak numpy warnings.
        runaway = ErrorModel(a0=-5.0, a1=-3.0, b0=1.0, b1=1.0)
        cfg = SimConfig(dt=0.05, duration=500.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as excinfo:
                simulate_chain(runaway, 3, cfg, sine_input(1.0, 1.0))
        match = re.fullmatch(r"non-finite state at t = (\S+) s", str(excinfo.value))
        assert match is not None
        t = float(match.group(1))
        k = round(t / cfg.dt)
        assert 0 < k <= round(cfg.duration / cfg.dt)
        assert f"{k * cfg.dt:.6g}" == match.group(1)

    def test_series_are_views_of_one_buffer_within_a_memory_bound(self, const_spacing_model):
        cfg = SimConfig(dt=0.01, duration=96.0)
        tracemalloc.start()
        try:
            series = simulate_chain(const_spacing_model, 16, cfg, sine_input(1.0, 3.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.z.shape == series.zdot.shape == (9601, 16)
        assert series.z.base is not None and series.z.base is series.zdot.base
        assert peak < 1.25 * (series.z.nbytes + series.zdot.nbytes)

    def test_fourth_order_convergence_of_ode_residual(self, const_spacing_model):
        # Residual of the cascade equation, evaluated with fourth-order
        # finite differences on the sampled trajectory; halving dt should
        # shrink it by about 2^4.
        def residual(dt):
            cfg = SimConfig(dt=dt, duration=20.0)
            series = simulate_chain(const_spacing_model, 2, cfg, sine_input(1.0, 1.5))
            z1 = series.z[:, 0]
            z2 = series.z[:, 1]

            def d1(y):
                return (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * dt)

            def d2(y):
                return (-y[4:] + 16.0 * y[3:-1] - 30.0 * y[2:-2]
                        + 16.0 * y[1:-3] - y[:-4]) / (12.0 * dt * dt)

            m = const_spacing_model
            r = (d2(z2) + m.a1 * d1(z2) + m.a0 * z2[2:-2]
                 - m.b1 * d1(z1) - m.b0 * z1[2:-2])
            return np.abs(r).max()

        coarse = residual(0.05)
        fine = residual(0.025)
        ratio = coarse / fine
        assert 10.0 < ratio < 24.0

    def test_chain_csv_layout(self, const_spacing_model):
        cfg = SimConfig(dt=0.05, duration=5.0)
        series = simulate_chain(const_spacing_model, 3, cfg, sine_input(1.0, 1.0))
        buf = io.StringIO()
        write_chain_csv(series, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,z_1,z_2,z_3"
        assert len(lines) == len(series.t) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0]


class TestStateSpaceSimulator:
    def test_equilibrium_is_invariant(self, base_params):
        cfg = SimConfig(dt=0.01, duration=5.0)
        series = simulate_state_space(base_params, cfg, lambda t: 0.0)
        assert np.all(series.x == 0.0)
        assert np.all(series.v == 0.0)

    def test_constant_force_gives_linear_leader_velocity(self, base_params):
        cfg = SimConfig(dt=0.01, duration=20.0)
        force = 800.0
        series = simulate_state_space(base_params, cfg, lambda t: force)
        expected_v = (force / base_params.m) * series.t
        expected_x = 0.5 * (force / base_params.m) * series.t**2
        assert np.allclose(series.v[:, 0], expected_v, rtol=1e-10, atol=1e-12)
        assert np.allclose(series.x[:, 0], expected_x, rtol=1e-10, atol=1e-12)

    def test_invalid_platoon_rejected(self):
        with pytest.raises(ValueError):
            simulate_state_space(make_params(m=0.0), SimConfig(dt=0.01, duration=5.0), lambda t: 0.0)

    def test_derived_error_ratio_matches_frequency_response(self):
        params = make_params(n=3)
        model = error_model(ControllerSpec(AUT, UNI, CS, params))
        cfg = SimConfig(dt=0.005, duration=200.0)
        series = simulate_state_space(params, cfg, lambda t: 500.0 * math.sin(3.0 * t))
        z = series.spacing_errors()
        tail = slice(int(0.8 * len(series.t)), None)
        ratio = np.abs(z[tail, 1]).max() / np.abs(z[tail, 0]).max()
        assert ratio == pytest.approx(gain_at(model, 3.0), rel=0.01)

    def test_derived_errors_satisfy_cascade_equation(self):
        # Fourth-order finite-difference residual of the cascade equation
        # on errors derived from the vehicle-level run.
        params = make_params(n=3)
        model = error_model(ControllerSpec(AUT, UNI, CS, params))
        dt = 0.01
        cfg = SimConfig(dt=dt, duration=30.0)
        series = simulate_state_space(params, cfg, lambda t: 400.0 * math.sin(1.2 * t))
        z = series.spacing_errors()
        z1, z2 = z[:, 0], z[:, 1]

        def d1(y):
            return (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * dt)

        def d2(y):
            return (-y[4:] + 16.0 * y[3:-1] - 30.0 * y[2:-2] + 16.0 * y[1:-3] - y[:-4]) / (12.0 * dt * dt)

        resid = (d2(z2) + model.a1 * d1(z2) + model.a0 * z2[2:-2]
                 - model.b1 * d1(z1) - model.b0 * z1[2:-2])
        scale = np.abs(z2).max()
        assert np.abs(resid).max() < 1e-6 * max(scale, 1.0)

    def test_chain_driven_by_state_space_errors_agrees(self):
        # Same dt in both integrations; the chain is fed the vehicle-level
        # first error channel through the Hermite interpolant.
        params = make_params(n=4)
        model = error_model(ControllerSpec(AUT, UNI, CS, params))
        dt = 0.002
        cfg = SimConfig(dt=dt, duration=60.0)
        ss = simulate_state_space(params, cfg, lambda t: 500.0 * math.sin(3.0 * t))
        errors = ss.spacing_errors()
        rates = ss.spacing_error_rates()
        chain = simulate_chain(
            model, 3, cfg, input_fn=tabulated_input(ss.t, errors[:, 0], rates[:, 0])
        )
        for col in (1, 2):
            diff = np.abs(chain.z[:, col] - errors[:, col]).max()
            scale = np.abs(errors[:, col]).max()
            assert diff / scale < 1e-6

    def test_state_csv_layout(self, base_params):
        params = make_params(n=2)
        cfg = SimConfig(dt=0.05, duration=5.0)
        series = simulate_state_space(params, cfg, lambda t: 100.0)
        buf = io.StringIO()
        write_state_csv(series, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,x_1,v_1,x_2,v_2"
        assert len(lines) == len(series.t) + 1


class TestAttenuationReport:
    def test_ten_vehicle_chain_ratios_track_the_gain(self, const_spacing_model):
        cfg = SimConfig(dt=default_dt(3.0, const_spacing_model.a0), duration=400.0, discard=0.8)
        series = simulate_chain(const_spacing_model, 10, cfg, sine_input(1.0, 3.0))
        report = attenuation_report(series, cfg)
        expected = gain_at(const_spacing_model, 3.0)
        assert len(report.ratios) == 9
        assert report.all_attenuating
        for ratio in report.ratios:
            assert ratio == pytest.approx(expected, rel=0.02)

    def test_amplifying_frequency_flags_failure(self, const_spacing_model):
        cfg = SimConfig(dt=default_dt(1.0, const_spacing_model.a0), duration=200.0, discard=0.8)
        series = simulate_chain(const_spacing_model, 4, cfg, sine_input(1.0, 1.0))
        report = attenuation_report(series, cfg)
        assert not report.all_attenuating
        assert all(r > 1.0 for r in report.ratios)

    def test_zero_input_is_degenerate(self, const_spacing_model):
        cfg = SimConfig(dt=0.01, duration=10.0)
        series = simulate_chain(const_spacing_model, 3, cfg)
        with pytest.raises(DegenerateInputError):
            attenuation_report(series, cfg)

    def test_report_serialises(self, const_spacing_model):
        cfg = SimConfig(dt=0.01, duration=60.0)
        series = simulate_chain(const_spacing_model, 3, cfg, sine_input(1.0, 3.0))
        report = attenuation_report(series, cfg)
        obj = report.to_dict()
        assert set(obj) == {"amplitudes", "ratios", "all_attenuating"}
        assert len(obj["amplitudes"]) == 3
        assert len(obj["ratios"]) == 2


class TestTabulatedInput:
    def test_reproduces_a_sine_between_samples(self):
        t = np.arange(0.0, 10.0, 0.01)
        z = np.sin(3.0 * t)
        zdot = 3.0 * np.cos(3.0 * t)
        fn = tabulated_input(t, z, zdot)
        for s in (0.005, 1.2345, 7.7777):
            val, dval = fn(s)
            assert val == pytest.approx(math.sin(3.0 * s), abs=1e-8)
            assert dval == pytest.approx(3.0 * math.cos(3.0 * s), abs=1e-6)

    def test_exact_at_the_samples(self):
        t = np.array([0.0, 0.5, 1.0])
        z = np.array([1.0, -2.0, 0.25])
        zdot = np.array([0.0, 3.0, -1.0])
        fn = tabulated_input(t, z, zdot)
        for i in range(3):
            val, dval = fn(float(t[i]))
            assert val == pytest.approx(z[i], abs=1e-15)
            assert dval == pytest.approx(zdot[i], abs=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            tabulated_input([0.0], [1.0], [0.0])

    @pytest.mark.parametrize("t", [[0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 3.0]],
                             ids=["decreasing", "repeated"])
    def test_refuses_times_that_do_not_increase(self, t):
        with pytest.raises(ValueError, match="strictly increasing"):
            tabulated_input(t, np.zeros(4), np.zeros(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_a_time_that_is_not_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tabulated_input([0.0, 1.0, bad], np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("z,zdot", [(np.zeros(2), np.zeros(3)), (np.zeros(3), np.zeros(4))],
                             ids=["z", "zdot"])
    def test_refuses_samples_of_another_length(self, z, zdot):
        with pytest.raises(ValueError, match="length 3"):
            tabulated_input([0.0, 1.0, 2.0], z, zdot)

    def test_refuses_samples_that_are_not_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            tabulated_input([0.0, 1.0, 2.0], np.zeros((3, 1)), np.zeros(3))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40))
    def test_array_queries_match_scalar_queries_exactly(self, seed, samples):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.01, 1.0, samples))
        fn = tabulated_input(t, rng.standard_normal(samples), rng.standard_normal(samples))
        queries = np.concatenate((t, rng.uniform(t[0] - 1.0, t[-1] + 1.0, 50)))
        val, dval = fn(queries)
        scalar = np.array([fn(float(s)) for s in queries])
        assert np.array_equal(val, scalar[:, 0])
        assert np.array_equal(dval, scalar[:, 1])


class TestSineInput:
    def test_array_queries_match_scalar_queries(self):
        fn = sine_input(-1.3, 2.7)
        t = np.linspace(0.0, 500.0, 1001)
        val, dval = fn(t)
        scalar = np.array([fn(float(s)) for s in t])
        np.testing.assert_array_max_ulp(val, scalar[:, 0], maxulp=2)
        np.testing.assert_array_max_ulp(dval, scalar[:, 1], maxulp=2)
        assert math.copysign(1.0, val[0]) == -1.0  # -1.3 * sin(0) is -0.0

    def test_zero_amplitude_is_exactly_zero(self):
        val, dval = sine_input(0.0, 3.0)(np.linspace(0.0, 10.0, 11))
        assert np.array_equal(val, np.zeros(11)) and np.array_equal(dval, np.zeros(11))
        assert sine_input(0.0, 3.0)(1.5) == (0.0, 0.0)


# 2000 steps of 2**-7 s, two blocks: every grid and half-step time is exact.
_DT = 2.0 ** -7
_INPUT_CFG = SimConfig(dt=_DT, duration=2000 * _DT)
_README_MODEL = ErrorModel(a0=2.0, a1=0.4, b0=2.0, b1=0.4)
# The first time an input is not finite: the start, then a grid time and a
# half-step time in the second block.
_WHEN = {"start": 0.0, "grid-time": 1500 * _DT, "half-step": 1500.5 * _DT}


def _run_with_bad_input(source, value, when):
    """Run with an input that is finite before ``when`` and ``value`` at it."""
    if source == "input_fn":
        return simulate_chain(_README_MODEL, 3, _INPUT_CFG,
                              lambda t: (np.where(t >= when, value, np.sin(t)), np.cos(t)))
    if source == "leader_force":
        return simulate_state_space(make_params(n=3), _INPUT_CFG,
                                    lambda s: value if s >= when else math.sin(s))
    # Samples on either side of `when`, the one before it closer than half a
    # step, so that no query time before `when` reads the bad sample.
    t = np.array(sorted({0.0, max(when - _DT / 4, 0.0), when, _INPUT_CFG.duration}))
    z, zdot = np.sin(t), np.cos(t)
    (z if source == "tabulated z" else zdot)[np.searchsorted(t, when)] = value
    return simulate_chain(_README_MODEL, 3, _INPUT_CFG, tabulated_input(t, z, zdot))


def _refused_at(run, when):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            run()
    assert str(excinfo.value) == f"input at t = {when:.6g} s is not finite"


class TestNonFiniteInputs:
    """One rule for every input source: a run whose input is not finite is a
    ValueError naming the first such time, never a DivergenceError."""

    @pytest.mark.parametrize("when", sorted(_WHEN))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("source", ["input_fn", "leader_force", "tabulated z",
                                        "tabulated zdot"])
    def test_a_bad_value_is_named_at_its_time(self, source, value, when):
        _refused_at(lambda: _run_with_bad_input(source, value, _WHEN[when]), _WHEN[when])

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
    def test_a_bad_sinusoid_amplitude_is_named_at_the_start(self, amplitude):
        _refused_at(lambda: simulate_chain(_README_MODEL, 3, _INPUT_CFG,
                                           sine_input(amplitude, 3.0)), 0.0)

    # A sinusoid of finite amplitude and frequency is not finite after t = 0
    # only where its phase leaves the float range: there sin and cos are nan.
    @pytest.mark.parametrize("when", ["grid-time", "half-step"])
    def test_a_sinusoid_phase_beyond_the_float_range_is_named_at_its_time(self, when):
        omega = sys.float_info.max / _WHEN[when] * (1.0 + 1e-10)
        assert math.isfinite(omega * (_WHEN[when] - _DT / 2))
        _refused_at(lambda: simulate_chain(_README_MODEL, 3, _INPUT_CFG,
                                           sine_input(1e-300, omega)), _WHEN[when])

    def test_a_divergence_before_a_bad_input_is_still_a_divergence(self):
        # The runaway state overflows at 168.45 s; the input turns nan at
        # 170 s, later in the same block.
        cfg = SimConfig(dt=0.05, duration=500.0)
        with pytest.raises(DivergenceError, match=r"^non-finite state at t = 168\.45 s$"):
            simulate_chain(_RUNAWAY, 3, cfg,
                           lambda t: (np.where(t >= 170.0, np.nan, np.sin(t)), np.cos(t)))


def row_loop(x, M):
    for prev, row in zip(x, x[1:]):
        row += prev @ M


_L = simulate._SCAN
_RUNAWAY = ErrorModel(a0=-5.0, a1=-3.0, b0=1.0, b1=1.0)


class TestBlockedScan:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 24), st.floats(0.1, 1.1),
           st.sampled_from(["1", "L-1", "L", "L+1", "2L", "rL", "rL+1", "256", "255"]))
    def test_scan_matches_the_row_loop(self, seed, size, rho, length):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(3, 256 // _L))
        rows = {"1": 1, "L-1": _L - 1, "L": _L, "L+1": _L + 1, "2L": 2 * _L,
                "rL": r * _L, "rL+1": r * _L + 1, "256": 256, "255": 255}[length]
        M = rng.uniform(-1.0, 1.0, (size, size))
        M *= rho / np.abs(M).sum(axis=0).max()  # |x| @ |M| grows by at most rho per step
        x = rng.standard_normal((rows + 1, size)) * np.exp(rng.uniform(-5.0, 5.0, (rows + 1, 1)))
        expected = x.copy()
        row_loop(expected, M)
        powers = simulate._powers(M)
        assert powers is not None
        scanned, again = x.copy(), x.copy()
        simulate._recur(scanned, M, powers)
        simulate._recur(again, M, powers)
        assert np.array_equal(again, scanned)
        # Both evaluate x_k = x_{k-1} M + f_k with sums and products only,
        # so each term of the exact x_k picks up at most D_k roundings:
        # size + 1 per step in the loop, and in the scan at most 2L(size + 1)
        # more from the powers and the sub-block sums, so
        # D_k = (k + 2L)(size + 1) bounds both.  Each result is then within
        # gamma(D_k) = D_k u / (1 - D_k u) times a_k of the exact x_k, where
        # a_k = a_{k-1} |M| + |f_k| is the recurrence on absolute values;
        # evaluated in floats, a_k comes out low by a factor of at most
        # 1 - gamma(D_k).
        a = np.abs(x)
        row_loop(a, np.abs(M))
        du = (np.arange(rows + 1) + 2 * _L) * (size + 1) * 2.0 ** -53
        gamma = du / (1.0 - du)
        bound = 2.0 * gamma / (1.0 - gamma)
        assert np.all(np.abs(scanned - expected) <= bound[:, None] * a)

    def test_zero_input_under_a_step_map_whose_powers_overflow_stays_zero(self):
        # h * a1 = 1e12: the step matrix is finite, its 8th power is not.
        model = ErrorModel(a0=1.0, a1=1e12, b0=1.0, b1=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = simulate_chain(model, 3, SimConfig(dt=1.0, duration=100.0))
        assert not series.z.any() and not series.zdot.any()

    @pytest.mark.parametrize("n", [2, 3, 9, 16])
    @pytest.mark.parametrize("model,dt", [(_RUNAWAY, 0.05), (_RUNAWAY, 0.2),
                                          (ErrorModel(a0=4.0, a1=2.0, b0=1.0, b1=1.0), 4.0)])
    def test_divergence_is_reported_at_the_row_loops_time(self, monkeypatch, n, model, dt):
        cfg = SimConfig(dt=dt, duration=4000.0 * dt)
        messages = []
        for width in (simulate._SCAN_WIDTH, 0):  # 0: every run steps row by row
            monkeypatch.setattr(simulate, "_SCAN_WIDTH", width)
            with pytest.raises(DivergenceError) as excinfo:
                simulate_chain(model, n, cfg, sine_input(1.0, 0.3))
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_runaway_diverges_at_the_time_the_row_loop_reported(self):
        cfg = SimConfig(dt=0.05, duration=500.0)
        with pytest.raises(DivergenceError, match=r"^non-finite state at t = 168\.45 s$"):
            simulate_chain(_RUNAWAY, 3, cfg, sine_input(1.0, 1.0))

    def test_states_wider_than_the_bound_step_row_by_row(self, monkeypatch):
        def refuse(M):
            raise AssertionError(f"powers built for width {len(M)}")

        monkeypatch.setattr(simulate, "_powers", refuse)
        cfg = SimConfig(dt=0.01, duration=1.0)
        model = ErrorModel(a0=2.0, a1=3.0, b0=2.0, b1=3.0)
        simulate_chain(model, simulate._SCAN_WIDTH // 2 + 1, cfg, sine_input(1.0, 2.0))
        with pytest.raises(AssertionError, match="powers built"):
            simulate_chain(model, simulate._SCAN_WIDTH // 2, cfg, sine_input(1.0, 2.0))

    def test_a_block_the_scan_leaves_non_finite_is_stepped_again(self, monkeypatch):
        model = ErrorModel(a0=2.0, a1=3.0, b0=2.0, b1=3.0)
        cfg = SimConfig(dt=0.01, duration=6.0)  # 600 steps
        scan = simulate._recur

        def poisoned(x, M, powers=None):
            scan(x, M, powers)
            if powers is not None:
                x[-1] = np.nan

        monkeypatch.setattr(simulate, "_recur", poisoned)
        series = simulate_chain(model, 5, cfg, sine_input(1.0, 2.0))
        monkeypatch.setattr(simulate, "_SCAN_WIDTH", 0)
        rows = simulate_chain(model, 5, cfg, sine_input(1.0, 2.0))
        assert np.array_equal(series.z, rows.z) and np.array_equal(series.zdot, rows.zdot)


    @pytest.mark.parametrize("rows,levels", [
        (2 * _L * _L, 1),             # 2L sub-blocks: one level
        ((2 * _L + 1) * _L, 2),       # 2L + 1 sub-blocks
        ((2 * _L + 5) * _L + 3, 2),   # 21 sub-blocks, not a multiple of L, and a tail
        (1025, 2),
        (2048 + 8 * 37 + 3, 2),
        (9601, 2),
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_second_level_matches_the_row_loop(self, monkeypatch, rows, levels, seed):
        rng = np.random.default_rng([rows, seed])
        size = int(rng.integers(1, 25))
        rho = (0.1, 0.9, 1.0, 1.001)[seed]
        M = rng.uniform(-1.0, 1.0, (size, size))
        M *= rho / np.abs(M).sum(axis=0).max()  # |x| @ |M| grows by at most rho per step
        x = rng.standard_normal((rows + 1, size)) * np.exp(rng.uniform(-5.0, 5.0, (rows + 1, 1)))
        expected = x.copy()
        row_loop(expected, M)
        powers = simulate._powers(M)
        assert powers is not None and len(powers) == 2
        scan, calls = simulate._recur, []

        def spy(x, M, powers=None):
            calls.append(len(x))
            scan(x, M, powers)

        monkeypatch.setattr(simulate, "_recur", spy)
        scanned = x.copy()
        simulate._recur(scanned, M, powers)
        assert calls == [rows + 1, rows // _L + 1][:levels]
        # As in test_scan_matches_the_row_loop, with one more level: the
        # second solves the sub-block ends' recurrence by the same scan with
        # M**L in place of M, whose powers are products of M's and whose
        # sums add at most another 2L(size + 1) roundings to each term, so
        # D_k = (k + 4L)(size + 1) bounds both.
        a = np.abs(x)
        row_loop(a, np.abs(M))
        du = (np.arange(rows + 1) + 4 * _L) * (size + 1) * 2.0 ** -53
        gamma = du / (1.0 - du)
        bound = 2.0 * gamma / (1.0 - gamma)
        assert np.all(np.abs(scanned - expected) <= bound[:, None] * a)

    def test_powers_whose_second_level_overflows_take_one_level(self):
        # M**8 = diag(1e48, 2**-8) is finite, M**64 is not.
        M = np.diag([1e6, 0.5])
        with np.errstate(all="ignore"):  # as _integrate_linear calls it
            powers = simulate._powers(M)
        assert powers is not None and len(powers) == 1
        x = np.zeros((1026, 2))
        x[:, 1] = np.random.default_rng(5).standard_normal(1026)
        expected = x.copy()
        row_loop(expected, M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate._recur(x, M, powers)
        assert not x[:, 0].any()
        assert np.allclose(x, expected, rtol=1e-13, atol=0.0)
        # The same through a chain: h * a1 = 1000 puts the step matrix's
        # entries near 1e10, so its 8th power is finite and its 64th is not.
        model = ErrorModel(a0=1.0, a1=1000.0, b0=1.0, b1=1.0)
        A = simulate._cascade(model, 3)
        A[:, [0, 3]] = 0.0
        M = simulate._rk4_step(A, np.zeros((6, 1)), 1.0, np.eye(6), *np.zeros((3, 1, 6))).T
        with np.errstate(all="ignore"):
            assert len(simulate._powers(M)) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = simulate_chain(model, 3, SimConfig(dt=1.0, duration=3000.0))
        assert not series.z.any() and not series.zdot.any()

    @pytest.mark.parametrize("size", [2, 6, 32, 80])
    def test_no_product_is_larger_than_the_stacked_one_over_32_sub_blocks(self, size):
        # BLAS libraries start threads above some size of product; the scan
        # keeps each within the stacked product over 32 sub-blocks,
        # 32 x (8 * size) x size multiply-adds.
        products = []

        class Recorded(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                inputs = [a.view(np.ndarray) if isinstance(a, Recorded) else a for a in inputs]
                if ufunc is np.matmul:
                    a, b = inputs
                    products.append(a.size // a.shape[-1] * a.shape[-1] * b.shape[-1])
                if out is not None:
                    kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
                result = getattr(ufunc, method)(*inputs, **kwargs)
                return out[0] if out is not None else result

        rng = np.random.default_rng(size)
        M = rng.uniform(-1.0, 1.0, (size, size))
        M *= 0.9 / np.abs(M).sum(axis=0).max()
        x = rng.standard_normal((simulate._BLOCK + 1, size))
        expected = x.copy()
        row_loop(expected, M)
        powers = simulate._powers(M)
        assert len(powers) == 2
        scanned = x.copy().view(Recorded)
        simulate._recur(scanned, M, powers)
        assert np.allclose(scanned.view(np.ndarray), expected, rtol=1e-12, atol=1e-12)
        assert len(products) > 2 * _L
        assert max(products) <= 32 * (_L * size) * size


# Reference implementations: the per-step scalar RK4 loops and the per-row
# CSV writers that the matrix integrator and the chunked writers replaced.
# The new code must agree with them to rounding and byte for byte.

def reference_chain(model, n, cfg, input_fn):
    stages = n - 1
    dt = cfg.dt
    steps = int(round(cfg.duration / dt))
    a0, a1, b0, b1 = model.a0, model.a1, model.b0, model.b1

    def acc(zs, vs, uz, uzd):
        out = [0.0] * stages
        pz, pv = uz, uzd
        for i in range(stages):
            out[i] = b0 * pz + b1 * pv - a0 * zs[i] - a1 * vs[i]
            pz = zs[i]
            pv = vs[i]
        return out

    z_out = np.zeros((steps + 1, n))
    zd_out = np.zeros((steps + 1, n))
    z_out[0, 0], zd_out[0, 0] = input_fn(0.0)
    z = [0.0] * stages
    v = [0.0] * stages
    h, h2, h6 = dt, 0.5 * dt, dt / 6.0
    rng = range(stages)
    for s in range(steps):
        t0 = s * dt
        t1 = (s + 1) * dt
        u0, u0d = input_fn(t0)
        uh, uhd = input_fn(t0 + h2)
        u1, u1d = input_fn(t1)
        a_1 = acc(z, v, u0, u0d)
        z2 = [z[i] + h2 * v[i] for i in rng]
        v2 = [v[i] + h2 * a_1[i] for i in rng]
        a_2 = acc(z2, v2, uh, uhd)
        z3 = [z[i] + h2 * v2[i] for i in rng]
        v3 = [v[i] + h2 * a_2[i] for i in rng]
        a_3 = acc(z3, v3, uh, uhd)
        z4 = [z[i] + h * v3[i] for i in rng]
        v4 = [v[i] + h * a_3[i] for i in rng]
        a_4 = acc(z4, v4, u1, u1d)
        z = [z[i] + h6 * (v[i] + 2.0 * v2[i] + 2.0 * v3[i] + v4[i]) for i in rng]
        v = [v[i] + h6 * (a_1[i] + 2.0 * a_2[i] + 2.0 * a_3[i] + a_4[i]) for i in rng]
        z_out[s + 1, 0] = u1
        zd_out[s + 1, 0] = u1d
        z_out[s + 1, 1:] = z
        zd_out[s + 1, 1:] = v
    return z_out, zd_out


def reference_state_space(params, cfg, leader_force, num=float):
    """The scalar RK4 loop in the number type ``num``, on the float inputs
    (gains, step, leader force samples) that the simulator uses."""
    n = params.n
    km = num(params.k / params.m)
    cm = num(params.c / params.m)
    inv_m = num(1.0 / params.m)
    dt = cfg.dt
    steps = int(round(cfg.duration / dt))
    zero = num(0.0)

    def deriv(xs, vs, u):
        dv = [zero] * n
        dv[0] = u * inv_m
        for i in range(1, n):
            dv[i] = km * (xs[i - 1] - xs[i]) + cm * (vs[i - 1] - vs[i])
        return dv

    x_out = np.zeros((steps + 1, n))
    v_out = np.zeros((steps + 1, n))
    x = [zero] * n
    v = [zero] * n
    h = num(dt)
    h2, h6 = h / 2, h / 6
    rng = range(n)
    for s in range(steps):
        t0 = s * dt
        t1 = (s + 1) * dt
        u0 = num(leader_force(t0))
        uh = num(leader_force(t0 + 0.5 * dt))
        u1 = num(leader_force(t1))
        a_1 = deriv(x, v, u0)
        x2 = [x[i] + h2 * v[i] for i in rng]
        v2 = [v[i] + h2 * a_1[i] for i in rng]
        a_2 = deriv(x2, v2, uh)
        x3 = [x[i] + h2 * v2[i] for i in rng]
        v3 = [v[i] + h2 * a_2[i] for i in rng]
        a_3 = deriv(x3, v3, uh)
        x4 = [x[i] + h * v3[i] for i in rng]
        v4 = [v[i] + h * a_3[i] for i in rng]
        a_4 = deriv(x4, v4, u1)
        x = [x[i] + h6 * (v[i] + 2 * v2[i] + 2 * v3[i] + v4[i]) for i in rng]
        v = [v[i] + h6 * (a_1[i] + 2 * a_2[i] + 2 * a_3[i] + a_4[i]) for i in rng]
        x_out[s + 1] = [float(value) for value in x]
        v_out[s + 1] = [float(value) for value in v]
    return x_out, v_out


def reference_chain_csv(series, fh):
    fh.write("t," + ",".join(f"z_{i + 1}" for i in range(series.n)) + "\n")
    for j in range(len(series.t)):
        row = series.z[j]
        fh.write(f"{float(series.t[j])!r}," + ",".join(repr(float(v)) for v in row) + "\n")


def reference_state_csv(series, fh):
    n = series.x.shape[1]
    fh.write("t," + ",".join(f"x_{i + 1},v_{i + 1}" for i in range(n)) + "\n")
    for j in range(len(series.t)):
        cells = []
        for i in range(n):
            cells.append(repr(float(series.x[j, i])))
            cells.append(repr(float(series.v[j, i])))
        fh.write(f"{float(series.t[j])!r}," + ",".join(cells) + "\n")


def written(writer, series):
    buf = io.StringIO()
    writer(series, buf)
    return buf.getvalue()


def assert_channels_agree(new, old, rel=1e-12):
    # Per channel, relative to that channel's largest magnitude.
    for col in range(old.shape[1]):
        scale = np.abs(old[:, col]).max()
        assert np.abs(new[:, col] - old[:, col]).max() <= rel * scale, col


def fastest_rate(a0, a1):
    return float(max(abs(np.roots([1.0, a1, a0]))))


def run_config(rate, frac, steps):
    # frac <= 0.5 keeps h times every eigenvalue well inside the RK4 stability region.
    dt = frac / rate
    return SimConfig(dt=dt, duration=steps * dt)


class TestMatrixIntegratorMatchesScalarLoops:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SUPPORTED_COMBOS), st.integers(0, 2 ** 32 - 1), st.integers(2, 16),
           st.floats(0.01, 0.5), st.integers(100, 400), st.booleans())
    def test_chain(self, combo, seed, n, frac, steps, tabulated):
        rng = np.random.default_rng(seed)
        model = error_model(make_spec(*combo, params=random_params(rng)))
        cfg = run_config(fastest_rate(model.a0, model.a1), frac, steps)
        omega = math.sqrt(model.a0) * float(rng.uniform(0.3, 3.0))
        if tabulated:
            samples = int(rng.integers(2, 60))
            t = np.sort(rng.uniform(0.0, cfg.duration, samples))
            t[0], t[-1] = 0.0, cfg.duration
            input_fn = tabulated_input(t, rng.standard_normal(samples), rng.standard_normal(samples))
        else:
            input_fn = sine_input(float(rng.uniform(-2.0, 2.0)), omega)
        series = simulate_chain(model, n, cfg, input_fn=input_fn)
        z, zdot = reference_chain(model, n, cfg, input_fn)
        assert_channels_agree(series.z, z)
        assert_channels_agree(series.zdot, zdot)
        again = simulate_chain(model, n, cfg, input_fn=input_fn)
        assert np.array_equal(again.z, series.z) and np.array_equal(again.zdot, series.zdot)
        assert np.array_equal(series.t, np.arange(len(series.t)) * cfg.dt)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 0.5), st.integers(100, 400))
    @example(seed=172, frac=0.5, steps=232)  # the two paths differ by 1.01e-12 of v_5
    def test_state_space(self, seed, frac, steps):
        rng = np.random.default_rng(seed)
        params = random_params(rng, 2, 17)
        cfg = run_config(fastest_rate(params.k / params.m, params.c / params.m), frac, steps)
        omega = math.sqrt(params.k / params.m) * float(rng.uniform(0.3, 3.0))
        force = params.m * omega * omega

        def leader(t):
            return force * math.sin(omega * t)

        series = simulate_state_space(params, cfg, leader)
        with localcontext() as ctx:
            ctx.prec = 60
            exact_x, exact_v = reference_state_space(params, cfg, leader, Decimal)
        # Each path's own rounding error against the exact recurrence: a
        # step rounds each component a few dozen times at most (the
        # propagator's dot products have 2n + 3 <= 35 terms), and with
        # frac <= 0.5 the step contracts, so the errors add up at most
        # linearly.  64 ulp of a channel's amplitude per step; the worst of
        # 2,000 random runs was 13.7 for the propagator (30.6 when it
        # steps row by row), 12.1 for the loop.
        bound = 64 * steps * 2.0 ** -53
        for x, v in ((series.x, series.v), reference_state_space(params, cfg, leader)):
            assert_channels_agree(x, exact_x, bound)
            assert_channels_agree(v, exact_v, bound)
        again = simulate_state_space(params, cfg, leader)
        assert np.array_equal(again.x, series.x) and np.array_equal(again.v, series.v)

    def test_leader_force_is_called_once_per_half_step_time(self, base_params):
        times = []
        cfg = SimConfig(dt=0.01, duration=7.0)
        simulate_state_space(base_params, cfg, lambda t: times.append(t) or 100.0)
        steps = 700
        assert len(times) == 2 * steps + 1
        assert all(type(t) is float for t in times)
        assert times[::2] == [k * 0.01 for k in range(steps + 1)]
        assert times[1::2] == [k * 0.01 + 0.005 for k in range(steps)]


_SPECIAL = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300,
                     1.0 / 3.0, float("nan"), float("inf"), float("-inf")])


class TestChunkedCsvWriters:
    def test_chain_csv_matches_row_writer_across_chunks(self, const_spacing_model):
        cfg = SimConfig(dt=0.01, duration=90.0)  # 9001 rows, 11 chunks of 819
        series = simulate_chain(const_spacing_model, 4, cfg, sine_input(-1.0, 3.0))
        assert not series.z.flags.c_contiguous
        text = written(write_chain_csv, series)
        assert text == written(reference_chain_csv, series)
        assert text.splitlines()[1] == "0.0,-0.0,0.0,0.0,0.0"

    def test_state_csv_matches_row_writer_across_chunks(self):
        cfg = SimConfig(dt=0.01, duration=45.0)
        series = simulate_state_space(make_params(n=3), cfg, lambda t: 300.0 * math.sin(2.0 * t))
        assert not series.x.flags.c_contiguous
        assert written(write_state_csv, series) == written(reference_state_csv, series)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.sampled_from(["chain", "state"]),
           st.sampled_from([None, -1, 0, 1]))
    def test_special_values_match_row_writers(self, seed, n, writer, edge):
        # One row, or a row before, on or after the first chunk edge of one
        # writer: a chunk is VALUES_PER_WRITE // columns rows, n + 1 columns of
        # chain and 2n + 1 of state.
        columns = n + 1 if writer == "chain" else 2 * n + 1
        rows = 1 if edge is None else _text.VALUES_PER_WRITE // columns + edge
        rng = np.random.default_rng(seed)
        values = rng.choice(_SPECIAL, size=(rows, 4 * n + 1))
        values[rng.random(values.shape) < 0.3] = rng.standard_normal() * 1e-10
        buf = values[:, :2 * n + 1]  # interleaved views, as the simulators return
        chain = ChainSeries(t=values[:, 0], z=buf[:, 1:n + 1], zdot=buf[:, n + 1:])
        state = StateSeries(t=values[:, 0], x=values[:, 1:n + 1], v=values[:, 2 * n + 1:3 * n + 1])
        assert written(write_chain_csv, chain) == written(reference_chain_csv, chain)
        assert written(write_state_csv, state) == written(reference_state_csv, state)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("edge", [-1, 0, 1, "twice"])
def test_csv_writers_match_row_writers_at_chunk_edges(n, edge):
    # A chunk is VALUES_PER_WRITE // columns rows: 2n + 1 columns of state, n + 1 of chain.
    rows = {}
    for columns in (n + 1, 2 * n + 1):
        step = _text.VALUES_PER_WRITE // columns
        rows[columns] = 2 * step + 1 if edge == "twice" else step + edge
    values = np.random.default_rng(n).standard_normal((max(rows.values()), 4 * n + 1))
    chain_rows, state_rows = values[:rows[n + 1]], values[:rows[2 * n + 1]]
    chain = ChainSeries(t=chain_rows[:, 0], z=chain_rows[:, 1:n + 1],
                        zdot=chain_rows[:, n + 1:2 * n + 1])
    state = StateSeries(t=state_rows[:, 0], x=state_rows[:, 1:n + 1],
                        v=state_rows[:, n + 1:2 * n + 1])
    assert written(write_chain_csv, chain) == written(reference_chain_csv, chain)
    assert written(write_state_csv, state) == written(reference_state_csv, state)
