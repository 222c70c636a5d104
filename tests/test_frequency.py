import io
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from platoon_stab import (
    ControllerSpec,
    ErrorModel,
    SingularityError,
    StabilityConstraint,
    SweepResult,
    critical_frequencies,
    error_model,
    frequency_response,
    is_stable_at,
    stability_constraint,
    stable_intervals,
    sweep,
    transfer_function,
    write_sweep_csv,
)
from platoon_stab import _text
from platoon_stab.frequency import _q_roots, _stable_band
from conftest import AUT, BI, CS, SUPPORTED_COMBOS, UNI, make_spec, random_params

# Sweep rows per write: five tokens a row.
_CSV_CHUNK = _text.VALUES_PER_WRITE // 5


@pytest.fixture
def const_spacing_model(const_spacing_spec):
    return error_model(const_spacing_spec)


class TestTransferFunction:
    def test_built_from_model_coefficients(self, const_spacing_model):
        tf = transfer_function(const_spacing_model)
        assert (tf.b0, tf.b1, tf.a0, tf.a1) == (2.0, 0.4, 2.0, 0.4)

    def test_dc_gain_is_one_when_numerator_matches(self, const_spacing_model):
        tf = transfer_function(const_spacing_model)
        assert frequency_response(tf, 0.0).value == pytest.approx(1.0)

    def test_dc_gain_bidirectional(self):
        tf = transfer_function(error_model(make_spec(AUT, BI, CS)))
        # b0/a0 = 2/4 by hand
        assert frequency_response(tf, 0.0).value == pytest.approx(0.5)


class TestFrequencyResponse:
    def test_magnitude_at_omega_three(self, const_spacing_model):
        # Independent oracle: |2 + 1.2i| / |-7 + 1.2i| = sqrt(5.44/50.44).
        expected = abs(complex(2.0, 1.2)) / abs(complex(-7.0, 1.2))
        fr = frequency_response(transfer_function(const_spacing_model), 3.0)
        assert fr.magnitude == pytest.approx(expected, rel=1e-12)
        assert fr.magnitude == pytest.approx(0.32840, abs=1e-5)

    def test_magnitude_at_omega_one_amplifies(self, const_spacing_model):
        expected = math.sqrt(4.16 / 1.16)
        fr = frequency_response(transfer_function(const_spacing_model), 1.0)
        assert fr.magnitude == pytest.approx(expected, rel=1e-12)
        assert fr.magnitude == pytest.approx(1.894, abs=1e-3)

    def test_magnitude_equals_complex_modulus(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = random_params(rng)
            combo = SUPPORTED_COMBOS[int(rng.integers(len(SUPPORTED_COMBOS)))]
            tf = transfer_function(error_model(ControllerSpec(*combo, p)))
            omega = float(rng.uniform(1e-3, 1e3))
            fr = frequency_response(tf, omega)
            assert abs(fr.magnitude - abs(fr.value)) < 1e-12

    def test_rolls_off_at_high_frequency(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = random_params(rng)
            combo = SUPPORTED_COMBOS[int(rng.integers(len(SUPPORTED_COMBOS)))]
            model = error_model(ControllerSpec(*combo, p))
            fr = frequency_response(transfer_function(model), 1e6)
            assert fr.magnitude < 1e-5 * (model.b1 + 1.0)

    def test_singular_denominator_raises(self):
        tf = ErrorModel(a0=4.0, a1=0.0, b0=1.0, b1=1.0)  # undamped
        with pytest.raises(SingularityError):
            frequency_response(tf, 2.0)

    def test_nonfinite_omega_rejected(self, const_spacing_model):
        tf = transfer_function(const_spacing_model)
        with pytest.raises(ValueError):
            frequency_response(tf, math.nan)

    def test_magnitude_is_continuous_and_matches_analytic_slope(self, const_spacing_model):
        # d|H|^2/domega = 2*omega*(N'D - ND')/D^2 with N, D quadratics in
        # u = omega^2; compared against a central difference at 1e-8.
        model = const_spacing_model
        delta = 1e-8

        def mag_sq(w):
            return frequency_response(transfer_function(model), w).magnitude ** 2

        for omega in (0.7, 1.3, 2.6, 3.7, 9.0):
            u = omega * omega
            n_val = model.b0**2 + model.b1**2 * u
            d_val = (model.a0 - u) ** 2 + model.a1**2 * u
            dn = model.b1**2
            dd = -2.0 * (model.a0 - u) + model.a1**2
            analytic = 2.0 * omega * (dn * d_val - n_val * dd) / d_val**2
            fd = (mag_sq(omega + delta) - mag_sq(omega - delta)) / (2.0 * delta)
            assert fd == pytest.approx(analytic, rel=1e-3, abs=1e-6)
            assert abs(mag_sq(omega + delta) - mag_sq(omega)) < 1e-6


class TestStabilityDecision:
    def test_examples_around_the_classic_bound(self, const_spacing_model):
        assert is_stable_at(const_spacing_model, 3.0) is True
        assert is_stable_at(const_spacing_model, 1.0) is False
        # |H| is exactly 1 at the threshold, so the strict test fails.
        assert is_stable_at(const_spacing_model, 2.0) is False

    def test_decided_where_w_squared_overflows(self):
        # b1*w and w*w pass the float range; |H| is about b1/w = 1e-290.
        model = ErrorModel(2.0, 1e10, 1.0, 1e10)
        assert is_stable_at(model, 1e300) is True
        magnitude = frequency_response(transfer_function(model), 1e300).magnitude
        assert magnitude == pytest.approx(1e-290, rel=1e-12)

    def test_nonpositive_omega_rejected(self, const_spacing_model):
        with pytest.raises(ValueError):
            is_stable_at(const_spacing_model, 0.0)
        with pytest.raises(ValueError):
            is_stable_at(const_spacing_model, -1.0)

    def test_constraint_coefficients_constant_spacing_exact(self, const_spacing_model):
        con = stability_constraint(const_spacing_model)
        assert con.alpha == -4.0  # -2k/m
        assert con.beta == 0.0

    def test_constraint_coefficients_bidirectional(self):
        con = stability_constraint(error_model(make_spec(AUT, BI, CS)))
        # 0.8^2 - 0.4^2 - 8 and 16 - 4 by hand.
        assert con.alpha == pytest.approx(-7.52, abs=1e-12)
        assert con.beta == pytest.approx(12.0, abs=1e-12)

    def test_constant_spacing_quartic_collapses_to_classic_form(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            p = random_params(rng)
            con = stability_constraint(error_model(ControllerSpec(AUT, UNI, CS, p)))
            assert con.beta == 0.0
            assert con.alpha == pytest.approx(-2.0 * p.k / p.m, rel=1e-14)

    def test_classic_bound_reproduced_on_random_platoons(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = random_params(rng)
            model = error_model(ControllerSpec(AUT, UNI, CS, p))
            threshold = math.sqrt(2.0 * p.k / p.m)
            for rel in (1e-6, 1e-3, 0.1, 0.5):
                low = threshold * (1.0 - rel)
                high = threshold * (1.0 + rel)
                assert is_stable_at(model, low) is (low * low > 2.0 * p.k / p.m)
                assert not is_stable_at(model, low)
                assert is_stable_at(model, high)

    def test_boundary_magnitude_within_1e9(self):
        # At every critical frequency of every model, not only the classic
        # bound of the constant-spacing one.
        rng = np.random.default_rng(37)
        roots = 0
        for _ in range(300):
            p = random_params(rng)
            for combo in SUPPORTED_COMBOS:
                model = error_model(ControllerSpec(*combo, p))
                for omega in critical_frequencies(stability_constraint(model)):
                    fr = frequency_response(transfer_function(model), omega)
                    assert abs(fr.magnitude - 1.0) <= 1e-9, (combo, p, omega)
                    roots += 1
        assert roots > 600

    def test_quartic_agrees_with_magnitude_on_log_grid(self):
        # Zero disagreements over a 1000-point grid for every model,
        # outside a 1e-9 band around the critical frequencies.
        for combo in SUPPORTED_COMBOS:
            model = error_model(make_spec(*combo))
            con = stability_constraint(model)
            crits = critical_frequencies(con)
            for omega in np.geomspace(1e-3, 1e3, 1000):
                omega = float(omega)
                if any(abs(omega - c) <= 1e-9 for c in crits):
                    continue
                assert is_stable_at(model, omega) == (con.q(omega * omega) > 0.0)


class TestCriticalFrequencies:
    def test_constant_spacing_single_threshold(self, const_spacing_model):
        assert critical_frequencies(stability_constraint(const_spacing_model)) == [2.0]

    def test_no_positive_roots_means_empty(self):
        assert critical_frequencies(StabilityConstraint(alpha=1.0, beta=2.0)) == []
        assert critical_frequencies(StabilityConstraint(alpha=0.0, beta=5.0)) == []

    def test_bidirectional_roots_match_grid_sign_changes(self):
        con = stability_constraint(error_model(make_spec(AUT, BI, CS)))
        crits = critical_frequencies(con)
        assert len(crits) == 2
        # Locate sign changes of Q on a fine grid as an independent check.
        grid = np.linspace(0.01, 10.0, 200001)
        q = grid**4 + con.alpha * grid**2 + con.beta
        flips = grid[np.nonzero(np.diff(np.sign(q)))[0]]
        assert len(flips) == 2
        for found, expected in zip(crits, flips):
            assert found == pytest.approx(expected, abs=1e-3)
        # And Q vanishes there.
        for w in crits:
            assert con.q(w * w) == pytest.approx(0.0, abs=1e-9)

    def test_root_finder_avoids_cancellation(self):
        # Widely separated roots: u^2 - 1e8*u + 1 has roots ~1e8 and ~1e-8.
        con = StabilityConstraint(alpha=-1e8, beta=1.0)
        crits = critical_frequencies(con)
        assert len(crits) == 2
        u_small, u_big = crits[0] ** 2, crits[1] ** 2
        assert u_small == pytest.approx(1e-8, rel=1e-9)
        assert u_big == pytest.approx(1e8, rel=1e-9)

    def test_stable_intervals(self, const_spacing_model):
        uni = stable_intervals(stability_constraint(const_spacing_model))
        assert uni == [(2.0, math.inf)]
        bi = stable_intervals(stability_constraint(error_model(make_spec(AUT, BI, CS))))
        assert len(bi) == 2
        assert bi[0][0] == 0.0 and math.isinf(bi[1][1])
        everywhere = stable_intervals(StabilityConstraint(alpha=1.0, beta=0.0))
        assert everywhere == [(0.0, math.inf)]


# 0 or +-10**U(-300, 300).
_COEFFICIENT = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
              st.sampled_from((-1.0, 1.0)), st.floats(-300.0, 300.0)),
)


def reference_roots(alpha, beta):
    """Real roots of ``u^2 + alpha*u + beta``, ascending, from the textbook
    formula in 1000-digit decimal arithmetic; also the discriminant."""
    with localcontext() as ctx:
        ctx.prec = 1000
        a, b = Decimal(alpha), Decimal(beta)
        disc = a * a - 4 * b
        if disc < 0:
            return [], disc
        return [(-a - disc.sqrt()) / 2, (-a + disc.sqrt()) / 2], disc


def reference_intervals(roots):
    """``(0, inf) - [lo, hi]`` as pairs of u-ends (None for inf); a root
    that rounds to 0.0 as a float counts as not positive."""
    if not roots or not float(roots[1]) > 0.0:
        return [(0, None)]
    lo, hi = roots
    return ([(0, lo)] if float(lo) > 0.0 else []) + [(hi, None)]


def assert_end(w, u):
    """``w`` is the omega-end for the u-end ``u``: 0, inf, or sqrt(u) within
    4 ulp where u is a normal float."""
    if u is None or u == 0:
        assert w == (math.inf if u is None else 0.0)
        return
    assert 0.0 < w < math.inf
    if float(u) >= sys.float_info.min:
        with localcontext() as ctx:
            ctx.prec = 1000
            w_ref = u.sqrt()
            assert abs(Decimal(w) - w_ref) <= 4 * Decimal(math.ulp(float(w_ref))), (w, w_ref)


class TestRootFinder:
    @settings(max_examples=300, deadline=None)
    @given(_COEFFICIENT, _COEFFICIENT)
    def test_roots_and_intervals_match_decimal_reference(self, alpha, beta):
        roots, disc = reference_roots(alpha, beta)
        # Near a double root one rounding of alpha^2 in any double-precision
        # discriminant moves the roots by up to |alpha| / sqrt(|disc|) / 4
        # ulp; the 4-ulp bound holds once sqrt(|disc|) >= |alpha| / 16.
        assume(disc == 0 or 256 * abs(disc) >= Decimal(alpha) ** 2)
        con = StabilityConstraint(alpha, beta)
        expected = reference_intervals(roots)
        intervals = stable_intervals(con)
        assert len(intervals) == len(expected), (intervals, expected)
        for interval, ends in zip(intervals, expected):
            for w, u in zip(interval, ends):
                assert_end(w, u)
        crits = critical_frequencies(con)
        expected_crits = sorted({u for ends in expected for u in ends if u})
        assert len(crits) == len(expected_crits), (crits, expected_crits)
        for w, u in zip(crits, expected_crits):
            assert_end(w, u)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(*2 * [st.one_of(_COEFFICIENT, st.floats(allow_nan=False,
                                                                      allow_infinity=False))]),
                    min_size=1, max_size=20))
    def test_array_equals_scalar_calls_bit_for_bit(self, pairs):
        lo, hi = _q_roots(*np.array(pairs).T)
        for i, (alpha, beta) in enumerate(pairs):
            assert np.array((lo[i], hi[i])).tobytes() == np.array(_q_roots(alpha, beta)).tobytes()

    @pytest.mark.parametrize("alpha,beta,crits,intervals", [
        (-1e200, 1.0, [1e-100, 1e100], [(0.0, 1e-100), (1e100, math.inf)]),  # disc overflows
        (-2e-300, 0.0, [2e-300 ** 0.5], [(2e-300 ** 0.5, math.inf)]),  # disc underflows
        (-4e200, 0.0, [2e100], [(2e100, math.inf)]),  # Q overflows at a probe point
        (-2.0, 1.0, [1.0], [(0.0, 1.0), (1.0, math.inf)]),  # double root
    ])
    def test_edge_constraints(self, alpha, beta, crits, intervals):
        con = StabilityConstraint(alpha, beta)
        assert critical_frequencies(con) == pytest.approx(crits, rel=1e-15, abs=0.0)
        assert stable_intervals(con) == [pytest.approx(i, rel=1e-15, abs=0.0) for i in intervals]

    @pytest.mark.parametrize("alpha,beta", [(math.nan, math.nan), (math.inf, math.nan),
                                            (-math.inf, 0.0), (1.0, math.inf)])
    def test_non_finite_constraint_is_refused(self, alpha, beta):
        for function in (stable_intervals, critical_frequencies):
            with pytest.raises(ValueError, match="alpha = .*, beta = "):
                function(StabilityConstraint(alpha, beta))


class TestStableBand:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SUPPORTED_COMBOS), st.integers(0, 2 ** 32 - 1))
    def test_generator_band_is_the_analysis_threshold(self, combo, seed):
        # The trace generator draws from _stable_band; analyze prints the
        # critical frequencies.  Both read the same roots of Q.
        model = error_model(ControllerSpec(*combo, random_params(np.random.default_rng(seed))))
        con = stability_constraint(model)
        assume(math.isfinite(con.alpha) and math.isfinite(con.beta))
        band = _stable_band(model)
        assert np.array(band).tobytes() == np.array(_q_roots(con.alpha, con.beta)).tobytes()
        assert sorted({math.sqrt(u) for u in band if u > 0.0}) == critical_frequencies(con)


class TestSweep:
    def test_verdict_flips_at_threshold(self, const_spacing_model):
        result = sweep(const_spacing_model, 0.1, 10.0, 100)
        below = result.stable[result.omega < 2.0]
        above = result.stable[result.omega > 2.0]
        assert not below.any()
        assert above.all()
        assert 0.0 < result.stable_fraction < 1.0

    def test_grid_spacings(self, const_spacing_model):
        log = sweep(const_spacing_model, 0.1, 10.0, 11, spacing="log")
        lin = sweep(const_spacing_model, 0.1, 10.0, 11, spacing="linear")
        assert log.omega[0] == pytest.approx(0.1) and log.omega[-1] == pytest.approx(10.0)
        assert np.allclose(np.diff(lin.omega), lin.omega[1] - lin.omega[0])

    def test_rows_match_scalar_evaluation(self, const_spacing_model):
        result = sweep(const_spacing_model, 0.5, 8.0, 50)
        tf = transfer_function(const_spacing_model)
        for i in (0, 13, 49):
            fr = frequency_response(tf, float(result.omega[i]))
            assert result.value[i] == fr.value
            assert result.magnitude[i] == fr.magnitude

    def test_csv_format(self, const_spacing_model, tmp_path):
        result = sweep(const_spacing_model, 0.1, 10.0, 5)
        out = tmp_path / "sweep.csv"
        with open(out, "w", newline="\n") as fh:
            write_sweep_csv(result, fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,re,im,magnitude,stable"
        assert len(lines) == 6
        cells = lines[1].split(",")
        assert float(cells[0]) == pytest.approx(0.1)
        assert cells[4] in ("true", "false")

    def test_range_validation(self, const_spacing_model):
        with pytest.raises(ValueError):
            sweep(const_spacing_model, 0.0, 10.0, 10)
        with pytest.raises(ValueError):
            sweep(const_spacing_model, 5.0, 1.0, 10)
        with pytest.raises(ValueError):
            sweep(const_spacing_model, 0.1, 10.0, 1)
        with pytest.raises(ValueError):
            sweep(const_spacing_model, 0.1, 10.0, 10, spacing="cubic")


def reference_write_sweep_csv(result, fh):
    """One f-string per row: the format the chunked writer must match."""
    fh.write("omega,re,im,magnitude,stable\n")
    for w, v, mag, ok in zip(result.omega, result.value, result.magnitude, result.stable):
        fh.write(
            f"{float(w)!r},{float(v.real)!r},{float(v.imag)!r},{float(mag)!r},"
            f"{'true' if ok else 'false'}\n"
        )


def csv_text(result, writer=write_sweep_csv):
    buf = io.StringIO()
    writer(result, buf)
    return buf.getvalue()


_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e-300,
                   0.1, 2.0 ** 53, float("nan"), float("inf"), float("-inf"))


class TestSweepCsv:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda size: st.lists(
        st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
        min_size=4 * size, max_size=4 * size)))
    def test_matches_per_row_writer(self, floats):
        omega, re, im, magnitude = np.array(floats, dtype=np.float64).reshape(4, -1)
        value = np.empty(len(omega), dtype=complex)
        value.real, value.imag = re, im  # keeps -0.0 and nan exactly as drawn
        result = SweepResult(omega=omega, value=value, magnitude=magnitude, stable=magnitude < 1.0)
        assert csv_text(result) == csv_text(result, reference_write_sweep_csv)

    @pytest.mark.parametrize("points", [2, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 3])
    def test_matches_per_row_writer_across_chunks(self, points):
        result = sweep(error_model(make_spec(AUT, BI, CS)), 0.01, 100.0, points)
        text = csv_text(result)
        assert text == csv_text(result, reference_write_sweep_csv)
        assert len(text.splitlines()) == points + 1
