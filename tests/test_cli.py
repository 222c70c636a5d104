import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import platoon_stab
from platoon_stab import controller_spec_to_dict, error_model, frequency_response, transfer_function
from platoon_stab import cli, monitor
from platoon_stab.cli import main
from platoon_stab.monitor import _CHUNK
from conftest import AUT, BI, CS, NON, SUPPORTED_COMBOS, UNI, VS, VTH, make_spec

# Valid specs whose alpha and beta overflow: with k = c = 1e308 the squares
# of a0 = b0 and a1 = b1 pass the float range (alpha = beta = nan); with
# k*h = 1e309, a1 is inf.
OVERFLOWING_SPECS = [make_spec(k=1e308, c=1e308), make_spec(AUT, UNI, VS, k=1e308, h=10.0)]


# analyze's stdout for each supported model on the README spec: the
# transfer function line, then the SHA-256 of every byte.
ANALYZE_STDOUT = {
    (AUT, UNI, CS): ("H(s) = (0.4*s + 2) / (s^2 + 0.4*s + 2)",
                     "cf83a406e06260780562030fe033b19f14b0f74b525cb4bb14660faf1533fb25"),
    (AUT, UNI, VS): ("H(s) = (0.4*s + 2) / (s^2 + 2.4*s + 2)",
                     "cf928a9eb553093ceffe922274b74dd7d0c7c54b3fa4dded41a98d6c5d6038f7"),
    (AUT, UNI, VTH): ("H(s) = (50.4*s + 2) / (s^2 + 52.4*s + 2)",
                      "5cf91550e54d33c670e16c8e1e91f4a42099e4086990966dd0acc33885a7ed27"),
    (AUT, BI, CS): ("H(s) = (0.4*s + 2) / (s^2 + 0.8*s + 4)",
                    "69e0ff1018428a495ecb4261161498a184a98cfe5441a194c972f83a5d677f73"),
    (AUT, BI, VS): ("H(s) = (0.4*s + 2) / (s^2 + 2.8*s + 4)",
                    "054f2f0ffa41b8b6b03e917eb3455d33b5e96fa4871954a8ca915f9ec298d962"),
    (NON, UNI, CS): ("H(s) = (0.4*s + 2) / (s^2 + 0.45*s + 2)",
                     "c063ab8b337decf8f53f9327d8e57a63884c32d5c3f1cbc0541e07cd9e54fe0d"),
}


def strict_json(text):
    """Parse CLI output as JSON, refusing the non-JSON constants NaN and
    Infinity that ``json.loads`` would accept."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def spec_file(tmp_path):
    def write(spec, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(controller_spec_to_dict(spec)))
        return str(path)
    return write


class TestAnalyze:
    def test_reports_threshold_for_constant_spacing(self, spec_file, capsys):
        code = main(["analyze", "--spec", spec_file(make_spec())])
        assert code == 0
        report = strict_json(capsys.readouterr().out)
        assert report["coefficients"] == {"a0": 2.0, "a1": 0.4, "b0": 2.0, "b1": 0.4}
        assert report["critical_frequencies"] == [2.0]
        assert "2k/m = 4" in report["stability_condition"]
        assert report["constraint"] == {"alpha": -4.0, "beta": 0.0}
        assert "note" not in report

    def test_threshold_that_underflows_prints_as_zero(self, spec_file, capsys):
        # 2k/m = 2e-600 underflows to 0.0; its threshold is +0, never -0.
        code = main(["analyze", "--spec", spec_file(make_spec(m=1e300, k=1e-300, c=1e-300))])
        assert code == 0
        report = strict_json(capsys.readouterr().out)
        assert report["stability_condition"] == "stable iff omega^2 > 2k/m = 0 (omega > 0 rad/s)"

    def test_non_autonomous_selection_is_noted(self, spec_file, capsys):
        code = main(["analyze", "--spec", spec_file(make_spec(NON, BI, VTH))])
        assert code == 0
        report = strict_json(capsys.readouterr().out)
        assert "leader-velocity" in report["note"]
        assert report["selected_model"] == "non-autonomous leader-velocity feedback"

    def test_invalid_platoon_names_conjunct(self, spec_file, capsys):
        code = main(["analyze", "--spec", spec_file(make_spec(h=0.0))])
        assert code == 2
        assert "0 < h violated" in capsys.readouterr().err

    def test_unsupported_combination_is_a_validation_error(self, spec_file, capsys):
        code = main(["analyze", "--spec", spec_file(make_spec(AUT, BI, VTH))])
        assert code == 2

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["analyze", "--spec", str(tmp_path / "nope.json")])
        assert code == 1

    def test_malformed_json_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", "--spec", str(bad)]) == 2

    @pytest.mark.parametrize("spec", OVERFLOWING_SPECS, ids=["nan", "inf"])
    def test_overflowed_constraint_exits_2(self, spec_file, capsys, spec):
        assert main(["analyze", "--spec", spec_file(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alpha = " in captured.err and "beta = " in captured.err

    def test_integer_beyond_float_range_is_validation_error(self, spec_file, tmp_path, capsys):
        path = spec_file(make_spec())
        text = Path(path).read_text()
        big = text.replace('"m": 1000.0', '"m": ' + "9" * 401)
        assert big != text
        bad = tmp_path / "big.json"
        bad.write_text(big)
        assert main(["analyze", "--spec", str(bad)]) == 2
        assert "params.m: must be finite" in capsys.readouterr().err

    def test_vehicle_count_beyond_int64_is_validation_error(self, spec_file, capsys):
        assert main(["analyze", "--spec", spec_file(make_spec(n=2**63))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: params.n: must be <= 9223372036854775807\n"

    @pytest.mark.parametrize("combo", SUPPORTED_COMBOS,
                             ids=lambda combo: "-".join(e.value for e in combo))
    def test_stdout_is_pinned(self, spec_file, capsys, combo):
        transfer_function_text, digest = ANALYZE_STDOUT[combo]
        assert main(["analyze", "--spec", spec_file(make_spec(*combo))]) == 0
        out = capsys.readouterr().out
        assert strict_json(out)["transfer_function"] == transfer_function_text
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSweep:
    def test_verdict_column_flips_at_threshold(self, spec_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--spec", spec_file(make_spec()),
                     "--omega-min", "0.1", "--omega-max", "10", "--points", "100",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,re,im,magnitude,stable"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 100
        for cells in rows:
            omega = float(cells[0])
            assert (cells[4] == "true") == (omega > 2.0)
        summary = strict_json(capsys.readouterr().err)
        assert summary["critical_frequencies"] == [2.0]
        assert 0.0 < summary["stable_fraction"] < 1.0

    def test_rerun_is_byte_identical(self, spec_file, tmp_path):
        spec = spec_file(make_spec())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["sweep", "--spec", spec, "--omega-min", "0.1",
                         "--omega-max", "10", "--points", "64", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_stream_is_pure_csv(self, spec_file, capsys):
        code = main(["sweep", "--spec", spec_file(make_spec()),
                     "--omega-min", "1", "--omega-max", "2", "--points", "5"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("omega,re,im,magnitude,stable\n")
        assert len(captured.out.splitlines()) == 6
        strict_json(captured.err)

    @pytest.mark.parametrize("spec", OVERFLOWING_SPECS, ids=["nan", "inf"])
    def test_overflowed_constraint_exits_2_writing_no_csv(self, spec_file, tmp_path, capsys, spec):
        out = tmp_path / "sweep.csv"
        sweep = ["sweep", "--spec", spec_file(spec), "--omega-min", "1", "--omega-max", "2"]
        assert main(sweep + ["--out", str(out)]) == 2
        assert not out.exists()
        assert main(sweep) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alpha = " in captured.err

    def test_bad_range_exits_2(self, spec_file, capsys):
        assert main(["sweep", "--spec", spec_file(make_spec()),
                     "--omega-min", "0", "--omega-max", "10", "--points", "10"]) == 2
        assert main(["sweep", "--spec", spec_file(make_spec()),
                     "--omega-min", "5", "--omega-max", "1", "--points", "10"]) == 2
        assert main(["sweep", "--spec", spec_file(make_spec()),
                     "--omega-min", "1", "--omega-max", "inf", "--points", "10"]) == 2
        assert capsys.readouterr().out == ""

    # The constraint is taken before the sweep, so its overflow is the
    # reason given, even for a sweep too large to allocate.
    @pytest.mark.parametrize("spec", OVERFLOWING_SPECS, ids=["nan", "inf"])
    def test_an_overflowed_constraint_is_refused_before_the_sweep(self, spec_file, capsys, spec):
        assert main(["sweep", "--spec", spec_file(spec), "--omega-min", "1", "--omega-max", "2",
                     "--points", "1000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: stability constraint overflows: alpha = ")

    def test_tiny_frequencies_of_a_valid_platoon_are_not_singular(self, spec_file, capsys):
        # a1 = 1e-150 > 0 keeps the denominator off zero, although its
        # modulus at the lowest frequencies is about 1e-305.
        spec = spec_file(make_spec(m=1.0, k=1e-305, c=1e-150))
        assert main(["sweep", "--spec", spec, "--omega-min", "1e-200",
                     "--omega-max", "1e-100", "--points", "5"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [float(cells[3]) for cells in rows] == pytest.approx(
            [1.0, 1.0, math.sqrt(0.5), 1e-25, 1e-50], rel=1e-4)

    def test_a1_w_below_the_float_range_is_not_singular(self, spec_file, capsys):
        # a0 = b0 = 1e-200 = w^2 at the first point, where a1*w = 1e-350
        # underflows unless time is first scaled to the model's rates.
        spec = spec_file(make_spec(m=1.0, k=1e-200, c=1e-250))
        assert main(["sweep", "--spec", spec, "--omega-min", "1e-100",
                     "--omega-max", "2e-100", "--points", "2"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [float(cells[3]) for cells in rows] == pytest.approx([1e150, 1 / 3], rel=1e-12)

    # numpy refuses the grid's 728 TiB at 1e14 points, and a count beyond the
    # float range, which the message gives in full.
    @pytest.mark.parametrize("points,count", [("100000000000000", "1e+14"),
                                              ("1" + "0" * 400, "1" + "0" * 400)],
                             ids=["1e14", "1e400"])
    def test_a_sweep_too_large_to_allocate_names_its_point_count(self, spec_file, tmp_path, capsys,
                                                                 points, count):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--spec", spec_file(make_spec()), "--omega-min", "0.1",
                     "--omega-max", "10", "--points", points, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: a sweep of {count} points is too large to allocate\n")
        assert not out.exists()


class TestSimulate:
    def test_stable_run_writes_trajectory_and_report(self, spec_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        report_path = tmp_path / "report.json"
        code = main(["simulate", "--spec", spec_file(make_spec()), "--n", "4",
                     "--omega", "3", "--amp", "1", "--duration", "150",
                     "--out", str(out), "--report", str(report_path)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,z_1,z_2,z_3,z_4"
        report = strict_json(report_path.read_text())
        assert report["all_attenuating"] is True
        for ratio in report["ratios"]:
            assert ratio == pytest.approx(0.3284, rel=0.02)

    def test_amplifying_frequency_reported(self, spec_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--spec", spec_file(make_spec()), "--n", "3",
                     "--omega", "1", "--amp", "1", "--duration", "150",
                     "--out", str(out)])
        assert code == 0
        report = strict_json(capsys.readouterr().err)
        assert report["all_attenuating"] is False
        assert all(r > 1.0 for r in report["ratios"])

    def test_zero_amplitude_is_degenerate(self, spec_file, tmp_path, capsys):
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "3",
                     "--omega", "3", "--amp", "0", "--duration", "150",
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert "--amp" in capsys.readouterr().err

    def test_subnormal_reference_amplitude_is_printed_as_a_float(self, spec_file, tmp_path, capsys):
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "2",
                     "--omega", "5e-324", "--duration", "100", "--dt", "1",
                     "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert "4.94e-322" in err and "np.float64(" not in err

    def test_oversized_step_diverges_with_exit_3(self, spec_file, tmp_path, capsys):
        code = main(["simulate", "--spec", spec_file(make_spec()), "--n", "2",
                     "--omega", "3", "--amp", "1", "--duration", "5000",
                     "--dt", "5", "--out", str(tmp_path / "t.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert len(err.splitlines()) == 1  # no numpy warnings

    def test_auto_step_is_stable_on_a_stiff_headway_spec(self, spec_file, tmp_path, capsys):
        # a1 = 202 against sqrt(a0) = 1: the input-period step puts h*a1 at 4.2,
        # outside RK4's stability interval.
        spec = make_spec(AUT, UNI, VTH, m=100.0, k=100.0, c=100.0, h0=1.0, ch=5.0, vd=40.0)
        argv = ["simulate", "--spec", spec_file(spec), "--n", "4", "--omega", "1.5",
                "--duration", "150", "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 0
        gain = frequency_response(transfer_function(error_model(spec)), 1.5).magnitude
        for ratio in strict_json(capsys.readouterr().err)["ratios"]:
            assert ratio == pytest.approx(gain, rel=0.01)
        # The step of 200 samples per input period, given explicitly, diverges.
        assert main([*argv, "--dt", repr(2.0 * math.pi / 300.0)]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_step_count_overflow_is_a_validation_error(self, spec_file, tmp_path, capsys):
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "3", "--omega", "3",
                     "--duration", "10", "--dt", "1e-320", "--out", str(tmp_path / "t.csv")]) == 2
        assert "overflows the step count" in capsys.readouterr().err

    def test_overflowing_input_phase_is_a_validation_error(self, spec_file, tmp_path, capsys):
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "3", "--omega", "1e300",
                     "--dt", "1e300", "--duration", "1e302", "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == "error: input at t = 5e+299 s is not finite\n"

    # --dt auto takes 200 steps per input period: numpy refuses the buffer's
    # shape at 1e300 and its 679 PiB at 1e12.  --n 10 gives 20 states.
    @pytest.mark.parametrize("omega,steps", [("1e300", "4.77465e+303"), ("1e12", "4.77465e+15")])
    def test_a_run_too_large_to_allocate_names_its_step_count(self, spec_file, tmp_path, capsys,
                                                              omega, steps):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "10", "--omega", omega,
                     "--duration", "150", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: a run of {steps} steps of 20 states is too large to allocate\n")
        assert not out.exists()

    # numpy refuses the (2e9 x 2e9) state matrix's 3.2e19 bytes by its size
    # alone, before it touches any memory.
    def test_a_chain_too_large_to_allocate_names_its_channel_count(self, spec_file, tmp_path,
                                                                   capsys):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "1000000000",
                     "--omega", "3", "--duration", "150", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: a chain of 1e+09 channels is too large to allocate\n")
        assert not out.exists()

    # nan and inf: sine_input refuses the amplitude it takes.  1e308: the
    # rate amp * omega that the run computes is inf, so the run refuses it.
    @pytest.mark.parametrize("amp,message", [("nan", "amplitude must be finite"),
                                             ("inf", "amplitude must be finite"),
                                             ("1e308", "input at t = 0 s is not finite")],
                             ids=["nan", "inf", "1e308"])
    def test_an_input_that_is_not_finite_is_named(self, spec_file, tmp_path, capsys, amp,
                                                  message):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "3", "--omega", "3",
                     "--amp", amp, "--duration", "150", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # An infinite --omega is refused by the library call that takes it; the
    # ids keep the names the flag's own check gave them.
    @pytest.mark.parametrize("omega,duration,message", [("inf", "150", "omega must be finite"),
                                                        ("3", "inf", "duration must be finite")],
                             ids=["inf-150---omega must be finite",
                                  "3-inf-duration must be finite"])
    def test_an_infinite_flag_is_named(self, spec_file, tmp_path, capsys, omega, duration, message):
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "3", "--omega", omega,
                     "--duration", duration, "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # A nan --omega is not refused as not positive: like inf, it reaches the
    # library, whose number rule names it, whichever step is asked for.
    @pytest.mark.parametrize("dt", ["auto", "0.01"])
    def test_a_nan_omega_is_named_as_not_finite(self, spec_file, tmp_path, capsys, dt):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "3", "--omega", "nan",
                     "--duration", "150", "--dt", dt, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: omega must be finite\n")
        assert not out.exists()

    # With a step given, the infinite omega reaches sine_input, which
    # refuses it the same way.
    def test_an_infinite_omega_with_a_given_step_is_named(self, spec_file, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "3", "--omega", "inf",
                     "--duration", "150", "--dt", "0.01", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: omega must be finite\n")
        assert not out.exists()

    # a0 = k/m overflows to inf: the auto step names the rate it cannot
    # read, not a --dt the user never gave.
    def test_an_auto_step_on_an_overflowing_rate_names_it(self, spec_file, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--spec", spec_file(make_spec(m=1e-300, k=1e10)), "--n", "3",
                     "--omega", "3", "--duration", "150", "--dt", "auto",
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: a0 must be finite\n")
        assert not out.exists()

    # With a step given, the run reads the model's coefficients by the same
    # rule and names the one that overflowed, not a divergence (exit 3).
    def test_a_given_step_on_an_overflowing_rate_names_it(self, spec_file, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--spec", spec_file(make_spec(m=1e-300, k=1e10)), "--n", "3",
                     "--omega", "3", "--duration", "150", "--dt", "0.01",
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: a0 must be finite\n")
        assert not out.exists()

    # a0 = k/m and a1 = c/m underflow to 0: the auto step is the input
    # period's, and channel 2 is then never driven.  A raised error would
    # escape main().
    @pytest.mark.parametrize("n,code,err", [
        ("2", 0, ""), ("3", 2, "error: reference amplitude 0.0 of channel 2 is below 1e-12\n")],
        ids=["n2", "n3"])
    def test_a_model_whose_rates_underflow_takes_the_input_period_step(
            self, spec_file, tmp_path, capsys, n, code, err):
        spec = spec_file(make_spec(m=1e300, k=1e-300, c=1e-300))
        assert main(["simulate", "--spec", spec, "--n", n, "--omega", "3", "--duration", "150",
                     "--dt", "auto", "--out", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.json")]) == code
        assert capsys.readouterr() == ("", err)

    def test_a_step_that_is_not_a_number_is_named(self, spec_file, tmp_path, capsys):
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "3", "--omega", "3",
                     "--duration", "150", "--dt", "abc", "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == "error: --dt must be a number or 'auto', got 'abc'\n"

    @pytest.mark.parametrize("dt,message", [("inf", "dt must be finite"),
                                            ("nan", "dt must be finite"),
                                            ("0", "dt must be positive"),
                                            ("-1", "dt must be positive")])
    def test_a_step_that_is_not_finite_and_positive_is_named(self, spec_file, tmp_path, capsys,
                                                            dt, message):
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "3", "--omega", "3",
                     "--duration", "150", "--dt", dt, "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_flag_validation(self, spec_file, tmp_path):
        spec = spec_file(make_spec())
        assert main(["simulate", "--spec", spec, "--n", "1", "--omega", "3",
                     "--duration", "150"]) == 2
        assert main(["simulate", "--spec", spec, "--n", "3", "--omega", "-1",
                     "--duration", "150"]) == 2
        assert main(["simulate", "--spec", spec, "--n", "3", "--omega", "3",
                     "--duration", "150", "--dt", "fast"]) == 2


class TestMonitorAndGenTrace:
    def test_clean_round_trip_exits_0(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["gen-trace", "--seed", "42", "--len", "1000",
                     "--spec", spec_file(make_spec()), "--out", str(trace)]) == 0
        code = main(["monitor", "--trace", str(trace)])
        assert code == 0
        verdict = strict_json(capsys.readouterr().out)
        assert verdict["outcome"] == "pass"
        assert verdict["events"] == 1000
        assert verdict["first_violation"] is None

    def test_injected_violation_exits_4_with_index(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["gen-trace", "--seed", "7", "--len", "1000",
                     "--spec", spec_file(make_spec()),
                     "--violate", "500:P2", "--out", str(trace)]) == 0
        code = main(["monitor", "--trace", str(trace)])
        assert code == 4
        verdict = strict_json(capsys.readouterr().out)
        assert verdict["outcome"] == "fail"
        assert verdict["first_violation"]["index"] == 500
        assert verdict["first_violation"]["predicate"] == "P2"

    def test_frequency_whose_fourth_power_overflows_passes(self, spec_file, tmp_path, capsys):
        # |H(i*1e200)| is about 1e-200; Q(w^2) overflows to inf - inf when
        # evaluated as written.
        trace = tmp_path / "trace.jsonl"
        main(["gen-trace", "--seed", "1", "--len", "1",
              "--spec", spec_file(make_spec()), "--out", str(trace)])
        line = strict_json(trace.read_text())
        trace.write_text(json.dumps(line | {"w": 1e200}) + "\n")
        assert main(["monitor", "--trace", str(trace)]) == 0
        assert strict_json(capsys.readouterr().out)["outcome"] == "pass"

    def test_a_combination_without_a_model_exits_4_naming_it(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["gen-trace", "--seed", "1", "--len", "1",
              "--spec", spec_file(make_spec()), "--out", str(trace)])
        line = strict_json(trace.read_text())
        trace.write_text(json.dumps(line | {"cf": BI.value, "st": VTH.value, "w": 3.0}) + "\n")
        assert main(["monitor", "--trace", str(trace)]) == 4
        verdict = strict_json(capsys.readouterr().out)
        assert verdict["first_violation"] == {
            "index": 0, "predicate": "P2",
            "reason": "no model for an autonomous bidirectional controller with variable "
                      "time headway"}
        assert (verdict["p1_failures"], verdict["p2_failures"]) == (0, 1)

    def test_truncated_line_exits_2_naming_it(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["gen-trace", "--seed", "1", "--len", "10",
              "--spec", spec_file(make_spec()), "--out", str(trace)])
        lines = trace.read_text().splitlines()
        lines[6] = lines[6][:-8]
        trace.write_text("\n".join(lines) + "\n")
        code = main(["monitor", "--trace", str(trace)])
        assert code == 2
        assert "line 7" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,message", [
        ("m", "9" * 401, "'m' must be finite"),
        ("n", str(2 ** 63), "'n' must be <= 9223372036854775807"),
    ])
    def test_out_of_range_integer_exits_2_naming_the_line(self, spec_file, tmp_path, capsys,
                                                          field, value, message):
        trace = tmp_path / "trace.jsonl"
        main(["gen-trace", "--seed", "1", "--len", "10",
              "--spec", spec_file(make_spec()), "--out", str(trace)])
        lines = trace.read_text().splitlines()
        obj = strict_json(lines[3])
        lines[3] = lines[3].replace(f'"{field}":{obj[field]!r}', f'"{field}":{value}')
        assert value in lines[3]
        trace.write_text("\n".join(lines) + "\n")
        code = main(["monitor", "--trace", str(trace)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"line 4: {message}" in err

    @pytest.mark.parametrize("lineno", [3, 4501])  # in the first chunk and in a later one
    def test_invalid_utf8_exits_2_naming_the_line(self, spec_file, tmp_path, capsys, lineno):
        trace = tmp_path / "trace.jsonl"
        main(["gen-trace", "--seed", "1", "--len", "5000",
              "--spec", spec_file(make_spec()), "--out", str(trace)])
        lines = trace.read_bytes().splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1].replace(b'"autonomous"', b'"autonom\xffus"')
        trace.write_bytes(b"".join(lines))
        assert main(["monitor", "--trace", str(trace)]) == 2
        assert capsys.readouterr().err == f"error: line {lineno}: invalid UTF-8\n"

    @pytest.mark.parametrize("lineno", [3, _CHUNK + 3])
    def test_carriage_return_inside_a_line_exits_2_naming_it(self, spec_file, tmp_path, capsys,
                                                               lineno):
        # Read with universal newlines, the \r ends line N there.
        trace = tmp_path / "trace.jsonl"
        main(["gen-trace", "--seed", "1", "--len", str(2 * _CHUNK + 5),
              "--spec", spec_file(make_spec()), "--out", str(trace)])
        lines = trace.read_bytes().splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1].replace(b',"k":', b'\r,"k":')
        trace.write_bytes(b"".join(lines))
        assert main(["monitor", "--trace", str(trace)]) == 2
        assert capsys.readouterr().err.startswith(f"error: line {lineno}: invalid JSON (")

    def test_trace_on_a_pipe_gives_the_verdict_of_the_file(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["gen-trace", "--seed", "4", "--len", str(2 * _CHUNK + 5),
              "--violate", f"{3 * _CHUNK // 2}:P2",
              "--spec", spec_file(make_spec()), "--out", str(trace)])
        assert main(["monitor", "--trace", str(trace)]) == 4
        expected = strict_json(capsys.readouterr().out)
        src = str(Path(platoon_stab.__file__).parents[1])
        piped = subprocess.run(
            [sys.executable, "-c", "from platoon_stab.cli import run; run()",
             "monitor", "--trace", "/dev/stdin"],
            input=trace.read_bytes(), capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert piped.returncode == 4, piped.stderr
        verdict = strict_json(piped.stdout)
        del verdict["seconds"], expected["seconds"]
        assert verdict == expected

    def test_missing_trace_exits_1(self, tmp_path):
        assert main(["monitor", "--trace", str(tmp_path / "absent.jsonl")]) == 1

    def test_gen_trace_deterministic_bytes(self, spec_file, tmp_path):
        spec = spec_file(make_spec(NON, UNI, VS))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["gen-trace", "--seed", "9", "--len", "250", "--spec", spec,
                         "--violate", "10:P1", "--violate", "200:P2",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_trace_plan_validation(self, spec_file, tmp_path):
        spec = spec_file(make_spec())
        assert main(["gen-trace", "--seed", "1", "--len", "10", "--spec", spec,
                     "--violate", "99:P2"]) == 2
        assert main(["gen-trace", "--seed", "1", "--len", "10", "--spec", spec,
                     "--violate", "5:P9"]) == 2
        assert main(["gen-trace", "--seed", "1", "--len", "10", "--spec", spec,
                     "--violate", "nope"]) == 2

    def test_a_violate_index_that_is_not_an_integer_is_named(self, spec_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["gen-trace", "--seed", "1", "--len", "10", "--spec", spec_file(make_spec()),
                     "--violate", "x:P1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --violate index must be an integer, got 'x'\n"
        assert not out.exists()

    def test_gen_trace_refuses_a_negative_seed(self, spec_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["gen-trace", "--seed", "-1", "--len", "10",
                     "--spec", spec_file(make_spec()), "--out", str(out)]) == 2
        assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_trace_refuses_a_template_that_jitters_past_the_float_range(
            self, spec_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["gen-trace", "--seed", "1", "--len", "100",
                     "--spec", spec_file(make_spec(m=1.0, k=1.7e308)), "--out", str(out)]) == 2
        assert "template k = 1.7e+308 overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_trace_refuses_a_vehicle_count_that_jitters_past_int64(
            self, spec_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["gen-trace", "--seed", "1", "--len", "100",
                     "--spec", spec_file(make_spec(n=2**63 - 2)), "--out", str(out)]) == 2
        assert "template n = 9223372036854775806 overflows" in capsys.readouterr().err
        assert not out.exists()
        assert main(["gen-trace", "--seed", "1", "--len", "100",
                     "--spec", spec_file(make_spec(n=2**63 - 3)), "--out", str(out)]) == 0

    def test_gen_trace_names_the_event_whose_band_leaves_the_float_range(
            self, spec_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["gen-trace", "--seed", "1", "--len", "5",
                     "--spec", spec_file(make_spec(m=1e-300, k=1e10)), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: event 0 draws w = inf: the template's stable "
                                           "band leaves the float range\n")
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [dict(m=1e-300, k=1e10), dict(m=1.0, k=1e308)],
                             ids=["a0-infinite", "band-overflows"])
    def test_gen_trace_refuses_a_band_beyond_the_float_range(self, spec_file, tmp_path,
                                                            overrides):
        # In a fresh interpreter, so that a numpy warning would reach stderr.
        out = tmp_path / "trace.jsonl"
        src = str(Path(platoon_stab.__file__).parents[1])
        done = subprocess.run([sys.executable, "-m", "platoon_stab", "gen-trace", "--seed", "1",
                               "--len", "100", "--spec", spec_file(make_spec(**overrides)),
                               "--out", str(out)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2
        assert done.stderr.splitlines() == ["error: event 0 draws w = inf: the template's stable "
                                            "band leaves the float range"]
        assert not out.exists()

    # numpy refuses a column's shape at 1e20 events and its 7.28 TiB at 1e12;
    # a count beyond the float range is given in full.
    @pytest.mark.parametrize("length,count", [("100000000000000000000", "1e+20"),
                                              ("1000000000000", "1e+12"),
                                              ("1" + "0" * 400, "1" + "0" * 400)],
                             ids=["1e20", "1e12", "1e400"])
    def test_a_trace_too_large_to_allocate_names_its_event_count(self, spec_file, tmp_path, capsys,
                                                                 length, count):
        out = tmp_path / "t.jsonl"
        assert main(["gen-trace", "--seed", "1", "--len", length, "--spec", spec_file(make_spec()),
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: a trace of {count} events is too large to allocate\n")
        assert not out.exists()

    def test_gen_trace_stdout(self, spec_file, capsys):
        assert main(["gen-trace", "--seed", "3", "--len", "5",
                     "--spec", spec_file(make_spec())]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 5
        strict_json(out.splitlines()[0])


# Far beyond sys.getrecursionlimit(), whatever the stack depth at the decode.
DEEP = 5000


class TestStructureRules:
    """A value nested too deep to decode, and a repeated name, are refused
    in a trace line and in a spec file: exit 2, one error line."""

    @pytest.fixture
    def monitor_with(self, spec_file, tmp_path, monkeypatch, capsys):
        """Run monitor on a generated trace of ``length`` lines whose line
        ``lineno`` has its ``"w":<value>`` replaced by ``"w":<text>``, in
        one process and, from 4 * _CHUNK lines, in two ranges; return the one
        exit code and stderr."""
        def run(length, lineno, text):
            trace = tmp_path / "trace.jsonl"
            main(["gen-trace", "--seed", "1", "--len", str(length),
                  "--spec", spec_file(make_spec()), "--out", str(trace)])
            lines = trace.read_text().splitlines(True)
            lines[lineno - 1] = re.sub(r'"w":[^}]+', '"w":' + text, lines[lineno - 1])
            trace.write_text("".join(lines))
            outcomes = []
            for cpus in (1, 2):
                with monkeypatch.context() as patch:
                    patch.setattr(monitor, "_SPLIT", 2 * _CHUNK)
                    patch.setattr(monitor.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                  raising=False)
                    bounds = monitor._ranges(length)
                    outcomes.append((main(["monitor", "--trace", str(trace)]),
                                     capsys.readouterr()))
            assert outcomes[0] == outcomes[1]
            code, captured = outcomes[0]
            assert captured.out == ""
            return code, captured.err, len(bounds) - 1
        return run

    @pytest.mark.parametrize("length,lineno,ranges", [(3, 2, 1), (5000, 3001, 2)])
    def test_a_line_nested_too_deep_exits_2_naming_it(self, monitor_with, length, lineno, ranges):
        code, err, split = monitor_with(length, lineno, "[" * DEEP + "]" * DEEP)
        assert (code, err) == (2, f"error: line {lineno}: invalid JSON (nested too deep)\n")
        assert split == ranges

    @pytest.mark.parametrize("length,lineno,ranges", [(3, 1, 1), (_CHUNK + 5, _CHUNK + 1, 1),
                                                      (5000, 3001, 2)])
    def test_a_repeated_key_exits_2_naming_it(self, monitor_with, length, lineno, ranges):
        code, err, split = monitor_with(length, lineno, '3.0,"w":4.0')
        assert (code, err) == (2, f"error: line {lineno}: invalid JSON (duplicate key 'w')\n")
        assert split == ranges

    @pytest.mark.parametrize("old,new,reason", [
        ('"m": 1000.0', '"m": ' + "[" * DEEP + "]" * DEEP, "nested too deep"),
        ('"n": 10', '"n": 10, "n": 1', "duplicate key 'n'"),
    ], ids=["nested", "duplicate"])
    @pytest.mark.parametrize("command", [["analyze"], ["gen-trace", "--seed", "1", "--len", "3"]],
                             ids=["analyze", "gen-trace"])
    def test_a_spec_file_exits_2_naming_the_fault(self, spec_file, capsys, old, new, reason,
                                                   command):
        path = Path(spec_file(make_spec()))
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        assert main([*command, "--spec", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: invalid JSON ({reason})\n")


@pytest.mark.parametrize("error,message", [
    (MemoryError("Unable to allocate 29.8 GiB for an array"),
     "Unable to allocate 29.8 GiB for an array"),
    (MemoryError(), "out of memory"),
])
@pytest.mark.parametrize("call,argv", [
    ("simulate_chain", ["simulate", "--n", "2", "--omega", "1", "--duration", "1e6",
                        "--dt", "1e-3"]),
    ("sweep", ["sweep", "--omega-min", "0.1", "--omega-max", "10", "--points", "10000000000"]),
    ("generate_trace", ["gen-trace", "--seed", "1", "--len", "100000000000"]),
])
def test_a_run_too_large_to_allocate_exits_2(spec_file, tmp_path, monkeypatch, capsys,
                                             call, argv, error, message):
    # The library call is replaced: a real allocation of that size may
    # succeed under overcommit and fail later, outside the program.
    def refuse(*args):
        raise error
    monkeypatch.setattr(cli, call, refuse)
    out = tmp_path / "out"
    assert main([*argv, "--spec", spec_file(make_spec()), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_one_parser_serves_every_call(spec_file, tmp_path, capsys):
    """The parser is built once per process; an appended flag, or an argv
    that it rejected, does not carry over to the next call."""
    assert cli._build_parser() is cli._build_parser()
    spec = spec_file(make_spec())

    def gen_trace(name, *extra):
        out = tmp_path / name
        assert main(["gen-trace", "--seed", "3", "--len", "50", "--spec", spec,
                     *extra, "--out", str(out)]) == 0
        return out.read_bytes()

    clean = gen_trace("clean.jsonl")
    violated = gen_trace("violated.jsonl", "--violate", "0:P1")
    assert violated != clean
    assert gen_trace("again.jsonl") == clean
    with pytest.raises(SystemExit) as excinfo:
        main(["gen-trace", "--seed", "3", "--len", "50", "--violate", "1:P2", "--bogus"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert gen_trace("after_rejection.jsonl") == clean


def test_trace_commands_call_the_traced_functions(spec_file, tmp_path, monkeypatch):
    """gen-trace and monitor go through the four functions that the
    benchmark's traced run wraps, and between them these see every event."""
    calls = {}

    def counting(name, events):
        original = getattr(cli, name)

        def wrapper(*args):
            result = original(*args)
            calls.setdefault(name, []).append((args, events(args, result)))
            return result
        monkeypatch.setattr(cli, name, wrapper)

    counting("generate_trace", lambda args, result: len(result))
    counting("write_trace", lambda args, result: len(args[0]))
    counting("parse_trace", lambda args, result: len(result))
    counting("run_monitor", lambda args, result: len(args[0]))
    length = 3 * _CHUNK + 5
    path = str(tmp_path / "trace.jsonl")
    assert main(["gen-trace", "--seed", "2", "--len", str(length),
                 "--spec", spec_file(make_spec()), "--out", path]) == 0
    assert main(["monitor", "--trace", path]) == 0
    assert {name: sum(events for _, events in seen) for name, seen in calls.items()} == {
        "generate_trace": length, "write_trace": length, "parse_trace": length,
        "run_monitor": length}
    assert [args for args, _ in calls["parse_trace"]] == [(path,)]


# Runs every command on tiny inputs, then lists the scipy modules loaded.
_EVERY_COMMAND = """
import json, sys
from platoon_stab.cli import main
spec, out = sys.argv[1:]
codes = [
    main(["analyze", "--spec", spec]),
    main(["sweep", "--spec", spec, "--omega-min", "0.1", "--omega-max", "10",
          "--points", "20", "--out", out + "/sweep.csv"]),
    main(["simulate", "--spec", spec, "--n", "3", "--omega", "3", "--duration", "20",
          "--out", out + "/chain.csv", "--report", out + "/report.json"]),
    main(["gen-trace", "--seed", "1", "--len", "20", "--spec", spec, "--out", out + "/trace.jsonl"]),
    main(["monitor", "--trace", out + "/trace.jsonl"]),
]
scipy = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
with open(out + "/result.json", "w") as fh:
    json.dump({"codes": codes, "scipy": scipy}, fh)
"""


def test_commands_run_on_numpy_alone(spec_file, tmp_path):
    """numpy is the only runtime dependency: no command loads scipy, even
    where it is installed."""
    src = str(Path(platoon_stab.__file__).parents[1])
    subprocess.run([sys.executable, "-c", _EVERY_COMMAND, spec_file(make_spec()), str(tmp_path)],
                   check=True, capture_output=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
    result = json.loads((tmp_path / "result.json").read_text())
    assert result == {"codes": [0, 0, 0, 0, 0], "scipy": []}


def test_python_dash_m_runs_the_cli(spec_file):
    src = str(Path(platoon_stab.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "platoon_stab", "analyze",
                           "--spec", spec_file(make_spec())],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert strict_json(done.stdout)["selected_model"]


@pytest.mark.parametrize("command,code", [("analyze", 0), ("monitor", 4)])
def test_python_dash_m_gives_the_output_and_exit_code_of_main(spec_file, tmp_path, capsys,
                                                              command, code):
    spec = spec_file(make_spec())
    trace = str(tmp_path / "trace.jsonl")
    assert main(["gen-trace", "--seed", "7", "--len", "20", "--spec", spec,
                 "--violate", "5:P2", "--out", trace]) == 0
    argv = {"analyze": ["analyze", "--spec", spec], "monitor": ["monitor", "--trace", trace]}[command]
    capsys.readouterr()
    assert main(argv) == code
    expected = capsys.readouterr().out
    src = str(Path(platoon_stab.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "platoon_stab", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (code, "")
    if command == "monitor":  # all but the scan's wall-clock time
        done.stdout, expected = (re.sub(r'"seconds": \S+', "", out)
                                 for out in (done.stdout, expected))
    assert done.stdout == expected
