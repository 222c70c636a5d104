import json
from pathlib import Path

import pytest

from platoon_stab import controller_spec_to_dict
from platoon_stab.cli import main
from conftest import AUT, BI, NON, UNI, VS, VTH, make_spec


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
        report = json.loads(capsys.readouterr().out)
        assert report["coefficients"] == {"a0": 2.0, "a1": 0.4, "b0": 2.0, "b1": 0.4}
        assert report["critical_frequencies"] == [2.0]
        assert "2k/m = 4" in report["stability_condition"]
        assert report["constraint"] == {"alpha": -4.0, "beta": 0.0}
        assert "note" not in report

    def test_non_autonomous_selection_is_noted(self, spec_file, capsys):
        code = main(["analyze", "--spec", spec_file(make_spec(NON, BI, VTH))])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
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

    def test_integer_beyond_float_range_is_validation_error(self, spec_file, tmp_path, capsys):
        path = spec_file(make_spec())
        text = Path(path).read_text()
        big = text.replace('"m": 1000.0', '"m": ' + "9" * 401)
        assert big != text
        bad = tmp_path / "big.json"
        bad.write_text(big)
        assert main(["analyze", "--spec", str(bad)]) == 2
        assert "params.m: must be finite" in capsys.readouterr().err


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
        summary = json.loads(capsys.readouterr().err)
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
        json.loads(captured.err)

    def test_bad_range_exits_2(self, spec_file, capsys):
        assert main(["sweep", "--spec", spec_file(make_spec()),
                     "--omega-min", "0", "--omega-max", "10", "--points", "10"]) == 2
        assert main(["sweep", "--spec", spec_file(make_spec()),
                     "--omega-min", "5", "--omega-max", "1", "--points", "10"]) == 2


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
        report = json.loads(report_path.read_text())
        assert report["all_attenuating"] is True
        for ratio in report["ratios"]:
            assert ratio == pytest.approx(0.3284, rel=0.02)

    def test_amplifying_frequency_reported(self, spec_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--spec", spec_file(make_spec()), "--n", "3",
                     "--omega", "1", "--amp", "1", "--duration", "150",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(capsys.readouterr().err)
        assert report["all_attenuating"] is False
        assert all(r > 1.0 for r in report["ratios"])

    def test_zero_amplitude_is_degenerate(self, spec_file, tmp_path, capsys):
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "3",
                     "--omega", "3", "--amp", "0", "--duration", "150",
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert "--amp" in capsys.readouterr().err

    def test_oversized_step_diverges_with_exit_3(self, spec_file, tmp_path, capsys):
        code = main(["simulate", "--spec", spec_file(make_spec()), "--n", "2",
                     "--omega", "3", "--amp", "1", "--duration", "5000",
                     "--dt", "5", "--out", str(tmp_path / "t.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert len(err.splitlines()) == 1  # no numpy warnings

    def test_step_count_overflow_is_a_validation_error(self, spec_file, tmp_path, capsys):
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "3", "--omega", "3",
                     "--duration", "10", "--dt", "1e-320", "--out", str(tmp_path / "t.csv")]) == 2
        assert "overflows the step count" in capsys.readouterr().err

    def test_overflowing_input_phase_is_a_validation_error(self, spec_file, tmp_path, capsys):
        assert main(["simulate", "--spec", spec_file(make_spec()), "--n", "3", "--omega", "1e300",
                     "--dt", "1e300", "--duration", "1e302", "--out", str(tmp_path / "t.csv")]) == 2
        assert "omega * duration overflows" in capsys.readouterr().err

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
        verdict = json.loads(capsys.readouterr().out)
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
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["outcome"] == "fail"
        assert verdict["first_violation"]["index"] == 500
        assert verdict["first_violation"]["predicate"] == "P2"

    def test_frequency_whose_fourth_power_overflows_passes(self, spec_file, tmp_path, capsys):
        # |H(i*1e200)| is about 1e-200; Q(w^2) overflows to inf - inf when
        # evaluated as written.
        trace = tmp_path / "trace.jsonl"
        main(["gen-trace", "--seed", "1", "--len", "1",
              "--spec", spec_file(make_spec()), "--out", str(trace)])
        line = json.loads(trace.read_text())
        trace.write_text(json.dumps(line | {"w": 1e200}) + "\n")
        assert main(["monitor", "--trace", str(trace)]) == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "pass"

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
        obj = json.loads(lines[3])
        lines[3] = lines[3].replace(f'"{field}":{obj[field]!r}', f'"{field}":{value}')
        assert value in lines[3]
        trace.write_text("\n".join(lines) + "\n")
        code = main(["monitor", "--trace", str(trace)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"line 4: {message}" in err

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

    def test_gen_trace_stdout(self, spec_file, capsys):
        assert main(["gen-trace", "--seed", "3", "--len", "5",
                     "--spec", spec_file(make_spec())]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 5
        json.loads(out.splitlines()[0])
