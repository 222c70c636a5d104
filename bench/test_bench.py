"""Self-tests of the benchmark: determinism, oracles and tracing.

    python3 -m pytest bench/test_bench.py -q
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from platoon_stab import cli  # noqa: E402


def _snapshot(workload, count):
    """Operation list and set-up inputs, with the work directory elided."""
    ops = [repr(op.describe()).replace(workload.dir, "<dir>")
           for op in itertools.islice(workload.ops(), count)]
    files = {p.name: p.read_bytes() for p in sorted(Path(workload.dir).iterdir())}
    return ops, files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_operations_and_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(7, str(tmp_path / "a"))
    second = cls(7, str(tmp_path / "b"))
    other = cls(8, str(tmp_path / "c"))
    count = 2 * cls.cycle_length + 5
    assert _snapshot(first, count) == _snapshot(second, count)
    assert _snapshot(first, count)[0] != _snapshot(other, count)[0]
    if name == "batch-analysis":
        for a, b in zip(first.scan_columns, second.scan_columns):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_run_length_is_a_fixed_number_of_whole_granules(name):
    cls = workloads.WORKLOADS[name]
    for seconds in (1, 10, 20, 60):
        for minimum in (workloads.MIN_OPS // 2, workloads.MIN_OPS):
            count = cls.op_count(seconds, minimum)
            assert count >= minimum and count % cls.granule == 0
    assert cls.op_count(600) > cls.op_count(20)


@pytest.fixture
def trace_io(tmp_path):
    return workloads.TraceIO(3, str(tmp_path))


def _job(trace_io, plan, corruption=None, length=300):
    path = trace_io.path(".jsonl")
    gen = workloads.GenTraceOp(path, 11, length, trace_io.templates[0], plan)
    assert gen.check(gen.execute()) == ("ok", "")
    return workloads.MonitorOp(path, length, plan, corruption)


def test_monitor_oracle_rejects_tampered_verdict(trace_io):
    op = _job(trace_io, [(40, "P2"), (120, "P1")])
    op.prepare()
    code, out, err = op.execute()
    assert code == 4
    assert op.check((code, out, err)) == ("ok", "")

    def tampered(edit):
        verdict = json.loads(out)
        edit(verdict)
        return op.check((code, json.dumps(verdict), err))[0]

    assert tampered(lambda v: v.update(outcome="pass")) == "wrong"
    assert tampered(lambda v: v["first_violation"].update(index=41)) == "wrong"
    assert tampered(lambda v: v["first_violation"].update(predicate="P1")) == "wrong"
    assert tampered(lambda v: v.update(p1_failures=v["p1_failures"] + 1)) == "wrong"
    assert tampered(lambda v: v.update(p2_failures=v["p2_failures"] + 1)) == "wrong"
    assert tampered(lambda v: v.update(events=v["events"] - 1)) == "wrong"
    assert op.check((0, out, err))[0] == "wrong"


@pytest.mark.parametrize("kind", workloads.CORRUPTIONS)
def test_corrupted_trace_is_rejected(trace_io, kind):
    op = _job(trace_io, [], corruption=(57, kind))
    op.prepare()
    status, reason = op.check(op.execute())
    # The 401-digit literal exits 3 without a line number today: counted
    # as failed, never as an accepted trace.
    assert status == "ok" or (status == "failed" and kind == "401-digits"), reason


def test_sweep_oracle_rejects_tampered_row(tmp_path):
    rng = np.random.default_rng(5)
    spec = workloads.random_spec(rng, ("autonomous", "unidirectional", "constant_spacing"))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rows = [0, 17, 499]
    tally = {"sweep_rows_sampled": 0, "sweep_rows_bit_exact": 0}
    op = workloads.SweepOp(["sweep", "--spec", str(spec_path), "--omega-min", "0.01",
                            "--omega-max", "100", "--points", "500"],
                           500, str(tmp_path / "sweep.csv"),
                           cli.controller_spec_from_dict(spec), rows, tally)
    result = op.execute()
    assert op.check(result) == ("ok", "")
    assert tally["sweep_rows_sampled"] == len(rows)
    original = Path(op.path).read_text()
    lines = original.splitlines(keepends=True)
    cells = lines[18].rstrip("\n").split(",")

    def tampered(new_cells):
        Path(op.path).write_text("".join(lines[:18] + [",".join(new_cells) + "\n"] + lines[19:]))
        return op.check(result)[0]

    bumped = cells[:3] + [repr(float(cells[3]) * (1 + 1e-9))] + cells[4:]
    assert tampered(bumped) == "wrong"
    flipped = cells[:4] + ["false" if cells[4] == "true" else "true"]
    assert tampered(flipped) == "wrong"


def test_tracer_wraps_cli_bindings_and_requires_spans(trace_io):
    tracer = spans.Tracer()
    original = cli.parse_trace
    op = _job(trace_io, [])
    op.prepare()
    with tracer.active():
        assert cli.parse_trace is not original
        assert op.check(op.execute()) == ("ok", "")
    assert cli.parse_trace is original
    assert tracer.stats["monitor.parse_trace"]["events"] == 300
    tracer.require(["cli.main", "monitor.parse_trace", "monitor.run_monitor"])
    with pytest.raises(RuntimeError, match="simulate.simulate_chain"):
        tracer.require(["monitor.parse_trace", "simulate.simulate_chain"])
