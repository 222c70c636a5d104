"""Seeded closed-loop workloads for the platoon-stab benchmark.

Every operation is either a call to ``platoon_stab.cli.main(argv)`` in
process or a call to a public library function.  A workload is built from
its seed alone: set-up writes the spec files (and, for batch-analysis,
generates the in-memory traces), and ``ops()`` then yields an endless,
deterministic sequence of operations in cycles.

Sizes are the midpoints of equal-probability strata of the size
distribution, the same for every seed, and the largest sizes come first in
a cycle, in bit-reversed rank order, so any prefix of a cycle covers the
whole size range evenly.  That keeps the latency quantiles of a run close
to those of the distribution whatever the seed.  The seed draws everything
else: specs, pairings, frequencies, injections and corruptions.

Each operation has an oracle.  ``check`` returns ``(status, reason)``:
``"ok"``; ``"wrong"`` when the program gave a wrong answer or accepted
input it must reject; or ``"failed"`` when it refused where an answer or a
different refusal was due (wrong exit code among 1-3, or a message without
the line number).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from platoon_stab import cli, frequency, model, monitor, simulate

AUTONOMOUS_COMBOS = (
    ("unidirectional", "constant_spacing"),
    ("unidirectional", "variable_spacing"),
    ("unidirectional", "var_time_headway"),
    ("bidirectional", "constant_spacing"),
    ("bidirectional", "variable_spacing"),
)
CONFIGURATIONS = ("unidirectional", "bidirectional")
STRATEGIES = ("constant_spacing", "variable_spacing", "var_time_headway")
UNSUPPORTED = ("autonomous", "bidirectional", "var_time_headway")
PARAM_KEYS = ("m", "k", "c", "h", "ch", "vd", "h0", "ca", "cd")
CORRUPTIONS = ("bad-json", "unknown-key", "nan", "index-gap", "401-digits")

# Every run has at least this many operations, so that p90 has at least
# 10 samples beyond it.
MIN_OPS = 100

# xcheck agreement bound, the one acceptance criterion 5 pins.
XCHECK_TOLERANCE = 1e-6
# Sweep rows must match the scalar path to this relative tolerance (the
# bound tests/test_frequency.py pins) and give the identical verdict.
SWEEP_ROW_RTOL = 1e-12
SWEEP_ROWS_SAMPLED = 16


def spread_order(count: int) -> list[int]:
    """Bit-reversal permutation of range(count), count a power of two.

    Position p of a cycle takes the operation of size rank
    ``spread_order(count)[p]``; every prefix then samples the ranks evenly.
    """
    bits = count.bit_length() - 1
    if count != 1 << bits:
        raise ValueError("cycle length must be a power of two")
    return [int(format(p, f"0{bits}b")[::-1], 2) if bits else 0 for p in range(count)]


def stratified(count: int, lo: float, hi: float, log: bool = True) -> list[float]:
    """Midpoints of ``count`` equal-probability strata of a (log-)uniform
    law on [lo, hi], largest first."""
    u = (np.arange(count) + 0.5) / count
    if log:
        values = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    else:
        values = lo + u * (hi - lo)
    return sorted(values.tolist(), reverse=True)


def spread(values: list) -> list:
    """``values`` (ranked) reordered so that every prefix samples the ranks
    evenly."""
    return [values[r] for r in spread_order(len(values))]


def random_spec(rng, combo, n: int = 10) -> dict:
    """Spec-file dict with parameters drawn from the ranges the test suite
    uses for random platoons."""
    ct, cf, st = combo
    return {
        "controller_type": ct,
        "configuration": cf,
        "strategy": st,
        "params": {
            "n": n,
            "m": float(rng.uniform(50.0, 5000.0)),
            "k": float(rng.uniform(50.0, 8000.0)),
            "c": float(rng.uniform(5.0, 2000.0)),
            "h": float(rng.uniform(0.1, 3.0)),
            "ch": float(rng.uniform(0.001, 2.0)),
            "vd": float(rng.uniform(1.0, 40.0)),
            "h0": float(rng.uniform(0.1, 3.0)),
            "ca": float(rng.uniform(1.0, 500.0)),
            "cd": float(rng.uniform(1.0, 500.0)),
        },
    }


def model_combo(rng, index: int):
    """The index-th of the six supported models; the non-autonomous model
    gets a random configuration and strategy, which it ignores."""
    index %= 6
    if index < 5:
        return ("autonomous", *AUTONOMOUS_COMBOS[index])
    return ("non_autonomous", CONFIGURATIONS[int(rng.integers(2))],
            STRATEGIES[int(rng.integers(3))])


def _status_for_exit(code) -> str:
    # 0 and 4 carry an answer (a result or a verdict): the wrong one, or
    # one where a refusal was due.  1-3 refuse: where an answer or another
    # refusal was due, the operation failed but answered nothing wrong.
    return "wrong" if code in (0, 4) else "failed"


def _file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _remove(*paths) -> None:
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


class Op:
    """One closed-loop operation: ``execute`` is timed, the rest is not."""

    kind = ""
    items = 0

    def prepare(self) -> None:
        """Untimed work before the first execution."""

    def execute(self):
        raise NotImplementedError

    def check(self, result) -> tuple[str, str]:
        raise NotImplementedError

    def fingerprint(self):
        """Digest of the operation's output, or None when it has none to
        compare between executions."""
        return None

    def cleanup(self) -> None:
        """Untimed removal of the operation's files."""

    def describe(self):
        raise NotImplementedError


class CliOp(Op):
    """``cli.main(argv)`` expected to return ``expect``."""

    def __init__(self, kind, argv, expect, items=0):
        self.kind = kind
        self.argv = list(argv)
        self.expect = expect
        self.items = items

    def execute(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(self.argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, result):
        code, out, err = result
        if code != self.expect:
            detail = err.strip().splitlines()[-1:] or [""]
            return _status_for_exit(code), f"exit {code}, expected {self.expect}: {detail[0]}"
        return self.verify(out, err)

    def verify(self, out, err):
        return "ok", ""

    def describe(self):
        return (self.kind, tuple(self.argv), self.expect, self.items)


class GenTraceOp(CliOp):
    def __init__(self, path, seed, length, spec_path, plan):
        argv = ["gen-trace", "--seed", str(seed), "--len", str(length), "--spec", spec_path]
        for index, kind in plan:
            argv += ["--violate", f"{index}:{kind}"]
        super().__init__("gen-trace", argv + ["--out", path], 0, length)
        self.path = path

    def fingerprint(self):
        return _file_digest(self.path)


def _event(obj) -> monitor.Event:
    params = model.PlatoonParams(n=obj["n"], **{key: obj[key] for key in PARAM_KEYS})
    spec = model.ControllerSpec(model.ControllerType(obj["ct"]), model.Configuration(obj["cf"]),
                                model.Strategy(obj["st"]), params)
    return monitor.Event(obj["i"], spec, obj["w"])


def expected_verdict(events: int, injected) -> dict:
    """Verdict fields implied by the injections alone.

    ``injected`` lists ``(index, kind, p2_holds)``: the injection plan plus
    the scalar ``check_p2`` of each injected event.  Every other event is
    drawn valid and attenuating by the generator.
    """
    first = min(injected) if injected else None
    return {
        "outcome": "fail" if injected else "pass",
        "first_violation": None if first is None else (first[0], first[1]),
        "events": events,
        "p1_failures": sum(1 for _, kind, _ in injected if kind == "P1"),
        "p2_failures": sum(1 for _, _, p2 in injected if not p2),
    }


def verdict_mismatch(expected: dict, verdict: dict) -> str:
    """Empty when ``verdict`` (the monitor's JSON) matches ``expected``."""
    got = dict(verdict)
    fv = got.get("first_violation")
    got["first_violation"] = None if fv is None else (fv.get("index"), fv.get("predicate"))
    for key, want in expected.items():
        if got.get(key) != want:
            return f"{key} = {got.get(key)!r}, expected {want!r}"
    return ""


def corrupt_line(text: str, kind: str) -> str:
    """One malformed variant of a trace line (no trailing newline)."""
    obj = json.loads(text)
    if kind == "bad-json":
        return text.rstrip("\n")[:-1]
    if kind == "unknown-key":
        obj["zz"] = 0
    elif kind == "nan":
        obj["w"] = math.nan
    elif kind == "index-gap":
        obj["i"] += 1
    elif kind == "401-digits":
        obj["m"] = 10 ** 400
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return json.dumps(obj, separators=(",", ":"))


class MonitorOp(CliOp):
    """``monitor`` on a generated trace, optionally with one corrupted line."""

    def __init__(self, path, length, plan, corruption=None):
        expect = 2 if corruption is not None else 4 if plan else 0
        # A rejected file counts the events parsed before its bad line.
        items = length if corruption is None else corruption[0]
        super().__init__("monitor", ["monitor", "--trace", path], expect, items)
        self.path = path
        self.length = length
        self.plan = plan
        self.corruption = corruption  # (line index, kind) or None
        self.expected = None

    def prepare(self):
        if self.corruption is not None:
            index, kind = self.corruption
            with open(self.path, encoding="utf-8") as fh:
                lines = fh.readlines()
            lines[index] = corrupt_line(lines[index], kind) + "\n"
            with open(self.path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(lines)
            return
        wanted = dict(self.plan)
        injected = []
        if wanted:
            with open(self.path, encoding="utf-8") as fh:
                for index, line in enumerate(fh):
                    if index in wanted:
                        event = _event(json.loads(line))
                        injected.append((index, wanted[index], monitor.check_p2(event)))
                        if len(injected) == len(wanted):
                            break
        self.expected = expected_verdict(self.length, injected)

    def verify(self, out, err):
        if self.corruption is not None:
            marker = f"line {self.corruption[0] + 1}:"
            if marker not in err:
                return "failed", f"{self.corruption[1]}: message lacks '{marker}': {err.strip()}"
            return "ok", ""
        try:
            verdict = json.loads(out)
        except ValueError:
            return "wrong", "verdict is not JSON"
        mismatch = verdict_mismatch(self.expected, verdict)
        return ("wrong", mismatch) if mismatch else ("ok", "")

    def cleanup(self):
        _remove(self.path)

    def describe(self):
        return super().describe() + (tuple(self.plan), self.corruption)


class SimulateOp(CliOp):
    def __init__(self, argv, expect, items, outputs):
        super().__init__("simulate", argv, expect, items)
        self.outputs = outputs

    def cleanup(self):
        _remove(*self.outputs)


class XcheckOp(Op):
    """Vehicle-level run under a leader force, then the error chain driven
    by the first spacing error it produced (acceptance criterion 5)."""

    kind = "xcheck"

    def __init__(self, spec: model.ControllerSpec, omega: float, cfg: simulate.SimConfig):
        self.spec = spec
        self.omega = omega
        self.cfg = cfg
        steps = int(round(cfg.duration / cfg.dt))
        n = spec.params.n
        self.items = steps * n + steps * (n - 2)

    def execute(self):
        force_amp = self.spec.params.m * self.omega * self.omega
        omega = self.omega
        ss = simulate.simulate_state_space(self.spec.params, self.cfg,
                                           lambda t: force_amp * math.sin(omega * t))
        errors = ss.spacing_errors()
        rates = ss.spacing_error_rates()
        chain = simulate.simulate_chain(
            model.error_model(self.spec), self.spec.params.n - 1, self.cfg,
            input_fn=simulate.tabulated_input(ss.t, errors[:, 0], rates[:, 0]))
        return errors, chain.z

    def check(self, result):
        errors, z = result
        worst = 0.0
        for col in range(1, errors.shape[1]):
            diff = float(np.abs(z[:, col] - errors[:, col]).max())
            worst = max(worst, diff / float(np.abs(errors[:, col]).max()))
        if not worst <= XCHECK_TOLERANCE:
            return "wrong", f"state-space and chain differ by {worst:.3g} (relative)"
        return "ok", ""

    def describe(self):
        return (self.kind, model.controller_spec_to_dict(self.spec), self.omega,
                self.cfg.dt, self.cfg.duration)


class SweepOp(CliOp):
    def __init__(self, argv, points, path, spec, sample_rows, tally):
        super().__init__("sweep", argv + ["--out", path], 0, points)
        self.path = path
        self.points = points
        self.spec = spec
        self.sample_rows = sample_rows
        self.tally = tally

    def verify(self, out, err):
        with open(self.path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if len(lines) != self.points + 1 or lines[0] != "omega,re,im,magnitude,stable":
            return "wrong", f"CSV has {len(lines)} lines, expected {self.points + 1}"
        tf = frequency.transfer_function(model.error_model(self.spec))
        for row in self.sample_rows:
            cells = lines[row + 1].split(",")
            if len(cells) != 5 or cells[4] not in ("true", "false"):
                return "wrong", f"row {row}: malformed {lines[row + 1]!r}"
            w, re, im, mag = (float(cell) for cell in cells[:4])
            ref = frequency.frequency_response(tf, w)
            want = (ref.value.real, ref.value.imag, ref.magnitude)
            if (cells[4] == "true") != (ref.magnitude < 1.0):
                return "wrong", f"row {row}: verdict {cells[4]} at omega {w!r}"
            if not all(math.isclose(a, b, rel_tol=SWEEP_ROW_RTOL, abs_tol=0.0)
                       for a, b in zip((re, im, mag), want)):
                return "wrong", f"row {row}: {(re, im, mag)} != {want} at omega {w!r}"
            self.tally["sweep_rows_sampled"] += 1
            self.tally["sweep_rows_bit_exact"] += (re, im, mag) == want
        return "ok", ""

    def cleanup(self):
        _remove(self.path)

    def describe(self):
        return super().describe() + (tuple(self.sample_rows),)


class ScanOp(Op):
    """``run_monitor`` on a prefix view of the set-up trace."""

    kind = "scan"

    def __init__(self, columns, length, injected):
        self.columns = columns
        self.items = length
        self.injected = [entry for entry in injected if entry[0] < length]

    def execute(self):
        view = monitor.Trace("scan", *(col[:self.items] for col in self.columns))
        return monitor.run_monitor(view)

    def check(self, verdict):
        mismatch = verdict_mismatch(expected_verdict(self.items, self.injected), verdict.to_dict())
        return ("wrong", mismatch) if mismatch else ("ok", "")

    def describe(self):
        return (self.kind, self.items, tuple(self.injected))


class Workload:
    """Seeded input generator; subclasses define ``setup`` and ``cycle``."""

    name = ""
    cycle_length = 64
    spans = ()
    # Nominal seconds per operation on a 2-vCPU VM: ``op_count`` turns the
    # run length into a fixed number of operations.
    seconds_per_op = 0.1
    # Runs end on a multiple of this many operations (a whole job or cycle).
    granule = 1

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.dir = workdir
        self.notes = {}
        self._files = 0
        os.makedirs(workdir, exist_ok=True)
        self.setup()

    def path(self, suffix: str) -> str:
        self._files += 1
        return os.path.join(self.dir, f"{self._files:06d}{suffix}")

    def write_spec(self, spec: dict) -> str:
        path = self.path(".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self):
        raise NotImplementedError

    @classmethod
    def op_count(cls, seconds: float, minimum: int = MIN_OPS) -> int:
        """Operations in a run of about ``seconds``: a whole number of
        granules, at least ``minimum``."""
        granules = max(math.ceil(minimum / cls.granule),
                       round(seconds / cls.seconds_per_op / cls.granule))
        return cls.granule * granules

    def ops(self):
        while True:
            yield from self.cycle()


class TraceIO(Workload):
    """gen-trace then monitor on the same file: JSONL write and parse."""

    name = "trace-io"
    spans = ("cli.main", "model.error_model", "monitor.generate_trace", "monitor.write_trace",
             "monitor.parse_trace", "monitor.run_monitor")
    seconds_per_op = 0.45
    granule = 2  # gen-trace and its monitor
    min_events, max_events = 1_000, 100_000
    # One file in 16 gets a corrupted line.  Slot 1 of every 16 is a
    # mid-sized file in the spread order and comes early in a run.
    corrupt_every = 16

    def setup(self):
        self.templates = [self.write_spec(random_spec(self.rng, model_combo(self.rng, i)))
                          for i in range(24)]
        self.corruption_turn = int(self.rng.integers(len(CORRUPTIONS)))

    def cycle(self):
        rng = self.rng
        lengths = spread(stratified(self.cycle_length, self.min_events, self.max_events))
        for position, size in enumerate(lengths):
            length = int(round(size))
            count = int(rng.integers(0, 4))
            indices = rng.choice(length, size=count, replace=False)
            plan = sorted((int(i), "P1" if rng.integers(2) else "P2") for i in indices)
            corruption = None
            if position % self.corrupt_every == 1:
                kind = CORRUPTIONS[self.corruption_turn % len(CORRUPTIONS)]
                self.corruption_turn += 1
                corruption = (int(rng.integers(length)), kind)
            path = self.path(".jsonl")
            template = self.templates[int(rng.integers(len(self.templates)))]
            yield GenTraceOp(path, int(rng.integers(2 ** 31)), length, template, plan)
            yield MonitorOp(path, length, plan, corruption)


class ChainSim(Workload):
    """simulate commands plus state-space/chain cross-checks: RK4 loops
    and the chain CSV writer."""

    name = "chain-sim"
    spans = ("cli.main", "model.error_model", "simulate.simulate_chain",
             "simulate.write_chain_csv", "simulate.attenuation_report",
             "simulate.simulate_state_space")
    seconds_per_op = 0.16
    granule = 64  # a whole cycle, whose sizes are shuffled
    xcheck_every = 4      # one operation in 4 is a cross-check
    diverge_every = 16    # one in 16 uses an oversized step and must diverge
    explicit_dt_every = 8  # one in 8 gives half the auto step explicitly

    def setup(self):
        self.specs = []
        for i in range(48):
            spec = random_spec(self.rng, model_combo(self.rng, i))
            coeffs = model.error_model(model.controller_spec_from_dict(spec))
            fastest = float(max(abs(np.roots([1.0, coeffs.a1, coeffs.a0]))))
            self.specs.append((self.write_spec(spec), coeffs.a0, fastest))

    def cycle(self):
        # Chain-sim fits several cycles in a run, so its sizes are shuffled
        # rather than spread.  Each kind of operation draws its own sizes,
        # so every kind covers the whole size range in every cycle.
        rng = self.rng
        count = self.cycle_length
        kinds = [self._kind(position) for position in range(count)]
        sizes = {kind: iter(self._sizes(kinds.count(kind), 3.0 if kind == "xcheck" else 2.0))
                 for kind in dict.fromkeys(kinds)}  # first-use order: seeded
        for kind in kinds:
            n, cycles = next(sizes[kind])
            if kind == "xcheck":
                yield self._xcheck(n, cycles)
                continue
            path, a0, fastest = self.specs[int(rng.integers(len(self.specs)))]
            # Around the natural frequency, inside and outside the stable band.
            omega = math.sqrt(a0) * math.exp(rng.uniform(math.log(0.7), math.log(3.0)))
            duration = cycles * 2.0 * math.pi / omega
            expect = 0
            if kind == "diverge":
                # |dt * lambda| = 20 puts the RK4 step far outside its
                # stability region, so the state overflows within 400 steps.
                dt = 20.0 / fastest
                duration = 400.0 * dt
                expect = 3
            elif kind == "half-dt":
                dt = 0.5 * simulate.default_dt(omega, a0)
            else:
                dt = None
            steps = int(round(duration / (dt or simulate.default_dt(omega, a0))))
            out, report = self.path(".csv"), self.path(".report.json")
            argv = ["simulate", "--spec", path, "--n", str(n), "--omega", repr(omega),
                    "--duration", repr(duration), "--dt", "auto" if dt is None else repr(dt),
                    "--out", out, "--report", report]
            yield SimulateOp(argv, expect, 0 if expect else steps * (n - 1), (out, report))

    def _kind(self, position):
        if position % self.xcheck_every == 3:
            return "xcheck"
        if position % self.diverge_every == 1:
            return "diverge"
        if position % self.explicit_dt_every == 5:
            return "half-dt"
        return "auto-dt"

    def _sizes(self, count, n_min):
        """(vehicles, input periods) pairs, each stratified and shuffled."""
        rng = self.rng
        ns = [int(v) for v in stratified(count, n_min, 17.0, log=False)]
        periods = stratified(count, 6.0, 24.0, log=False)
        rng.shuffle(ns)
        rng.shuffle(periods)
        return list(zip(ns, periods))

    def _xcheck(self, n, cycles):
        rng = self.rng
        spec = model.controller_spec_from_dict(
            random_spec(rng, ("autonomous", "unidirectional", "constant_spacing"), n))
        a0 = spec.params.k / spec.params.m
        omega = math.sqrt(a0) * math.exp(rng.uniform(math.log(0.8), math.log(3.0)))
        # The step also resolves the damping rate a1 = c/m, which
        # default_dt ignores: the cross-check needs an accurate step (the
        # simulate commands exercise the auto step).  The run is 200 steps
        # per input period's worth, like an auto-step run.
        dt = min(simulate.default_dt(omega, a0), 0.05 * spec.params.m / spec.params.c)
        cfg = simulate.SimConfig(dt=dt, duration=round(200 * cycles) * dt)
        return XcheckOp(spec, omega, cfg)


class BatchAnalysis(Workload):
    """analyze, sweep and in-memory scans: the model and frequency layers
    and the vectorised scan, with no parsing or integration."""

    name = "batch-analysis"
    spans = ("cli.main", "model.error_model", "frequency.analysis", "frequency.sweep",
             "frequency.write_sweep_csv", "monitor.run_monitor")
    seconds_per_op = 0.1
    granule = 3 * 32  # half a cycle of analyze, sweep and scan: every other size rank
    min_points, max_points = 1_000, 200_000
    min_scan, max_scan = 100_000, 2_000_000
    unsupported_every = 16
    segments = 6
    injections = 12

    def setup(self):
        rng = self.rng
        self.specs = []
        for i in range(48):
            combo = UNSUPPORTED if i % self.unsupported_every == 7 else model_combo(rng, i)
            spec = random_spec(rng, combo)
            a0 = None
            if combo != UNSUPPORTED:
                a0 = model.error_model(model.controller_spec_from_dict(spec)).a0
            self.specs.append((self.write_spec(spec), spec, a0))
        self._build_scan_trace()
        self.notes = {"sweep_rows_sampled": 0, "sweep_rows_bit_exact": 0}

    def _build_scan_trace(self):
        # One long trace of six model segments; each scan reads a prefix
        # view.  Injections sit at log-uniform positions so that short
        # prefixes tend to pass and long ones to fail.
        rng = self.rng
        total = self.max_scan
        where = np.unique(np.exp(rng.uniform(math.log(self.min_scan / 2), math.log(total),
                                             size=self.injections)).astype(np.int64))
        kinds = ["P1" if rng.integers(2) else "P2" for _ in where]
        bounds = np.linspace(0, total, self.segments + 1).astype(np.int64)
        columns = None
        for s in range(self.segments):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            spec = model.controller_spec_from_dict(random_spec(rng, model_combo(rng, s)))
            plan = [(int(i) - lo, k) for i, k in zip(where, kinds) if lo <= i < hi]
            segment = monitor.generate_trace(int(rng.integers(2 ** 31)), hi - lo, spec, plan)
            parts = [getattr(segment, name) for name in monitor.Trace.__slots__[1:]]
            if columns is None:
                columns = [np.empty(total, dtype=part.dtype) for part in parts]
            for column, part in zip(columns, parts):
                column[lo:hi] = part
        self.scan_columns = columns
        full = monitor.Trace("setup", *columns)
        self.scan_injected = [(int(i), k, monitor.check_p2(full[int(i)]))
                              for i, k in zip(where, kinds)]

    def cycle(self):
        rng = self.rng
        count = self.cycle_length
        points = spread(stratified(count, self.min_points, self.max_points))
        scans = spread(stratified(count, self.min_scan, self.max_scan))
        for position in range(count):
            path, spec, a0 = self.specs[int(rng.integers(len(self.specs)))]
            yield CliOp("analyze", ["analyze", "--spec", path], 2 if a0 is None else 0)

            path, spec, a0 = self.specs[int(rng.integers(len(self.specs)))]
            while a0 is None:
                path, spec, a0 = self.specs[int(rng.integers(len(self.specs)))]
            natural = math.sqrt(a0)
            size = int(round(points[position]))
            argv = ["sweep", "--spec", path,
                    "--omega-min", repr(natural * 10.0 ** rng.uniform(-2.0, -1.0)),
                    "--omega-max", repr(natural * 10.0 ** rng.uniform(1.0, 2.0)),
                    "--points", str(size), "--spacing", ("log", "linear")[int(rng.integers(2))]]
            rows = sorted(int(r) for r in rng.choice(size, SWEEP_ROWS_SAMPLED, replace=False))
            yield SweepOp(argv, size, self.path(".csv"), model.controller_spec_from_dict(spec),
                          rows, self.notes)

            yield ScanOp(self.scan_columns, int(round(scans[position])), self.scan_injected)


WORKLOADS = {w.name: w for w in (TraceIO, ChainSim, BatchAnalysis)}
