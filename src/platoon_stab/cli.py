"""Command-line front end.

Subcommands: analyze, sweep, simulate, monitor, gen-trace.  Machine
output is always valid JSON or valid CSV, never mixed on one stream:
CSV goes to --out (or stdout), side reports go to their own file or
stderr.

Exit codes: 0 success/pass, 1 I/O error, 2 validation or parse error or
an allocation too large (of a run, a sweep or a trace), 3 numeric
divergence, 4 monitor detected a violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from functools import cache

from .model import (
    _CLASSIC,
    ControllerSpec,
    ControllerType,
    _decode,
    _model_key,
    controller_spec_from_dict,
    error_model,
    model_label,
)
from .frequency import (
    SingularityError,
    critical_frequencies,
    stability_constraint,
    stable_intervals,
    sweep,
    write_sweep_csv,
)
from .simulate import (
    DegenerateInputError,
    DivergenceError,
    SimConfig,
    attenuation_report,
    default_dt,
    simulate_chain,
    sine_input,
    write_chain_csv,
)
from .monitor import generate_trace, parse_trace, run_monitor, write_trace


def _load_spec(path) -> ControllerSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = _decode(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return controller_spec_from_dict(obj)


@contextmanager
def _open_out(path, default):
    """The file at ``path``, opened for writing, or ``default`` without one."""
    if path is None:
        yield default
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _print_json(obj, fh) -> None:
    json.dump(obj, fh, indent=2)
    fh.write("\n")


def _interval_json(intervals):
    return [[lo, None if math.isinf(hi) else hi] for lo, hi in intervals]


def _condition_text(spec: ControllerSpec, constraint, intervals) -> str:
    if _model_key(spec.controller_type, spec.configuration, spec.strategy) == _CLASSIC:
        threshold = -constraint.alpha
        return (
            f"stable iff omega^2 > 2k/m = {threshold:g} "
            f"(omega > {math.sqrt(threshold):g} rad/s)"
        )
    if intervals == [(0.0, math.inf)]:
        return "stable for all omega > 0"
    parts = []
    for lo, hi in intervals:
        hi_text = "inf" if math.isinf(hi) else f"{hi:.6g}"
        parts.append(f"({lo:.6g}, {hi_text})")
    return "stable iff omega in " + " or ".join(parts) + " rad/s"


def cmd_analyze(args) -> int:
    spec = _load_spec(args.spec)
    model = error_model(spec)
    constraint = stability_constraint(model)
    crits = critical_frequencies(constraint)
    intervals = stable_intervals(constraint)
    report = {
        "controller_type": spec.controller_type.value,
        "configuration": spec.configuration.value,
        "strategy": spec.strategy.value,
        "selected_model": model_label(spec),
        "coefficients": {"a0": model.a0, "a1": model.a1, "b0": model.b0, "b1": model.b1},
        "transfer_function": str(model),
        "constraint": {"alpha": constraint.alpha, "beta": constraint.beta},
        "critical_frequencies": crits,
        "stable_intervals": _interval_json(intervals),
        "stability_condition": _condition_text(spec, constraint, intervals),
    }
    if spec.controller_type is ControllerType.NON_AUTONOMOUS:
        report["note"] = (
            "non-autonomous controllers map to the single leader-velocity "
            "feedback model; configuration and strategy do not alter it"
        )
    _print_json(report, sys.stdout)
    return 0


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    model = error_model(spec)
    result = sweep(model, args.omega_min, args.omega_max, args.points, args.spacing)
    constraint = stability_constraint(model)
    summary = {
        "points": args.points,
        "omega_min": args.omega_min,
        "omega_max": args.omega_max,
        "spacing": args.spacing,
        "stable_fraction": result.stable_fraction,
        "critical_frequencies": critical_frequencies(constraint),
        "stable_intervals": _interval_json(stable_intervals(constraint)),
    }
    with _open_out(args.out, sys.stdout) as fh:
        write_sweep_csv(result, fh)
    _print_json(summary, sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    model = error_model(spec)
    if args.n <= 1:
        raise ValueError("--n must be > 1")
    if not args.omega > 0.0:
        raise ValueError("--omega must be positive")
    if not math.isfinite(args.omega):
        raise ValueError("--omega must be finite")
    if args.dt == "auto":
        dt = default_dt(args.omega, model.a0, model.a1)
    else:
        try:
            dt = float(args.dt)
        except ValueError:
            raise ValueError(f"--dt must be a number or 'auto', got {args.dt!r}") from None
    cfg = SimConfig(dt=dt, duration=args.duration, discard=args.discard)
    if args.amp == 0.0:
        raise DegenerateInputError("--amp 0 gives no input to attenuate")
    series = simulate_chain(model, args.n, cfg, sine_input(args.amp, args.omega))
    report = attenuation_report(series, cfg)
    with _open_out(args.out, sys.stdout) as fh:
        write_chain_csv(series, fh)
    with _open_out(args.report, sys.stderr) as fh:
        _print_json(report.to_dict(), fh)
    return 0


def cmd_monitor(args) -> int:
    trace = parse_trace(args.trace)
    verdict = run_monitor(trace)
    _print_json(verdict.to_dict(), sys.stdout)
    return 0 if verdict.passed else 4


def _parse_violation(text: str) -> tuple[int, str]:
    index, sep, kind = text.partition(":")
    if not sep:
        raise ValueError(f"--violate expects INDEX:P1 or INDEX:P2, got {text!r}")
    try:
        return int(index), kind
    except ValueError:
        raise ValueError(f"--violate index must be an integer, got {index!r}") from None


def cmd_gen_trace(args) -> int:
    spec = _load_spec(args.spec)
    plan = [_parse_violation(v) for v in args.violate]
    trace = generate_trace(args.seed, args.len, spec, plan)
    with _open_out(args.out, sys.stdout) as fh:
        write_trace(trace, fh)
    return 0


# Built once per process: a build takes about 0.7 ms, most of an
# `analyze` call.  Parsing leaves the parser unchanged, and argparse copies
# the one list default (--violate) before it appends to it.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoon-stab",
        description="Platoon controller string-stability toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report the model, constraint and stability condition")
    p.add_argument("--spec", required=True, help="controller spec JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="frequency-response CSV over an omega grid")
    p.add_argument("--spec", required=True)
    p.add_argument("--omega-min", type=float, required=True)
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")
    p.add_argument("--out", help="CSV output path (default stdout); summary JSON on stderr")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="time-domain chain run plus attenuation report")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True, help="number of error channels (> 1)")
    p.add_argument("--omega", type=float, required=True, help="input frequency [rad/s]")
    p.add_argument("--amp", type=float, default=1.0, help="input amplitude [m]")
    p.add_argument("--duration", type=float, required=True, help="simulated time [s]")
    p.add_argument("--dt", default="auto", help="step size [s], or 'auto'")
    p.add_argument("--discard", type=float, default=0.7, help="transient fraction dropped")
    p.add_argument("--out", help="trajectory CSV path (default stdout)")
    p.add_argument("--report", help="attenuation report JSON path (default stderr)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("monitor", help="check a logged trace against the stability contract")
    p.add_argument("--trace", required=True, help="line-delimited JSON trace file")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("gen-trace", help="deterministic pseudo-random trace generator")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--violate", action="append", default=[], metavar="INDEX:KIND",
                   help="inject a P1/P2 violation at INDEX (repeatable)")
    p.add_argument("--out", help="trace output path (default stdout)")
    p.set_defaults(func=cmd_gen_trace)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
