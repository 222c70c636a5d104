"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the ``platoon_stab`` modules from
outside: no file under ``src/`` changes.  A wrapper is installed under
every module attribute that is bound to the original function, so
``platoon_stab.cli`` (which imports ``parse_trace``, ``sweep``,
``simulate_chain`` and the rest by name at import time) calls the wrapper
just as the defining module does.

Spans are aggregated in memory as they close: a span's self time is its
duration minus the time covered by the spans it caused.  Counters are
taken at the same boundary, outside the timed interval.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager


def _parsed(args, result):
    counts = {"bytes_in": os.path.getsize(args[0])}
    if result is None:
        counts["rejected"] = 1
    else:
        counts["events"] = len(result)
    return counts


# (defining module, function, span name, counter).  A counter maps the
# call's positional arguments and its result (None when it raised) to
# work counts; "bytes" is measured from the output stream position.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("model", "error_model", "model.error_model", None),
    ("frequency", "stability_constraint", "frequency.analysis", None),
    ("frequency", "critical_frequencies", "frequency.analysis", None),
    ("frequency", "stable_intervals", "frequency.analysis", None),
    ("frequency", "sweep", "frequency.sweep",
     lambda args, r: {"points": len(r.omega) if r is not None else 0}),
    ("frequency", "write_sweep_csv", "frequency.write_sweep_csv",
     lambda args, r: {"rows": len(args[0].omega)}),
    ("simulate", "simulate_chain", "simulate.simulate_chain",
     lambda args, r: {"stage_steps": (len(r.t) - 1) * (r.n - 1) if r is not None else 0}),
    ("simulate", "simulate_state_space", "simulate.simulate_state_space",
     lambda args, r: {"stage_steps": (len(r.t) - 1) * r.x.shape[1] if r is not None else 0}),
    ("simulate", "attenuation_report", "simulate.attenuation_report", None),
    ("simulate", "write_chain_csv", "simulate.write_chain_csv",
     lambda args, r: {"rows": len(args[0].t)}),
    ("monitor", "generate_trace", "monitor.generate_trace",
     lambda args, r: {"events": len(r) if r is not None else 0}),
    ("monitor", "write_trace", "monitor.write_trace", lambda args, r: {"events": len(args[0])}),
    ("monitor", "parse_trace", "monitor.parse_trace", _parsed),
    ("monitor", "run_monitor", "monitor.run_monitor", lambda args, r: {"events": len(args[0])}),
)

# Writers whose output size is read from the stream they are given as
# their second argument.
_WRITERS = {"monitor.write_trace", "frequency.write_sweep_csv", "simulate.write_chain_csv"}


class Tracer:
    """Span aggregator plus the wrappers it installs while active."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._patches = []
        package = "platoon_stab"
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for module_name, func_name, span, counter in TARGETS:
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            wrapper = self._wrap(span, original, counter)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, span, fn, counter):
        writer = span in _WRITERS

        def wrapper(*args, **kwargs):
            start_pos = args[1].tell() if writer else 0
            frame = [0.0]
            self._stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                entry = self.stats.setdefault(span, {"self_s": 0.0, "calls": 0})
                entry["self_s"] += duration - frame[0]
                entry["calls"] += 1
                if counter is not None:
                    for key, value in counter(args, result).items():
                        entry[key] = entry.get(key, 0) + value
                if writer:
                    entry["bytes"] = entry.get("bytes", 0) + args[1].tell() - start_pos

        return wrapper

    @contextmanager
    def active(self):
        """Install every wrapper for the duration of the block."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def require(self, spans) -> None:
        """Raise when a span the workload must exercise never fired, so a
        renamed import cannot silently report zero."""
        silent = sorted(s for s in spans if self.stats.get(s, {}).get("calls", 0) == 0)
        if silent:
            raise RuntimeError(f"traced run: span(s) never fired: {', '.join(silent)}")

    def metrics(self) -> dict:
        """Per-layer metrics; layers the workload does not use read 0."""

        def get(span, key):
            return self.stats.get(span, {}).get(key, 0)

        def rate(span, key):
            busy = get(span, "self_s")
            return get(span, key) / busy if busy > 0.0 else 0.0

        out = {}
        for span in ("monitor.parse_trace", "monitor.write_trace", "monitor.generate_trace",
                     "monitor.run_monitor", "simulate.simulate_chain",
                     "simulate.write_chain_csv", "simulate.attenuation_report",
                     "simulate.simulate_state_space", "frequency.sweep",
                     "frequency.write_sweep_csv", "frequency.analysis",
                     "model.error_model", "cli.main"):
            out[f"{span}.self_s"] = (get(span, "self_s"), "s")
        out["monitor.parse_trace.events_per_s"] = (rate("monitor.parse_trace", "events"), "1/s")
        out["monitor.parse_trace.bytes_per_s"] = (rate("monitor.parse_trace", "bytes_in"), "B/s")
        out["monitor.parse_trace.rejected"] = (get("monitor.parse_trace", "rejected"), "count")
        out["monitor.write_trace.events_per_s"] = (rate("monitor.write_trace", "events"), "1/s")
        out["monitor.write_trace.bytes"] = (get("monitor.write_trace", "bytes"), "B")
        out["monitor.generate_trace.events"] = (get("monitor.generate_trace", "events"), "count")
        out["monitor.run_monitor.events_per_s"] = (rate("monitor.run_monitor", "events"), "1/s")
        out["simulate.simulate_chain.stage_steps_per_s"] = (
            rate("simulate.simulate_chain", "stage_steps"), "1/s")
        out["simulate.write_chain_csv.rows_per_s"] = (rate("simulate.write_chain_csv", "rows"), "1/s")
        out["simulate.write_chain_csv.bytes"] = (get("simulate.write_chain_csv", "bytes"), "B")
        out["simulate.simulate_state_space.stage_steps_per_s"] = (
            rate("simulate.simulate_state_space", "stage_steps"), "1/s")
        out["frequency.sweep.points_per_s"] = (rate("frequency.sweep", "points"), "1/s")
        out["frequency.write_sweep_csv.rows_per_s"] = (rate("frequency.write_sweep_csv", "rows"), "1/s")
        out["frequency.write_sweep_csv.bytes"] = (get("frequency.write_sweep_csv", "bytes"), "B")
        out["model.error_model.calls"] = (get("model.error_model", "calls"), "count")
        return out
