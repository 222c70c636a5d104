"""Time-domain integration of the spacing-error chain.

Two entry points cross-check the frequency-domain analysis numerically:

* :func:`simulate_chain` integrates the cascade of spacing-error equations
  directly, with the first error channel ``z_1`` driven as an exogenous
  input (a sinusoid, or any tabulated signal).
* :func:`simulate_state_space` integrates positions and velocities of every
  vehicle for the unidirectional constant-spacing controller, driven by a
  force on the lead vehicle; spacing errors derived from it must satisfy
  the same cascade equations.

Both use the classical fixed-step 4th-order Runge-Kutta scheme.  Fixed
stepping keeps runs reproducible; the dynamics are linear and mild, so
adaptive control would buy nothing.  Positions are expressed in a frame
with the desired inter-vehicle spacing subtracted out, so the equilibrium
is the all-zero state and spacing errors are plain differences.

The inner loops run on Python floats on purpose: per-step state vectors
are tiny (a handful of vehicles) and element-wise numpy would add an order
of magnitude of overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ErrorModel, PlatoonParams, validate_platoon

# Reference amplitudes below this make an attenuation ratio meaningless.
_AMPLITUDE_FLOOR = 1e-12


class DivergenceError(ArithmeticError):
    """The integration produced a non-finite state."""


class DegenerateInputError(ValueError):
    """A reference amplitude is too small for attenuation ratios."""


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step run settings plus the sinusoidal input description.

    ``amplitude == 0`` means zero input.  ``discard`` is the leading
    fraction of the run dropped before steady-state measurements; the
    default keeps the final 30%.
    """

    dt: float               # step size [s]
    duration: float         # total simulated time [s]
    amplitude: float = 0.0  # input amplitude [m]
    omega: float = 0.0      # input angular frequency [rad/s]
    discard: float = 0.7    # transient fraction discarded by reports

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be positive")
        if not (math.isfinite(self.duration) and self.duration >= 100.0 * self.dt):
            raise ValueError("duration must be at least 100*dt")
        if not math.isfinite(self.duration / self.dt):
            raise ValueError("duration/dt overflows the step count")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.omega)):
            raise ValueError("input descriptor must be finite")
        if self.omega < 0.0:
            raise ValueError("omega must be >= 0")
        if not 0.0 <= self.discard < 1.0:
            raise ValueError("discard fraction must be in [0, 1)")


@dataclass(frozen=True)
class ChainSeries:
    """Sampled spacing errors: column i is ``z_{i+1}`` (column 0 = input)."""

    t: np.ndarray      # (steps+1,)
    z: np.ndarray      # (steps+1, n)
    zdot: np.ndarray   # (steps+1, n)

    @property
    def n(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True)
class StateSeries:
    """Sampled per-vehicle positions and velocities (spacing-normalised)."""

    t: np.ndarray      # (steps+1,)
    x: np.ndarray      # (steps+1, n)
    v: np.ndarray      # (steps+1, n)

    def spacing_errors(self) -> np.ndarray:
        """z_i = x_i - x_{i+1}; shape (steps+1, n-1)."""
        return self.x[:, :-1] - self.x[:, 1:]

    def spacing_error_rates(self) -> np.ndarray:
        return self.v[:, :-1] - self.v[:, 1:]


@dataclass(frozen=True)
class AttenuationReport:
    """Steady-state amplitude per channel and adjacent-pair ratios.

    ``ratios[i]`` compares channel i+2 against channel i+1 (the first entry
    is z_2 against the z_1 input).  ``all_attenuating`` is true when every
    ratio is strictly below 1.
    """

    amplitudes: tuple
    ratios: tuple
    all_attenuating: bool

    def to_dict(self) -> dict:
        return {
            "amplitudes": list(self.amplitudes),
            "ratios": list(self.ratios),
            "all_attenuating": self.all_attenuating,
        }


def sine_input(amplitude: float, omega: float) -> Callable[[float], tuple[float, float]]:
    """Input channel ``A*sin(w*t)`` with its derivative; zero when A == 0."""
    if amplitude == 0.0:
        return lambda t: (0.0, 0.0)
    aw = amplitude * omega
    return lambda t: (amplitude * math.sin(omega * t), aw * math.cos(omega * t))


def tabulated_input(t, z, zdot) -> Callable[[float], tuple[float, float]]:
    """Cubic-Hermite interpolant of a sampled input channel.

    Matches values and derivatives at the sample points, so the local
    interpolation error is fourth order in the sample spacing (the same
    order as the integrator).  Queries outside the sampled range clamp to
    the end intervals.
    """
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    zdot = np.asarray(zdot, dtype=float)
    if len(t) < 2:
        raise ValueError("tabulated input needs at least two samples")
    last = len(t) - 2

    def fn(s: float) -> tuple[float, float]:
        j = int(np.searchsorted(t, s, side="right")) - 1
        if j < 0:
            j = 0
        elif j > last:
            j = last
        h = t[j + 1] - t[j]
        u = (s - t[j]) / h
        u2 = u * u
        u3 = u2 * u
        z0, z1 = z[j], z[j + 1]
        d0, d1 = zdot[j] * h, zdot[j + 1] * h
        val = (
            (2.0 * u3 - 3.0 * u2 + 1.0) * z0
            + (u3 - 2.0 * u2 + u) * d0
            + (-2.0 * u3 + 3.0 * u2) * z1
            + (u3 - u2) * d1
        )
        dval = (
            (6.0 * u2 - 6.0 * u) * z0
            + (3.0 * u2 - 4.0 * u + 1.0) * d0
            + (-6.0 * u2 + 6.0 * u) * z1
            + (3.0 * u2 - 2.0 * u) * d1
        ) / h
        return float(val), float(dval)

    return fn


def default_dt(omega: float, a0: float) -> float:
    """Step heuristic: >=200 samples per input period and resolve the
    natural frequency sqrt(a0)."""
    natural = 1.0 / (20.0 * math.sqrt(a0))
    if omega > 0.0:
        return min(2.0 * math.pi / (200.0 * omega), natural)
    return natural


def simulate_chain(
    model: ErrorModel,
    n: int,
    cfg: SimConfig,
    input_fn: Callable[[float], tuple[float, float]] | None = None,
) -> ChainSeries:
    """Integrate ``z_i'' = -a1*z_i' - a0*z_i + b1*z_{i-1}' + b0*z_{i-1}``
    for i = 2..n with z_1 as the input channel.

    All integrated channels start from rest (zero initial conditions).
    ``input_fn`` overrides the configured sinusoid; it must return
    ``(z_1, z_1')`` for any time in [0, duration].
    """
    if not isinstance(n, int) or n <= 1:
        raise ValueError("n must be an integer > 1")
    if input_fn is None:
        input_fn = sine_input(cfg.amplitude, cfg.omega)
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

    t_grid = np.arange(steps + 1) * dt
    z_out = np.zeros((steps + 1, n))
    zd_out = np.zeros((steps + 1, n))
    z_out[0, 0], zd_out[0, 0] = input_fn(0.0)

    z = [0.0] * stages
    v = [0.0] * stages
    h = dt
    h2 = 0.5 * dt
    h6 = dt / 6.0
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
        if not math.isfinite(sum(z) + sum(v)):
            raise DivergenceError(f"non-finite state at t = {t1:.6g} s")
        z_out[s + 1, 0] = u1
        zd_out[s + 1, 0] = u1d
        z_out[s + 1, 1:] = z
        zd_out[s + 1, 1:] = v
    return ChainSeries(t=t_grid, z=z_out, zdot=zd_out)


def simulate_state_space(
    params: PlatoonParams,
    cfg: SimConfig,
    leader_force: Callable[[float], float],
) -> StateSeries:
    """Integrate positions/velocities of an n-vehicle platoon under the
    unidirectional constant-spacing controller.

        x_1' = v_1,  v_1' = u/m
        x_i' = v_i,  v_i' = (k/m)(x_{i-1} - x_i) + (c/m)(v_{i-1} - v_i)

    ``leader_force`` is u(t) in newtons.  The run starts at the
    equilibrium: every vehicle at rest at its desired spacing.  The
    state-space form exists only for this controller; the other models are
    simulated through :func:`simulate_chain`.
    """
    validate_platoon(params)
    n = params.n
    km = params.k / params.m
    cm = params.c / params.m
    inv_m = 1.0 / params.m
    dt = cfg.dt
    steps = int(round(cfg.duration / dt))

    def deriv(xs, vs, u):
        dv = [0.0] * n
        dv[0] = u * inv_m
        for i in range(1, n):
            dv[i] = km * (xs[i - 1] - xs[i]) + cm * (vs[i - 1] - vs[i])
        return dv

    t_grid = np.arange(steps + 1) * dt
    x_out = np.zeros((steps + 1, n))
    v_out = np.zeros((steps + 1, n))

    x = [0.0] * n
    v = [0.0] * n
    h = dt
    h2 = 0.5 * dt
    h6 = dt / 6.0
    rng = range(n)
    for s in range(steps):
        t0 = s * dt
        t1 = (s + 1) * dt
        u0 = leader_force(t0)
        uh = leader_force(t0 + h2)
        u1 = leader_force(t1)
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
        x = [x[i] + h6 * (v[i] + 2.0 * v2[i] + 2.0 * v3[i] + v4[i]) for i in rng]
        v = [v[i] + h6 * (a_1[i] + 2.0 * a_2[i] + 2.0 * a_3[i] + a_4[i]) for i in rng]
        if not math.isfinite(sum(x) + sum(v)):
            raise DivergenceError(f"non-finite state at t = {t1:.6g} s")
        x_out[s + 1] = x
        v_out[s + 1] = v
    return StateSeries(t=t_grid, x=x_out, v=v_out)


def attenuation_report(series: ChainSeries, cfg: SimConfig) -> AttenuationReport:
    """Adjacent-pair steady-state amplitude ratios over the retained window.

    Amplitudes are max absolute values after the configured transient
    discard.  Raises :class:`DegenerateInputError` when a reference
    amplitude falls below 1e-12 (a zero-input run, for instance).
    """
    steps = len(series.t) - 1
    start = int(math.floor(cfg.discard * steps))
    window = np.abs(series.z[start:])
    amps = window.max(axis=0)
    ratios = []
    for i in range(1, series.n):
        ref = amps[i - 1]
        if ref < _AMPLITUDE_FLOOR:
            raise DegenerateInputError(
                f"reference amplitude {ref!r} of channel {i} is below 1e-12"
            )
        ratios.append(float(amps[i] / ref))
    return AttenuationReport(
        amplitudes=tuple(float(a) for a in amps),
        ratios=tuple(ratios),
        all_attenuating=all(r < 1.0 for r in ratios),
    )


def write_chain_csv(series: ChainSeries, fh) -> None:
    """Emit ``t,z_1,...,z_n`` rows, one per accepted step."""
    fh.write("t," + ",".join(f"z_{i + 1}" for i in range(series.n)) + "\n")
    for j in range(len(series.t)):
        row = series.z[j]
        fh.write(f"{float(series.t[j])!r}," + ",".join(repr(float(v)) for v in row) + "\n")


def write_state_csv(series: StateSeries, fh) -> None:
    """Emit ``t,x_1,v_1,...,x_n,v_n`` rows, one per accepted step."""
    n = series.x.shape[1]
    fh.write("t," + ",".join(f"x_{i + 1},v_{i + 1}" for i in range(n)) + "\n")
    for j in range(len(series.t)):
        cells = []
        for i in range(n):
            cells.append(repr(float(series.x[j, i])))
            cells.append(repr(float(series.v[j, i])))
        fh.write(f"{float(series.t[j])!r}," + ",".join(cells) + "\n")
