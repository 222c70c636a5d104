"""Time-domain integration of the spacing-error chain.

Two entry points cross-check the frequency-domain analysis numerically:

* :func:`simulate_chain` integrates the cascade of spacing-error equations
  directly, with the first error channel ``z_1`` driven as an exogenous
  input (a sinusoid, or any tabulated signal).
* :func:`simulate_state_space` integrates positions and velocities of every
  vehicle for the unidirectional constant-spacing controller, driven by a
  force on the lead vehicle; spacing errors derived from it must satisfy
  the same cascade equations.

Both are the linear system ``x' = A x + B u`` and share one integrator,
the classical fixed-step 4th-order Runge-Kutta scheme.  Fixed stepping
keeps runs reproducible; the dynamics are linear and mild, so adaptive
control would buy nothing.  Positions are expressed in a frame with the
desired inter-vehicle spacing subtracted out, so the equilibrium is the
all-zero state and spacing errors are plain differences.

On a linear system one RK4 step is exactly
``x(t+h) = R(hA) x(t) + N0 u(t) + Nh u(t+h/2) + N1 u(t+h)``, with ``R``
the RK4 stability function.  The integrator builds the four matrices by
applying the one RK4 step to the identity and to unit inputs, then walks
the grid in blocks: the input is evaluated once on a block's half-step
times, the forcing terms are formed for that block only, and each step is
one vector-matrix product written straight into the output buffer.  The
returned series are views of that buffer, so a run holds little more
memory than its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _text
from .model import ErrorModel, PlatoonParams, validate_platoon

# Reference amplitudes below this make an attenuation ratio meaningless.
_AMPLITUDE_FLOOR = 1e-12

# Grid steps integrated per block; inputs, forcing terms and the
# divergence check are evaluated a block at a time, which bounds every
# temporary to one block.
_BLOCK = 256

# Values formatted per write by the CSV writers, in whole rows.
_CSV_VALUES = 4096


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
        # The phase at the last grid time, as the simulators step it.
        if not math.isfinite(self.omega * (round(self.duration / self.dt) * self.dt)):
            raise ValueError("omega * duration overflows the input phase")
        if not math.isfinite(self.amplitude * self.omega):
            raise ValueError("amplitude * omega overflows the input rate")
        if self.omega < 0.0:
            raise ValueError("omega must be >= 0")
        if not 0.0 <= self.discard < 1.0:
            raise ValueError("discard fraction must be in [0, 1)")


@dataclass(frozen=True)
class ChainSeries:
    """Sampled spacing errors: column i is ``z_{i+1}`` (column 0 = input).

    ``z`` and ``zdot`` are views of one ``(steps+1, 2n)`` buffer.
    """

    t: np.ndarray      # (steps+1,)
    z: np.ndarray      # (steps+1, n)
    zdot: np.ndarray   # (steps+1, n)

    @property
    def n(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True)
class StateSeries:
    """Sampled per-vehicle positions and velocities (spacing-normalised).

    ``x`` and ``v`` are views of one ``(steps+1, 2n)`` buffer.
    """

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


def sine_input(amplitude: float, omega: float) -> Callable:
    """Input channel ``A*sin(w*t)`` with its derivative; zero when A == 0.

    The returned function takes a float or an array of times.
    """
    if amplitude == 0.0:
        return lambda t: (0.0 * t, 0.0 * t)
    aw = amplitude * omega
    return lambda t: (amplitude * np.sin(omega * t), aw * np.cos(omega * t))


def tabulated_input(t, z, zdot) -> Callable:
    """Cubic-Hermite interpolant of a sampled input channel.

    Matches values and derivatives at the sample points, so the local
    interpolation error is fourth order in the sample spacing (the same
    order as the integrator).  Queries outside the sampled range clamp to
    the end intervals.  The returned function takes a float or an array
    of times.
    """
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    zdot = np.asarray(zdot, dtype=float)
    if len(t) < 2:
        raise ValueError("tabulated input needs at least two samples")
    last = len(t) - 2

    def fn(s):
        j = np.clip(np.searchsorted(t, s, side="right") - 1, 0, last)
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
        return val, dval

    return fn


def default_dt(omega: float, a0: float, a1: float = 0.0) -> float:
    """Step heuristic: >=200 samples per input period, resolve the natural
    frequency sqrt(a0), and keep ``h*|lambda| <= 1``, inside RK4's stability
    region, for the roots lambda of ``s^2 + a1*s + a0``: the eigenvalues of a
    chain, whose state matrix is block triangular with these 2x2 blocks."""
    root, half = math.sqrt(a0), 0.5 * a1
    # The largest |lambda|: half + sqrt(half^2 - a0) when the roots are real,
    # factored so that half^2 cannot overflow, else sqrt(a0).
    fastest = max(root, half + math.sqrt(max(half - root, 0.0)) * math.sqrt(half + root))
    dt = min(1.0 / (20.0 * root), 1.0 / fastest)
    if omega > 0.0:
        return min(2.0 * math.pi / (200.0 * omega), dt)
    return dt


def _rk4_step(A, B, h, x, u0, uh, u1):
    """One classical RK4 step of ``x' = A x + B u`` applied to each column
    of ``x``, with the inputs ``u0``, ``uh``, ``u1`` at t, t + h/2, t + h."""
    h2 = 0.5 * h
    k1 = A @ x + B @ u0
    k2 = A @ (x + h2 * k1) + B @ uh
    k3 = A @ (x + h2 * k2) + B @ uh
    k4 = A @ (x + h * k3) + B @ u1
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_linear(A, B, h, steps, inputs, out, input_cols=None):
    """Integrate ``x' = A x + B u`` in place: row k of ``out`` becomes the
    state at time k*h, starting from ``out[0]``.

    ``inputs`` maps a 1-D array of times to the input rows, shape
    ``(len(t), p)``; it sees every time of the half-step grid exactly once,
    a block at a time.  Columns ``input_cols`` of ``out`` are not
    integrated: they record the input itself at each grid time, and A and
    B must neither read nor drive them.  Raises :class:`DivergenceError`
    at the first grid time whose row is not finite.
    """
    size, p = B.shape
    width = size + 3 * p
    with np.errstate(all="ignore"):
        step = _rk4_step(A, B, h, np.eye(size, width),
                         *(np.eye(p, width, size + j * p) for j in range(3)))
        # Row form: x(t+h) = x(t) @ M + u(t) @ N0 + u(t+h/2) @ Nh + u(t+h) @ N1.
        M, N0, Nh, N1 = (np.ascontiguousarray(m) for m in
                         np.split(step.T, [size, size + p, size + 2 * p]))
        u = inputs(np.zeros(1))
        if input_cols:
            out[0, input_cols] = u[0]
        for k0 in range(0, steps, _BLOCK):
            k1 = min(k0 + _BLOCK, steps)
            t = np.empty(2 * (k1 - k0) + 1)
            t[0::2] = np.arange(k0, k1 + 1) * h
            t[1::2] = t[:-1:2] + 0.5 * h
            u = np.concatenate((u[-1:], inputs(t[1:])))
            x = out[k0:k1 + 1]
            np.matmul(u[:-1:2], N0, out=x[1:])
            x[1:] += u[1::2] @ Nh
            x[1:] += u[2::2] @ N1
            for prev, row in zip(x, x[1:]):
                row += prev @ M
            if input_cols:
                x[1:, input_cols] = u[2::2]
            finite = np.isfinite(x[1:]).all(axis=1)
            if not finite.all():
                k = k0 + 1 + int(np.argmin(finite))
                raise DivergenceError(f"non-finite state at t = {k * h:.6g} s")


def simulate_chain(
    model: ErrorModel,
    n: int,
    cfg: SimConfig,
    input_fn: Callable | None = None,
) -> ChainSeries:
    """Integrate ``z_i'' = -a1*z_i' - a0*z_i + b1*z_{i-1}' + b0*z_{i-1}``
    for i = 2..n with z_1 as the input channel.

    All integrated channels start from rest (zero initial conditions).
    ``input_fn`` overrides the configured sinusoid; it maps a 1-D array of
    times in [0, duration] to the arrays ``(z_1, z_1')`` at those times.
    """
    if not isinstance(n, int) or n <= 1:
        raise ValueError("n must be an integer > 1")
    if input_fn is None:
        input_fn = sine_input(cfg.amplitude, cfg.omega)
    steps = int(round(cfg.duration / cfg.dt))
    # State [z_1..z_n, z_1'..z_n']; z_1 and z_1' are the input, so the
    # columns of A that read them move into B.
    size = 2 * n
    i = np.arange(1, n)
    A = np.zeros((size, size))
    A[i, n + i] = 1.0
    A[n + i, i] = -model.a0
    A[n + i, n + i] = -model.a1
    A[n + i, i - 1] = model.b0
    A[n + i, n + i - 1] = model.b1
    slots = [0, n]
    B = A[:, slots]
    A[:, slots] = 0.0

    def inputs(t):
        u = np.empty((len(t), 2))
        u[:, 0], u[:, 1] = input_fn(t)
        return u

    buf = np.zeros((steps + 1, size))
    _integrate_linear(A, B, cfg.dt, steps, inputs, buf, input_cols=slots)
    return ChainSeries(t=np.arange(steps + 1) * cfg.dt, z=buf[:, :n], zdot=buf[:, n:])


def simulate_state_space(
    params: PlatoonParams,
    cfg: SimConfig,
    leader_force: Callable[[float], float],
) -> StateSeries:
    """Integrate positions/velocities of an n-vehicle platoon under the
    unidirectional constant-spacing controller.

        x_1' = v_1,  v_1' = u/m
        x_i' = v_i,  v_i' = (k/m)(x_{i-1} - x_i) + (c/m)(v_{i-1} - v_i)

    ``leader_force`` is u(t) in newtons, called with one float at a time,
    once per half-step time.  The run starts at the equilibrium: every
    vehicle at rest at its desired spacing.  The state-space form exists
    only for this controller; the other models are simulated through
    :func:`simulate_chain`.
    """
    validate_platoon(params)
    n = params.n
    km = params.k / params.m
    cm = params.c / params.m
    steps = int(round(cfg.duration / cfg.dt))
    # State [x_1..x_n, v_1..v_n].
    size = 2 * n
    i = np.arange(n)
    j = np.arange(1, n)
    A = np.zeros((size, size))
    A[i, n + i] = 1.0
    A[n + j, j - 1] = km
    A[n + j, j] = -km
    A[n + j, n + j - 1] = cm
    A[n + j, n + j] = -cm
    B = np.zeros((size, 1))
    B[n, 0] = 1.0 / params.m

    def inputs(t):
        return np.fromiter(map(leader_force, t.tolist()), float, len(t)).reshape(-1, 1)

    buf = np.zeros((steps + 1, size))
    _integrate_linear(A, B, cfg.dt, steps, inputs, buf)
    return StateSeries(t=np.arange(steps + 1) * cfg.dt, x=buf[:, :n], v=buf[:, n:])


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
                f"reference amplitude {float(ref)!r} of channel {i} is below 1e-12"
            )
        ratios.append(float(amps[i] / ref))
    return AttenuationReport(
        amplitudes=tuple(float(a) for a in amps),
        ratios=tuple(ratios),
        all_attenuating=all(r < 1.0 for r in ratios),
    )


def _write_csv(fh, header: str, rows: int, table) -> None:
    """Emit ``header``, then the ``rows`` rows of ``table(a, b)`` (rows a
    to b-1 as a 2-D float array) a chunk at a time, floats in repr form."""
    fh.write(header + "\n")
    width = header.count(",") + 1
    literals = ("", *[","] * (width - 1), "\n")
    step = max(1, _CSV_VALUES // width)
    for a in range(0, rows, step):
        fh.write(_text.join(literals, [_text.floats(table(a, min(a + step, rows)))]))


def write_chain_csv(series: ChainSeries, fh) -> None:
    """Emit ``t,z_1,...,z_n`` rows, one per accepted step."""
    header = "t," + ",".join(f"z_{i + 1}" for i in range(series.n))
    _write_csv(fh, header, len(series.t),
               lambda a, b: np.column_stack((series.t[a:b], series.z[a:b])))


def write_state_csv(series: StateSeries, fh) -> None:
    """Emit ``t,x_1,v_1,...,x_n,v_n`` rows, one per accepted step."""
    n = series.x.shape[1]
    header = "t," + ",".join(f"x_{i + 1},v_{i + 1}" for i in range(n))

    def table(a, b):
        xv = np.stack((series.x[a:b], series.v[a:b]), axis=2).reshape(b - a, 2 * n)
        return np.column_stack((series.t[a:b], xv))

    _write_csv(fh, header, len(series.t), table)
