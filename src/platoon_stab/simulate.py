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
the classical fixed-step 4th-order Runge-Kutta scheme; the dynamics are
linear and mild, so adaptive control would buy nothing.  Re-runs on one
host are byte-identical, but the trajectory's last bits can differ
between BLAS kernels, which the CPU selects: the scan's matrix products
go through BLAS, and each kernel sums in its own order.  Positions are
expressed in a frame with the desired inter-vehicle spacing subtracted
out, so the equilibrium is the all-zero state and spacing errors are
plain differences.

On a linear system one RK4 step is exactly
``x(t+h) = R(hA) x(t) + N0 u(t) + Nh u(t+h/2) + N1 u(t+h)``, with ``R``
the RK4 stability function.  The integrator builds the four matrices by
applying the one RK4 step to the identity and to unit inputs, then walks
the grid in blocks: the input is evaluated once on a block's half-step
times, the forcing terms are formed for that block only and written
straight into the output buffer, and the first-order recurrence
``x_k = x_{k-1} M + f_k`` is then solved in place by a blocked scan
(Kogge & Stone 1973; Blelloch 1990).  Its powers of ``M`` are built once
per run, in zero, one or two levels: the second level is those of
``M**8``, and a level whose powers are not finite is left out with every
level above it.  One rule holds at every level, on its matrix ``P``
(``M``, then ``M**8``): one matrix product per 32 sub-blocks of 8 steps
gives each sub-block its sum from a zero start; the sub-block ends then
satisfy the same recurrence with ``P**8`` in place of ``P``, and the same
function solves it, with the next level's powers where there is one and
more than 16 sub-blocks, else one step at a time; and 7 products per 32
sub-blocks fill the steps in between.  A block of 1024 steps takes 56
matrix products, not 1024.  No product spans more than 32 sub-blocks, so
up to n = 16 each stays below the size at which OpenBLAS starts threads.
Steps go one vector-matrix product at a time where the scan does not
fit: the few steps at a block's end, every step where a power of ``M`` is
not finite or the state is wider than ``_SCAN_WIDTH``, and a block that
the scan left non-finite, stepped again so that a divergence is reported
at the time of the one-step recurrence.  The returned series are views
of the output buffer, so a run holds little more memory than its output.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import _text
from .model import (_CLASSIC, _MODELS, ErrorModel, PlatoonParams, _allocating, _check_value,
                    validate_platoon)

# Reference amplitudes below this make an attenuation ratio meaningless.
_AMPLITUDE_FLOOR = 1e-12

# Grid steps integrated per block; inputs, forcing terms and the
# divergence check are evaluated a block at a time, which bounds every
# temporary to one block.  Sub-block boundaries fall on multiples of
# _SCAN for any multiple of it, so the block length alone moves no bit.
# The block's temporaries add to the output buffer: at n = 16, 9,600
# steps, a run peaked at 1.14 times the buffer with 256-step blocks, 1.20
# with 1024 and 1.58 with 4096.
_BLOCK = 1024

# Rows per sub-block of the blocked scan (see _recur), at either level.
# Each power of the step matrix rounds anew, so this length sets the
# scan's accuracy.  Over 2,000 random state-space runs the worst error
# against a 60-digit RK4 was 13.7 ulp of a channel's amplitude per step at
# 8, 13.0 at 4 and 17.2 at 16, against 30.6 stepping row by row, all with
# one level over 256-step blocks.  Over another 2,000 it was 9.0 ulp with
# one level and 9.5 with two over 1024-step blocks.
_SCAN = 8

# Sub-blocks per matrix product of the scan.  At a state width of 32
# (n = 16) the stacked product over 32 sub-blocks is 32 x 256 x 32
# multiply-adds, the largest that OpenBLAS runs on one thread (it threads
# a GEMM above 4 * 65,536).  With products over a whole 1024-step block
# and threads not pinned, one process in six ran 3000 steps at n = 16 in
# 16 ms against 1.6 ms.
_PIECE = 32

# State widths (2n) above which the run steps row by row.  The stacked
# powers take _SCAN * width**2 doubles, 400 KiB at this width.  Wider, the
# scan's extra products and the powers cost as much as it saves: at
# n = 48, 400 steps, a fresh process ran no faster than row by row.
_SCAN_WIDTH = 80


class DivergenceError(ArithmeticError):
    """The integration produced a non-finite state."""


class DegenerateInputError(ValueError):
    """A reference amplitude is too small for attenuation ratios."""


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step run settings: the grid and the report window.

    ``discard`` is the leading fraction of the run dropped before
    steady-state measurements; the default keeps the final 30%.  The
    input is not part of the config: :func:`simulate_chain` takes it as a
    function, and an input value that is not finite is a ValueError
    naming its time (see :func:`_integrate_linear`).  Each field is read
    as a finite float through ``model._check_value``.
    """

    dt: float               # step size [s]
    duration: float         # total simulated time [s]
    discard: float = field(default=0.7, kw_only=True)  # transient fraction dropped

    def __post_init__(self):
        for name in ("dt", "duration", "discard"):
            object.__setattr__(self, name, _check_value(float, getattr(self, name), f"{name} "))
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.duration >= 100.0 * self.dt:
            raise ValueError("duration must be at least 100*dt")
        if not math.isfinite(self.duration / self.dt):
            raise ValueError("duration/dt overflows the step count")
        if not 0.0 <= self.discard < 1.0:
            raise ValueError("discard fraction must be in [0, 1)")

    @property
    def steps(self) -> int:
        """Steps of the run's grid, whose times are ``k * dt`` for k = 0 to
        ``steps``."""
        return round(self.duration / self.dt)


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
        return asdict(self)


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
    of times.  Raises ValueError unless ``t``, ``z`` and ``zdot`` are 1-D
    of one length, at least two, and the times are finite and strictly
    increasing.  A sample that is not finite is refused by the run that
    reads it, at the first time the interpolant is not finite.
    """
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    zdot = np.asarray(zdot, dtype=float)
    if not t.ndim == z.ndim == zdot.ndim == 1:
        raise ValueError("tabulated input samples must be 1-D")
    if len(t) < 2:
        raise ValueError("tabulated input needs at least two samples")
    if not len(z) == len(zdot) == len(t):
        raise ValueError(f"tabulated input needs z and zdot of t's length {len(t)}")
    if not (np.isfinite(t).all() and (np.diff(t) > 0.0).all()):
        raise ValueError("tabulated input times must be finite and strictly increasing")
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
    chain, whose state matrix is block triangular with these 2x2 blocks.
    The step is the reciprocal of the fastest of these rates, inf where
    they are all 0 (as where ``a0 = k/m`` underflows), and is then capped
    by the input period."""
    root, half = math.sqrt(a0), 0.5 * a1
    # The largest |lambda|: half + sqrt(half^2 - a0) when the roots are real,
    # factored so that half^2 cannot overflow, else sqrt(a0), which
    # 20 * sqrt(a0) covers.
    fastest = max(20.0 * root, half + math.sqrt(max(half - root, 0.0)) * math.sqrt(half + root))
    dt = 1.0 / fastest if fastest > 0.0 else math.inf
    if omega > 0.0:
        # 2 pi / (200 omega), both terms divided by 256 (the same bits),
        # so that no finite omega overflows 200 omega into a zero step.
        return min(math.pi / 128.0 / (0.78125 * omega), dt)
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


def _powers(M):
    """The powers of each level of the scan, at most two levels: a level is
    ``(P**_SCAN, [P**(_SCAN-1); ...; P**0])``, the second stacked into one
    ``(_SCAN * size, size)`` matrix, with ``P = M`` for the first level and
    ``P = M**_SCAN`` for the second.  The levels stop at the first whose
    powers are not finite, so this gives one level, two, or None."""
    size = len(M)
    levels = []
    for _ in range(2):
        stack = np.empty((_SCAN, size, size))
        stack[-1] = np.eye(size)
        for j in range(_SCAN - 2, -1, -1):
            np.matmul(stack[j + 1], M, out=stack[j])
        M = stack[0] @ M
        if not (np.isfinite(stack).all() and np.isfinite(M).all()):
            break
        levels.append((M, stack.reshape(-1, size)))
    return tuple(levels) or None


def _recur(x, M, powers=None):
    """Make each row ``x[k]`` (k >= 1), which holds a forcing row, into
    ``x[k-1] @ M + x[k]``, in place.

    With ``powers`` from :func:`_powers`, whole sub-blocks of ``_SCAN``
    rows go by the blocked scan.  One product per ``_PIECE`` sub-blocks
    gives each sub-block's sum from a zero start, in its last row.  Those
    ends then satisfy the same recurrence with ``M**_SCAN`` in place of
    ``M``, and this function solves it on a contiguous copy of them: with
    the next level's powers when there is one and there are more than
    ``2 * _SCAN`` sub-blocks, else with none.  ``_SCAN - 1`` products per
    ``_PIECE`` sub-blocks then fill the rows in between.  The rows left
    over, and every row without powers (None, or no level left), take one
    product each.
    """
    done = 0
    if powers:
        (top, stack), upper = powers[0], powers[1:]
        size = len(M)
        done = (len(x) - 1) // _SCAN * _SCAN
        pieces = [(a, min(a + _PIECE * _SCAN, done)) for a in range(0, done, _PIECE * _SCAN)]
        for a, b in pieces:
            x[a + _SCAN:b + 1:_SCAN] = x[a + 1:b + 1].reshape(-1, _SCAN * size) @ stack
        ends = x[:done + 1:_SCAN]
        carried = ends.copy()
        _recur(carried, top, upper if len(ends) > 2 * _SCAN + 1 else None)
        ends[1:] = carried[1:]
        for a, b in pieces:
            y = x[a:b].reshape(-1, _SCAN, size)
            for j in range(1, _SCAN):
                y[:, j] += y[:, j - 1] @ M
    for prev, row in zip(x[done:], x[done + 1:]):
        row += prev @ M


def _integrate_linear(A, B, cfg: SimConfig, inputs, input_cols=None):
    """Integrate ``x' = A x + B u`` from rest on the grid of ``cfg``: the
    times ``t``, ``k * dt`` for k = 0 to ``cfg.steps``, and a C-contiguous
    array whose row k is the state at ``t[k]``.

    ``inputs`` maps a 1-D array of times to the input rows, shape
    ``(len(t), p)``; it sees every time of the half-step grid exactly once,
    a block at a time.  Columns ``input_cols`` of the state are not
    integrated: they record the input itself at each grid time, and A and
    B must neither read nor drive them.

    At the first grid time whose row is not finite, raises ValueError
    naming the time of the first input row up to it that is not finite,
    else :class:`DivergenceError`.  Every input row reaches the state
    (0 * nan is nan), so this is the one check on the inputs.  A grid too
    large for its output buffer raises MemoryError naming its step count.
    """
    h, steps = cfg.dt, cfg.steps
    size, p = B.shape
    with _allocating("a run", steps, f"steps of {size} states"):
        out = np.zeros((steps + 1, size))
    width = size + 3 * p
    with np.errstate(all="ignore"):
        step = _rk4_step(A, B, h, np.eye(size, width),
                         *(np.eye(p, width, size + j * p) for j in range(3)))
        # Row form: x(t+h) = x(t) @ M + u(t) @ N0 + u(t+h/2) @ Nh + u(t+h) @ N1.
        M, N0, Nh, N1 = (np.ascontiguousarray(m) for m in
                         np.split(step.T, [size, size + p, size + 2 * p]))
        powers = _powers(M) if size <= _SCAN_WIDTH else None
        # A block that the scan leaves non-finite is stepped again row by
        # row, so the time reported is the one-step recurrence's.
        attempts = (None,) if powers is None else (powers, None)
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
            for attempt in attempts:
                np.matmul(u[:-1:2], N0, out=x[1:])
                x[1:] += u[1::2] @ Nh
                x[1:] += u[2::2] @ N1
                _recur(x, M, attempt)
                if input_cols:
                    x[1:, input_cols] = u[2::2]
                finite = np.isfinite(x[1:]).all(axis=1)
                if finite.all():
                    break
            else:
                k = k0 + 1 + int(np.argmin(finite))
                bad = ~np.isfinite(u[:2 * (k - k0) + 1]).all(axis=1)
                if bad.any():
                    raise ValueError(f"input at t = {t[np.argmax(bad)]:.6g} s is not finite")
                raise DivergenceError(f"non-finite state at t = {k * h:.6g} s")
    return np.arange(steps + 1) * h, out


def _cascade(model: ErrorModel, n: int) -> np.ndarray:
    """State matrix of ``z_i'' + a1*z_i' + a0*z_i = b1*z_{i-1}' + b0*z_{i-1}``
    for i = 2..n on the state ``[z_1..z_n, z_1'..z_n']``; the rows of z_1
    and z_1' are zero."""
    with _allocating("a chain", n, "channels"):
        A = np.zeros((2 * n, 2 * n))
    i = np.arange(1, n)
    A[i, n + i] = 1.0
    A[n + i, i] = -model.a0
    A[n + i, n + i] = -model.a1
    A[n + i, i - 1] = model.b0
    A[n + i, n + i - 1] = model.b1
    return A


def simulate_chain(
    model: ErrorModel,
    n: int,
    cfg: SimConfig,
    input_fn: Callable | None = None,
) -> ChainSeries:
    """Integrate ``z_i'' = -a1*z_i' - a0*z_i + b1*z_{i-1}' + b0*z_{i-1}``
    for i = 2..n with z_1 as the input channel.

    ``n`` is an integer > 1, an int or a numpy integer.  All integrated
    channels start from rest (zero initial conditions).
    ``input_fn`` maps a 1-D array of times in [0, duration] to the arrays
    ``(z_1, z_1')`` at those times, as :func:`sine_input` and
    :func:`tabulated_input` build it; without one the input is zero.
    An input value that is not finite raises ValueError naming its time;
    :class:`DivergenceError` is kept for a state that overflows on its own.
    """
    n = _check_value(int, n, "n ")
    if n <= 1:
        raise ValueError("n must be an integer > 1")
    if input_fn is None:
        input_fn = sine_input(0.0, 0.0)
    # z_1 and z_1' are the input, so the columns of A that read them move
    # into B.
    A = _cascade(model, n)
    slots = [0, n]
    B = A[:, slots]
    A[:, slots] = 0.0

    def inputs(t):
        u = np.empty((len(t), 2))
        u[:, 0], u[:, 1] = input_fn(t)
        return u

    t, buf = _integrate_linear(A, B, cfg, inputs, input_cols=slots)
    return ChainSeries(t=t, z=buf[:, :n], zdot=buf[:, n:])


def simulate_state_space(
    params: PlatoonParams,
    cfg: SimConfig,
    leader_force: Callable[[float], float],
) -> StateSeries:
    """Integrate positions/velocities of an n-vehicle platoon under the
    unidirectional constant-spacing controller.

        x_1' = v_1,  v_1' = u/m
        x_i' = v_i,  v_i' = (k/m)(x_{i-1} - x_i) + (c/m)(v_{i-1} - v_i)

    For i = 2..n this is the classic model's error cascade (a0 = b0 = k/m,
    a1 = b1 = c/m) on positions, with the leader integrated as well.

    ``leader_force`` is u(t) in newtons, called with one float at a time,
    once per half-step time; a force that is not finite raises ValueError
    naming its time.  The run starts at the equilibrium: every
    vehicle at rest at its desired spacing.  The state-space form exists
    only for this controller; the other models are simulated through
    :func:`simulate_chain`.
    """
    validate_platoon(params)
    n = params.n
    # State [x_1..x_n, v_1..v_n]; x_1' = v_1 is the one entry outside the
    # cascade.
    A = _cascade(ErrorModel(*_MODELS[_CLASSIC](params)), n)
    A[0, n] = 1.0
    B = np.zeros((2 * n, 1))
    B[n, 0] = 1.0 / params.m

    def inputs(t):
        return np.fromiter(map(leader_force, t.tolist()), float, len(t)).reshape(-1, 1)

    t, buf = _integrate_linear(A, B, cfg, inputs)
    return StateSeries(t=t, x=buf[:, :n], v=buf[:, n:])


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


def write_chain_csv(series: ChainSeries, fh) -> None:
    """Emit ``t,z_1,...,z_n`` rows, one per accepted step."""
    header = "t," + ",".join(f"z_{i + 1}" for i in range(series.n))
    _text.write_rows(fh, header, len(series.t),
                     lambda a, b: [_text.floats(np.column_stack((series.t[a:b], series.z[a:b])))])
