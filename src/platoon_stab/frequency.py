"""Frequency-domain string-stability analysis of spacing-error models.

Every supported controller has the strictly proper adjacent-error transfer
function

    H(s) = (b1*s + b0) / (s^2 + a1*s + a0)

and the platoon attenuates spacing oscillations at angular frequency w
exactly when ``|H(i*w)| < 1``.  Squaring and clearing denominators turns
that norm condition into a sign condition on a quartic in w:

    |H(i*w)| < 1   <=>   Q(w^2) > 0,
    Q(u) = u^2 + alpha*u + beta,
    alpha = a1^2 - b1^2 - 2*a0,   beta = a0^2 - b0^2

so the stability thresholds (critical frequencies, where |H| = 1) are the
square roots of the positive roots of Q.  For the unidirectional
constant-spacing controller a1 = b1 and a0 = b0, hence alpha = -2*k/m and
beta = 0, and the condition collapses to the classic bound w^2 > 2*k/m.

The decision procedures below use raw strict comparisons (no epsilon), so
verdicts are reproducible bit for bit; tests compare against tolerances
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ErrorModel

# Denominator moduli below this are treated as singular.
_SINGULARITY_FLOOR = 1e-300


class SingularityError(ArithmeticError):
    """The transfer-function denominator vanishes at the requested point."""


@dataclass(frozen=True)
class TransferFunction:
    """Rational function ``(b1*s + b0) / (s^2 + a1*s + a0)``."""

    b0: float
    b1: float
    a0: float
    a1: float

    def value_at(self, s: complex) -> complex:
        return (self.b1 * s + self.b0) / (s * s + self.a1 * s + self.a0)

    def __str__(self):
        return (
            f"H(s) = ({self.b1:g}*s + {self.b0:g}) / "
            f"(s^2 + {self.a1:g}*s + {self.a0:g})"
        )


@dataclass(frozen=True)
class FrequencyResponse:
    """Value and modulus of H at ``s = i*omega``."""

    omega: float
    value: complex
    magnitude: float


@dataclass(frozen=True)
class StabilityConstraint:
    """Coefficients of ``Q(u) = u^2 + alpha*u + beta`` with ``u = omega^2``.

    ``Q(omega^2) > 0`` is equivalent to ``|H(i*omega)| < 1`` for every
    omega > 0 at which H is defined.
    """

    alpha: float  # [1/s^2]
    beta: float   # [1/s^4]

    def q(self, u: float) -> float:
        return u * u + self.alpha * u + self.beta


def transfer_function(model: ErrorModel) -> TransferFunction:
    """Laplace-domain adjacent-error ratio of the model."""
    return TransferFunction(b0=model.b0, b1=model.b1, a0=model.a0, a1=model.a1)


def frequency_response(tf: TransferFunction, omega: float) -> FrequencyResponse:
    """Evaluate H at ``s = i*omega``.

    The magnitude is the ratio of numerator and denominator moduli rather
    than ``abs(value)``: when the two moduli are equal (the |H| = 1
    boundary) the ratio is exactly 1.0, which keeps the strict stability
    comparison honest there.  Raises :class:`SingularityError` when the
    denominator modulus falls below 1e-300 (never the case for models
    built from a valid platoon, whose a1 > 0 keeps the denominator away
    from zero for omega > 0).  The arithmetic is that of :func:`sweep`, so
    a sweep row and this function agree bit for bit.
    """
    if not math.isfinite(omega):
        raise ValueError("omega must be finite")
    value, magnitude = _response(tf, np.float64(omega))
    return FrequencyResponse(omega=omega, value=complex(value), magnitude=float(magnitude))


def _response(model, w):
    """``H(i*w)`` and ``|H(i*w)|`` at float64 ``w``, an array or a numpy
    scalar (not a Python float, whose complex division rounds otherwise)."""
    with np.errstate(over="ignore", invalid="ignore"):
        num_re, num_im = np.full_like(w, model.b0), model.b1 * w
        den_re, den_im = model.a0 - w * w, model.a1 * w
        den_mod = np.hypot(den_re, den_im)
        singular = np.extract(den_mod < _SINGULARITY_FLOOR, w)
        if singular.size:
            raise SingularityError(f"transfer function singular at omega = {float(singular[0])!r}")
        value = (num_re + 1j * num_im) / (den_re + 1j * den_im)
        return value, np.hypot(num_re, num_im) / den_mod


def is_stable_at(model: ErrorModel, omega: float) -> bool:
    """Strict attenuation test ``|H(i*omega)| < 1`` at a single frequency.

    Only positive frequencies are meaningful; omega <= 0 raises ValueError.
    """
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    return frequency_response(transfer_function(model), omega).magnitude < 1.0


def stability_constraint(model: ErrorModel) -> StabilityConstraint:
    """Quartic-form stability condition equivalent to ``|H(i*omega)| < 1``
    (elementwise for array coefficients)."""
    alpha = model.a1 * model.a1 - model.b1 * model.b1 - 2.0 * model.a0
    beta = model.a0 * model.a0 - model.b0 * model.b0
    return StabilityConstraint(alpha=alpha, beta=beta)


def _time_scaled(model: ErrorModel, e) -> ErrorModel:
    """The model with time in units of ``2**e`` (integer ``e``, or array):
    ``|H'(i*w)| = |H(i*w*2**e)|`` and ``Q'(u) = Q(u*4**e) / 16**e``.
    Exact while the scaled coefficients stay normal numbers."""
    return ErrorModel(np.ldexp(model.a0, -2 * e), np.ldexp(model.a1, -e),
                      np.ldexp(model.b0, -2 * e), np.ldexp(model.b1, -e))


def critical_frequencies(constraint: StabilityConstraint) -> list[float]:
    """Positive omega where ``Q(omega^2) = 0``, sorted ascending.

    Empty when Q has no positive root, i.e. the model attenuates at every
    omega > 0.
    """
    return [math.sqrt(u) for u in _monic_quadratic_roots(constraint.alpha, constraint.beta) if u > 0.0]


def stable_intervals(constraint: StabilityConstraint) -> list[tuple[float, float]]:
    """Open intervals of omega > 0 where ``Q(omega^2) > 0``.

    The upper bound of the last interval is ``math.inf``; interval
    endpoints themselves are critical frequencies and not stable.
    """
    bounds = [0.0, *critical_frequencies(constraint), math.inf]
    intervals = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        probe = 2.0 * lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
        if constraint.q(probe * probe) > 0.0:
            intervals.append((lo, hi))
    return intervals


def _monic_quadratic_roots(b: float, c: float) -> list[float]:
    """Real roots of ``u^2 + b*u + c``, sorted ascending.

    Uses the cancellation-free form: the root of larger magnitude comes
    from the quadratic formula, the other from the product of roots.
    """
    disc = b * b - 4.0 * c
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-0.5 * b]
    big = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    other = c / big if big != 0.0 else 0.0
    return sorted((big, other))


@dataclass(frozen=True)
class SweepResult:
    """Frequency response sampled on a grid, plus per-point verdicts."""

    omega: np.ndarray
    value: np.ndarray      # complex H(i*omega)
    magnitude: np.ndarray
    stable: np.ndarray     # bool, strict |H| < 1

    @property
    def stable_fraction(self) -> float:
        return float(np.count_nonzero(self.stable)) / len(self.omega)


def sweep(
    model: ErrorModel,
    omega_min: float,
    omega_max: float,
    points: int,
    spacing: str = "log",
) -> SweepResult:
    """Sample ``H(i*omega)`` on a log- or linearly spaced grid.

    Grid points are independent of one another, so results do not depend
    on evaluation order.
    """
    if not omega_min > 0.0:
        raise ValueError("omega range must start above 0")
    if not omega_max > omega_min:
        raise ValueError("omega range must be increasing")
    if points < 2:
        raise ValueError("at least 2 sweep points required")
    if spacing == "log":
        w = np.geomspace(omega_min, omega_max, points)
    elif spacing == "linear":
        w = np.linspace(omega_min, omega_max, points)
    else:
        raise ValueError("spacing must be 'log' or 'linear'")
    value, magnitude = _response(model, w)
    return SweepResult(omega=w, value=value, magnitude=magnitude, stable=magnitude < 1.0)


# Sweep rows formatted per write.
_CSV_CHUNK = 4096
_CSV_ROW = "{!r},{!r},{!r},{!r},{}".format
_CSV_STABLE = ("false\n", "true\n")


def write_sweep_csv(result: SweepResult, fh) -> None:
    """Emit ``omega,re,im,magnitude,stable`` rows, one per grid point."""
    fh.write("omega,re,im,magnitude,stable\n")
    for start in range(0, len(result.omega), _CSV_CHUNK):
        part = slice(start, start + _CSV_CHUNK)
        value = result.value[part]
        floats = (result.omega[part], value.real, value.imag, result.magnitude[part])
        stable = map(_CSV_STABLE.__getitem__, result.stable[part].tolist())
        fh.write("".join(map(_CSV_ROW, *(column.tolist() for column in floats), stable)))
