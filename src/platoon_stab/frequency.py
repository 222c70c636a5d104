"""Frequency-domain string-stability analysis of spacing-error models.

Every supported controller has the strictly proper adjacent-error transfer
function

    H(s) = (b1*s + b0) / (s^2 + a1*s + a0)

the Laplace transform of its spacing-error equation.  So an
:class:`ErrorModel` is H: its four coefficients are H's, ``str(model)`` is
the formula above, and :func:`frequency_response` takes the model.  The
platoon attenuates spacing oscillations at angular frequency w exactly
when ``|H(i*w)| < 1``.  Squaring and clearing denominators turns that norm
condition into a sign condition on a quartic in w:

    |H(i*w)| < 1   <=>   Q(w^2) > 0,
    Q(u) = u^2 + alpha*u + beta,
    alpha = a1^2 - b1^2 - 2*a0,   beta = a0^2 - b0^2

so the stability thresholds (critical frequencies, where |H| = 1) are the
square roots of the positive roots of Q.  Q is monic, so the stable set is
read off its roots: below the smaller and above the larger.  The roots are
found with u in a power-of-two unit, so the discriminant cannot overflow or
underflow; an overflowed alpha or beta is refused (``analyze`` and ``sweep``
exit 2).  For the unidirectional constant-spacing controller a1 = b1 and
a0 = b0, hence alpha = -2*k/m and beta = 0, and the condition collapses to
the classic bound w^2 > 2*k/m.

This module alone picks power-of-two time units, and it picks three: the
frequency unit of :func:`_w_scaled`, for ``|H|`` and P2; the rate unit of
:func:`_rate_exponent`, for the trace generator's stable band
(:func:`_stable_band`); and the unit of alpha and beta inside the root
finder, :func:`_q_roots`.  Each is exact while the scaled numbers stay
normal.  P2, the monitor's ``w > 0 and Q(w^2) > 0`` (:func:`_attenuates`),
holds over the float range: where ``Q(w^2)`` evaluated as written is not a
normal number (nan where ``w^4`` or a coefficient square overflowed to
inf - inf, 0 or subnormal where they underflowed), it is evaluated again
on the frequency unit of :func:`_w_scaled`.  That scaling is exact and
leaves H, hence the sign of Q, unchanged.  It falls short where w lies far
below a rate of 1 or more, which that unit does not scale.

The decision procedures below use raw strict comparisons (no epsilon), so
verdicts are reproducible bit for bit; tests compare against tolerances
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _text
from .model import ErrorModel, _allocating, _check_model, _check_value

class SingularityError(ArithmeticError):
    """The transfer-function denominator vanishes at the requested point."""


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


def transfer_function(model: ErrorModel) -> ErrorModel:
    """Laplace-domain adjacent-error ratio H of the model: the model itself,
    whose four coefficients are those of H."""
    return model


def frequency_response(model: ErrorModel, omega: float) -> FrequencyResponse:
    """Evaluate the model's H at ``s = i*omega``.

    The magnitude is the ratio of numerator and denominator moduli rather
    than ``abs(value)``: when the two moduli are equal (the |H| = 1
    boundary) the ratio is exactly 1.0, which keeps the strict stability
    comparison honest there.  Raises :class:`SingularityError` only where
    the denominator modulus, on the time scale of :func:`_w_scaled`, is
    exactly 0: a valid platoon has a1 > 0, which keeps the denominator
    away from zero for omega > 0.  On that scale, where the larger of w and
    the model's largest rate is near 1, ``a1*w`` underflows where
    ``a0 = w^2`` only when a1 lies far below that rate.  The arithmetic is
    that of :func:`sweep`, so a sweep row and this function agree bit for
    bit.  The model's four coefficients are read through
    ``model._check_model``: one that is not a finite number is a ValueError
    naming it.
    """
    omega = _check_value(float, omega, "omega ")
    value, magnitude = _response(_check_model(model), np.float64(omega))
    return FrequencyResponse(omega=omega, value=complex(value), magnitude=float(magnitude))


def _response(model, w):
    """``H(i*w)`` and ``|H(i*w)|`` at float64 ``w``, an array or a numpy
    scalar (not a Python float, whose complex division rounds otherwise), on
    the time scale of :func:`_w_scaled`; singular where the denominator's
    modulus there is exactly 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled, v = _w_scaled(model, w)
        num_re, num_im = scaled.b0, scaled.b1 * v
        den_re, den_im = scaled.a0 - v * v, scaled.a1 * v
        den_mod = np.hypot(den_re, den_im)
        singular = np.extract(den_mod == 0.0, w)
        if singular.size:
            raise SingularityError(f"transfer function singular at omega = {float(singular[0])!r}")
        value = (num_re + 1j * num_im) / (den_re + 1j * den_im)
        return value, np.hypot(num_re, num_im) / den_mod


def is_stable_at(model: ErrorModel, omega: float) -> bool:
    """Strict attenuation test ``|H(i*omega)| < 1`` at a single frequency.

    Only positive frequencies are meaningful; omega <= 0 raises ValueError,
    and so does a model coefficient that is not a finite number (see
    :func:`frequency_response`).
    """
    if not _check_value(float, omega, "omega ") > 0.0:
        raise ValueError("omega must be positive")
    return frequency_response(model, omega).magnitude < 1.0


def stability_constraint(model: ErrorModel) -> StabilityConstraint:
    """Quartic-form stability condition equivalent to ``|H(i*omega)| < 1``
    (elementwise for array coefficients, and exact on ``Fraction`` ones)."""
    alpha = model.a1 * model.a1 - model.b1 * model.b1 - 2 * model.a0
    beta = model.a0 * model.a0 - model.b0 * model.b0
    return StabilityConstraint(alpha=alpha, beta=beta)


def _time_scaled(model: ErrorModel, e) -> ErrorModel:
    """The model with time in units of ``2**e`` (integer ``e``, or array):
    ``|H'(i*w)| = |H(i*w*2**e)|`` and ``Q'(u) = Q(u*4**e) / 16**e``.
    Exact while the scaled coefficients stay normal numbers."""
    return ErrorModel(np.ldexp(model.a0, -2 * e), np.ldexp(model.a1, -e),
                      np.ldexp(model.b0, -2 * e), np.ldexp(model.b1, -e))


def _rate_exponent(model: ErrorModel):
    """The binary exponent of the model's largest rate, of ``sqrt|a0|``,
    ``|a1|``, ``sqrt|b0|`` and ``|b1|``: time in units of ``2**e`` brings
    that rate into [0.5, 1).  0 where the rate is inf or nan."""
    return np.frexp(np.maximum.reduce([np.sqrt(np.abs(model.a0)), np.abs(model.a1),
                                       np.sqrt(np.abs(model.b0)), np.abs(model.b1)]))[1]


def _w_scaled(model: ErrorModel, w):
    """The model and ``w`` with time in units of ``2**e``.  A w of 1 or more
    is brought into [0.5, 1).  A smaller w is scaled up until it or the
    model's largest rate (:func:`_rate_exponent`) reaches [0.5, 1); not at
    all where that rate is 1 or more.  So no coefficient overflows, and
    ``|H|`` and the sign of Q are unchanged."""
    e = np.maximum(np.frexp(w)[1], np.minimum(_rate_exponent(model), 0))
    return _time_scaled(model, e), np.ldexp(w, -e)


# The smallest normal float64: a Q of less magnitude, or nan, is evaluated again.
_TINY = np.finfo(np.float64).tiny


def _attenuates(model: ErrorModel, w):
    """P2, ``w > 0 and Q(w^2) > 0``, of a model of coefficient arrays and
    an array of frequencies, one row per event: the monitor's scan, and
    its ``check_p2`` on one-element arrays.  Q is evaluated again on the
    frequency unit of :func:`_w_scaled` wherever it is not a normal number:
    nan where ``w^4`` or a coefficient square overflowed to inf - inf, and
    0 or subnormal where they underflowed.  One test, ``|Q|`` not at least
    the smallest normal (true for nan), picks both the blocks that need
    the second pass, by the least ``|Q|`` of the block, and their rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = stability_constraint(model).q(w * w)
        if not np.abs(q).min(initial=_TINY) >= _TINY:
            redo = np.flatnonzero(~(np.abs(q) >= _TINY) & (w > 0.0))
            part = ErrorModel(*(c[redo] for c in vars(model).values()))
            part, w_redo = _w_scaled(part, w[redo])
            q[redo] = stability_constraint(part).q(w_redo * w_redo)
        return (w > 0.0) & (q > 0.0)


def _stable_band(model: ErrorModel):
    """The roots ``lo <= hi`` of Q in ``u = w^2`` (nan where complex), on
    floats or arrays: the model attenuates below ``lo`` and above ``hi``.
    They are found on the rate unit of :func:`_rate_exponent`, where alpha
    and beta cannot overflow, and scaled back exactly by ``4**e``.  A root
    beyond the float range comes back as an infinity, and a model with an
    inf or nan coefficient can give infinities or nan; neither warns."""
    e = _rate_exponent(model)
    with np.errstate(over="ignore", invalid="ignore"):
        con = stability_constraint(_time_scaled(model, e))
        return tuple(np.ldexp(root, 2 * e) for root in _q_roots(con.alpha, con.beta))


def critical_frequencies(constraint: StabilityConstraint) -> list[float]:
    """Positive omega where ``Q(omega^2) = 0``, sorted ascending.

    Empty when Q has no positive root, i.e. the model attenuates at every
    omega > 0.
    """
    return sorted({end for span in stable_intervals(constraint) for end in span} - {0.0, math.inf})


def stable_intervals(constraint: StabilityConstraint) -> list[tuple[float, float]]:
    """Open intervals of omega > 0 where ``Q(omega^2) > 0``; the last ends at
    ``math.inf``.  Endpoints are critical frequencies and not stable.
    Raises ValueError when alpha or beta is not finite.
    """
    alpha, beta = constraint.alpha, constraint.beta
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"stability constraint overflows: alpha = {alpha!r}, beta = {beta!r}")
    lo, hi = _q_roots(alpha, beta)
    if not hi > 0.0:  # no real root, or none positive
        return [(0.0, math.inf)]
    below = [(0.0, math.sqrt(lo))] if lo > 0.0 else []
    return below + [(math.sqrt(hi), math.inf)]


def _q_roots(alpha, beta):
    """Real roots ``lo <= hi`` of ``Q(u) = u^2 + alpha*u + beta`` (nan where
    complex), on floats or arrays.  u is measured in the power of two just
    above the larger of ``|alpha|`` and ``sqrt(|beta|)``, exact in range; the
    root of larger magnitude comes from the formula, the other from the
    product of the roots."""
    with np.errstate(invalid="ignore"):
        e = np.frexp(np.maximum(np.abs(alpha), np.sqrt(np.abs(beta))))[1]
        a = np.ldexp(alpha, -e)
        big = np.ldexp(-0.5 * (a + np.copysign(np.sqrt(a * a - 4.0 * np.ldexp(beta, -2 * e)), a)), e)
        other = beta / np.where(big == 0.0, 1.0, big)  # big is 0 only when alpha = beta = 0
        return np.minimum(big, other), np.maximum(big, other)


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
    on evaluation order.  The range is read as finite floats and
    ``points`` as an integer, through ``model._check_value``, and the
    model's coefficients as in :func:`frequency_response`, before any
    point is computed.
    """
    model = _check_model(model)
    omega_min = _check_value(float, omega_min, "omega_min ")
    omega_max = _check_value(float, omega_max, "omega_max ")
    points = _check_value(int, points, "points ")
    if not omega_min > 0.0:
        raise ValueError("omega range must start above 0")
    if not omega_max > omega_min:
        raise ValueError("omega range must be increasing")
    if points < 2:
        raise ValueError("at least 2 sweep points required")
    if spacing not in ("log", "linear"):
        raise ValueError("spacing must be 'log' or 'linear'")
    with _allocating("a sweep", points, "points"):
        w = (np.geomspace if spacing == "log" else np.linspace)(omega_min, omega_max, points)
    value, magnitude = _response(model, w)
    return SweepResult(omega=w, value=value, magnitude=magnitude, stable=magnitude < 1.0)


_CSV_STABLE = _text.texts(("false", "true"))


def write_sweep_csv(result: SweepResult, fh) -> None:
    """Emit ``omega,re,im,magnitude,stable`` rows, one per grid point."""
    def fields(a, b):
        value = result.value[a:b]
        floats = np.column_stack((result.omega[a:b], value.real, value.imag, result.magnitude[a:b]))
        return _text.floats(floats), _text.pick(_CSV_STABLE, result.stable[a:b])

    _text.write_rows(fh, "omega,re,im,magnitude,stable", len(result.omega), fields)
