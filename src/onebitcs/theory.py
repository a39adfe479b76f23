"""Deterministic theory curves: level counts, radius/net schedules, exponents.

These are closed-form quantities; nothing here is random. The level count L is
the largest integer with m^((1/40)(5/6)^L) > 24, which requires m beyond 24^48
to reach even L = 1, far past desk scale. The schedule can still be evaluated
at any requested depth for diagnostics via the ``levels`` argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError

_LVL_BASE = 5.0 / 6.0
_LVL_THRESHOLD = 40.0 * math.log(24.0)  # defining inequality: (5/6)^L * ln m > this


@dataclass(frozen=True)
class ScheduleConstants:
    """Configurable constants of the bound schedule.

    cb bounds the Gaussian width of the unit 2s-sparse ball, cb_lower is the
    concentration constant, and c10 is the embedding constant. When c10 is not
    given it defaults to max{c_l, c_L, 2*cb^2} + pi with the placeholder values
    c_l = c_L = 1 (no numeric value exists for them upstream).
    """

    cb: float = 1.0
    cb_lower: float = 1.0
    c10: float | None = None

    def __post_init__(self):
        if not (0 < self.cb < math.inf and 0 < self.cb_lower < math.inf):  # also rejects NaN
            raise InvalidArgumentError("cb and cb_lower must be finite and positive")
        if self.c10 is not None and not 0 < self.c10 < math.inf:
            raise InvalidArgumentError("c10 must be finite and positive")

    @property
    def c10_is_placeholder_derived(self) -> bool:
        return self.c10 is None

    @property
    def effective_c10(self) -> float:
        if self.c10 is not None:
            return self.c10
        return max(1.0, 1.0, 2.0 * self.cb**2) + math.pi

    def as_dict(self) -> dict[str, float]:
        return {"cb": self.cb, "cb_lower": self.cb_lower, "c10": self.effective_c10}


def size_constant(N: int, s: int, m: float, constants: ScheduleConstants | None = None) -> float:
    """The size-dependent uniform bound 3*(cb*sqrt(s*log(N/s)) + sqrt(5*log(m)/cb_lower))."""
    constants = constants or ScheduleConstants()
    if not 1 <= s <= N:
        raise InvalidArgumentError("need 1 <= s <= N")
    if not 2 <= m < math.inf:  # also rejects NaN
        raise InvalidArgumentError("need finite m >= 2")
    width_term = constants.cb * math.sqrt(s * math.log(N / s))
    tail_term = math.sqrt(5.0 * math.log(m) / constants.cb_lower)
    return 3.0 * (width_term + tail_term)


def level_count(m: float) -> tuple[int, bool]:
    """Largest L with m^((1/40)(5/6)^L) > 24, and whether any level qualifies.

    Returns (0, False) when not even L = 0 satisfies the inequality (m too
    small); otherwise (L, True).
    """
    if not 2 <= m < math.inf:  # also rejects NaN
        raise InvalidArgumentError("need finite m >= 2")
    log_m = math.log(m)
    if log_m <= _LVL_THRESHOLD:  # level 0 already fails
        return 0, False
    level = 0
    while (_LVL_BASE ** (level + 1)) * log_m > _LVL_THRESHOLD:
        level += 1
    return level, True


def error_exponent(k: int) -> float:
    """Iteration-k decay exponent 1 - (1/2)(5/6)^(floor(k/25) - 1); tends to 1."""
    if k < 0:
        raise InvalidArgumentError("iteration index must be nonnegative")
    return 1.0 - 0.5 * _LVL_BASE ** (k // 25 - 1)


@dataclass(frozen=True)
class TheorySchedule:
    """Radius sequence r_i, net resolutions delta_i, and level metadata."""

    m: float
    N: int
    s: int
    constants: ScheduleConstants
    c_nsm: float
    L: int
    threshold_met: bool
    r: tuple[float, ...]
    delta: tuple[float, ...]

    @property
    def r_nonincreasing(self) -> bool:
        return all(b <= a for a, b in zip(self.r, self.r[1:]))


def _radius(i: int, m: float, c10: float, c_nsm: float) -> float:
    # closed form for the level-i radius, i >= 1
    p = _LVL_BASE ** (i - 1)
    log_m = math.log(m)
    return (
        (600.0 * c10) ** (3.0 * (1.0 - p))
        * math.exp(-(1.0 - 0.5 * p) * log_m)
        * log_m ** (7.0 * (1.0 - p))
        * c_nsm ** (6.0 - 5.0 * p)
    )


def _net_resolution(i: int, m: float, c10: float, c_nsm: float) -> float:
    # closed form for the level-i net resolution, i >= 1
    p = _LVL_BASE ** (i - 1)
    log_m = math.log(m)
    return (
        (600.0 * c10) ** (2.0 * (1.0 - p))
        * math.exp(-(1.0 - p / 3.0) * log_m)
        * log_m ** ((14.0 / 3.0) * (1.0 - p) + 4.0 / 3.0)
        * c_nsm ** (5.0 - (10.0 / 3.0) * p)
    )


def theory_schedule(
    m: float,
    N: int,
    s: int,
    constants: ScheduleConstants | None = None,
    levels: int | None = None,
) -> TheorySchedule:
    """Evaluate the bound schedule at (m, N, s).

    ``levels`` overrides how many sequence entries to emit (default: exactly L,
    so the faithful schedule is empty below the validity threshold). The
    sequences satisfy r_{i+1}^2 = 600*c10*log(m)*r_i*delta_i*C(N,s,m) and
    delta_i = C(N,s,m)*(r_i^2*log(m)/m)^(1/3)*log(m) identically.
    """
    constants = constants or ScheduleConstants()
    c_nsm = size_constant(N, s, m, constants)
    L, met = level_count(float(m))
    depth = L if levels is None else levels
    if depth < 0:
        raise InvalidArgumentError("levels must be nonnegative")
    c10 = constants.effective_c10
    r = tuple(_radius(i, float(m), c10, c_nsm) for i in range(1, depth + 1))
    delta = tuple(_net_resolution(i, float(m), c10, c_nsm) for i in range(1, depth + 1))
    return TheorySchedule(
        m=float(m),
        N=N,
        s=s,
        constants=constants,
        c_nsm=c_nsm,
        L=L,
        threshold_met=met,
        r=r,
        delta=delta,
    )
