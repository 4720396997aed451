"""Search-then-convergence decay schedules for exploration and planning depth.

The schedule value at iteration t is  max(initial / (1 + y), floor)  with
y = t^2 / (smoothing + t): flat early (search), then roughly ~1/t decay
(convergence) until the floor binds.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class StcSchedule:
    initial: float
    floor: float
    smoothing: float

    def __post_init__(self):
        # nan passes every comparison below: a nan floor acts as 0 (max(x, nan)
        # is x), an infinite smoothing holds the value, and a nan or infinite
        # initial would fail only later, in stc_steps' round()
        for name in ("initial", "floor", "smoothing"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.initial < self.floor:
            raise ValueError(f"initial {self.initial} below floor {self.floor}")
        if self.floor < 0.0:
            raise ValueError(f"floor must be >= 0, got {self.floor}")
        if self.smoothing <= 0.0:
            raise ValueError(f"smoothing must be > 0, got {self.smoothing}")


def constant(value: float) -> StcSchedule:
    """A schedule that stays at `value` for all t."""
    return StcSchedule(initial=value, floor=value, smoothing=1.0)


def stc_value(sched: StcSchedule, t: int) -> float:
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    y = t * t / (sched.smoothing + t)
    return max(sched.initial / (1.0 + y), sched.floor)


def stc_steps(sched: StcSchedule, t: int) -> int:
    """Integer-valued schedule (planning steps); round-half-to-even, never below round(floor)."""
    return round(stc_value(sched, t))
