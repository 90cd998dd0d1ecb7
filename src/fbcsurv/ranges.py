"""Hard and soft range classification for pathology observations.

The hard range is the laboratory-reported normal interval [low, high].
The soft range shrinks it by a margin at each end (default 2.5% of the
interval width), so borderline-normal results can be treated as abnormal.
Both intervals are closed: a value exactly on a bound is inside.

`range_codes` is the one rule; it takes scalars or equal-length arrays, so
labeling classifies a whole cohort's observations in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cohort import ReferenceRange

SOFT_MARGIN_DEFAULT = 0.025


class HardStatus(Enum):
    BELOW = -1
    IN_RANGE = 0
    ABOVE = 1


class SoftStatus(Enum):
    OUT_SOFT_LOW = -1
    IN_SOFT = 0
    OUT_SOFT_HIGH = 1


@dataclass(frozen=True)
class RangeStatus:
    hard: HardStatus
    soft: SoftStatus

    @property
    def hard_out(self) -> bool:
        return self.hard is not HardStatus.IN_RANGE

    @property
    def soft_out(self) -> bool:
        return self.soft is not SoftStatus.IN_SOFT


def _shrink(low, high, margin: float):
    if not math.isfinite(margin):
        raise ValueError(f"soft_margin must be finite, got {margin}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = margin * (high - low)
    if not np.isfinite(m).all():
        raise ValueError(f"soft_margin {margin} is too large: margin * (high - low) is not finite")
    return low + m, high - m


def soft_bounds(range_: ReferenceRange, margin: float = SOFT_MARGIN_DEFAULT) -> tuple[float, float]:
    """Shrink a reference range by margin * width at each end.

    For any margin < 0.5 the result never inverts: soft_low < soft_high.
    """
    return _shrink(range_.low, range_.high, margin)


def _code(value, low, high):
    # below is tested first, so a value under an inverted interval (margin > 0.5) is below
    return np.where(np.less(value, low), -1, np.greater(value, high)).astype(np.int8)


def range_codes(value, low, high, margin: float = SOFT_MARGIN_DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Hard and soft codes, -1 below / 0 inside / +1 above, of values against their own ranges.

    Accepts scalars or arrays of equal length; codes are int8 arrays (0-d for scalar input).
    """
    soft_low, soft_high = _shrink(low, high, margin)
    return _code(value, low, high), _code(value, soft_low, soft_high)


def classify_value(value: float, range_: ReferenceRange, margin: float = SOFT_MARGIN_DEFAULT) -> RangeStatus:
    hard, soft = range_codes(value, range_.low, range_.high, margin)
    return RangeStatus(hard=HardStatus(int(hard)), soft=SoftStatus(int(soft)))
