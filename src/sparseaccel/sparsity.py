"""Ineffectual-value criteria and the mask algebra behind skip decisions.

Masks are boolean numpy arrays indexed by offset within a brick. Activation
masks use True = effectual (worth computing). Weight ineffectuality vectors
use the opposite polarity, True = ineffectual, because the skip predicate
consumes them directly: a position can be skipped when every resident
filter's weight there is ineffectual or the activation itself is.

Criteria compare integer values in their own dtype against a symmetric
bound, so classifying an int16 tensor allocates only boolean arrays and
the most negative value of any integer type is never wrapped by abs.

When a mask is rendered as a string, offset 0 is the leftmost character.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tensor import _int_in, _require_type

_PARAM_MAX = {"zero": 0, "abs": (1 << 16) - 1, "pow2": 16}  # each kind's largest parameter
_KINDS = tuple(_PARAM_MAX)  # a kind's header tag is its index


@dataclass(frozen=True)
class IneffCriterion:
    """Classifier for values whose products contribute nothing useful.

    kind "zero":  value == 0.
    kind "abs":   |value| <= param. param = 0 behaves exactly like "zero".
    kind "pow2":  |value| < 2**param, that is |value| <= 2**param - 1.
                  param = 0 leaves only 0 ineffectual.

    Every kind classifies 0 as ineffectual, which the codecs rely on.
    """

    kind: str = "zero"
    param: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown criterion kind {self.kind!r}, expected one of {_KINDS}")
        object.__setattr__(self, "param", _int_in(self.param, 0, _PARAM_MAX[self.kind],
                                                  f"{self.kind} parameter", ValidationError))

    def ineffectual(self, values) -> np.ndarray:
        """Boolean array, True where an integer value's products may be dropped.

        Values are compared in their own dtype against the bound t
        (|value| <= t), so nothing is widened and no magnitude can wrap.
        """
        v = np.asarray(values)
        t = (1 << self.param) - 1 if self.kind == "pow2" else self.param
        if t == 0:
            return v == 0
        inside = v >= -t
        inside &= v <= t
        return inside

    def effectual(self, values) -> np.ndarray:
        return ~self.ineffectual(values)

    @classmethod
    def abs_threshold(cls, t: int) -> "IneffCriterion":
        return cls("abs", t)

    @classmethod
    def power_of_two(cls, k: int) -> "IneffCriterion":
        return cls("pow2", k)

    @classmethod
    def parse(cls, text: str) -> "IneffCriterion":
        """Parse "zero", "abs:T", or "pow2:K"."""
        parts = text.strip().lower().split(":")
        kind = parts[0]
        if kind == "zero" and len(parts) == 1:
            return cls("zero")
        if kind in ("abs", "pow2") and len(parts) == 2:
            try:
                param = int(parts[1])
            except ValueError:
                raise ValidationError(f"criterion parameter {parts[1]!r} is not an int") from None
            return cls(kind, param)
        raise ValidationError(f"cannot parse criterion {text!r}; expected zero, abs:T, or pow2:K")

    def spec(self) -> str:
        """Inverse of `parse`."""
        return self.kind if self.kind == "zero" else f"{self.kind}:{self.param}"


ZERO = IneffCriterion()


class GroupScope(enum.Enum):
    """Which filters a weight-product skip must cover.

    PASS_WIDE: every filter resident in the pass (tiles * filters_per_tile),
    the configuration where a skip requires all resident weights dead.
    PER_TILE: only the filters_per_tile filters of one tile; each tile gets
    its own stream, lanes wait for the slowest tile.
    """

    PASS_WIDE = "pass"
    PER_TILE = "tile"


def _brick_values(brick) -> np.ndarray:
    return np.asarray(getattr(brick, "values", brick))


def effectual_mask(brick, crit: IneffCriterion = ZERO) -> np.ndarray:
    """Per-offset effectuality bits for one brick (True = effectual)."""
    _require_type(crit, IneffCriterion, "criterion")
    return crit.effectual(_brick_values(brick))


def is_vector(weight_brick, crit: IneffCriterion = ZERO) -> np.ndarray:
    """Weight ineffectuality bits (True = ineffectual), the complement polarity."""
    _require_type(crit, IneffCriterion, "criterion")
    return crit.ineffectual(_brick_values(weight_brick))


def is_product(group) -> np.ndarray:
    """AND together a group of weight ineffectuality vectors.

    Bit j of the result is True only when every vector in the group marks
    offset j ineffectual; a single filter with an effectual weight anywhere
    clears that offset for the whole group.
    """
    arr = np.asarray([np.asarray(v, dtype=bool) for v in group], dtype=bool)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValidationError("is_product needs a non-empty group of equal-length vectors")
    return arr.all(axis=0)


def can_skip(mask: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """Combined skip bits: True where the weight product is dead or the activation is.

    ``mask`` is an activation effectuality mask (True = effectual) and
    ``prod`` an `is_product` result (True = all weights ineffectual).
    """
    mask = np.asarray(mask, dtype=bool)
    prod = np.asarray(prod, dtype=bool)
    if mask.shape != prod.shape:
        raise ValidationError(f"mask shape {mask.shape} != product shape {prod.shape}")
    return prod | ~mask


def mask_to_string(mask) -> str:
    """Render a mask with offset 0 leftmost, e.g. array([T,T,F,T]) -> '1101'."""
    return "".join("1" if b else "0" for b in np.asarray(mask, dtype=bool))


def mask_from_string(text: str) -> np.ndarray:
    if not text or any(c not in "01" for c in text):
        raise ValidationError(f"mask string must be non-empty 0/1 characters, got {text!r}")
    return np.array([c == "1" for c in text], dtype=bool)
