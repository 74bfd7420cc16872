"""Censored numeric values: quantities known only to meet a lower bound."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AtLeast:
    """A value known only to be >= bound (truncation-censored)."""

    bound: int

    def __str__(self):
        return f">={self.bound}"


def is_censored(value):
    return isinstance(value, AtLeast)


def censor(value, bound):
    """value when it is known and below bound, else AtLeast(bound)."""
    if value is not None and value < bound:
        return value
    return AtLeast(bound)
