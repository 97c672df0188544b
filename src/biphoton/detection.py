"""Threshold single-photon detector model.

A detector is characterised by a combined collection/detection
efficiency ``alpha`` and a per-gate dark-count probability ``dark``.
It cannot resolve photon number: it either clicks or it does not.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

__all__ = ["DetectorModel", "click_prob"]


@dataclass(frozen=True)
class DetectorModel:
    """Threshold detector with efficiency ``alpha`` and dark probability ``dark``.

    Each may be any real number type but bool.  Integers are stored as
    int and exact rationals such as :class:`fractions.Fraction` are kept,
    so exact arithmetic passes through; any other real (a numpy float32,
    say) is stored as a float, so every rate is computed in double
    precision.
    """

    alpha: float
    dark: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("dark", self.dark)):
            # float and int first: the numbers.Real ABC check is slow
            if type(value) in (float, int):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            if isinstance(value, numbers.Integral):
                object.__setattr__(self, name, int(value))
            elif not isinstance(value, numbers.Rational):
                object.__setattr__(self, name, float(value))
        if not (0 <= self.alpha <= 1):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (0 <= self.dark < 1):
            raise ValueError(f"dark must lie in [0, 1), got {self.dark}")


def click_prob(det: DetectorModel, x: int):
    """Probability that the detector clicks when ``x`` photons arrive.

    1 - (1 - dark) * (1 - alpha)^x, the complement of "no photon fires
    and no dark count fires".

    Arithmetic is plain Python, so exact types such as
    :class:`fractions.Fraction` pass through unchanged.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return _click(det.alpha, det.dark, x)


def _click(alpha, dark, x):
    """The click law at ``x`` photons, ``x`` a number or a numpy array:
    algebraically 1 - (1-dark)(1-alpha)^x, arranged so a lone dark count
    comes back as exactly ``dark`` instead of 1 - (1 - dark)."""
    return dark + (1 - dark) * (1 - (1 - alpha) ** x)
