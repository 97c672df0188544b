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
    """Threshold detector with efficiency ``alpha`` and dark probability ``dark``."""

    alpha: float
    dark: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("dark", self.dark)):
            # float and int first: the numbers.Real ABC check is slow
            if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
                raise TypeError(f"{name} must be a real number, got {value!r}")
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
    # algebraically 1 - (1-dark)(1-alpha)^x, arranged so a lone dark
    # count comes back as exactly `dark` instead of 1 - (1 - dark)
    return det.dark + (1 - det.dark) * (1 - (1 - det.alpha) ** x)
