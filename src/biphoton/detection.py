"""Threshold single-photon detector model.

A detector is characterised by a combined collection/detection
efficiency ``alpha`` and a per-gate dark-count probability ``dark``.
It cannot resolve photon number: it either clicks or it does not.
"""

from __future__ import annotations

from .distributions import _check_count, _check_member, _check_real, _record

__all__ = ["DetectorModel", "click_prob"]


class DetectorModel(_record("alpha dark")):
    """Threshold detector with efficiency ``alpha`` and dark probability ``dark``.

    Each may be any real number type but bool and is held as a float, so
    an int, a :class:`fractions.Fraction` or a numpy float32 computes as
    its float twin, in double precision, on every path.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, dark: float = 0.0):
        a, d = _check_real("alpha", alpha), _check_real("dark", dark)
        if not (0 <= a <= 1):
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        if not (0 <= d < 1):
            raise ValueError(f"dark must lie in [0, 1), got {dark}")
        return tuple.__new__(cls, (a, d))


def click_prob(det: DetectorModel, x: int) -> float:
    """Probability that the detector clicks when ``x`` photons arrive.

    1 - (1 - dark) * (1 - alpha)^x, the complement of "no photon fires
    and no dark count fires".
    """
    _check_member("det", det, DetectorModel)
    if type(x) is not int or x < 0:  # a plain int passes without a call
        _check_count("x", x)
    return _click(det.alpha, det.dark, x)


def _click(alpha, dark, x):
    """The click law at ``x`` photons, ``x`` a number or a numpy array:
    algebraically 1 - (1-dark)(1-alpha)^x, arranged so a lone dark count
    comes back as exactly ``dark`` instead of 1 - (1 - dark)."""
    return dark + (1 - dark) * (1 - (1 - alpha) ** x)
