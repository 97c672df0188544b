"""Time-bin entangled pair rates: the polarization model seen through
half-efficiency detectors.

A time-bin qubit occupies one of two slots behind an unbalanced
interferometer.  Each analyzer output collects a photon from a given
slot only when it takes the matching interferometer arm, which happens
with amplitude 1/2; the net effect on the threshold detector is a
halved efficiency, alpha -> alpha/2, while dark counts are untouched.
``mu`` counts the mean pair number over the two slots together.

A port pair is the ``Setting.TIMEBIN_*`` member whose polarization twin
is HH for same-slot (aa), HV for opposite-slot (ab) and HPLUS for
slot-vs-superposition (a+); :meth:`Setting.resolve` applies the
detector map, so every rate here is the twin's rate at alpha/2.
"""

from __future__ import annotations

import math
from enum import Enum

from .detection import DetectorModel
from .distributions import PairSource, SourceKind, TruncationPolicy
from .polarization import (
    HplusModel,
    RateEntry,
    RateMethod,
    Setting,
    closed_form_rates,
    coincidence_rate,
)

__all__ = ["TimebinPort", "timebin_rate", "fringe_per_pair"]


class TimebinPort(Enum):
    AA = "aa"
    AB = "ab"
    APLUS = "aplus"


def timebin_rate(
    kind: SourceKind,
    port: TimebinPort,
    mu: float,
    alpha_s: float,
    alpha_i: float,
    dark_s: float = 0.0,
    dark_i: float = 0.0,
    method: RateMethod = RateMethod.EXACT_SERIES,
    policy: TruncationPolicy = TruncationPolicy(),
    hplus_model: HplusModel = HplusModel.COHERENT,
) -> RateEntry:
    """Coincidence rate of a time-bin analyzer port pair.

    The efficiencies are those of the detectors themselves and must lie
    in [0, 1]; the returned entry's ``setting`` is the polarization
    twin the rate was computed for.
    """
    setting, det_s, det_i = Setting(f"timebin-{port.value}").resolve(
        kind, DetectorModel(alpha_s, dark_s), DetectorModel(alpha_i, dark_i)
    )
    if method is RateMethod.EXACT_SERIES:
        return coincidence_rate(PairSource(kind, mu), setting, det_s, det_i, policy, hplus_model)
    if method is not RateMethod.CLOSED_FORM:
        raise ValueError(f"unsupported time-bin method {method}")
    rep = closed_form_rates(kind, mu, det_s.alpha, det_i.alpha, det_s.dark, det_i.dark)
    value = getattr(rep, f"r_{setting.value}")  # r_hh, r_hv or r_hplus
    model = hplus_model if setting is Setting.HPLUS else None
    return RateEntry(value, setting, RateMethod.CLOSED_FORM, 0, model)


def fringe_per_pair(phase_sum: float) -> float:
    """Single-pair same-slot coincidence fringe versus the summed phase.

    (1 + cos(phase)) / 16: peak 1/8 at zero phase, zero at pi, where the
    opposite-slot fringe peaks instead.
    """
    return (1.0 + math.cos(phase_sum)) / 16.0
