"""Pair-number statistics of pulsed photon-pair sources.

Four source kinds are modelled, each fully parameterised by the mean
pair number ``mu`` per pulse:

* ``INDIS_ENTANGLED``   -- entangled pairs emitted into a single
  temporal mode; the pair number follows a negative-binomial law of
  order 2.
* ``DIS_ENTANGLED``     -- entangled pairs spread over many mutually
  distinguishable modes; Poissonian pair number.
* ``DIS_CORRELATED``    -- correlated (non-entangled) pairs over many
  modes; Poissonian pair number.
* ``THERMAL_CORRELATED`` -- correlated pairs in a single mode; thermal
  (geometric) pair number.

All series over the pair number are truncated with a certified tail
bound so that the neglected probability mass is provably below a
caller-chosen epsilon.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from itertools import accumulate, count, islice, repeat

__all__ = [
    "CapExceeded",
    "SourceKind",
    "PairSource",
    "TruncationPolicy",
    "pmf",
    "pmf_values",
    "truncation_index",
]


class CapExceeded(ValueError):
    """Certified truncation would need more terms than the hard cap allows,
    or the pmf or a closed form at this mu is not representable in floats."""


def _check_count(name: str, value, least: int = 0) -> None:
    """The one rule for a count argument: an int, not a bool, of at least
    ``least``; a float such as 2.0 is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_real(name: str, value) -> float:
    """The one rule for a real argument: any real but bool, held as a float.
    An int or Fraction beyond the float range, of either sign, becomes inf,
    which every caller's range check refuses by name."""
    # float and int first: the numbers.Real ABC check is slow
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _check_member(name: str, value, cls: type) -> None:
    """The one rule for an enum or object argument: an instance of ``cls``;
    an enum's value string (``"independent"``) is refused, not looked up."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {value!r}")


def _record(fields: str) -> type:
    """The one base of every value type: a named tuple of ``fields`` that
    equals only a value of its own type, never a plain tuple or another
    type with the same fields, hashed as the tuple of its fields.
    ``_replace`` builds through the type, so a checked type checks it."""
    eq, ne = tuple.__eq__, tuple.__ne__

    class Record(namedtuple("Record", fields)):
        __slots__ = ()
        __hash__ = tuple.__hash__

        def __eq__(self, other):
            return other.__class__ is self.__class__ and eq(self, other)

        def __ne__(self, other):
            return other.__class__ is not self.__class__ or ne(self, other)

        def __lt__(self, other):  # no order or tuple arithmetic, a tuple on either side
            raise TypeError(f"{self.__class__.__name__} values have no order and no arithmetic")
        __le__ = __gt__ = __ge__ = __add__ = __radd__ = __mul__ = __rmul__ = __lt__

        @classmethod
        def _make(cls, iterable):
            return cls(*iterable)

    return Record


class SourceKind(Enum):
    INDIS_ENTANGLED = "indis-entangled"
    DIS_ENTANGLED = "dis-entangled"
    DIS_CORRELATED = "dis-correlated"
    THERMAL_CORRELATED = "thermal-correlated"
    __hash__ = object.__hash__  # members are singletons: hash them by identity, in C

    @property
    def entangled(self) -> bool:
        return self in (SourceKind.INDIS_ENTANGLED, SourceKind.DIS_ENTANGLED)

    @property
    def correlated(self) -> bool:
        return not self.entangled

    @property
    def poissonian(self) -> bool:
        return self in (SourceKind.DIS_ENTANGLED, SourceKind.DIS_CORRELATED)


class PairSource(_record("kind mu")):
    """A photon-pair source of a given kind with mean pair number ``mu``.

    ``mu`` may be any real number type but bool; it is held as a float."""

    __slots__ = ()

    def __new__(cls, kind: SourceKind, mu: float):
        _check_member("kind", kind, SourceKind)
        value = _check_real("mu", mu)
        if not 0 <= value < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {mu!r}")
        return tuple.__new__(cls, (kind, value))


class TruncationPolicy(_record("tail_epsilon hard_cap")):
    """Tail requirement for pair-number series.

    ``tail_epsilon`` bounds the total probability mass allowed beyond the
    truncation index; ``hard_cap`` bounds the index itself.  Exceeding the
    cap raises :class:`CapExceeded` rather than truncating silently.
    """

    __slots__ = ()

    def __new__(cls, tail_epsilon: float = 1e-12, hard_cap: int = 200):
        eps = _check_real("tail_epsilon", tail_epsilon)
        if not (0.0 < eps < 1.0):
            raise ValueError(f"tail_epsilon must lie in (0, 1), got {tail_epsilon}")
        _check_count("hard_cap", hard_cap)
        return tuple.__new__(cls, (eps, hard_cap))


def _pmf0(source: PairSource) -> float:
    """P(x=0), the start of the multiplicative recurrence.  A P(0) below
    the smallest normal float would make every pmf value, and a certified
    tail, 0 or inexact, so it raises :class:`CapExceeded`, naming the
    largest mu the kind's law takes."""
    mu = source.mu
    if source.kind is SourceKind.INDIS_ENTANGLED:
        law, top = "1/(1 + mu/2)^2", "1.34e154"  # 2^512
        # (1 + mu/2)^2 overflows from mu = 2^513, where P(0) is 0 in floats
        p0 = 1.0 / (1.0 + mu / 2.0) ** 2 if mu < 2.0**513 else 0.0
    elif source.kind is SourceKind.THERMAL_CORRELATED:
        law, top = "1/(1 + mu)", "4.49e307"  # 2^1022
        p0 = 1.0 / (1.0 + mu)
    else:
        law, top = "exp(-mu)", "708"
        p0 = math.exp(-mu)
    if p0 < sys.float_info.min:
        raise CapExceeded(
            f"P(0) = {law} underflows for {source.kind.value} source with mu={mu:g}; "
            f"use mu <= {top}"
        )
    return p0


def _ratios(source: PairSource) -> Iterator[float]:
    """pmf(x+1)/pmf(x) for x = 0, 1, 2, ...  Non-increasing in x for
    every supported kind.  Each is one C-level iterator, so a sweep makes
    no Python call per term."""
    mu = source.mu
    if source.kind is SourceKind.INDIS_ENTANGLED:
        r = (mu / 2.0) / (1.0 + mu / 2.0)
        return map(operator.truediv, map(operator.mul, repeat(r), count(2)), count(1))
    if source.kind is SourceKind.THERMAL_CORRELATED:
        return repeat(mu / (1.0 + mu))
    return map(operator.truediv, repeat(mu), count(1))


def _pmfs(source: PairSource) -> Iterator[float]:
    """pmf(0), pmf(1), ...: the multiplicative recurrence from P(0), in
    which no factorials or large powers appear, so every value is finite."""
    _check_member("source", source, PairSource)
    return accumulate(_ratios(source), operator.mul, initial=_pmf0(source))


def pmf(source: PairSource, x: int) -> float:
    """Probability of generating exactly ``x`` pairs in one pulse.

    The entry ``x`` of :func:`pmf_values`, from the same recurrence,
    keeping only the running value.
    """
    _check_count("x", x)
    return next(islice(_pmfs(source), x, None))


def pmf_values(source: PairSource, x_max: int) -> list[float]:
    """pmf(0..x_max) in one recurrence sweep."""
    _check_count("x_max", x_max)
    return list(islice(_pmfs(source), x_max + 1))


def _certified_pmf(source: PairSource, policy: TruncationPolicy) -> list[float]:
    """pmf(0..x_max), as :func:`pmf_values`, from the walk that certifies x_max."""
    _check_member("policy", policy, TruncationPolicy)
    eps = policy.tail_epsilon
    # p_next = pmf(x+1) and q = pmf(x+2)/pmf(x+1), walked side by side
    pmfs, ratios = _pmfs(source), _ratios(source)
    weights = [next(pmfs)]
    next(ratios)
    for p_next, q in zip(islice(pmfs, policy.hard_cap + 1), ratios):
        if q < 1.0 and p_next / (1.0 - q) < eps:
            return weights
        weights.append(p_next)
    raise CapExceeded(
        f"no truncation index up to hard_cap={policy.hard_cap} certifies "
        f"tail < {eps:g} for {source.kind.value} source with mu={source.mu:g}"
    )


def truncation_index(source: PairSource, policy: TruncationPolicy) -> int:
    """Smallest certified index ``x_max`` with tail mass below epsilon.

    The certificate: successive pmf ratios are non-increasing for every
    supported kind, so for any x with ratio(x+1) < 1 the tail beyond x is
    bounded by the geometric sum pmf(x+1) / (1 - ratio(x+1)).  The first
    x whose bound drops below ``tail_epsilon`` is returned.  If no index
    up to ``hard_cap`` is certified, :class:`CapExceeded` is raised;
    the series is never truncated silently.
    """
    return len(_certified_pmf(source, policy)) - 1
