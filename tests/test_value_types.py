"""The value types' contract: each of the 11 is an immutable named tuple
that equals only a value of its own type, hashes as its fields, pickles
and copies, prints as the frozen dataclasses it replaced printed, and, as
they did, has no order and no tuple arithmetic; the enum members hash by
identity."""

import copy
import inspect
import operator
import pickle

import pytest

from biphoton import (CarResult, DetectorModel, EnumeratedRate, HplusModel, McEstimate, MuOptimum,
                      Objective, PairSource, RateEntry, RateMethod, RateReport, Setting, SourceKind,
                      TimebinPort, TomographyVector, TruncationPolicy, VisibilityResult)
from biphoton.distributions import _record

# type -> (its fields in order as keywords of one value, the defaults of the former dataclass)
_TYPES = {
    DetectorModel: ({"alpha": 0.1, "dark": 1e-5}, {"dark": 0.0}),
    PairSource: ({"kind": SourceKind.DIS_ENTANGLED, "mu": 0.3}, {}),
    TruncationPolicy: ({"tail_epsilon": 1e-9, "hard_cap": 50},
                       {"tail_epsilon": 1e-12, "hard_cap": 200}),
    RateEntry: ({"value": 0.25, "setting": Setting.HH, "truncation_used": 12}, {}),
    RateReport: ({"r_hh": 0.5, "r_hv": 0.1, "r_hplus": 0.3, "single_s": 0.7, "single_i": 0.6}, {}),
    VisibilityResult: ({"visibility": 0.9, "contrast": 19.0}, {}),
    CarResult: ({"matched_rate": 0.02, "unmatched_rate": 0.001, "car": 20.0}, {}),
    MuOptimum: ({"mu": 0.01, "value": 0.95, "unimodal": True}, {}),
    EnumeratedRate: ({"value": 0.25, "tail_bound": 1e-12}, {}),
    McEstimate: ({"mean": 0.25, "std_error": 0.001, "trials": 1000, "seed": 7}, {}),
    TomographyVector: ({"r": tuple(float(j) for j in range(16)), "method": RateMethod.CLOSED_FORM,
                        "hplus_model": HplusModel.COHERENT}, {"hplus_model": None}),
}
_ENUMS = (SourceKind, Setting, HplusModel, RateMethod, TimebinPort, Objective)


def _value(cls):
    return cls(**_TYPES[cls][0])


@pytest.mark.parametrize("cls", list(_TYPES), ids=lambda cls: cls.__name__)
def test_fields_and_defaults_are_those_of_the_former_dataclass(cls):
    fields, defaults = _TYPES[cls]
    parameters = inspect.signature(cls).parameters
    assert cls._fields == tuple(fields) == tuple(parameters)
    assert {name: p.default for name, p in parameters.items() if p.default is not p.empty} == defaults


@pytest.mark.parametrize("cls", list(_TYPES), ids=lambda cls: cls.__name__)
def test_keyword_and_positional_construction_agree(cls):
    fields = _TYPES[cls][0]
    value = cls(**fields)
    assert value == cls(*fields.values())
    assert tuple(value) == tuple(fields.values())
    assert {name: getattr(value, name) for name in cls._fields} == fields
    *_, last = value  # a value unpacks in field order
    assert last == fields[cls._fields[-1]]


@pytest.mark.parametrize("cls", list(_TYPES), ids=lambda cls: cls.__name__)
def test_a_value_is_immutable(cls):
    value = _value(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        del value.extra
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls", list(_TYPES), ids=lambda cls: cls.__name__)
def test_equal_values_hash_equal_as_their_fields(cls):
    a, b = _value(cls), _value(cls)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(_TYPES[cls][0].values()))
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls", list(_TYPES), ids=lambda cls: cls.__name__)
def test_a_value_equals_only_a_value_of_its_own_type(cls):
    value = _value(cls)
    plain = tuple(value)

    class Twin(_record(" ".join(cls._fields))):  # another type, the same field names
        __slots__ = ()

    twin = Twin(*plain)
    for other in (plain, twin, list(plain)):
        assert not value == other and value != other
        assert not other == value and other != value
    assert {value: 1}.get(plain) is None and {plain: 1}.get(value) is None


@pytest.mark.parametrize("cls", list(_TYPES), ids=lambda cls: cls.__name__)
def test_a_value_has_no_order_and_no_tuple_arithmetic(cls):
    # as the dataclasses had none: each operator raises with the value on
    # either side, against a plain tuple and against its own type
    value = _value(cls)
    ops = [operator.lt, operator.le, operator.gt, operator.ge, operator.add]
    for other in (tuple(value), _value(cls)):
        for op in ops:
            for left, right in ((value, other), (other, value)):
                with pytest.raises(TypeError, match=f"^{cls.__name__} values have no order"):
                    op(left, right)
    for left, right in ((value, 2), (2, value), (value, 0)):
        with pytest.raises(TypeError):
            left * right
    with pytest.raises(TypeError):
        sorted([value, _value(cls)])
    with pytest.raises(TypeError):
        value += (1,)
    with pytest.raises(TypeError):
        value *= 1


def test_two_result_types_with_equal_fields_are_unequal():
    assert VisibilityResult(0.5, 0.5) != EnumeratedRate(0.5, 0.5)
    assert not VisibilityResult(0.5, 0.5) == EnumeratedRate(0.5, 0.5)


@pytest.mark.parametrize("cls", list(_TYPES), ids=lambda cls: cls.__name__)
def test_pickle_copy_and_deepcopy_round_trip(cls):
    value = _value(cls)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value
    for twin in (copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value


@pytest.mark.parametrize("cls", list(_TYPES), ids=lambda cls: cls.__name__)
def test_the_repr_is_the_dataclass_repr(cls):
    fields = _TYPES[cls][0]
    shown = ", ".join(f"{name}={v!r}" for name, v in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def test_the_detector_repr_is_unchanged():
    assert repr(DetectorModel(0.1)) == "DetectorModel(alpha=0.1, dark=0.0)"
    assert str(DetectorModel(1, 0)) == "DetectorModel(alpha=1.0, dark=0.0)"


def test_replace_builds_through_the_checks():
    det = DetectorModel(0.1)
    assert det._replace(dark=1e-3) == DetectorModel(0.1, 1e-3)
    assert type(det._replace(alpha=1).alpha) is float  # held as a float, as the type holds it
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 2$"):
        det._replace(alpha=2)
    with pytest.raises(ValueError, match=r"^mu must be finite and >= 0, got -1$"):
        PairSource(SourceKind.DIS_ENTANGLED, 0.3)._replace(mu=-1)
    with pytest.raises(TypeError, match="^hard_cap must be an int, got 2.0$"):
        TruncationPolicy()._replace(hard_cap=2.0)
    with pytest.raises(ValueError, match=r"^expected 16 rates, got shape \(15,\)$"):
        _value(TomographyVector)._replace(r=(0.1,) * 15)
    with pytest.raises(ValueError, match=r"^dark must lie in \[0, 1\), got 1$"):
        DetectorModel._make([0.1, 1])


@pytest.mark.parametrize("enum", _ENUMS, ids=lambda enum: enum.__name__)
def test_enum_members_hash_by_identity(enum):
    assert enum.__hash__ is object.__hash__
    table = {member: i for i, member in enumerate(enum)}
    for i, member in enumerate(enum):
        assert hash(member) == hash(member) == object.__hash__(member)
        # a member looked up by value, or unpickled, is the one singleton
        for same in (enum(member.value), enum[member.name], pickle.loads(pickle.dumps(member))):
            assert same is member and table[same] == i
    assert len(table) == len(enum)
