"""frozen_record classes behave like plain frozen dataclasses, field for field."""

import copy
import dataclasses
import inspect
import pickle
from typing import ClassVar

import pytest

from silmarils import net_sim, three_party, two_party
from silmarils._record import frozen_record

RECORDS = [
    net_sim.Envelope,
    net_sim.AdversaryHook,
    three_party.HolderSetup,
    three_party.VerifierSetup,
    three_party.Challenge,
    three_party.ChallengeVerdict,
    three_party.LineVerdict,
    three_party.AuditVerdict,
    three_party.RevealPoint,
    three_party.RevealLine,
    three_party.TransferValue,
    two_party.Signature,
    two_party.SigningTape,
]


def _twin(cls):
    """A plain dataclass(frozen=True) with the same name and fields."""
    specs = [
        (f.name, f.type)
        if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def _same(a, b):
    # Instances of the record and of its twin look the same from outside.
    assert repr(a) == repr(b)
    assert hash(a) == hash(b)
    assert vars(a) == vars(b)
    assert dataclasses.astuple(a) == dataclasses.astuple(b)


def _raises_alike(make, twin_make):
    with pytest.raises(TypeError) as got:
        make()
    with pytest.raises(TypeError) as want:
        twin_make()
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_a_plain_frozen_dataclass(cls):
    twin = _twin(cls)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    values = [10 * i + 1 for i in range(len(names))]
    kwargs = dict(zip(names, values))

    assert "__dict__" in cls.__init__.__code__.co_names  # the direct-store __init__
    assert inspect.signature(cls) == inspect.signature(twin)
    assert [(f.name, f.type, f.default) for f in fields] == [
        (f.name, f.type, f.default) for f in dataclasses.fields(twin)
    ]

    rec, ref = cls(*values), twin(*values)
    _same(rec, ref)
    _same(cls(**kwargs), twin(**kwargs))
    _same(cls(*values[:1], **dict(list(kwargs.items())[1:])), ref)
    _same(cls(*values[: len(required)]), twin(*values[: len(required)]))
    assert dataclasses.asdict(rec) == dataclasses.asdict(ref)

    assert rec == cls(*values) and not rec != cls(*values)
    other = [v + 1 for v in values]
    assert (rec == cls(*other)) is (ref == twin(*other)) is False
    assert rec.__eq__(ref) is NotImplemented and ref.__eq__(rec) is NotImplemented

    first = names[0]
    _same(dataclasses.replace(rec, **{first: -1}), dataclasses.replace(ref, **{first: -1}))
    _same(copy.copy(rec), ref)
    _same(copy.deepcopy(rec), ref)
    _same(pickle.loads(pickle.dumps(rec)), ref)

    for target in (rec, ref):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, first, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(target, "not_a_field", 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(target, first)
    assert getattr(rec, first) == values[0]

    _raises_alike(lambda: cls(*values, 0), lambda: twin(*values, 0))
    if required:
        missing = values[: len(required) - 1]
        _raises_alike(lambda: cls(*missing), lambda: twin(*missing))
    _raises_alike(lambda: cls(*values, **{first: 0}), lambda: twin(*values, **{first: 0}))
    _raises_alike(lambda: cls(**kwargs, bogus=0), lambda: twin(**kwargs, bogus=0))


def test_field_names_never_collide_with_the_init_locals():
    @frozen_record
    class Awkward:
        self: int
        d: int
        _d: int
        _self: int = 4

    rec = Awkward(1, 2, 3)
    assert (rec.self, rec.d, rec._d, rec._self) == (1, 2, 3, 4)
    assert Awkward(self=5, d=6, _d=7, _self=8) == Awkward(5, 6, 7, 8)
    assert list(inspect.signature(Awkward).parameters) == ["self", "d", "_d", "_self"]


def test_records_that_need_the_dataclass_init_are_refused():
    with pytest.raises(TypeError, match="__post_init__"):
        @frozen_record
        class PostInit:
            x: int

            def __post_init__(self):
                pass

    with pytest.raises(TypeError, match="__slots__"):
        @frozen_record
        class Slotted:
            __slots__ = ("x",)
            x: int

    with pytest.raises(TypeError, match="default_factory"):
        @frozen_record
        class Factory:
            x: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="init=False"):
        @frozen_record
        class NotInInit:
            x: int
            memo: object = dataclasses.field(default=None, init=False)

    with pytest.raises(TypeError, match="kw_only"):
        @frozen_record
        class KeywordOnly:
            x: int = dataclasses.field(default=0, kw_only=True)

    with pytest.raises(TypeError, match="ClassVar or InitVar"):
        @frozen_record
        class WithInitVar:
            x: int
            y: dataclasses.InitVar[int]

    with pytest.raises(TypeError, match="ClassVar or InitVar"):
        @frozen_record
        class WithClassVar:
            x: int
            TAG: ClassVar[bytes] = b"t"

    with pytest.raises(TypeError, match="non-default argument 'y' follows default"):
        @frozen_record
        class Misordered:
            x: int = 0
            y: int
