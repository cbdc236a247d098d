"""Frozen dataclasses that build cheaply.

A frozen dataclass's generated __init__ stores each field through
object.__setattr__, which roughly doubles the cost of building a small
record.  frozen_record gives the class the same dataclass in every other
respect (==, hash, repr, fields(), replace(), FrozenInstanceError on set and
delete) but installs an __init__, with the same parameters and defaults, that
writes the fields into the instance __dict__ directly.  It is used for the
records built on every protocol session.

Only plain fields are accepted, so the installed __init__ cannot drift from
the one dataclass would generate: a class with __post_init__ or __slots__,
or a field with a default_factory, init=False, kw_only=True, or a ClassVar
or InitVar annotation, is refused with TypeError at decoration time.
"""

from __future__ import annotations

import dataclasses


def frozen_record(cls):
    """Class decorator: dataclass(frozen=True) with a direct-store __init__."""
    if "__slots__" in cls.__dict__:
        raise TypeError(f"frozen_record: {cls.__name__} defines __slots__")
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"frozen_record: {cls.__name__} defines __post_init__")
    cls = dataclasses.dataclass(frozen=True, init=False)(cls)
    fields = dataclasses.fields(cls)
    if len(fields) != len(cls.__dataclass_fields__):
        raise TypeError(f"frozen_record: {cls.__name__} has ClassVar or InitVar fields")
    defaults = []
    for f in fields:
        if not f.init or f.kw_only or f.default_factory is not dataclasses.MISSING:
            raise TypeError(
                f"frozen_record: field {f.name!r} of {cls.__name__} needs the "
                "dataclass __init__ (init=False, kw_only or default_factory)"
            )
        if f.default is not dataclasses.MISSING:
            defaults.append(f.default)
        elif defaults:
            raise TypeError(
                f"non-default argument {f.name!r} follows default argument"
            )
    cls.__init__ = _direct_init(cls, fields, tuple(defaults))
    return cls


def _direct_init(cls, fields, defaults):
    names = [f.name for f in fields]
    # The locals for the instance and its __dict__ must not shadow a field.
    self_name = _fresh("self", names)
    dict_name = _fresh("d", names + [self_name])
    lines = [f"def __init__({', '.join([self_name, *names])}):"]
    lines.append(f"    {dict_name} = {self_name}.__dict__")
    lines.extend(f"    {dict_name}[{name!r}] = {name}" for name in names)
    namespace: dict = {}
    exec("\n".join(lines), {}, namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
    return init


def _fresh(base: str, taken: list) -> str:
    name = base
    while name in taken:
        name = f"_{name}"
    return name
