"""Immutable value records: the one base of the package's value classes.

A record class lists its attributes in ``__slots__`` and its constructor
arguments, in order, in ``_fields``; ``_defaults`` gives defaults to the last
fields, as in ``collections.namedtuple``. ``Record`` gives it what a frozen
dataclass has, without importing ``dataclasses``:

* ``__init__`` takes the fields, sets each one and then calls
  ``self.__post_init__()``, which is looked up through the class at every
  construction; a subclass checks and normalises its fields there with
  ``object.__setattr__``. A class that defines its own ``__init__`` keeps it.
* Assigning or deleting an attribute raises ``AttributeError``; ``copy`` and
  ``pickle`` still rebuild a record, attributes outside ``_fields`` included.
* Equality and hash compare the ``_fields`` in order, between instances of
  one class only, and ``repr`` is ``Name(field=value, ...)``; attributes
  outside ``_fields``, such as the facets a ``Cone`` caches, take no part.

Each ``__init__`` is written out from the class's ``_fields`` and run with
``exec`` once, when the class is created, the way ``collections.namedtuple``
builds its ``__new__``. Its parameters are the fields themselves, so keywords,
defaults and the ``TypeError`` of a wrong call are Python's own, a record may
have any number of fields, and the positional call sets each field directly.
This is the package's only generated code.
"""

from __future__ import annotations

_set = object.__setattr__


def _initializer(cls):
    """The __init__ of a record class, written out from its field names."""
    fields = cls._fields
    sets = "".join(f"    _set(self, {name!r}, {name})\n" for name in fields)
    source = f"def __init__({', '.join(('self', *fields))}):\n{sets}    self.__post_init__()\n"
    namespace = {"_set": _set, "__name__": cls.__module__}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__defaults__ = cls._defaults or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # names the class in TypeErrors
    return init


def sequence(value, field: str) -> tuple:
    """A sequence field's items as a tuple; ValueError naming it if not iterable."""
    try:
        items = iter(value)
    except TypeError:
        raise ValueError(f"{field} must be a sequence, got {value!r}") from None
    return tuple(items)


class Record:
    """Base of an immutable value class; see the module docstring."""

    __slots__ = ()
    _fields: tuple = ()
    _defaults: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" not in vars(cls):
            cls.__init__ = _initializer(cls)

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore a record from the (None, slots) state that
        # object.__reduce_ex__ takes, which __setattr__ would refuse.
        for name, value in state[1].items():
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
