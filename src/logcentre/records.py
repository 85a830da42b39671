"""Immutable value records: the one base of the package's value classes.

A record class lists its attributes in ``__slots__`` and its constructor
arguments, in order, in ``_fields``; ``_defaults`` gives defaults to the last
fields, as in ``collections.namedtuple``. ``Record`` gives it what a frozen
dataclass has, without importing ``dataclasses`` or compiling any code:

* ``__init__`` takes the fields, sets each one and then calls
  ``self.__post_init__()``, which is looked up through the class at every
  construction; a subclass checks and normalises its fields there with
  ``object.__setattr__``. A class that defines its own ``__init__`` keeps it.
* Assigning or deleting an attribute raises ``AttributeError``; ``copy`` and
  ``pickle`` still rebuild a record, attributes outside ``_fields`` included.
* Equality and hash compare the ``_fields`` in order, between instances of
  one class only, and ``repr`` is ``Name(field=value, ...)``; attributes
  outside ``_fields``, such as ``Cone.facets``, take no part.

Each ``__init__`` is a template of the record's arity whose parameters are
renamed to its fields, so keywords, defaults and the ``TypeError`` of a wrong
call are Python's own, and the positional call sets each field directly.
"""

from __future__ import annotations

from types import FunctionType

_set = object.__setattr__


def _arity1(f0):
    def __init__(self, a):
        _set(self, f0, a)
        self.__post_init__()

    return __init__


def _arity2(f0, f1):
    def __init__(self, a, b):
        _set(self, f0, a)
        _set(self, f1, b)
        self.__post_init__()

    return __init__


def _arity3(f0, f1, f2):
    def __init__(self, a, b, c):
        _set(self, f0, a)
        _set(self, f1, b)
        _set(self, f2, c)
        self.__post_init__()

    return __init__


def _arity4(f0, f1, f2, f3):
    def __init__(self, a, b, c, d):
        _set(self, f0, a)
        _set(self, f1, b)
        _set(self, f2, c)
        _set(self, f3, d)
        self.__post_init__()

    return __init__


def _arity5(f0, f1, f2, f3, f4):
    def __init__(self, a, b, c, d, e):
        _set(self, f0, a)
        _set(self, f1, b)
        _set(self, f2, c)
        _set(self, f3, d)
        _set(self, f4, e)
        self.__post_init__()

    return __init__


_TEMPLATES = {1: _arity1, 2: _arity2, 3: _arity3, 4: _arity4, 5: _arity5}


def _initializer(cls) -> FunctionType:
    """The __init__ of a record class: the template of its arity, closed over
    its field names, with the template's parameters renamed to the fields."""
    fields = cls._fields
    template = _TEMPLATES[len(fields)](*fields)
    code = template.__code__.replace(co_varnames=("self", *fields))
    init = FunctionType(code, globals(), "__init__", cls._defaults or None, template.__closure__)
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # names the class in TypeErrors
    return init


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
