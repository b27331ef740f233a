"""The base of the package's frozen value classes.

A subclass names its fields, in order, in ``_fields`` and writes its own
``__init__``, which puts them into the instance ``__dict__``.  The base
compares, hashes and prints those fields: an instance equals only an
instance of the same class with equal fields, hashes as the tuple of its
fields and reprs as ``Name(field=value, ...)``.  Assignment and deletion
raise :class:`FrozenInstanceError`; a ``functools.cached_property`` still
works, since it writes to ``__dict__`` directly.

The classes are written out rather than made by ``dataclasses``: its
import (it loads ``inspect``) and its per-class code generation cost a
fresh ``splithex`` process about as much as all the verification stages.
"""


class FrozenInstanceError(AttributeError):
    """An attempt to assign to or delete an attribute of a frozen value."""


class Frozen:
    _fields: tuple = ()

    def _values(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
