"""The base of the package's value classes: plain slotted classes whose
methods are shared, not generated per class, so a fresh ``import nimtower``
loads no code-generation or introspection machinery."""

from operator import attrgetter


class Value:
    """A record whose fields are the names in its class's ``__slots__``.

    Instances are built from the fields in order or by name, a field left
    out taking a fresh value from its factory in the class's ``_defaults``.
    They compare equal when their classes are the same and their fields are
    equal, hash as the tuple of their fields, print as ``Name(field=...)``,
    pickle and copy through the constructor, and refuse assignment.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        names = cls.__slots__
        cls._setters = tuple(getattr(cls, n).__set__ for n in names)
        get = attrgetter(*names)
        cls._fields = staticmethod(get if len(names) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            if len(args) > len(names) or given.keys() & kwargs or not kwargs.keys() <= set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            given.update(kwargs)
            try:
                args = [given[n] if n in given else self._defaults[n]() for n in names]
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__}() missing field {exc}") from None
        for set_field, arg in zip(self._setters, args):
            set_field(self, arg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
