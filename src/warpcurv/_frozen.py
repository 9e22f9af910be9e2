"""The base of the immutable value types.

Each type lists its fields in ``__slots__`` and fills them once in its own
``__init__`` through :func:`set_field`.  The methods a frozen dataclass
would generate at import are written here once: assigning or deleting a
field raises ``AttributeError``, and equality, hash and ``repr`` read the
fields in order, as a frozen dataclass's do.
"""

__all__ = ["Frozen", "set_field"]

set_field = object.__setattr__  # how an __init__ fills a field


class Frozen:
    """Immutable slotted value.  ``_compared`` names the fields that
    equality, hash and ``repr`` read; ``None`` means every slot."""

    __slots__ = ()
    _compared = None

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        names = self._compared or self.__slots__
        return tuple(getattr(self, n) for n in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        names = self._compared or self.__slots__
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({fields})"

    # copy and pickle restore the slots through set_field, not setattr
    def __getstate__(self):
        return tuple(getattr(self, n) for n in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            set_field(self, name, value)
