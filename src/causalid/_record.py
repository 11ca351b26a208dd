"""The immutable value-record base shared by the package's result types.

It stands in for ``@dataclass(frozen=True)``: importing ``dataclasses`` loads
``inspect`` and about a dozen other modules, and each frozen dataclass then
runs generated code when its module is imported, together about 20 ms in every
fresh interpreter. A record class annotates its fields in its body and sets
each one in a hand-written ``__init__`` with ``object.__setattr__``.
"""

from operator import attrgetter


class Record:
    """Immutable record over the fields annotated in the subclass body.

    As a frozen dataclass: the ``repr`` is ``Name(field=value, ...)``, and any
    assignment or deletion raises ``AttributeError``. A record is equal only to
    a record of the same class with equal fields, and hashes as the tuple of
    its fields; a subclass declared with ``eq=False`` keeps identity equality
    and hashing instead.
    """

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls.__match_args__ = fields
        if not eq:
            return
        get = attrgetter(*fields)
        key = get if len(fields) > 1 else lambda self: (get(self),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
