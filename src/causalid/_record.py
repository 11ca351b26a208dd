"""The immutable value-record base shared by the package's result types.

It stands in for ``@dataclass(frozen=True)``: importing ``dataclasses`` loads
``inspect`` and about a dozen other modules, and each frozen dataclass then
runs generated code when its module is imported, together about 20 ms in every
fresh interpreter. A record class annotates its fields in its body, and a value
the body assigns to a field is that field's default.

Unless a class defines its own ``__init__`` (to normalize or validate), one is
generated as ``namedtuple`` and ``dataclasses`` do: compiled once per class,
30 to 60 µs, with one parameter per field in annotation order and one
``object.__setattr__(self, name, name)`` per field. Filling ``__dict__`` with
``update`` instead loses CPython's key-sharing instance dicts: a two-field
record then takes about 240 B instead of 90 B (``tracemalloc``, CPython 3.11).
A generic ``*args, **kwargs`` constructor on ``Record`` builds a record two to
three times slower.
"""

from operator import attrgetter


def _generated_init(cls, fields):
    defaults = {f"_{f}": cls.__dict__[f] for f in fields if f in cls.__dict__}
    params = ", ".join(f"{f}=_{f}" if f"_{f}" in defaults else f for f in fields)
    body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
    namespace = {"_set": object.__setattr__, **defaults}
    exec(f"def __init__(self, {params}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _eq(self, other):
    """Equality by an explicit stack that compares each pair of nodes once: no
    recursion, and time linear in the distinct node pairs of two DAGs. It
    descends into tuples and into records of one class; any other pair
    compares with ``==``."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs, seen = [(self, other)], set()
    while pairs:
        a, b = pairs.pop()
        cls = a.__class__
        if a is b or (id(a), id(b)) in seen:
            continue
        if cls is b.__class__ and (cls is tuple or cls.__eq__ is _eq):
            seen.add((id(a), id(b)))
            if cls is tuple and len(a) != len(b):
                return False
            pairs.extend(zip(a, b) if cls is tuple else zip(cls._key(a), cls._key(b)))
        elif not a == b:
            return False
    return True


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
        if "__init__" not in cls.__dict__:
            cls.__init__ = _generated_init(cls, fields)
        if eq:
            get = attrgetter(*fields)
            cls._key = key = get if len(fields) > 1 else lambda self: (get(self),)
            cls.__eq__, cls.__hash__ = _eq, lambda self: hash(key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
