"""Frozen records built without generated code.

``dataclasses`` writes the ``__init__``, ``__repr__``, ``__eq__``,
``__hash__`` and frozen ``__setattr__`` of every class as source text and
``exec``s it: about 1 ms per class on Python 3.11, paid by every process
that imports the class (``benchmarks/bench_import.py``).  :func:`record`
attaches the same functions for each class from one set of closures over
the field names and defaults, which it reads once from the class body.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


class factory:
    """A field default made anew for every instance: ``params: dict =
    factory(dict)`` gives each record its own dict."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def record(cls):
    """Make ``cls`` a frozen record of its annotated class-body names, in
    order; a name without an annotation stays a plain class attribute.

    ``cls(...)`` takes the fields by position or by keyword, fills those
    left out from their class-body defaults (a :class:`factory` default is
    called for each instance), writes each with ``object.__setattr__`` and
    then calls ``__post_init__`` when the class defines one.  Two records
    are equal when they have the same class and equal fields, and a record
    hashes as the tuple of its fields.  ``repr`` gives
    ``Name(field=value, ...)``.  Setting or deleting an attribute raises
    ``AttributeError``; ``object.__setattr__`` still writes, as
    ``__post_init__`` does to store a converted field.
    """
    body = cls.__dict__
    names = tuple(body.get("__annotations__", ()))
    n = len(names)
    defaults = {}
    for name in names:
        if name in body:
            defaults[name] = body[name]
            if isinstance(body[name], factory):
                delattr(cls, name)
        elif defaults:
            raise TypeError(f"field {name!r} without a default follows a field with one")
    # rests[k]: the defaults that complete k positional arguments, or None
    # where they cannot (too few arguments, or a factory among the defaults)
    required = n - len(defaults)
    rests = [None] * (n + 1)
    for k in range(required, n + 1):
        rest = tuple(defaults[m] for m in names[k:])
        if not any(isinstance(v, factory) for v in rest):
            rests[k] = rest
    indexed = tuple(enumerate(names))
    post_init = body.get("__post_init__")
    fields = frozenset(names)
    key = attrgetter(*names)
    qualname = cls.__qualname__

    def bind(args, kwargs):
        """The field values of a call that the fast path of ``__init__``
        does not take, in field order."""
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} positional arguments but {len(args)} were given")
        if args:
            given = dict(zip(names, args))
            if not kwargs.keys().isdisjoint(given):
                raise TypeError(f"{qualname}() got multiple values for an argument: "
                                f"{sorted(kwargs.keys() & given.keys())}")
            given.update(kwargs)
        else:
            given = kwargs
        if not given.keys() <= fields:
            raise TypeError(f"{qualname}() got unexpected keyword arguments: "
                            f"{sorted(given.keys() - fields)}")
        if len(given) < n:
            missing = [m for m in names if m not in given and m not in defaults]
            if missing:
                raise TypeError(f"{qualname}() missing required arguments: {missing}")
            for m in names:
                if m not in given:
                    v = defaults[m]
                    given[m] = v.make() if isinstance(v, factory) else v
        return tuple(map(given.__getitem__, names))

    def __init__(self, *args, **kwargs):
        # the fast path, positional arguments and plain defaults, indexes
        # one tuple: a loop over zip() costs 0.15 us more at four fields
        rest = rests[len(args)] if not kwargs and len(args) <= n else None
        values = args + rest if rest is not None else bind(args, kwargs)
        for i, name in indexed:
            _setattr(self, name, values[i])
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        text = ", ".join(f"{m}={getattr(self, m)!r}" for m in names)
        return f"{type(self).__qualname__}({text})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for fn in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        fn.__qualname__ = f"{qualname}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__match_args__ = names
    return cls
