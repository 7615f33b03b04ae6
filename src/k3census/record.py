"""Plain record classes, built without generating code.

`record` reads a class's annotated fields and their defaults and adds
`__init__`, `__repr__` and `__eq__` (each only where the class does not
define it), `__hash__`, and with `order=True` the four comparisons, all on
the tuple of fields, with the semantics of the standard library's dataclass
decorator.  With `frozen=True` assigning or deleting an attribute raises
AttributeError; without it the class is unhashable.  No source is generated
or executed, so a record class costs microseconds to define and its module
imports nothing heavy; that matters because each CLI subcommand starts a
new process.
"""

from operator import attrgetter, eq, ge, gt, le, lt


def _frozen(self, name, value=None):
    raise AttributeError("%s is frozen: cannot set or delete %r"
                         % (type(self).__name__, name))


def _method(cls, name, fn):
    if name not in cls.__dict__:
        setattr(cls, name, fn)


def record(cls=None, *, frozen=False, order=False):
    """Class decorator: a record with fields in annotation order."""
    if cls is None:
        return lambda c: record(c, frozen=frozen, order=order)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    n_fields, post_init = len(names), getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    key = (lambda self: (get(self),)) if n_fields == 1 else get

    def bind(args, kwargs):
        rest = names[len(args):]
        extra = set(kwargs).difference(rest)
        missing = [n for n in rest if n not in kwargs and n not in defaults]
        if len(args) > n_fields or extra or missing:
            raise TypeError("%s() takes fields %s; got %d positional, extra %s, missing %s"
                            % (cls.__name__, names, len(args), sorted(extra), missing))
        return (*args, *(kwargs[n] if n in kwargs else defaults[n] for n in rest))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n_fields:
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in names))

    def compare(op):
        def method(self, other):
            if other.__class__ is self.__class__:
                return op(key(self), key(other))
            return NotImplemented
        return method

    _method(cls, "__init__", __init__)
    _method(cls, "__repr__", __repr__)
    _method(cls, "__eq__", compare(eq))
    cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    if order:
        for name, op in (("__lt__", lt), ("__le__", le), ("__gt__", gt), ("__ge__", ge)):
            _method(cls, name, compare(op))
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
