"""curvecomp: exact and numerical tools around curve-complement hyperbolicity.

Subpackages by topic:

* :mod:`curvecomp.expfun`     -- exact algebra of exponential polynomials
* :mod:`curvecomp.nevanlinna` -- growth functionals and main-theorem checks
* :mod:`curvecomp.chern`      -- logarithmic Chern numbers of complete
  intersections carrying three-component curves, and the classifiers
* :mod:`curvecomp.borel`      -- the exponential-identity degeneracy engine
* :mod:`curvecomp.covering`   -- cyclic-cover push-down of symmetric forms
* :mod:`curvecomp.planeconf`  -- plane-curve intersection/genericity checks
* :mod:`curvecomp.cli`        -- JSON command-line front end

The record bases :class:`Frozen`, :class:`Value` and :class:`Record` live
here, where every module and every CLI process already loads them.
"""

__version__ = "0.1.0"


class Frozen:
    """Immutable record: fields are set once, by ``object.__setattr__`` in
    ``__init__`` (or a lazy cache), and never assigned or deleted after."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Value(Frozen):
    """Frozen record equal to another of its own type with the same
    ``_key()``, and hashed by that key."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Record(Frozen):
    """Frozen result record whose ``__slots__`` are its fields, in JSON order.

    Fields are given by position or by name.  One left out takes
    ``DEFAULTS[name]``, called first when it is callable, so that each
    record gets its own list or dict.  ``to_json`` writes each field under
    ``JSON_NAMES.get(name, name)``: a nested record as its ``to_json()``,
    and lists and dicts as fresh copies, so no container in the JSON is the
    record's own.
    """

    __slots__ = ()
    DEFAULTS = {}
    JSON_NAMES = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        wrong = sorted(kwargs.keys() - set(names[len(args):]))
        if len(args) > len(names) or wrong:
            raise TypeError(f"{cls.__name__}() takes the fields {names}; "
                            f"got {len(args)} by position and {wrong}")
        kwargs.update(zip(names, args))
        for name in names:
            if name not in kwargs:
                if name not in cls.DEFAULTS:
                    raise TypeError(f"{cls.__name__}() missing field {name!r}")
                value = cls.DEFAULTS[name]
                kwargs[name] = value() if callable(value) else value
            object.__setattr__(self, name, kwargs[name])

    def to_json(self):
        rename = self.JSON_NAMES
        return {rename.get(name, name): _json(getattr(self, name))
                for name in self.__slots__}


def _json(value):
    if isinstance(value, Frozen):
        return value.to_json()
    if isinstance(value, list):
        return [_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    return value
