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

The record bases :class:`Frozen` and :class:`Value` live here, where every
module and every CLI process already loads them.
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
