"""The sparse-map core shared by every element type of the package.

An element is a map from basis keys to nonzero exact scalars over a fixed
context: exponent vectors for R = K[Z_n]^(tensor m), k-tuples of them for
R^(tensor k), (exponents, Perm) pairs for H_{n,m}, pairs of those for
H (x) H, normal-ordered monomials for A_{a,b}, and (row, column) pairs
for matrices.  Addition, negation, scaling, equality and hashing are the
same for all of them and live here; each subclass keeps its own product.
The one memo of structure constants, ``memoized``, lives here too.
"""

from __future__ import annotations

from functools import wraps

from .cyclotomic import CycScalar
from .errors import ContextMismatchError

_MISSING = object()


def memoized(method):
    """A method whose results are kept per instance, keyed by (method name,
    *args) in the one flat dict ``self._memo``; not a shared functools
    cache, since equal instances (HopfAlgebra compares (n, m) only) may
    compute different values.  An override calling super() is not memoized."""
    name = method.__name__

    @wraps(method)
    def cached(self, *args):
        key = (name, *args)
        out = self._memo.get(key, _MISSING)
        if out is _MISSING:
            out = self._memo[key] = method(self, *args)
        return out

    return cached


def accumulate(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def power_product(letter: str, exps) -> list[str]:
    """Factors of letter_1^e_1 ... letter_k^e_k for repr, skipping e = 0."""
    return [f"{letter}{i+1}^{e}" if e != 1 else f"{letter}{i+1}" for i, e in enumerate(exps) if e]


class SparseElem:
    """Base of the element types.  A subclass stores its context and
    ``terms`` in slots and supplies ``context`` (what two elements must
    share to be combined), ``_new`` (an element of the same context),
    ``_field`` (the CycContext of the coefficients) and, where scalars
    embed as constants, ``_lift``."""

    __slots__ = ()
    _mismatch = "elements from different contexts"

    def context(self):
        raise NotImplementedError

    def _new(self, terms: dict):
        raise NotImplementedError

    def _field(self):
        raise NotImplementedError

    def _lift(self, c):
        """The constant element c, or NotImplemented if c does not embed."""
        return NotImplemented

    def _same_context(self, other) -> bool:
        a, b = self.context(), other.context()
        return a is b or a == b

    def _coerce(self, other):
        """other as an element of this context; raises ContextMismatchError
        for an element of another context of the same type."""
        if not isinstance(other, type(self)):
            return self._lift(other)
        if not self._same_context(other):
            raise ContextMismatchError(self._mismatch)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __rmul__(self, c):
        if isinstance(c, (int, CycScalar)):
            return self.scale(c)
        return NotImplemented

    def scale(self, c):
        if isinstance(c, int):
            c = self._field().scalar(c)
        if not c:
            return self._new({})
        return self._new({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        return self._same_context(other) and self.terms == other.terms

    def __hash__(self):
        return hash((self.context(), frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def to_json(self) -> list:
        return [{"exponents": list(k), "coeff": c.to_json()} for k, c in self.sorted_terms()]

    def _monomial_repr(self, key) -> str:
        return repr(key)

    def __repr__(self):
        body = " + ".join(f"({c})*{self._monomial_repr(k)}" for k, c in self.sorted_terms())
        return body if body else "0"
