"""Exact arithmetic in the cyclotomic field Q(zeta_N) with N = 2n.

The field hosts both q = zeta_N^2, a primitive n-th root of unity, and its
square root p = zeta_N.  Elements are polynomials in zeta_N reduced modulo
the N-th cyclotomic polynomial Phi_N; working modulo Phi_N (rather than
x^N - 1) keeps the quotient a field, so every nonzero element is invertible.

Coefficients are rationals, stored as an integer vector over a common
positive denominator with the gcd divided out.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import ContextMismatchError, NotInvertibleError


# ---------------------------------------------------------------------------
# integer polynomials, ascending coefficient lists


def poly_mul_int(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact long division of integer polynomials; den must be monic."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    num = list(num)
    q = [0] * max(1, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients (ascending) of Phi_N, via exact division of x^N - 1
    by the product of Phi_d over proper divisors d of N."""
    if N < 1:
        raise ValueError("N must be positive")
    if N == 1:
        return (-1, 1)
    num = [-1] + [0] * (N - 1) + [1]
    den = [1]
    for d in range(1, N):
        if N % d == 0:
            den = poly_mul_int(den, list(cyclotomic_polynomial(d)))
    q, r = poly_divmod_int(num, den)
    if r != [0]:
        raise ArithmeticError("cyclotomic division must be exact")
    return tuple(q)


# ---------------------------------------------------------------------------


class CycContext:
    """The field Q(zeta_N) with N = 2n, n >= 2.

    Fixes p := zeta_N and q := p^2 uniformly for all n, so one context
    serves both the Hopf algebra construction (which needs q) and the
    representations (which need the square root p).
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        self.n = n
        self.N = 2 * n
        self.phi = cyclotomic_polynomial(self.N)
        self.degree = len(self.phi) - 1
        if self.degree != euler_phi(self.N):
            raise ArithmeticError(f"Phi_{self.N} has the wrong degree")
        # zeta_N^e mod Phi_N for 0 <= e < N, by shift and fold: x^(e+1) is
        # x^e shifted up one place, with the coefficient pushed past
        # x^(degree-1) folded back through the monic Phi_N
        d = self.degree
        row = [1] + [0] * (d - 1)
        self._roots: list[CycScalar] = []
        for _ in range(self.N):
            self._roots.append(CycScalar(self, tuple(row), 1))
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                for j in range(d):
                    row[j] -= top * self.phi[j]
        self.zero = CycScalar(self, (0,) * d, 1)
        self.one = self._roots[0]

    def scalar(self, value) -> "CycScalar":
        """Embed an int or Fraction as a constant; anything else, a float
        above all, is a TypeError."""
        if isinstance(value, int):
            return CycScalar(self, (int(value),) + (0,) * (self.degree - 1), 1)
        if not isinstance(value, Fraction):
            raise TypeError(f"scalar needs an int or Fraction, not {type(value).__name__}")
        return CycScalar(self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)

    def from_cyclic(self, vec, den: int) -> "CycScalar":
        """(sum_e vec[e] zeta_N^e) / den for an integer vector of length at
        most N, i.e. an element of Z[x]/(x^N - 1) read at x = zeta_N: folded
        modulo Phi_N with the rows of zeta_N^e.  The one reduction in the
        field: products, conjugates and the character transform all use it."""
        d = self.degree
        out = list(vec[:d]) + [0] * max(0, d - len(vec))
        for e in range(d, len(vec)):
            c = vec[e]
            if c:
                row = self._roots[e].nums
                for j in range(d):
                    out[j] += c * row[j]
        return CycScalar(self, tuple(out), den)

    def root(self, e: int) -> "CycScalar":
        """p^e = zeta_N^e, reduced modulo Phi_N. root(2) is the canonical q."""
        return self._roots[e % self.N]

    def q_pow(self, e: int) -> "CycScalar":
        return self._roots[(2 * e) % self.N]

    @property
    def q(self) -> "CycScalar":
        return self.root(2)

    @property
    def p(self) -> "CycScalar":
        return self.root(1)

    def __eq__(self, other):
        return isinstance(other, CycContext) and other.n == self.n

    def __hash__(self):
        return hash(("CycContext", self.n))

    def __repr__(self):
        return f"CycContext(n={self.n})"

    def to_json(self) -> dict:
        return {"n": self.n, "N": self.N, "degree": self.degree}


class CycScalar:
    """An element of Q(zeta_N): integer coefficient vector over a common
    positive denominator, always stored reduced (content gcd divided out)."""

    __slots__ = ("ctx", "nums", "den")

    def __init__(self, ctx: CycContext, nums: tuple[int, ...], den: int):
        if den < 0:
            nums = tuple(-c for c in nums)
            den = -den
        g = den
        for c in nums:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            nums = tuple(c // g for c in nums)
            den //= g
        self.ctx = ctx
        self.nums = nums
        self.den = den

    # -- helpers ------------------------------------------------------------

    def _coerce(self, other) -> "CycScalar":
        if isinstance(other, CycScalar):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatchError("scalars from different cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.scalar(other)
        return NotImplemented  # type: ignore[return-value]

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not any(other.nums):
            return self
        if not any(self.nums):
            return other
        a, b = self, other
        d = a.den * b.den // gcd(a.den, b.den)
        fa, fb = d // a.den, d // b.den
        return CycScalar(self.ctx, tuple(x * fa + y * fb for x, y in zip(a.nums, b.nums)), d)

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.ctx, tuple(-c for c in self.nums), self.den)

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

    def __mul__(self, other):
        """The product, by the cheapest exact rule that applies.  A factor
        c/d with nums[1:] all zero is rational, and then the product is the
        other factor's coefficients times c over the product of the
        denominators, with no fold: a rational factor commutes with the
        reduction mod Phi_N.  When that factor is 1 (c = d = 1) the product
        is the other factor itself.  Both rules give the reduced form the
        fold would, since the stored form is unique.  Only a product of two
        irrational factors takes the schoolbook product and the fold."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # a is the rational factor if either is
        a, b = (other, self) if any(self.nums[1:]) else (self, other)
        if not any(a.nums[1:]):
            c = a.nums[0]
            if c == 1 and a.den == 1:
                return b
            return CycScalar(self.ctx, tuple(c * x for x in b.nums), a.den * b.den)
        # the schoolbook product has length 2 phi(N) - 1 < N: one fold
        d = self.ctx.degree
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(self.nums):
            if ai:
                for j, bj in enumerate(other.nums):
                    if bj:
                        prod[i + j] += ai * bj
        return self.ctx.from_cyclic(prod, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        """Inverse by the Galois norm: a^-1 = P / (a P) with P the product
        of the conjugates sigma_k(a), k != 1.

        For a unit k mod N (odd, as N is even) sigma_k sends zeta to
        zeta^k, so it moves the coefficient of zeta^e to zeta^(k e mod N):
        a rotation read back by from_cyclic.  a P is the norm of a, a
        nonzero rational for a != 0, so only integers are multiplied."""
        if self.is_zero():
            raise NotInvertibleError("division by zero in cyclotomic field")
        ctx = self.ctx
        N = ctx.N
        P = ctx.one
        for k in range(3, N, 2):
            if gcd(k, N) == 1:
                vec = [0] * N
                for e, c in enumerate(self.nums):
                    vec[k * e % N] = c
                P = P * ctx.from_cyclic(vec, self.den)
        norm = self * P
        if any(norm.nums[1:]):
            raise ArithmeticError("the norm of a nonzero element must be rational")
        return CycScalar(ctx, tuple(c * norm.den for c in P.nums), P.den * norm.nums[0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        out = self.ctx.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.ctx.n == other.ctx.n and self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.ctx.n, self.nums, self.den))

    # -- formatting / serialization -------------------------------------------

    def to_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def to_json(self) -> list[str]:
        """Each coefficient as a reduced "p/q" with q > 0, as Fraction writes it."""
        den = self.den
        out = []
        for c in self.nums:
            g = gcd(c, den)  # gcd(0, den) = den writes zero as "0/1"
            out.append(f"{c // g}/{den // g}")
        return out

    def __repr__(self):
        parts = []
        for e, f in enumerate(self.to_fractions()):
            if f == 0:
                continue
            if e == 0:
                parts.append(str(f))
            elif e == 1:
                parts.append(f"{f}*z")
            else:
                parts.append(f"{f}*z^{e}")
        return " + ".join(parts) if parts else "0"

