"""Shared exception types, and the size guard that raises SizeGuardError."""

from fractions import Fraction


class ContextMismatchError(ValueError):
    """Raised when elements from different algebra contexts are combined."""


class NotInvertibleError(ZeroDivisionError):
    """Raised when inverting zero or a non-unit."""


class SizeGuardError(RuntimeError):
    """Raised when a computation would exceed a configured size guard."""


# the largest work a refusal names exactly; a larger one is named "over 10^30"
_NAMED_WORK = 10**30


def size_guard(factors, bound: int, refusal) -> None:
    """Refuse a work above bound, the product of factors (integers >= 1, or
    0 as the first): raise SizeGuardError(f"{refusal(work)} > {bound}").

    The product is formed only until it passes 10^30, and a refusal names
    such a work "over 10^30", so pricing (2^m m!)^2 at m = 10^6 takes a few
    products, and no refusal writes an int of over 4300 digits, which Python
    refuses to convert to str."""
    work = 1
    for f in factors:
        work *= f
        if work > _NAMED_WORK:
            raise SizeGuardError(f"{refusal('over 10^30')} > {bound}")
    if work > bound:
        raise SizeGuardError(f"{refusal(work)} > {bound}")


def binomial_factors(top: int, k: int):
    """The factors (top - k + i) / i, i = 1..k, of comb(top, k) for
    top >= k; each is >= 1, and the first j multiply to comb(top - k + j, j)."""
    return (Fraction(top - k + i, i) for i in range(1, k + 1))
