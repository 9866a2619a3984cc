import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacpal import CycContext, cyclotomic_polynomial, euler_phi
from kacpal.cyclotomic import CycScalar, poly_divmod_int
from kacpal.errors import ContextMismatchError, NotInvertibleError


def test_standard_cyclotomics():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)       # x^2 + 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)      # x^2 - x + 1


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(num, den):
    # independent long-division oracle (monic divisor)
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        q[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    assert all(v == 0 for v in num)
    return q


def test_cyclotomic_12_against_division_oracle():
    # divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 (all standard identities)
    low = {
        1: [-1, 1],
        2: [1, 1],
        3: [1, 1, 1],
        4: [1, 0, 1],
        6: [1, -1, 1],
    }
    den = [1]
    for d in (1, 2, 3, 4, 6):
        den = _poly_mul(den, low[d])
    num = [-1] + [0] * 11 + [1]
    expected = _poly_div_exact(num, den)
    assert expected == [1, 0, -1, 0, 1]  # x^4 - x^2 + 1
    assert list(cyclotomic_polynomial(12)) == expected


def test_degree_is_euler_phi():
    for n in range(2, 9):
        ctx = CycContext(n)
        assert ctx.degree == euler_phi(2 * n)
        assert ctx.phi[-1] == 1  # monic


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_q_and_p(n):
    ctx = CycContext(n)
    q, p = ctx.q, ctx.p
    assert q * q ** (n - 1) == ctx.one
    assert p * p == q
    # q is a primitive n-th root
    acc = ctx.one
    for k in range(1, n):
        acc = acc * q
        assert acc != ctx.one
    assert acc * q == ctx.one


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_geometric_sums(n):
    ctx = CycContext(n)
    for k in range(n):
        s = ctx.zero
        for i in range(n):
            s = s + ctx.q_pow(i * k)
        assert s == (ctx.scalar(n) if k == 0 else ctx.zero)


def test_roots():
    ctx = CycContext(2)
    assert ctx.root(0) == ctx.one
    assert ctx.root(2 * ctx.n) == ctx.one
    assert ctx.root(2) == ctx.scalar(-1)  # zeta_4^2 = -1
    assert ctx.root(2).to_fractions() == (Fraction(-1), Fraction(0))
    for n in (3, 4):
        c = CycContext(n)
        assert c.root(2 * n) == c.one
        assert c.root(1) ** (2 * n) == c.one


def test_field_axioms_random():
    rng = random.Random(11)
    for n in (2, 3, 4):
        ctx = CycContext(n)

        def rand():
            return sum(
                (ctx.root(rng.randrange(2 * n)) * ctx.scalar(rng.randrange(-3, 4)) for _ in range(3)),
                ctx.zero,
            )

        for _ in range(30):
            a, b, c = rand(), rand(), rand()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if a:
                assert a * a.inv() == ctx.one
                assert a / a == ctx.one


def test_pow_and_fractions():
    ctx = CycContext(3)
    assert ctx.p ** (-1) * ctx.p == ctx.one
    assert ctx.scalar(Fraction(2, 3)) * ctx.scalar(3) == ctx.scalar(2)
    assert ctx.q_pow(5) == ctx.q ** 5


def test_zero_inversion_raises():
    ctx = CycContext(2)
    with pytest.raises(NotInvertibleError, match="division by zero in cyclotomic field"):
        ctx.zero.inv()


def test_context_mismatch():
    a = CycContext(2).one
    b = CycContext(3).one
    with pytest.raises(ContextMismatchError):
        a + b


def test_serialization():
    ctx = CycContext(2)
    s = ctx.scalar(Fraction(1, 2)) + ctx.p
    assert s.to_json() == ["1/2", "1/1"]
    assert ctx.to_json() == {"n": 2, "N": 4, "degree": 2}


def reference_to_json(a):
    return [f"{f.numerator}/{f.denominator}" for f in a.to_fractions()]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(-60, 60), min_size=4, max_size=4),
       st.integers(-36, 36).filter(bool))
def test_to_json_matches_fraction_reference(n, nums, den):
    ctx = CycContext(n)
    a = CycScalar(ctx, tuple(nums[: ctx.degree]), den)
    values = [a, -a, ctx.zero, a * ctx.p - 3]
    values += [v.inv() for v in values if not v.is_zero()]
    for v in values:
        assert v.to_json() == reference_to_json(v), v
    # a non-trivial denominator from an inverse
    inv = (ctx.p + 2).inv()
    assert inv.den > 1 and inv.to_json() == reference_to_json(inv)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_from_cyclic_reads_vector_at_zeta(n):
    ctx = CycContext(n)
    rng = random.Random(n)
    for _ in range(20):
        vec = [rng.randrange(-5, 6) for _ in range(ctx.N)]
        den = rng.randrange(1, 7)
        expected = ctx.zero
        for e, c in enumerate(vec):
            expected = expected + ctx.scalar(Fraction(c, den)) * ctx.root(e)
        assert ctx.from_cyclic(vec, den) == expected
    # sum of all N-th roots of unity is zero
    assert ctx.from_cyclic([1] * ctx.N, 3).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_root_rows_are_remainders_mod_phi(n):
    ctx = CycContext(n)
    for e in range(ctx.N):
        _, rem = poly_divmod_int([0] * e + [1], list(ctx.phi))
        assert ctx.root(e).nums == tuple(rem) + (0,) * (ctx.degree - len(rem)), e
        assert ctx.root(e).den == 1
    assert ctx.root(n) == ctx.scalar(-1)
    assert ctx.root(ctx.N) == ctx.one
    assert ctx.p ** ctx.N == ctx.one


# -- the inverse against the extended Euclidean algorithm over Q ----------------


def _frac_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    q = [Fraction(0)] * max(1, len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] / b[-1]
        q[k] = c
        for j in range(db + 1):
            a[k + j] -= c * b[j]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _frac_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _frac_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _from_fractions(ctx, coeffs):
    """The stored form of sum_e coeffs[e] zeta^e, coeffs of length degree."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return CycScalar(ctx, tuple(int(c * den) for c in coeffs), den)


def reference_inv(a):
    """a^-1 by the extended Euclidean algorithm on polynomials over Q: the
    slow, independent path (s a = gcd(a, Phi_N), a nonzero constant)."""
    ctx = a.ctx
    r0, r1 = [Fraction(c) for c in ctx.phi], [Fraction(c, a.den) for c in a.nums]
    while len(r1) > 1 and r1[-1] == 0:
        r1.pop()
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, rem = _frac_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _frac_sub(s0, _frac_mul(q, s1))
    if len(r0) != 1:
        raise ArithmeticError("gcd with Phi_N is not constant")
    coeffs = [c / r0[0] for c in s0] + [Fraction(0)] * ctx.degree
    return _from_fractions(ctx, coeffs[: ctx.degree])


def assert_inverse_matches_reference(a):
    got, want = a.inv(), reference_inv(a)
    assert (got.nums, got.den) == (want.nums, want.den), a
    assert a * got == a.ctx.one, a


@st.composite
def nonzero_scalars(draw):
    ctx = CycContext(draw(st.integers(2, 8)))
    nums = draw(st.lists(st.integers(-50, 50), min_size=ctx.degree, max_size=ctx.degree))
    if not any(nums):
        nums[draw(st.integers(0, ctx.degree - 1))] = draw(st.sampled_from([-1, 1]))
    return CycScalar(ctx, tuple(nums), draw(st.integers(1, 12)))


@settings(max_examples=150, deadline=None)
@given(nonzero_scalars())
def test_inverse_matches_reference(a):
    assert_inverse_matches_reference(a)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_inverse_control_cases(n):
    ctx = CycContext(n)
    for a in (ctx.one, ctx.scalar(Fraction(-7, 3)), ctx.p, ctx.q, ctx.p + 1, ctx.root(n - 1) * 5 - 2):
        assert_inverse_matches_reference(a)


def test_inverse_dropping_a_conjugate_fails_oracle(monkeypatch):
    def short_inv(a):
        # the Galois-norm inverse with the conjugate for the last unit k missing
        ctx, N = a.ctx, a.ctx.N
        P = ctx.one
        for k in [k for k in range(3, N, 2) if gcd(k, N) == 1][:-1]:
            vec = [0] * N
            for e, c in enumerate(a.nums):
                vec[k * e % N] = c
            P = P * ctx.from_cyclic(vec, a.den)
        norm = a * P
        return P * ctx.scalar(Fraction(norm.den, norm.nums[0]))

    monkeypatch.setattr(CycScalar, "inv", short_inv)
    for n in (2, 4, 7):
        ctx = CycContext(n)
        with pytest.raises(AssertionError):
            assert_inverse_matches_reference(ctx.p * 2 + 1)


def test_scalar_refuses_floats():
    ctx = CycContext(3)
    for bad in (0.1, 1.0, "1", None, complex(1, 0)):
        with pytest.raises(TypeError):
            ctx.scalar(bad)
    assert ctx.scalar(True) == ctx.one
    assert ctx.scalar(Fraction(1, 10)) * 10 == ctx.one


@pytest.mark.parametrize("other", ["a", None, 0.5])
def test_reflected_ops_with_foreign_types_raise_type_error(other):
    one = CycContext(2).one
    with pytest.raises(TypeError, match="unsupported operand"):
        other - one
    with pytest.raises(TypeError, match="unsupported operand"):
        other / one
    assert 3 - one == CycContext(2).scalar(2)
    assert 3 / (one * 2) == CycContext(2).scalar(Fraction(3, 2))


# -- products and sums against Fraction polynomials reduced mod Phi_N -----------


def reference_mul(a, b):
    """a b as the product of Fraction polynomials, reduced mod Phi_N by long
    division: no CycScalar arithmetic."""
    ctx = a.ctx
    _, rem = _frac_divmod(_frac_mul(a.to_fractions(), b.to_fractions()), [Fraction(c) for c in ctx.phi])
    return _from_fractions(ctx, (rem + [Fraction(0)] * ctx.degree)[: ctx.degree])


def reference_add(a, b):
    return _from_fractions(a.ctx, [x + y for x, y in zip(a.to_fractions(), b.to_fractions())])


def check_against_reference(a, b):
    """Both orders of a b and a + b, stored form included; a failure names the pair."""
    for got, want in ((a * b, reference_mul(a, b)), (b * a, reference_mul(a, b)),
                      (a + b, reference_add(a, b)), (b + a, reference_add(a, b))):
        assert (got.nums, got.den) == (want.nums, want.den), f"pair {a!r}, {b!r}: {got!r} != {want!r}"


@st.composite
def weighted_scalars(draw, ctx):
    """Scalars of ctx drawn towards the trivial cases of the fast paths: one,
    zero, rationals and (rational multiples of) roots of unity, and general
    elements otherwise."""
    kind = draw(st.sampled_from(["one", "zero", "rational", "root", "root", "general"]))
    if kind == "one":
        return ctx.one
    if kind == "zero":
        return ctx.zero
    r = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))
    if kind == "rational":
        return ctx.scalar(r)
    if kind == "root":
        root = ctx.root(draw(st.integers(0, ctx.N - 1)))
        return root if draw(st.booleans()) else root * r
    nums = draw(st.lists(st.integers(-40, 40), min_size=ctx.degree, max_size=ctx.degree))
    return CycScalar(ctx, tuple(nums), draw(st.integers(1, 12)))


@st.composite
def scalar_pairs(draw):
    ctx = CycContext(draw(st.integers(2, 6)))
    return draw(weighted_scalars(ctx)), draw(weighted_scalars(ctx))


@settings(max_examples=400, deadline=None)
@given(scalar_pairs())
def test_products_and_sums_match_fraction_reference(pair):
    check_against_reference(*pair)


def _control_pairs():
    """One pair per fast path and one for the fold, for n = 2..6."""
    pairs = []
    for n in range(2, 7):
        ctx = CycContext(n)
        half, big = ctx.scalar(Fraction(-3, 4)), CycScalar(ctx, tuple(range(1, ctx.degree + 1)), 6)
        pairs += [(ctx.one, big), (ctx.zero, big), (half, big), (big, half), (half, ctx.p * 5),
                  (ctx.scalar(Fraction(2, 3)), ctx.scalar(Fraction(9, 4))), (ctx.p + 1, big), (ctx.q, ctx.p)]
    return pairs


def test_control_pairs_match_fraction_reference():
    for a, b in _control_pairs():
        check_against_reference(a, b)


def test_rational_path_dropping_a_denominator_fails_oracle(monkeypatch):
    original = CycScalar.__mul__

    def drops_den(self, other):
        other = self._coerce(other)
        a, b = (other, self) if any(self.nums[1:]) else (self, other)
        if not any(a.nums[1:]) and a.den != 1:
            return CycScalar(self.ctx, tuple(a.nums[0] * x for x in b.nums), b.den)  # a.den dropped
        return original(self, other)

    monkeypatch.setattr(CycScalar, "__mul__", drops_den)
    ctx = CycContext(3)
    a, b = ctx.scalar(Fraction(-3, 4)), ctx.p * 5
    with pytest.raises(AssertionError, match=r"pair -3/4, 5\*z"):
        check_against_reference(a, b)


def test_context_mismatch_on_every_fast_path():
    # the coercion runs before any fast path, so one, zero and rationals
    # from Q(zeta_4) still refuse a scalar of Q(zeta_6), on either side
    four, six = CycContext(2), CycContext(3)
    for a in (four.one, four.zero, four.scalar(Fraction(1, 2)), four.p, four.p + 1):
        for b in (six.p, six.one, six.zero, six.scalar(7)):
            for x, y in ((a, b), (b, a)):
                for op in (operator.mul, operator.add, operator.sub, operator.truediv):
                    with pytest.raises(ContextMismatchError):
                        op(x, y)


def test_equal_contexts_that_are_distinct_objects_mix():
    first, second = CycContext(3), CycContext(3)
    assert first is not second
    assert first.one * second.p == second.p
    assert first.zero + second.p == second.p
    assert first.scalar(2) * second.p == second.p + second.p
    assert first.p * second.p == first.q


def test_int_and_fraction_coercion_on_both_sides():
    ctx = CycContext(4)
    a = ctx.p * 3 + 1
    half = Fraction(1, 2)
    for c in (0, 1, -2, half, Fraction(-5, 3)):
        want = reference_mul(a, ctx.scalar(c))
        assert a * c == want and c * a == want, c
        want = reference_add(a, ctx.scalar(c))
        assert a + c == want and c + a == want, c
    assert (a * 1) is a and (a + 0) is a
    assert ctx.scalar(True) == ctx.one and ctx.scalar(False) == ctx.zero
    assert type(ctx.scalar(True).nums[0]) is int
    for x in (a, ctx.one, ctx.zero, ctx.scalar(half)):
        for bad in (0.5, 1.0):
            for op in (operator.mul, operator.add):
                with pytest.raises(TypeError):
                    op(x, bad)
                with pytest.raises(TypeError):
                    op(bad, x)
