import random
from fractions import Fraction

import pytest

from kacpal import CycContext, cyclotomic_polynomial, euler_phi
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
