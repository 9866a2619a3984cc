import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kacpal import (
    GroupAlgebra,
    KTensor,
    antipode_conditions,
    canonical_twist,
    embedded_twist,
    idempotent,
    is_strong_twist,
    is_superstrong,
    is_twist,
)
from kacpal.errors import NotInvertibleError
from kacpal.sparse import accumulate
from kacpal.twists import search_central_converse, unit_tensor


@pytest.mark.parametrize("n", [2, 3, 4])
def test_canonical_twist_suite(n):
    B = GroupAlgebra(n, 1)
    J = canonical_twist(B)
    assert is_twist(J).ok
    assert is_strong_twist(J).ok
    assert is_superstrong(J).ok
    assert antipode_conditions(J).ok
    for m in (2, 3):
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                assert embedded_twist(J, i, j, m).ok, (i, j, m)


def test_unit_is_a_twist():
    for n in (2, 3):
        B = GroupAlgebra(n, 1)
        one = unit_tensor(B, 2)
        assert is_twist(one).ok
        assert is_strong_twist(one).ok
        assert is_superstrong(one).ok
        assert antipode_conditions(one).ok
        assert embedded_twist(one, 1, 2, 2).ok


def test_group_like_fails_counit_with_witness():
    B = GroupAlgebra(2, 1)
    xx = KTensor(B, 2, {((1,), (1,)): B.cyc.one})
    res = is_twist(xx)
    assert not res.ok
    assert res.condition.startswith("counit")
    assert res.witness is not None
    assert "lhs" in res.witness and "rhs" in res.witness


def test_group_like_fails_superstrong():
    B = GroupAlgebra(2, 1)
    xx = KTensor(B, 2, {((1,), (1,)): B.cyc.one})
    res = is_superstrong(xx)
    assert not res.ok
    # LHS diagonal term x(x)x(x)x(x)x vs RHS 1(x)1(x)1(x)1
    assert res.witness is not None


@pytest.mark.parametrize("n", [3, 4])
def test_scalar_multiple_fails_antipode(n):
    # (id (x) S)(q) q = q^2 != 1 when n > 2
    B = GroupAlgebra(n, 1)
    qJ = KTensor(B, 2, {((0,), (0,)): B.cyc.q})
    assert not antipode_conditions(qJ).ok


def test_noninvertible_is_an_error_not_false():
    B = GroupAlgebra(2, 1)
    half = B.cyc.scalar(1) / B.cyc.scalar(2)
    # e_0 (x) 1 is idempotent, not a unit
    j_bad = KTensor(B, 2, {((0,), (0,)): half, ((1,), (0,)): half})
    with pytest.raises(NotInvertibleError):
        is_twist(j_bad)


def test_pinned_invertible_non_twist_fixture():
    # 1(x)1 + x(x)x over n=3 is invertible (no eigenvalue 1 + q^k vanishes)
    # but fails the embedded counit condition
    B = GroupAlgebra(3, 1)
    J = KTensor(B, 2, {((0,), (0,)): B.cyc.one, ((1,), (1,)): B.cyc.one})
    res = is_strong_twist(J)
    assert not res.ok


def test_random_invertible_non_strong_twist_found():
    rng = random.Random(23)
    B = GroupAlgebra(3, 1)
    found = None
    for _ in range(200):
        terms = {}
        for i in range(3):
            for j in range(3):
                c = rng.randrange(-1, 2)
                if c:
                    terms[((i,), (j,))] = B.cyc.scalar(c)
        J = KTensor(B, 2, terms)
        try:
            res = is_strong_twist(J)
        except NotInvertibleError:
            continue
        if not res.ok:
            found = J
            break
    assert found is not None


def test_twist_elements_are_central():
    # R (x) R is commutative here; asserted as a tensor-arithmetic check
    rng = random.Random(31)
    for n in (2, 3):
        B = GroupAlgebra(n, 1)
        J = canonical_twist(B)
        for _ in range(10):
            terms = {}
            for i in range(n):
                for j in range(n):
                    c = rng.randrange(-2, 3)
                    if c:
                        terms[((i,), (j,))] = B.cyc.scalar(c)
            T = KTensor(B, 2, terms)
            assert J * T == T * J


def test_converse_search_reports_no_resolution():
    out = search_central_converse(2, 30, seed=5)
    assert out["resolved"] is False
    assert out["samples"] == 30
    assert out["separating_candidates"] == []


def test_converse_search_classifies_with_the_predicates():
    out = search_central_converse(2, 2000, seed=3)
    separating = out["separating_candidates"]
    assert len(separating) == 14
    classified = out["twist_and_strong"] + out["strong_only"] + out["neither"]
    assert out["invertible"] == len(separating) + classified
    B = GroupAlgebra(2, 1)
    for candidate in separating:
        # the sampled coefficients are integers, written as ["c/1", "0/1"]
        terms = {}
        for term in candidate:
            key = tuple(tuple(leg) for leg in term["exponents"])
            terms[key] = B.cyc.scalar(Fraction(term["coeff"][0]))
        J = KTensor(B, 2, terms)
        assert is_twist(J).ok
        assert not is_strong_twist(J).ok


def _from_characters(B, v):
    """J = sum_{k,l} v(k, l) e_k (x) e_l: the element of B (x) B whose value
    at the pair of characters (x -> q^k, x -> q^l) is v(k, l)."""
    terms: dict = {}
    for k in range(B.n):
        for l in range(B.n):
            for (i,), ci in idempotent(B, k).terms.items():
                for (j,), cj in idempotent(B, l).terms.items():
                    accumulate(terms, ((i,), (j,)), v(k, l) * ci * cj)
    return KTensor(B, 2, terms)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_strong_twists_are_the_bicharacters(n):
    """Strong <=> J is a bicharacter of the dual group, and a coboundary
    f(k) f(l) / f(k + l) is a twist that need not be strong."""
    B = GroupAlgebra(n, 1)
    for c in range(n):
        J = _from_characters(B, lambda k, l: B.cyc.q_pow(c * k * l))
        assert is_twist(J).ok, c
        assert is_strong_twist(J).ok, c
    f = [B.cyc.scalar(1)] + [B.cyc.scalar(i + 2) for i in range(1, n)]
    J = _from_characters(B, lambda k, l: f[k] * f[l] / f[(k + l) % n])
    assert is_twist(J).ok
    assert not is_strong_twist(J).ok
    assert not is_superstrong(J).ok
    assert not antipode_conditions(J).ok


def _values(J):
    """J's n^2 values at the character pairs (x -> q^k, x -> q^l)."""
    cyc, n = J.ring.cyc, J.ring.n
    values = {}
    for k in range(n):
        for l in range(n):
            v = cyc.zero
            for ((i,), (j,)), c in J.terms.items():
                v = v + c * cyc.q_pow(i * k + j * l)
            values[k, l] = v
    return values


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@settings(max_examples=15, deadline=None)
@given(tail=st.lists(st.integers(-3, 3).filter(bool), min_size=4, max_size=4))
@example(tail=[1, 1, 1, 1])
@example(tail=[-1, 1, -1, 1])
def test_coboundary_twists_are_strong_exactly_when_bimultiplicative(n, tail):
    """J = df, J(k, l) = f(k) f(l) / f(k + l) with f(0) = 1 and f nonzero,
    is a twist; is_strong_twist passes exactly when J is multiplicative in
    each argument, read off J's character values."""
    B = GroupAlgebra(n, 1)
    f = [B.cyc.scalar(c) for c in [1] + tail[: n - 1]]
    J = _from_characters(B, lambda k, l: f[k] * f[l] / f[(k + l) % n])
    assert is_twist(J).ok
    v = _values(J)
    bimultiplicative = all(
        v[(a + b) % n, c] == v[a, c] * v[b, c] and v[c, (a + b) % n] == v[c, a] * v[c, b]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )
    assert is_strong_twist(J).ok == bimultiplicative
