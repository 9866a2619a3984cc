import random
from fractions import Fraction
from itertools import product as iproduct
from operator import ne

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
from kacpal.group_ring import check_tensor_invertible
from kacpal.sparse import accumulate
from kacpal.twists import (
    _counit_failure,
    _strong_failure,
    _superstrong_failure,
    _twist_failure,
    character_table,
    search_central_converse,
    unit_tensor,
)

from dense_twists import dense_embedded_twist, dense_superstrong


def _check(report):
    """The one check of a predicate's report."""
    (check,) = report.checks
    return check


def _sides(V, condition, characters):
    """Both sides of the named condition, read as products of V's values
    at the named characters."""
    n = len(V)
    condition = condition.rsplit(":", 1)[-1]
    if condition.startswith("counit"):
        a, b = characters
        assert (a if condition == "counit-left" else b) == 0
        return V[a][b], V[0][0].ctx.one
    if condition == "twist-equation":  # (S) at (a, b, b', c')
        a, b, b2, c2 = characters
        return V[(a + b) % n][c2] * V[a][b2], V[a][(b2 + c2) % n] * V[b][c2]
    assert condition == "superstrong"
    p1, p2, p3, p4 = characters
    return V[(p1 + p3) % n][(p2 + p4) % n], V[p1][p4] * V[p2][p3] * V[p1][p2] * V[p3][p4]


def _assert_table_witness(V, check):
    """A failing check names characters at which V's two sides differ, and
    records those sides; a superstrong failure names the first such
    quadruple."""
    assert check["status"] == "fail"
    witness = check["witness"]
    lhs, rhs = _sides(V, check["name"], witness["characters"])
    assert lhs != rhs
    assert (witness["lhs"], witness["rhs"]) == (lhs.to_json(), rhs.to_json())
    if check["name"] == "superstrong":
        first = next(p for p in iproduct(range(len(V)), repeat=4) if ne(*_sides(V, "superstrong", p)))
        assert witness["characters"] == list(first)


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
    assert _check(res)["name"].startswith("counit")
    witness = _check(res)["witness"]
    assert "key" in witness and "lhs" in witness and "rhs" in witness


def test_group_like_fails_superstrong():
    B = GroupAlgebra(2, 1)
    xx = KTensor(B, 2, {((1,), (1,)): B.cyc.one})
    res = is_superstrong(xx)
    assert not res.ok
    assert not dense_superstrong(xx)
    _assert_table_witness(character_table(xx), _check(res))


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


def _random_unit(B, rng):
    """A random invertible element of B (x) B with coefficients in -2..2."""
    while True:
        J = KTensor(B, 2, {
            ((i,), (j,)): B.cyc.scalar(c)
            for i in range(B.n)
            for j in range(B.n)
            if (c := rng.randrange(-2, 3))
        })
        try:
            check_tensor_invertible(J)
        except NotInvertibleError:
            continue
        return J


def _oracle_family(n):
    """Random units, coboundaries df with f(0) = 1, the bicharacters q^(ckl),
    the canonical twist, the unit of B (x) B, an element whose counits fail
    on the right only, and, for n > 2, q^(k l^2) and q^(k^2 l), which are
    characters in one argument only, so each fails one bicharacter rule."""
    B = GroupAlgebra(n, 1)
    rng = random.Random(100 + n)
    family = [("random", _random_unit(B, rng)) for _ in range(3)]
    for _ in range(2):
        f = [B.cyc.one] + [B.cyc.scalar(rng.choice([-3, -2, 2, 3])) for _ in range(n - 1)]
        family.append(("coboundary", _from_characters(B, lambda k, l: f[k] * f[l] / f[(k + l) % n])))
    for c in range(min(n, 3)):
        family.append((f"bicharacter-{c}", _from_characters(B, lambda k, l: B.cyc.q_pow(c * k * l))))
    family.append(("canonical", canonical_twist(B)))
    family.append(("unit", unit_tensor(B, 2)))
    two = B.cyc.scalar(2)
    family.append(("counit-right", _from_characters(B, lambda k, l: two if l == 0 < k else B.cyc.one)))
    if n > 2:
        family.append(("one-sided", _from_characters(B, lambda k, l: B.cyc.q_pow(k * l * l))))
        family.append(("one-sided-transposed", _from_characters(B, lambda k, l: B.cyc.q_pow(k * k * l))))
    return family


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_character_table_is_the_values_at_character_pairs(n):
    """The table of one transform over both axes equals J's values summed
    term by term, for units, elements with a dead axis, and the non-unit
    e_0 (x) 1."""
    B = GroupAlgebra(n, 1)
    two = B.cyc.scalar(2)
    one_sided = [
        KTensor(B, 2, {((0,), (0,)): two, ((1,), (0,)): B.cyc.one}),
        KTensor(B, 2, {((0,), (0,)): two, ((0,), (n - 1,)): B.cyc.q}),
        KTensor(B, 2, {((i,), (0,)): B.cyc.scalar(Fraction(1, n)) for i in range(n)}),
    ]
    for J in [J for _, J in _oracle_family(n)] + one_sided:
        v = _values(J)
        assert character_table(J) == [[v[a, b] for b in range(n)] for a in range(n)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_table_verdicts_match_the_dense_predicates(n):
    """Every verdict on J's character table equals its dense predicate,
    every embedding into B^(x)m, m <= 4, is a twist exactly when J is strong
    and fails the dense condition, and every failure names characters at
    which V's two sides differ."""
    for kind, J in _oracle_family(n):
        V = character_table(J)
        ones = unit_tensor(J.ring, 1)
        assert (_counit_failure(V) is None) == (J.counit_leg(0) == ones and J.counit_leg(1) == ones), kind
        assert (_twist_failure(V) is None) == is_twist(J).ok, kind
        strong = dense_embedded_twist(J, 1, 2, 2).ok
        assert (_strong_failure(V) is None) == strong, kind
        superstrong = dense_superstrong(J)
        assert (_superstrong_failure(V) is None) == superstrong, kind
        reports = [(is_strong_twist(J), "strong-twist:", dense_embedded_twist(J, 1, 2, 2))]
        for m in (2, 3, 4):
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    dense = dense_embedded_twist(J, i, j, m)
                    assert dense.ok == strong, (kind, i, j, m)
                    reports.append((embedded_twist(J, i, j, m), f"embedded-twist({i},{j},{m}):", dense))
        for report, prefix, dense in reports:
            assert report.ok == strong, (kind, prefix)
            assert _check(report)["name"] == prefix + _check(dense)["name"], kind
            if not strong:
                _assert_table_witness(V, _check(report))
        assert is_superstrong(J).ok == superstrong, kind
        if not superstrong:
            _assert_table_witness(V, _check(is_superstrong(J)))


def test_superstrong_of_a_non_unit_is_decided_on_the_table():
    """e_0 (x) 1 and 0 are not units: superstrong reads their tables, which
    have a zero value, and agrees with the dense oracle (the first fails,
    the second passes), while the strong and embedded predicates refuse
    them."""
    B = GroupAlgebra(2, 1)
    half = B.cyc.scalar(Fraction(1, 2))
    e0 = KTensor(B, 2, {((0,), (0,)): half, ((1,), (0,)): half})
    for J, ok in [(e0, False), (KTensor(B, 2, {}), True)]:
        V = character_table(J)
        assert any(v.is_zero() for row in V for v in row)
        assert dense_superstrong(J) == ok
        res = is_superstrong(J)
        assert res.ok == ok
        if not ok:
            _assert_table_witness(V, _check(res))
        with pytest.raises(NotInvertibleError):
            is_strong_twist(J)
        with pytest.raises(NotInvertibleError):
            embedded_twist(J, 1, 3, 3)


def _dense_search(n, count, seed):
    """search_central_converse with every sample classified by the dense
    predicates."""
    B = GroupAlgebra(n, 1)
    rng = random.Random(seed)
    out = {"invertible": 0, "twist_and_strong": 0, "strong_only": 0, "neither": 0}
    separating = []
    for _ in range(count):
        terms = {}
        for i in range(n):
            for j in range(n):
                c = rng.randrange(-2, 3)
                if c:
                    terms[((i,), (j,))] = B.cyc.scalar(c)
        J = KTensor(B, 2, terms)
        try:
            twist_eq = is_twist(J).ok
        except NotInvertibleError:
            continue
        out["invertible"] += 1
        strong = dense_embedded_twist(J, 1, 2, 2).ok
        if twist_eq and not strong:
            separating.append(J.to_json())
        elif twist_eq:
            out["twist_and_strong"] += 1
        elif strong:
            out["strong_only"] += 1
        else:
            out["neither"] += 1
    return dict(out, n=n, samples=count, separating_candidates=separating, resolved=False)


@pytest.mark.parametrize("n, count, seed", [(2, 2000, 3), (3, 300, 1), (4, 100, 2)])
def test_converse_search_matches_dense_classification(n, count, seed):
    assert search_central_converse(n, count, seed) == _dense_search(n, count, seed)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_changed_coefficient_fails_with_the_dense_witness(n):
    """Negative control: one coefficient of the canonical J moved by 2 (it
    stays a unit, as |q^e| = 1 < 2) makes strong, every embedding up to
    m = 3 and superstrong fail, as their dense oracles do; each names the
    dense oracle's failing condition, and a witness whose two sides differ
    and are V's at the named characters."""
    B = GroupAlgebra(n, 1)
    J0 = canonical_twist(B)
    assert is_strong_twist(J0).ok and is_superstrong(J0).ok
    terms = dict(J0.terms)
    terms[(1,), (1,)] = terms[(1,), (1,)] + 2
    J = KTensor(B, 2, terms)
    V = character_table(J)
    reports = [(is_strong_twist(J), "strong-twist:", dense_embedded_twist(J, 1, 2, 2))]
    for m in (2, 3):
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                prefix = f"embedded-twist({i},{j},{m}):"
                reports.append((embedded_twist(J, i, j, m), prefix, dense_embedded_twist(J, i, j, m)))
    for report, prefix, dense in reports:
        assert not report.ok and not dense.ok
        assert _check(report)["name"] == prefix + _check(dense)["name"]
        _assert_table_witness(V, _check(report))
    assert not dense_superstrong(J)
    superstrong = is_superstrong(J)
    assert not superstrong.ok
    _assert_table_witness(V, _check(superstrong))
