import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacpal import (
    GroupAlgebra,
    KTensor,
    Perm,
    all_perms,
    canonical_twist,
    embed,
    embed_pair,
    idempotent,
    ring_inverse,
    sigma,
    t_inv_of,
    t_of,
    tensor_inverse,
    twist_Js,
)
from kacpal import group_ring
from kacpal.cyclotomic import CycScalar
from kacpal.errors import ContextMismatchError, NotInvertibleError
from kacpal.group_ring import (
    _character_values,
    _unit_values,
    antipode_ring,
    character_values,
    check_tensor_invertible,
    delta_ring,
    eps_ring,
    live_index,
    slot_vector,
)


def test_group_relations():
    for n in (2, 3, 4):
        R = GroupAlgebra(n, 2)
        x1 = R.monomial(slot_vector(R.m, 1))
        assert x1 * x1 ** (n - 1) == R.one
        assert (R.one + x1) * (R.one - x1) == R.one - x1 * x1


def test_t_squared_in_h8_ring():
    # n = 2, m = 2: t = (1 + x + y - xy)/2 and t*t = 1
    R = GroupAlgebra(2, 2)
    x, y = R.monomial(slot_vector(R.m, 1)), R.monomial(slot_vector(R.m, 2))
    half = R.cyc.scalar(1) / R.cyc.scalar(2)
    t = t_of(R, 1)
    assert t == (R.one + x + y - x * y).scale(half)
    assert t * t == R.one


def test_idempotents_small_n():
    B = GroupAlgebra(2, 1)
    x = B.monomial(slot_vector(B.m, 1))
    half = B.cyc.scalar(1) / B.cyc.scalar(2)
    assert idempotent(B, 0) == (B.one + x).scale(half)
    assert idempotent(B, 1) == (B.one - x).scale(half)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_idempotents_orthogonal_complete(n):
    B = GroupAlgebra(n, 1)
    es = [idempotent(B, k) for k in range(n)]
    total = B.zero
    for j in range(n):
        for k in range(n):
            assert es[j] * es[k] == (es[j] if j == k else B.zero)
        total = total + es[j]
    assert total == B.one


def test_embed():
    R = GroupAlgebra(2, 3)
    B = GroupAlgebra(2, 1)
    assert embed(R, 2, B.monomial(slot_vector(B.m, 1))) == R.monomial(slot_vector(R.m, 2))
    e0, e1 = idempotent(B, 0), idempotent(B, 1)
    prod = embed(R, 1, e0) * embed(R, 2, e1)
    # e_0 (x) e_1 (x) 1 expanded over monomials
    half = R.cyc.scalar(1) / R.cyc.scalar(4)
    expected = R.zero
    for i in range(2):
        for j in range(2):
            c = half if j == 0 else -half
            expected = expected + R.monomial((i, j, 0), c)
    assert prod == expected
    with pytest.raises(ValueError):
        embed(R, 4, B.monomial(slot_vector(B.m, 1)))


def test_twist_js_equals_embedded_canonical():
    for n in (2, 3):
        B = GroupAlgebra(n, 1)
        J = canonical_twist(B)
        for m in (2, 3):
            R = GroupAlgebra(n, m)
            for k in range(1, m):
                assert twist_Js(R, k) == embed_pair(J, k, k + 1, R)


def test_twist_js_value_m2_n2():
    R = GroupAlgebra(2, 2)
    Js = twist_Js(R, 1)
    half = R.cyc.scalar(1) / R.cyc.scalar(2)
    expected = {
        ((0, 0), (0, 0)): half,
        ((1, 0), (0, 0)): half,
        ((0, 0), (0, 1)): half,
        ((1, 0), (0, 1)): -half,
    }
    assert Js == KTensor(R, 2, expected)


def test_sigma_basics():
    R = GroupAlgebra(2, 2)
    s = Perm.transposition(2, 1)
    assert sigma(s, R.monomial(slot_vector(R.m, 1))) == R.monomial(slot_vector(R.m, 2))
    assert sigma(s, R.one) == R.one
    R3 = GroupAlgebra(3, 3)
    # sigma_1(t_2) = (1/n) sum q^{-ij} x_1^i x_3^j
    inv_n = R3.cyc.scalar(1) / R3.cyc.scalar(3)
    expected = R3.zero
    for i in range(3):
        for j in range(3):
            expected = expected + R3.monomial((i, 0, j), R3.cyc.q_pow(-i * j) * inv_n)
    s1 = Perm.transposition(3, 1)
    s2 = Perm.transposition(3, 2)
    assert sigma(s1, t_of(R3, 2)) == expected
    assert sigma(s2, t_of(R3, 1)) == expected


def test_sigma_is_action_and_bialgebra_map():
    rng = random.Random(5)
    R = GroupAlgebra(2, 3)
    perms = all_perms(3)

    def rand_elem():
        out = R.zero
        for _ in range(3):
            exps = tuple(rng.randrange(2) for _ in range(3))
            out = out + R.monomial(exps, rng.randrange(-2, 3))
        return out

    for _ in range(10):
        a, b = rand_elem(), rand_elem()
        for w in perms:
            for v in perms:
                assert sigma(w * v, a) == sigma(w, sigma(v, a))
            assert sigma(w, a * b) == sigma(w, a) * sigma(w, b)
            assert sigma(w, a + b) == sigma(w, a) + sigma(w, b)
            # coalgebra map on monomials: Delta sigma_w = (sigma_w (x) sigma_w) Delta
            assert delta_ring(sigma(w, a)) == delta_ring(a).sigma_all(w)
            assert eps_ring(sigma(w, a)) == eps_ring(a)


def test_t_inverse_and_counit():
    for n, m in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]:
        R = GroupAlgebra(n, m)
        for k in range(1, m):
            t = t_of(R, k)
            assert t * t_inv_of(R, k) == R.one
            assert eps_ring(t) == R.cyc.one
            assert ring_inverse(t) == t_inv_of(R, k)


def test_twist_js_inverse_via_antipode_leg():
    # J_s^{-1} = (id (x) S)(J_s)
    for n, m in [(2, 2), (3, 2), (2, 3)]:
        R = GroupAlgebra(n, m)
        for k in range(1, m):
            Js = twist_Js(R, k)
            assert tensor_inverse(Js) == Js.antipode_leg(1)


def test_coalgebra_ops():
    R = GroupAlgebra(3, 2)
    x1x2 = R.monomial(slot_vector(R.m, 1)) * R.monomial(slot_vector(R.m, 2))
    leg_pairs = {(ka, kb): ca * cb for ka, ca in x1x2.terms.items() for kb, cb in x1x2.terms.items()}
    assert delta_ring(x1x2) == KTensor(R, 2, leg_pairs)
    # eps(e_k) = (1/n) sum_i q^{-ik}: geometric sum, 1 iff k = 0
    B = GroupAlgebra(3, 1)
    for k in range(3):
        expected = B.cyc.zero
        for i in range(3):
            expected = expected + B.cyc.q_pow(-i * k) * (B.cyc.scalar(1) / B.cyc.scalar(3))
        assert eps_ring(idempotent(B, k)) == expected
        assert expected == (B.cyc.one if k == 0 else B.cyc.zero)
    # antipode axiom on group-likes: mu(S (x) id)Delta(x_1) = 1
    x1 = R.monomial(slot_vector(R.m, 1))
    d = delta_ring(x1)
    acc = R.zero
    for (ka, kb), c in d.terms.items():
        acc = acc + (antipode_ring(R.from_terms({ka: R.cyc.one})) * R.from_terms({kb: c}))
    assert acc == R.one


def test_commutativity_random():
    rng = random.Random(7)
    R = GroupAlgebra(3, 2)
    for _ in range(20):
        a = R.monomial((rng.randrange(3), rng.randrange(3)), rng.randrange(1, 4))
        b = R.monomial((rng.randrange(3), rng.randrange(3)), rng.randrange(1, 4))
        c = a + b.scale(rng.randrange(-2, 3))
        d = a * b + R.one
        assert c * d == d * c


def test_ring_inverse_random_and_nonunit():
    rng = random.Random(9)
    R = GroupAlgebra(2, 2)
    found = 0
    for _ in range(50):
        a = R.zero
        for exps in R.exponent_vectors():
            a = a + R.monomial(exps, rng.randrange(-2, 3))
        try:
            inv = ring_inverse(a)
        except NotInvertibleError:
            continue
        found += 1
        assert a * inv == R.one
    assert found > 5
    B = GroupAlgebra(2, 1)
    with pytest.raises(NotInvertibleError):
        ring_inverse(embed(GroupAlgebra(2, 2), 1, idempotent(B, 0)))


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        GroupAlgebra(2, 2).one + GroupAlgebra(2, 3).one
    with pytest.raises(ContextMismatchError):
        GroupAlgebra(2, 2).one * GroupAlgebra(3, 2).one


def test_ring_elem_json():
    R = GroupAlgebra(2, 2)
    elem = R.one + R.monomial(slot_vector(R.m, 1)).scale(R.cyc.p)
    js = elem.to_json()
    assert js == [
        {"exponents": [0, 0], "coeff": ["1/1", "0/1"]},
        {"exponents": [1, 0], "coeff": ["0/1", "1/1"]},
    ]


# ---------------------------------------------------------------------------
# the character transform against the direct O(n^(2 width)) double sum


def reference_inverse_terms(R, terms, width):
    """The inverse of sum c_beta x^beta in K[Z_n^width] by evaluating every
    character on every term and summing the inverse values over every
    character for every key; None for a non-unit."""
    cyc = R.cyc
    chis = list(iproduct(range(R.n), repeat=width))
    values = []
    for chi in chis:
        v = cyc.zero
        for key, c in terms.items():
            v = v + c * cyc.q_pow(sum(x * y for x, y in zip(chi, key)))
        if v.is_zero():
            return None
        values.append(v.inv())
    inv_size = cyc.scalar(Fraction(1, R.n**width))
    out = {}
    for beta in chis:
        v = cyc.zero
        for chi, ev in zip(chis, values):
            v = v + ev * cyc.q_pow(-sum(x * y for x, y in zip(chi, beta)))
        v = v * inv_size
        if v:
            out[beta] = v
    return out


def as_tensor(n, width, terms):
    """The same flat terms as a tensor: two legs of width/2 slots when the
    width is even, width legs over B otherwise."""
    m, arity = (width // 2, 2) if width % 2 == 0 else (1, width)
    keys = {tuple(k[i * m : (i + 1) * m] for i in range(arity)): c for k, c in terms.items()}
    return KTensor(GroupAlgebra(n, m), arity, keys)


def flat(J):
    return {tuple(e for leg in k for e in leg): c for k, c in J.terms.items()}


def check_against_reference(n, width, terms):
    R = GroupAlgebra(n, width)
    a = R.from_terms(terms)
    J = as_tensor(n, width, a.terms)
    expected = reference_inverse_terms(R, a.terms, width)
    if expected is None:
        with pytest.raises(NotInvertibleError):
            ring_inverse(a)
        with pytest.raises(NotInvertibleError):
            check_tensor_invertible(J)
        return
    inv = ring_inverse(a)
    assert list(inv.terms.items()) == list(expected.items())  # same keys, same order
    assert a * inv == R.one
    J_inv = tensor_inverse(J)
    assert flat(J_inv) == expected
    check_tensor_invertible(J)
    one = KTensor(J.ring, J.arity, {(J.ring.zero_exp,) * J.arity: R.cyc.one})
    assert J * J_inv == one


# widths up to n^width <= 125 keep the reference under 16k products
MAX_WIDTH = {2: 4, 3: 4, 4: 3, 5: 3}


@st.composite
def sparse_elements(draw):
    """(n, width, terms): one to five terms with coefficients k zeta^e / d,
    keyed on a drawn subset of live axes, the other axes all zero."""
    n = draw(st.integers(2, 5))
    width = draw(st.integers(1, MAX_WIDTH[n]))
    live = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    cyc = GroupAlgebra(n, 1).cyc
    key = st.tuples(*[st.integers(0, n - 1) if on else st.just(0) for on in live])
    coeff = st.builds(
        lambda k, e, d: cyc.scalar(Fraction(k, d)) * cyc.root(e),
        st.integers(-3, 3).filter(bool),
        st.integers(0, 2 * n - 1),
        st.integers(1, 6),
    )
    terms = draw(st.dictionaries(key, coeff, min_size=1, max_size=5))
    return n, width, terms


@settings(max_examples=60, deadline=None)
@given(sparse_elements())
def test_inverse_matches_reference(case):
    check_against_reference(*case)


@pytest.mark.parametrize("n, width", [(2, 1), (2, 4), (3, 3), (4, 2), (5, 3)])
def test_non_units_raise(n, width):
    R = GroupAlgebra(n, width)
    rng = random.Random(n * 10 + width)
    for i in range(1, width + 1):
        alpha = tuple(rng.randrange(n) for _ in range(width))
        for a in (R.monomial(alpha) * (R.one - R.monomial(slot_vector(R.m, i))), R.zero):
            with pytest.raises(NotInvertibleError):
                ring_inverse(a)
            with pytest.raises(NotInvertibleError):
                check_tensor_invertible(as_tensor(n, width, a.terms))


def _control_cases():
    """Units with a dead middle axis, whose inverses are not invariant under
    beta -> -beta."""
    cases = []
    for n in (3, 4, 5):
        cyc = GroupAlgebra(n, 1).cyc
        terms = {
            (0, 0, 0): cyc.scalar(2),
            (1, 0, 2): cyc.q,
            (2, 0, 1): cyc.scalar(Fraction(1, 2)) * cyc.p,
        }
        assert reference_inverse_terms(GroupAlgebra(n, 3), terms, 3) is not None
        cases.append((n, 3, terms))
    return cases


def test_control_cases_pass():
    for case in _control_cases():
        check_against_reference(*case)


def test_negative_control_wrong_rotation_sign(monkeypatch):
    # Flipping the sign in both directions permutes the characters and still
    # inverts; the fault is an inverse pass rotating like the forward one.
    original = group_ring._character_pass
    monkeypatch.setattr(group_ring, "_character_pass", lambda vecs, n, sign: original(vecs, n, 1))
    for case in _control_cases():
        with pytest.raises(AssertionError):
            check_against_reference(*case)


def test_negative_control_wrong_axis(monkeypatch):
    original = group_ring._embed_live
    monkeypatch.setattr(
        group_ring,
        "_embed_live",
        lambda coords, live, width: original(coords, [(i + 1) % width for i in live], width),
    )
    for case in _control_cases():
        with pytest.raises(AssertionError):
            check_against_reference(*case)


# ---------------------------------------------------------------------------
# the character pass against term-by-term sums, on general coefficients


def term_by_term_values(cyc, items, live, sign, scale=1):
    """[sum_i c_i q^{sign chi.beta_i} / scale for chi in Z_n^live], one scalar
    product per character and term."""
    betas = list(iproduct(range(cyc.n), repeat=live))
    out = []
    for chi in betas:
        v = cyc.zero
        for idx, c in items:
            v = v + c * cyc.q_pow(sign * sum(x * y for x, y in zip(chi, betas[idx])))
        out.append(v * cyc.scalar(Fraction(1, scale)))
    return out


def general_coefficients(cyc):
    """Elements of Q(zeta_2n) with every coordinate drawn, over a denominator."""
    return st.builds(
        lambda nums, d: CycScalar(cyc, tuple(nums), d),
        st.lists(st.integers(-9, 9), min_size=cyc.degree, max_size=cyc.degree),
        st.integers(1, 8),
    )


@st.composite
def character_cases(draw):
    """(cyc, items, live, sign, scale) with n^live <= 64."""
    n = draw(st.integers(2, 5))
    live = draw(st.integers(1, {2: 6, 3: 3, 4: 3, 5: 2}[n]))
    cyc = GroupAlgebra(n, 1).cyc
    items = draw(st.dictionaries(st.integers(0, n**live - 1), general_coefficients(cyc), min_size=1, max_size=6))
    return cyc, sorted(items.items()), live, draw(st.sampled_from([1, -1])), draw(st.integers(1, 6))


@settings(max_examples=80, deadline=None)
@given(character_cases())
def test_character_values_match_term_by_term_sums(case):
    assert _character_values(*case) == term_by_term_values(*case)


@st.composite
def elements_with_dead_axes(draw):
    """(n, width, terms) with general coefficients and at least one axis on
    which every key is zero."""
    n = draw(st.integers(2, 5))
    width = draw(st.integers(2, MAX_WIDTH[n]))
    dead = draw(st.integers(0, width - 1))
    cyc = GroupAlgebra(n, 1).cyc
    key = st.tuples(*[st.just(0) if i == dead else st.integers(0, n - 1) for i in range(width)])
    return n, width, draw(st.dictionaries(key, general_coefficients(cyc), min_size=1, max_size=5))


@settings(max_examples=60, deadline=None)
@given(elements_with_dead_axes())
def test_values_with_dead_axes_and_inverse_round_trip(case):
    n, width, terms = case
    R = GroupAlgebra(n, width)
    a = R.from_terms(terms)
    J = as_tensor(n, width, a.terms)
    everywhere = range(width)
    want = term_by_term_values(R.cyc, [(live_index(key, everywhere, n), c) for key, c in a.terms.items()], width, 1)
    if not all(want):
        with pytest.raises(NotInvertibleError):
            check_tensor_invertible(J)
        with pytest.raises(NotInvertibleError):
            ring_inverse(a)
        return
    check_tensor_invertible(J)
    assert character_values(R, a.terms, width) == want
    live, values = _unit_values(R, a.terms, width)
    chis = iproduct(range(n), repeat=width)
    assert all(values[live_index(chi, live, n)] == v for chi, v in zip(chis, want))
    assert ring_inverse(a) * a == R.one
    one = KTensor(J.ring, J.arity, {(J.ring.zero_exp,) * J.arity: R.cyc.one})
    assert tensor_inverse(J) * J == one


def rotating_pass(skip_axis=None):
    """The character pass written per entry, with the rotation left out on
    axis skip_axis (0 is the axis of stride 1) when it is given."""

    def run(vecs, n, sign):
        N, stride, axis = 2 * n, 1, 0
        while stride < len(vecs):
            out = [[0] * N for _ in vecs]
            for idx, v in enumerate(vecs):
                e = idx // stride % n
                for k in range(n):
                    r = 0 if axis == skip_axis else 2 * sign * k * e
                    for t, c in enumerate(v):
                        out[idx + (k - e) * stride][(t + r) % N] += c
            vecs, stride, axis = out, stride * n, axis + 1
        return vecs

    return run


def _transform_control_cases():
    out = []
    for n in (2, 3, 5):
        cyc = GroupAlgebra(n, 1).cyc
        items = [(0, cyc.scalar(Fraction(7, 2))), (1, cyc.p * 3 - 1), (n + 1, CycScalar(cyc, (2,) * cyc.degree, 3))]
        out += [(cyc, items, 2, sign, 2) for sign in (1, -1)]
    return out


@pytest.mark.parametrize("skip_axis, fails", [(None, False), (0, True), (1, True)])
def test_pass_skipping_the_rotation_on_one_axis_fails(monkeypatch, skip_axis, fails):
    monkeypatch.setattr(group_ring, "_character_pass", rotating_pass(skip_axis))
    verdicts = [_character_values(*case) == term_by_term_values(*case) for case in _transform_control_cases()]
    assert verdicts == [not fails] * len(verdicts)
