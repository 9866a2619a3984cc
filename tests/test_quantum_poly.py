import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacpal import (
    HopfAlgebra,
    QuantumPolyAlgebra,
    Rep,
    RepParams,
    monomials_of_degree,
)
from kacpal.hopf import HTensor
from kacpal.quantum_poly import QpaElem
from kacpal.sparse import accumulate
from kacpal.symmetric import Perm


def _qpa(n, m, a, b):
    return QuantumPolyAlgebra(HopfAlgebra(n, m), a, b)


# -- the dense iterated coproduct: independent slow path for act -----------------


def _dense_coproduct(qpa, w, k, memo):
    """Delta^(k-1)(w-bar) expanded in full, each step comultiplying the right
    leg by J(w): a list of (coefficient, leg exponent vectors), every leg
    carrying the permutation w."""
    key = (w, k)
    if key not in memo:
        m, n = qpa.m, qpa.n
        if k == 1:
            memo[key] = [(qpa.ctx.one, ((0,) * m,))]
        else:
            j_terms = list(qpa.hopf.j_of_word(w).terms.items())
            out = []
            for c, legs in _dense_coproduct(qpa, w, k - 1, memo):
                last = legs[-1]
                for (d1, d2), cj in j_terms:
                    split = (
                        tuple((last[i] + d1[i]) % n for i in range(m)),
                        tuple((last[i] + d2[i]) % n for i in range(m)),
                    )
                    out.append((c * cj, legs[:-1] + split))
            memo[key] = out
    return memo[key]


def reference_act(qpa, h, f, memo=None):
    """h . f through the dense iterated coproduct, one leg per letter: every
    leg x^(e + delta_i) w-bar acts on its letter by line_action and then by
    x^d . u_j = q^{a d_j + b sum_{l != j} d_l} u_j, and the images are
    normal-ordered.  |J(w)|^(k-1) terms per permutation and monomial."""
    memo = {} if memo is None else memo
    n, m = qpa.n, qpa.m
    out = {}
    for exps_f, c_f in f.terms.items():
        k = sum(exps_f)
        if k == 0:
            accumulate(out, exps_f, qpa.hopf.counit(h) * c_f)
            continue
        word = [i + 1 for i, e in enumerate(exps_f) for _ in range(e)]
        for (e_h, w), c_h in h.terms.items():
            lines = qpa.line_action(w)
            for c_t, legs in _dense_coproduct(qpa, w, k, memo):
                scalar = c_h * c_f * c_t
                new_letters = []
                for leg, j in zip(legs, word):
                    c_line, j2 = lines[j - 1]
                    total = [(leg[i] + e_h[i]) % n for i in range(m)]
                    x_exp = qpa.a * total[j2 - 1] + qpa.b * (sum(total) - total[j2 - 1])
                    scalar = scalar * c_line * qpa.ctx.q_pow(x_exp)
                    new_letters.append(j2)
                for e, c in qpa.normal_order(new_letters).terms.items():
                    accumulate(out, e, c * scalar)
    return QpaElem(qpa, out)


def first_oracle_mismatch(qpa, max_degree):
    """The first (basis key, monomial) where a column of action_matrix
    differs from reference_act, or None."""
    hopf = qpa.hopf
    memo = {}
    for key in hopf.basis_keys():
        h = hopf.basis_elem(*key)
        for k in range(max_degree + 1):
            mat = qpa.action_matrix(h, k)
            mons = qpa.monomials(k)
            for col, mon in enumerate(mons):
                ref = reference_act(qpa, h, qpa.monomial(mon), memo)
                if any(mat[row, col] != ref.terms.get(mons[row], qpa.ctx.zero)
                       for row in range(len(mons))):
                    return key, mon
    return None


ORACLE_INSTANCES = [
    (2, 2, 1, 0, 5),
    (3, 2, 1, 0, 4),
    (3, 2, 2, 1, 4),
    (2, 3, 1, 0, 3),
    (3, 3, 1, 0, 2),
    (3, 3, 2, 1, 2),
]


@pytest.mark.parametrize("n,m,a,b,k", ORACLE_INSTANCES)
def test_weight_action_matches_dense_coproduct(n, m, a, b, k):
    qpa = _qpa(n, m, a, b)
    assert first_oracle_mismatch(qpa, k) is None


def _qpa_elements(qpa):
    """Sums of one to three basis elements of H with coefficients k zeta^e,
    and polynomials of degree <= 3 with small integer coefficients."""
    hopf = qpa.hopf
    term = st.tuples(
        st.sampled_from(hopf.basis_keys()),
        st.integers(-3, 3).filter(bool),
        st.integers(0, 2 * hopf.n - 1),
    )

    def build_h(terms):
        out = hopf.zero()
        for (exps, w), k, e in terms:
            out = out + hopf.basis_elem(exps, w, hopf.cyc.scalar(k) * hopf.cyc.root(e))
        return out

    mons = [mon for k in range(4) for mon in qpa.monomials(k)]
    poly_term = st.tuples(st.sampled_from(mons), st.integers(-3, 3).filter(bool))

    def build_f(terms):
        out = qpa.zero()
        for mon, c in terms:
            out = out + qpa.monomial(mon, c)
        return out

    return (
        st.lists(term, min_size=1, max_size=3).map(build_h),
        st.lists(poly_term, min_size=1, max_size=4).map(build_f),
    )


PROPERTY_ALGEBRAS = [_qpa(2, 2, 1, 0), _qpa(3, 2, 2, 1)]


@pytest.mark.parametrize("qpa", PROPERTY_ALGEBRAS, ids=lambda q: f"H({q.n},{q.m})")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_weight_action_matches_dense_on_random_elements(qpa, data):
    hs, fs = _qpa_elements(qpa)
    h, f = data.draw(hs), data.draw(fs)
    assert qpa.act(h, f) == reference_act(qpa, h, f)


def _assert_real_witness(qpa, witness, degree):
    assert witness is not None
    key, mon = witness
    assert sum(mon) == degree
    h, f = qpa.hopf.basis_elem(*key), qpa.monomial(mon)
    assert qpa.act(h, f) != reference_act(qpa, h, f)


def test_negative_control_swapped_j_arguments(monkeypatch):
    # J_w(psi', psi) for J_w(psi, psi').  A fault on H(3,2) with (a, b) =
    # (1, 0) from degree 2, but not with (2, 1) through degree 4, where J_w
    # is symmetric at every pair of weights that occurs
    original = QuantumPolyAlgebra.j_value
    monkeypatch.setattr(
        QuantumPolyAlgebra, "j_value", lambda self, w, psi, psi2: original(self, w, psi2, psi)
    )
    qpa = _qpa(3, 2, 1, 0)
    witness = first_oracle_mismatch(qpa, 2)
    assert witness == (((0, 0), Perm.transposition(2, 1)), (1, 1))
    _assert_real_witness(qpa, witness, 2)


def test_negative_control_prefix_sums(monkeypatch):
    # psi_1 + ... + psi_i for psi_{i+1} + ... + psi_k.  On H(3,2) with
    # (a, b) = (1, 0) every degree-2 column still agrees with the dense path
    # (and on H(3,3) too); the first witness is u_1 u_2^2 in degree 3
    def prefix_sums(self, weights):
        n = self.n
        out, head = [], (0,) * self.m
        for psi in weights[:-1]:
            head = tuple((t + x) % n for t, x in zip(head, psi))
            out.append(head)
        return out

    monkeypatch.setattr(QuantumPolyAlgebra, "later_weights", prefix_sums)
    qpa = _qpa(3, 2, 1, 0)
    assert first_oracle_mismatch(qpa, 2) is None
    witness = first_oracle_mismatch(qpa, 3)
    assert witness[1] == (1, 2)
    _assert_real_witness(qpa, witness, 3)


@pytest.mark.parametrize("n,m,a,b", [(2, 2, 1, 0), (3, 2, 2, 1), (2, 3, 1, 0)])
def test_left_comb_gives_the_same_scalar(n, m, a, b):
    # comultiplying the left leg instead of the right one is no fault: the
    # two products agree by the 2-cocycle identity of J_w (coassociativity)
    qpa = _qpa(n, m, a, b)
    weights = [qpa.params.weight(j) for j in range(1, m + 1)]

    def add(x, y):
        return tuple((s + t) % n for s, t in zip(x, y))

    for w in qpa.hopf.perms:
        for p1 in weights:
            for p2 in weights:
                for p3 in weights:
                    right = qpa.j_value(w, p1, add(p2, p3)) * qpa.j_value(w, p2, p3)
                    left = qpa.j_value(w, add(p1, p2), p3) * qpa.j_value(w, p1, p2)
                    assert left == right, (w, p1, p2, p3)


@pytest.mark.parametrize(
    "n,m,a,b,subalgebra,degree",
    [(2, 2, 1, 0, "full", 8), (3, 3, 1, 0, "full", 4), (2, 3, 1, 0, "cyclic", 4)],
)
def test_invariant_dimension_is_projector_trace(n, m, a, b, subalgebra, degree):
    # dim A_k^{H'} = tr rho_k(Lambda') / eps(Lambda'), the trace of an idempotent
    qpa = _qpa(n, m, a, b)
    inv = qpa.invariants(subalgebra, degree)
    lam = qpa._subalgebra_integral(subalgebra)
    for k in range(degree + 1):
        proj = qpa.integral_projector(lam, k)
        trace = sum((proj[i, i] for i in range(proj.shape[0])), qpa.ctx.zero)
        assert trace == qpa.ctx.scalar(len(inv[k])), (subalgebra, k)


def test_r_matrix_values_a1_b0():
    qpa = _qpa(2, 3, 1, 0)
    p = qpa.ctx.p
    for i in range(1, 4):
        assert qpa.r(i, i) == qpa.ctx.one
        for j in range(i + 1, 4):
            assert qpa.r(j, i) == p  # u_j u_i = p u_i u_j for i < j
            assert qpa.r(i, j) * qpa.r(j, i) == qpa.ctx.one


def test_r_matrix_power_identity_n_even():
    import warnings

    for n in (2, 4):
        for a, b in [(1, 0), (3 % n, 1)]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # (1,1) at n=2 is deliberate
                qpa = _qpa(n, 2, a, b)
            for i in (1, 2):
                for j in (1, 2):
                    if i != j:
                        assert qpa.r(i, j) ** (n * n) == qpa.ctx.one


def test_normal_order_examples():
    qpa = _qpa(2, 2, 1, 0)
    p = qpa.ctx.p
    assert qpa.normal_order([2, 1]) == qpa.monomial((1, 1), p)
    assert qpa.normal_order([1, 1]) == qpa.monomial((2, 0))
    # three-letter word: any swap order gives the same scalar
    qpa3 = _qpa(3, 3, 2, 1)
    direct = qpa3.normal_order([3, 2, 1])
    expected_coeff = qpa3.r(3, 2) * qpa3.r(3, 1) * qpa3.r(2, 1)
    assert direct == qpa3.monomial((1, 1, 1), expected_coeff)


def _normal_order_random_strategy(qpa, word, rng):
    letters = list(word)
    coeff = qpa.ctx.one
    while True:
        descents = [i for i in range(len(letters) - 1) if letters[i] > letters[i + 1]]
        if not descents:
            break
        i = rng.choice(descents)
        coeff = coeff * qpa.r(letters[i], letters[i + 1])
        letters[i], letters[i + 1] = letters[i + 1], letters[i]
    exps = [0] * qpa.m
    for i in letters:
        exps[i - 1] += 1
    return qpa.monomial(exps, coeff)


def test_normal_order_confluence():
    rng = random.Random(19)
    qpa = _qpa(3, 3, 2, 1)
    for _ in range(40):
        word = [rng.randrange(1, 4) for _ in range(rng.randrange(0, 9))]
        reference = qpa.normal_order(word)
        for _ in range(3):
            assert _normal_order_random_strategy(qpa, word, rng) == reference


@pytest.mark.parametrize("n,m,a,b", [(2, 2, 1, 0), (3, 3, 2, 1), (4, 3, 1, 0)])
def test_normal_order_past_twice_n_letters(n, m, a, b):
    # A_{a,b} is graded, not truncated: words of length 2n + 3 normal-order
    # like any other, and the pass count matches random adjacent swaps
    rng = random.Random(n * 10 + m)
    qpa = _qpa(n, m, a, b)
    for _ in range(20):
        word = [rng.randrange(1, m + 1) for _ in range(2 * n + 3)]
        assert qpa.normal_order(word) == _normal_order_random_strategy(qpa, word, rng)


def test_product_closed_form_matches_word_concatenation():
    rng = random.Random(21)
    qpa = _qpa(3, 2, 1, 0)
    for _ in range(30):
        ea = tuple(rng.randrange(3) for _ in range(2))
        eb = tuple(rng.randrange(2) for _ in range(2))
        wa = [i + 1 for i, e in enumerate(ea) for _ in range(e)]
        wb = [i + 1 for i, e in enumerate(eb) for _ in range(e)]
        product = qpa.monomial(ea) * qpa.monomial(eb)
        assert product == _normal_order_random_strategy(qpa, wa + wb, rng)


def test_action_on_generators():
    qpa = _qpa(3, 2, 2, 1)
    H = qpa.hopf
    q = qpa.ctx.q
    assert qpa.act(H.x(1), qpa.u(1)) == qpa.u(1).scale(q ** 2)   # q^a
    assert qpa.act(H.x(2), qpa.u(1)) == qpa.u(1).scale(q)        # q^b
    assert qpa.act(H.z(1), qpa.u(1)) == qpa.u(2).scale(q ** 2)   # q^{ab}
    assert qpa.act(H.z(1), qpa.u(2)) == qpa.u(1)


def test_action_paper_products():
    # z_i . (u_i u_{i+1}) = q^{ab} q^{b^2} u_{i+1} u_i
    for n, m, a, b in [(2, 2, 1, 0), (3, 2, 2, 1), (3, 3, 2, 1)]:
        qpa = _qpa(n, m, a, b)
        H = qpa.hopf
        ctx = qpa.ctx
        for i in range(1, m):
            lhs = qpa.act(H.z(i), qpa.u(i) * qpa.u(i + 1))
            rhs = (qpa.u(i + 1) * qpa.u(i)).scale(ctx.q_pow(a * b + b * b))
            assert lhs == rhs
    # z_i . (u_i u_j) = p^{b^2} q^{ab + b^2} u_{i+1} u_j for j > i + 1
    for n, a, b in [(2, 1, 0), (3, 2, 1)]:
        qpa = _qpa(n, 3, a, b)
        H = qpa.hopf
        ctx = qpa.ctx
        lhs = qpa.act(H.z(1), qpa.u(1) * qpa.u(3))
        rhs = (qpa.u(2) * qpa.u(3)).scale(ctx.root(b * b) * ctx.q_pow(a * b + b * b))
        assert lhs == rhs


def test_unit_element_acts_as_identity():
    qpa = _qpa(2, 2, 1, 0)
    H = qpa.hopf
    f = qpa.u(1) * qpa.u(2) + qpa.monomial((2, 0), 3)
    assert qpa.act(H.unit(), f) == f
    assert qpa.act(H.z(1), qpa.one()) == qpa.one()  # eps(z) = 1


@pytest.mark.parametrize("n,m,a,b", [(2, 2, 1, 0), (3, 2, 1, 0)])
def test_degree_one_matrices_match_rep(n, m, a, b):
    qpa = _qpa(n, m, a, b)
    H = qpa.hopf
    rep = Rep(RepParams(n, m, a, b))
    for i in range(1, m + 1):
        assert qpa.action_matrix(H.x(i), 1) == rep.x(i)
    for k in range(1, m):
        assert qpa.action_matrix(H.z(k), 1) == rep.z(k)


def test_action_operators_multiplicative():
    rng = random.Random(27)
    qpa = _qpa(2, 2, 1, 0)
    H = qpa.hopf
    basis = H.basis_keys()
    for k in (1, 2, 3):
        for _ in range(8):
            h1 = H.basis_elem(*rng.choice(basis))
            h2 = H.basis_elem(*rng.choice(basis))
            assert qpa.action_matrix(h1 * h2, k) == qpa.action_matrix(h1, k) * qpa.action_matrix(h2, k)


def test_module_algebra_check_passes():
    report = _qpa(2, 2, 1, 0).module_algebra_check(degree=4)
    assert report.ok, [c for c in report.checks if c["status"] != "pass"]


def test_group_likes_multiplicative_on_all_pairs():
    qpa = _qpa(2, 2, 1, 0)
    H = qpa.hopf
    for i in (1, 2):
        x = H.x(i)
        for kf in range(3):
            for kg in range(3):
                for mf in qpa.monomials(kf):
                    for mg in qpa.monomials(kg):
                        f, g = qpa.monomial(mf), qpa.monomial(mg)
                        assert qpa.act(x, f * g) == qpa.act(x, f) * qpa.act(x, g)


class _NaiveCoproductHopf(HopfAlgebra):
    """Negative control: Delta(x^e w-bar) = x^e w-bar (x) x^e w-bar, the
    coproduct without its twist J(w)."""

    def coproduct(self, h):
        return HTensor(self, {((e, w), (e, w)): c for (e, w), c in h.terms.items()})


def test_negative_control_naive_coproduct_fails():
    qpa = QuantumPolyAlgebra(_NaiveCoproductHopf(2, 2), 1, 0)
    report = qpa.module_algebra_check(degree=2)
    assert not report.ok
    failed = next(c for c in report.checks if c["status"] == "fail")
    assert failed["witness"] is not None


def test_invariants_h8():
    qpa = _qpa(2, 2, 1, 0)
    inv = qpa.invariants("full", 4)
    assert [len(inv[k]) for k in range(5)] == [1, 0, 1, 0, 2]
    assert inv[2] == [qpa.monomial((2, 0)) + qpa.monomial((0, 2))]
    assert inv[4] == [
        qpa.monomial((4, 0)) + qpa.monomial((0, 4)),
        qpa.monomial((2, 2)),
    ]
    assert inv[0] == [qpa.one()]


def test_invariants_match_integral_projector_oracle():
    for subalgebra, pars in [("full", (2, 2, 1, 0)), ("cyclic", (2, 3, 1, 0))]:
        n, m, a, b = pars
        qpa = _qpa(n, m, a, b)
        inv = qpa.invariants(subalgebra, 4)
        oracle = qpa.invariants_oracle(subalgebra, 4)
        for k in range(5):
            assert inv[k] == oracle[k], (subalgebra, k)


def test_cyclic_invariants_m3():
    qpa = _qpa(2, 3, 1, 0)
    inv = qpa.invariants("cyclic", 4)
    assert inv[2] == [
        qpa.monomial((2, 0, 0)) + qpa.monomial((0, 2, 0)) + qpa.monomial((0, 0, 2))
    ]
    for k in range(5):
        for f in inv[k]:
            for exps in f.terms:
                assert all(e % 2 == 0 for e in exps)


def test_invariants_closed_under_multiplication():
    qpa = _qpa(2, 2, 1, 0)
    inv = qpa.invariants("full", 4)
    H = qpa.hopf
    gens = [H.x(1), H.x(2), H.z(1)]
    for k1 in range(3):
        for k2 in range(3):
            if k1 + k2 > 4:
                continue
            for f in inv[k1]:
                for g in inv[k2]:
                    prod = f * g
                    for gen in gens:
                        assert qpa.act(gen, prod) == prod.scale(H.counit(gen))


def test_containment_check():
    qpa = _qpa(2, 2, 1, 0)
    report = qpa.containment_check(4)
    assert report.ok
    names = {c["name"] for c in report.checks}
    assert {"exponent-divisibility", "r-power", "un-commute"} <= names


def ring_invariant_monomials(qpa, degree):
    """The monomials of degree <= degree that every x_i fixes under
    reference_act, which reads a and b, not RepParams.weight."""
    H = qpa.hopf
    one = qpa.ctx.one
    return [
        mon
        for k in range(degree + 1)
        for mon in qpa.monomials(k)
        if all(
            reference_act(qpa, H.x(i), qpa.monomial(mon)).terms == {mon: one}
            for i in range(1, qpa.m + 1)
        )
    ]


def weight_zero_monomials(qpa, degree):
    """The monomials u^e of degree <= degree with sum_j e_j psi_j = 0 mod n."""
    psis = [qpa.params.weight(j) for j in range(1, qpa.m + 1)]
    return [
        mon
        for k in range(degree + 1)
        for mon in qpa.monomials(k)
        if not any(sum(e * psi[i] for e, psi in zip(mon, psis)) % qpa.n for i in range(qpa.m))
    ]


def _all_qpas(groups):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [_qpa(n, m, a, b) for n, m in groups for a in range(n) for b in range(n)]


RING_INVARIANT_GROUPS = [(2, 2), (3, 2), (2, 3), (4, 2)]


def test_ring_invariants_are_the_weight_zero_monomials():
    for qpa in _all_qpas(RING_INVARIANT_GROUPS):
        degree = 2 * qpa.n
        oracle = ring_invariant_monomials(qpa, degree)
        assert weight_zero_monomials(qpa, degree) == oracle, (qpa.n, qpa.m, qpa.a, qpa.b)
        # containment_check reports the invariants with an exponent not divisible by n
        div = next(c for c in qpa.containment_check(degree).checks
                   if c["name"] == "exponent-divisibility")
        offending = [
            {"degree": sum(mon), "exponents": list(mon)}
            for mon in oracle if any(e % qpa.n for e in mon)
        ]
        assert (div["witness"] or {}).get("offending", []) == offending


def test_shifted_weight_disagrees_with_ring_invariants(monkeypatch):
    weight = RepParams.weight

    def shifted(self, j):
        psi = weight(self, j)
        return ((psi[0] + 1) % self.n,) + psi[1:]

    monkeypatch.setattr(RepParams, "weight", shifted)
    first = {}
    for qpa in _all_qpas(RING_INVARIANT_GROUPS):
        oracle = ring_invariant_monomials(qpa, 2 * qpa.n)
        weight_zero = weight_zero_monomials(qpa, 2 * qpa.n)
        mons = [mon for k in range(2 * qpa.n + 1) for mon in qpa.monomials(k)]
        first[qpa.n, qpa.m, qpa.a, qpa.b] = next(
            (mon for mon in mons if (mon in oracle) != (mon in weight_zero)), None
        )
    assert first[2, 2, 1, 0] == (1, 0)


def test_containment_negative_demo_a_equals_b():
    # gcd(det M_{2,1,1}, 2) = 2: odd-exponent base-ring invariants appear
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        qpa = _qpa(2, 2, 1, 1)
    assert (1, 1) in ring_invariant_monomials(qpa, 2)
    report = qpa.containment_check(2)
    # reported, not asserted, when the gcd criterion fails
    div = next(c for c in report.checks if c["name"] == "exponent-divisibility")
    assert div["status"] == "pass"
    assert div["witness"]["criterion"] is False
    assert div["witness"]["offending"]


def test_un_power_commutation_n2():
    qpa = _qpa(2, 2, 1, 0)
    assert qpa.normal_order([1, 1, 2, 2]) == qpa.normal_order([2, 2, 1, 1])


def test_containment_records_un_commute_below_degree_2n():
    # u_i^4 u_j^4 has degree 8, past the degree 2 of the invariants checked
    report = _qpa(4, 2, 1, 0).containment_check(2)
    statuses = {c["name"]: c["status"] for c in report.checks}
    assert statuses["un-commute"] == "pass"
    assert report.ok


def test_containment_odd_n_skips_even_only_checks():
    qpa = _qpa(3, 2, 1, 0)
    report = qpa.containment_check(6)
    assert report.ok  # skips are not failures
    statuses = {c["name"]: c["status"] for c in report.checks}
    assert statuses["exponent-divisibility"] == "pass"
    assert statuses["r-power"] == "skipped"
    assert statuses["un-commute"] == "skipped"


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
def test_cyclic_inner_faithful(n, m):
    qpa = _qpa(n, m, 1, 0)
    report = qpa.cyclic_inner_faithful_check()
    assert report.ok, [c for c in report.checks if c["status"] != "pass"]


def test_cyclic_inner_faithful_negative_control(monkeypatch):
    from kacpal.linalg import Mat

    qpa = _qpa(2, 3, 1, 0)
    identity = Mat.identity(qpa.ctx, 3)
    monkeypatch.setattr(qpa, "action_matrix", lambda h, k: identity)
    report = qpa.cyclic_inner_faithful_check()
    assert not report.ok
    failed = {c["name"] for c in report.checks if c["status"] == "fail"}
    assert "theta-line-structure" in failed


def test_monomial_ordering():
    assert monomials_of_degree(2, 1) == [(1, 0), (0, 1)]
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(monomials_of_degree(3, 4)) == 15


def test_a_equals_b_warns():
    with pytest.warns(UserWarning, match="a = b"):
        _qpa(2, 2, 1, 1)
