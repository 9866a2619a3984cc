import random
from itertools import product as iproduct
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacpal import (
    HopfAlgebra,
    Perm,
    all_perms,
    embedding_check,
    embedding_map,
    eval_word,
    ring_inverse,
    sigma,
    t_of,
    twist_Js,
)
from kacpal.cocycle import WordCalculus
from kacpal.errors import ContextMismatchError, NotInvertibleError
from kacpal.group_ring import KTensor, check_tensor_invertible, eps_ring, slot_vector
from kacpal.hopf import HopfElem, HTensor, key_json
from kacpal.symmetric import canonical_word, cycle_perm
from kacpal.quantum_poly import QuantumPolyAlgebra


def test_kac_paljutkin_relations():
    H = HopfAlgebra(2, 2)
    x, y, z = H.x(1), H.x(2), H.z(1)
    one = H.unit()
    half = H.cyc.scalar(1) / H.cyc.scalar(2)
    assert z * z == (one + x + y - x * y).scale(half)
    assert z * x == y * z
    assert z * y == x * z
    assert x * y == y * x
    assert x * x == one and y * y == one


def test_kac_paljutkin_coproduct_and_antipode():
    H = HopfAlgebra(2, 2)
    x, y, z = H.x(1), H.x(2), H.z(1)
    dz = H.coproduct(z)
    # (1/2)(1(x)1 + x(x)1 + 1(x)y - x(x)y)(z(x)z)
    s = Perm.transposition(2, 1)
    half = H.cyc.scalar(1) / H.cyc.scalar(2)
    expected = HTensor(
        H,
        {
            (((0, 0), s), ((0, 0), s)): half,
            (((1, 0), s), ((0, 0), s)): half,
            (((0, 0), s), ((0, 1), s)): half,
            (((1, 0), s), ((0, 1), s)): -half,
        },
    )
    assert dz == expected
    # S fixes the generators and is an algebra anti-homomorphism; on mixed
    # monomials it swaps the two slots: S(yz) = zy = xz
    assert H.antipode(z) == z
    assert H.antipode(x) == x and H.antipode(y) == y
    assert H.antipode(y * z) == x * z
    assert H.antipode(x * z) == y * z
    for key in H.basis_keys():
        h = H.basis_elem(*key)
        assert H.antipode(H.antipode(h)) == h
    assert H.counit(z) == H.cyc.one
    assert H.coproduct(x) == HTensor(
        H, {(((1, 0), Perm.identity(2)), ((1, 0), Perm.identity(2))): H.cyc.one}
    )
    assert H.coproduct(x * y).terms == {
        (((1, 1), Perm.identity(2)), ((1, 1), Perm.identity(2))): H.cyc.one
    }


def test_dimensions():
    for (n, m), d in [((2, 2), 8), ((3, 2), 18), ((2, 3), 48), ((3, 3), 162)]:
        H = HopfAlgebra(n, m)
        assert H.dim == d
        assert len(H.basis_keys()) == d


def test_generator_relations_sweep():
    H = HopfAlgebra(3, 3)
    for k in (1, 2):
        sk = Perm.transposition(3, k)
        for i in (1, 2, 3):
            assert H.z(k) * H.x(i) == H.x(sk(i)) * H.z(k)
        assert H.z(k) * H.z(k) == H.from_ring(t_of(H.ring, k))
    assert H.z(1) * H.z(2) * H.z(1) == H.z(2) * H.z(1) * H.z(2)


def test_braid_relation_difference_is_zero():
    H = HopfAlgebra(2, 3)
    z1, z2 = H.z(1), H.z(2)
    assert (z1 * z2 * z1 - z2 * z1 * z2).is_zero()


def test_j_of_word():
    H = HopfAlgebra(2, 3)
    s1 = Perm.transposition(3, 1)
    assert H.j_of_word(s1) == twist_Js(H.ring, 1)
    ident = Perm.identity(3)
    assert H.j_of_word(ident).terms == {((0, 0, 0), (0, 0, 0)): H.cyc.one}
    for w in all_perms(3):
        J = H.j_of_word(w)
        assert eps_ring(J.multiply_legs()) == H.cyc.one
        check_tensor_invertible(J)  # raises unless J(w) is invertible


def test_ring_embeds_in_h():
    H = HopfAlgebra(2, 2)
    R = H.ring
    seen = set()
    for exps in R.exponent_vectors():
        h = H.from_ring(R.monomial(exps))
        key = frozenset(h.terms)
        assert key not in seen
        seen.add(key)
    # (a # 1)(b # 1) = ab # 1
    rng = random.Random(2)
    for _ in range(10):
        a = R.monomial((rng.randrange(2), rng.randrange(2)), rng.randrange(1, 3))
        b = R.monomial((rng.randrange(2), rng.randrange(2)), rng.randrange(1, 3))
        assert H.from_ring(a) * H.from_ring(b) == H.from_ring(a * b)


def test_verify_axioms_h8_all_pairs():
    report = HopfAlgebra(2, 2).verify_axioms()
    assert report.ok, [c for c in report.checks if c["status"] != "pass"]


def _mutate_gamma(H, pair, change):
    """Replace gamma(w, v) by change(gamma(w, v)) at one label pair in the
    word calculus of H, the one source of gamma that H reads."""
    cocycle = H.words.cocycle
    H.words.cocycle = lambda w, v: change(cocycle(w, v)) if (w, v) == pair else cocycle(w, v)


class _GammaDroppedHopf(HopfAlgebra):
    """Negative control: drop the cocycle value at one generator pair.

    Removing gamma(s_1, s_1) = t_1 while keeping every other value breaks the
    2-cocycle identity, so the product stops being associative."""

    def __init__(self, n, m):
        super().__init__(n, m)
        s1 = Perm.transposition(m, 1)
        _mutate_gamma(self, (s1, s1), lambda g: g.ring.one)


def _first_nonassociative_triple(H):
    """The literal sweep: the first basis triple, in iteration order, with
    (ab)c != a(bc), as its JSON witness (None if there is none)."""
    for keys in iproduct(H.basis_keys(), repeat=3):
        a, b, c = (H.basis_elem(*k) for k in keys)
        if H.hmul(H.hmul(a, b), c) != H.hmul(a, H.hmul(b, c)):
            return {"triple": [key_json(k) for k in keys]}
    return None


def _check(report, name):
    return next(c for c in report.checks if c["name"] == name)


def test_negative_control_gamma_mutation_breaks_associativity():
    H = _GammaDroppedHopf(2, 3)
    a = H.basis_elem((0, 0, 0), eval_word(3, [2, 1]))
    b = H.z(1)
    c = H.z(1)
    assert H.hmul(H.hmul(a, b), c) != H.hmul(a, H.hmul(b, c))
    assert H._translation_law_holds()
    report = H.verify_axioms()
    assert not report.ok
    failed = {c["name"] for c in report.checks if c["status"] == "fail"}
    assert "associativity" in failed
    assoc = _check(report, "associativity")
    assert assoc["witness"] is not None
    assert assoc["witness"] == _first_nonassociative_triple(H)
    assert assoc["checked"] == H.dim**3


class _OneGammaTermDroppedHopf(HopfAlgebra):
    """Negative control for product_table: drop the last gamma term of one
    permutation pair."""

    def __init__(self, n, m, pair):
        super().__init__(n, m)
        _mutate_gamma(self, pair, lambda g: g.ring.from_terms(dict(list(g.terms.items())[:-1])))


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
def test_product_table_follows_a_mutated_label_product(n, m):
    """Dropping one gamma term of a non-identity pair (w, v) changes the
    table on exactly the n^(2m) rows of that pair, and the table still
    equals the per-pair hmul of the mutated algebra."""
    plain = HopfAlgebra(n, m)
    ident = Perm.identity(m)
    pair = next(
        (w, v)
        for w, v in iproduct(plain.perms, repeat=2)
        if ident not in (w, v) and len(plain.words.cocycle(w, v).terms) > 1
    )
    mutated = _OneGammaTermDroppedHopf(n, m, pair)
    pairs = list(iproduct(plain.basis_keys(), repeat=2))
    before, after = plain.product_table(), mutated.product_table()
    changed = [i for i, (old, new) in enumerate(zip(before, after)) if old != new]
    assert changed == [i for i, (ka, kb) in enumerate(pairs) if (ka[1], kb[1]) == pair]
    assert len(changed) == n ** (2 * m)
    assert len(after) == len(pairs)
    for i, ((ka, kb), row) in enumerate(zip(pairs, after)):
        assert row == mutated.hmul(mutated.basis_elem(*ka), mutated.basis_elem(*kb)).to_json(), i


class _TranslationMutatedHopf(HopfAlgebra):
    """Negative control: flip the sign of w-bar (x^beta v-bar) whenever
    w != id and beta_1 = 1.  Every product of permutation labels is
    untouched, so the cocycle identity alone cannot see the mutation."""

    def hmul(self, a, b):
        out = super().hmul(a, b)
        if len(a.terms) == 1 and len(b.terms) == 1:
            ((ea, w),) = a.terms
            ((eb, _),) = b.terms
            if not any(ea) and w != Perm.identity(w.size) and eb[0] == 1:
                return -out
        return out


def test_negative_control_translation_mutation_breaks_associativity():
    H = _TranslationMutatedHopf(2, 2)
    bar = {w: H.basis_elem(H.ring.zero_exp, w) for w in H.perms}
    for w, v, u in iproduct(H.perms, repeat=3):
        assert H.hmul(H.hmul(bar[w], bar[v]), bar[u]) == H.hmul(bar[w], H.hmul(bar[v], bar[u]))
    assert not H._translation_law_holds()
    report = H.verify_axioms()
    assoc = _check(report, "associativity")
    assert assoc["status"] == "fail"
    assert assoc["witness"] == _first_nonassociative_triple(H)


class _LiteralHopf(HopfAlgebra):
    """The oracle: associativity never takes its label triples, so
    verify_axioms sweeps every basis triple with the literal predicate."""

    def _cases(self, reduced, arity=1):
        return super()._cases(reduced and arity != 3, arity)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_reduced_associativity_matches_literal_sweep(n, m):
    reduced = HopfAlgebra(n, m).verify_axioms()
    literal = _LiteralHopf(n, m).verify_axioms()
    assert reduced.ok
    assert reduced.to_json() == literal.to_json()
    assert _check(reduced, "associativity")["checked"] == (n**m * factorial(m)) ** 3


def test_reduced_report_on_failure_matches_literal_sweep():
    """The translation laws still hold with gamma(s_1, s_1) dropped, so every
    check takes its label cases.  For m = 2 every gamma is then 1, a smash
    product, so associativity passes and the antipode fails instead."""
    for n, m in [(2, 2), (3, 2), (2, 3)]:
        reduced = _GammaDroppedHopf(n, m).verify_axioms()
        literal = type("_LiteralGammaDropped", (_LiteralHopf, _GammaDroppedHopf), {})(n, m)
        assert _check(reduced, "associativity")["status"] == ("fail" if m == 3 else "pass")
        assert _check(reduced, "antipode")["status"] == "fail"
        assert reduced.to_json() == literal.verify_axioms().to_json()


def _first_noncomultiplicative_pair(H):
    """The literal sweep: the first basis pair, in iteration order, with
    Delta(ab) != Delta(a)Delta(b), as its JSON witness (None if there is
    none)."""
    for keys in iproduct(H.basis_keys(), repeat=2):
        a, b = (H.basis_elem(*k) for k in keys)
        if H.coproduct(H.hmul(a, b)) != H.coproduct(a) * H.coproduct(b):
            return {"pair": [key_json(k) for k in keys]}
    return None


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_reduced_comultiplicativity_matches_literal_sweep(n, m):
    H = HopfAlgebra(n, m)
    comult = _check(H.verify_axioms(), "comultiplicativity")
    assert comult["status"] == "pass"
    assert comult["witness"] == _first_noncomultiplicative_pair(H) is None
    assert comult["checked"] == H.dim**2


def test_negative_control_gamma_mutation_breaks_comultiplicativity():
    """Dropping gamma(s_1, s_1) from the product must fail both
    comultiplicativity checks.  Before they shared one verdict through hmul,
    comultiplicativity read gamma from the word calculus and passed here."""
    H = _GammaDroppedHopf(2, 3)
    report = H.verify_axioms()
    direct = _check(report, "comultiplicativity-direct")
    assert direct["status"] == "fail"
    assert direct["witness"] == {"pair": [[2, 1, 3], [2, 1, 3]]}
    comult = _check(report, "comultiplicativity")
    assert comult["status"] == "fail"
    assert comult["witness"] == _first_noncomultiplicative_pair(H)


class _LeftTranslationMutatedHopf(HopfAlgebra):
    """Negative control: negate (x^alpha)(x^beta v-bar) whenever alpha != 0
    and v != id.  Products of permutation labels are untouched, and the sign
    cancels between the two legs of Delta(x^alpha)Delta(x^beta v-bar)."""

    def hmul(self, a, b):
        out = super().hmul(a, b)
        if len(a.terms) == 1 and len(b.terms) == 1:
            ((ea, w),) = a.terms
            ((_, v),) = b.terms
            if any(ea) and w == Perm.identity(w.size) and v != Perm.identity(v.size):
                return -out
        return out


def test_negative_control_translation_mutation_breaks_comultiplicativity():
    """A product that breaks the translation law P1 must fail
    comultiplicativity at the literal first failing basis pair, (x_2, s_1).
    Both comultiplicativity checks passed here while the basis-pair check
    answered from the permutation pairs without checking P1."""
    H = _LeftTranslationMutatedHopf(2, 2)
    assert not H._translation_law_holds()
    report = H.verify_axioms()
    assert _check(report, "comultiplicativity-direct")["status"] == "pass"
    comult = _check(report, "comultiplicativity")
    assert comult["status"] == "fail"
    assert comult["witness"] == _first_noncomultiplicative_pair(H)
    assert comult["witness"] == {
        "pair": [
            {"exponents": [0, 1], "perm": [1, 2]},
            {"exponents": [0, 0], "perm": [2, 1]},
        ]
    }


def test_slot_out_of_range():
    H = HopfAlgebra(2, 2)
    qpa = QuantumPolyAlgebra(H, 1, 0)
    for make in (H.x, qpa.u):
        with pytest.raises(ValueError, match="slot out of range"):
            make(0)
        with pytest.raises(ValueError, match="slot out of range"):
            make(H.m + 1)


def test_basis_elem_rejects_a_short_exponent_vector():
    # exp_add's zip used to drop the x_2 of the product, leaving x^(1,)
    H = HopfAlgebra(2, 2)
    with pytest.raises(ValueError, match="exponent vector length or permutation degree is not m"):
        H.hmul(H.basis_elem((1,), Perm.identity(2)), H.x(2))


def test_basis_elem_rejects_a_permutation_of_another_degree():
    # accepted before, and its product with z_1 raised IndexError
    H = HopfAlgebra(2, 2)
    with pytest.raises(ValueError, match="exponent vector length or permutation degree is not m"):
        H.hmul(H.basis_elem((1, 0), Perm.identity(3)), H.z(1))


def test_integral_h8():
    H = HopfAlgebra(2, 2)
    lam = H.integral()
    assert H.counit(lam) == H.cyc.scalar(2)
    assert H.x(1) * lam == lam
    assert H.z(1) * lam == lam
    assert lam * H.z(1) == lam
    assert H.verify_integral().ok


def test_antipode_antihomomorphism_and_involution():
    H = HopfAlgebra(3, 2)
    rng = random.Random(4)
    basis = H.basis_keys()
    for _ in range(30):
        a = H.basis_elem(*rng.choice(basis))
        b = H.basis_elem(*rng.choice(basis))
        assert H.antipode(a * b) == H.antipode(b) * H.antipode(a)
        assert H.antipode(H.antipode(a)) == a


def test_gamma_from_hmul_matches_cocycle():
    for n, m in [(2, 2), (2, 3), (3, 3)]:
        H = HopfAlgebra(n, m)
        for w in H.perms:
            for v in H.perms:
                prod = H.hmul(
                    H.basis_elem(H.ring.zero_exp, w), H.basis_elem(H.ring.zero_exp, v)
                )
                expected = H.hmul(
                    H.from_ring(H.words.cocycle(w, v)),
                    H.basis_elem(H.ring.zero_exp, w * v),
                )
                assert prod == expected


def reference_htensor_mul(t1, t2):
    """The independent slow path: multiply H (x) H leg by leg with the
    crossed-product rule written out on exponents and gamma terms."""
    alg = t1.algebra
    n, m = alg.n, alg.m
    out: dict = {}
    for (kl1, kr1), c1 in t1.terms.items():
        for (kl2, kr2), c2 in t2.terms.items():
            c = c1 * c2
            sl = tuple((kl1[0][i] + kl2[0][kl1[1].images[i]]) % n for i in range(m))
            sr = tuple((kr1[0][i] + kr2[0][kr1[1].images[i]]) % n for i in range(m))
            wl, gl = kl1[1] * kl2[1], alg.words.cocycle(kl1[1], kl2[1]).terms
            wr, gr = kr1[1] * kr2[1], alg.words.cocycle(kr1[1], kr2[1]).terms
            for dgl, cgl in gl.items():
                left = (tuple((sl[i] + dgl[i]) % n for i in range(m)), wl)
                for dgr, cgr in gr.items():
                    right = (tuple((sr[i] + dgr[i]) % n for i in range(m)), wr)
                    key = (left, right)
                    out[key] = out.get(key, alg.cyc.zero) + c * cgl * cgr
    return HTensor(alg, {k: c for k, c in out.items() if c})


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
def test_htensor_product_matches_reference(n, m):
    H = HopfAlgebra(n, m)
    rng = random.Random(n * 10 + m)
    basis = H.basis_keys()

    def random_tensor():
        out = H.coproduct(H.zero())
        for _ in range(rng.randint(1, 3)):
            c = H.cyc.scalar(rng.choice([-2, -1, 1, 3])) * H.cyc.root(rng.randrange(2 * n))
            out = out + H.coproduct(H.basis_elem(*rng.choice(basis), c))
        return out

    for _ in range(6):
        a, b = random_tensor(), random_tensor()
        assert a * b == reference_htensor_mul(a, b)


def test_htensor_product_matches_coproduct_on_random_pairs():
    H = HopfAlgebra(2, 2)
    rng = random.Random(8)
    basis = H.basis_keys()
    for _ in range(20):
        a = H.basis_elem(*rng.choice(basis)) + H.basis_elem(*rng.choice(basis)).scale(2)
        b = H.basis_elem(*rng.choice(basis))
        assert H.coproduct(a * b) == H.coproduct(a) * H.coproduct(b)


def test_cyclic_subalgebra_m2_is_whole_algebra():
    H = HopfAlgebra(3, 2)
    cyc = H.cyclic_subalgebra()
    assert cyc.report.ok
    assert cyc.dim == H.dim  # m * n^m = n^m * m! at m = 2
    assert cyc.theta == H.z(1)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3)])
def test_cyclic_subalgebra_m3(n, m):
    H = HopfAlgebra(n, m)
    cyc = H.cyclic_subalgebra()
    assert cyc.report.ok, [c for c in cyc.report.checks if c["status"] != "pass"]
    assert cyc.dim == m * n**m
    # theta^m = t is a unit and S(theta) matches the closed form
    theta = cyc.theta
    assert theta**m == H.from_ring(cyc.t)
    assert cyc.t * cyc.t_inverse == H.ring.one
    g = H.words.cocycle(_pow(cyc.s, m - 1), cyc.s)
    assert H.antipode(theta) == H.from_ring(cyc.t_inverse * g) * theta ** (m - 1)
    # conjugation: theta x_i = x_{s(i)} theta with s the (i -> i+1) cycle
    for i in range(1, m + 1):
        assert theta * H.x(i) == H.x(i % m + 1) * theta


def _pow(p, k):
    out = Perm.identity(p.size)
    for _ in range(k):
        out = out * p
    return out


def test_embedding_h22_into_h23():
    report = embedding_check(2, 2)
    assert report.ok, [c for c in report.checks if c["status"] != "pass"]
    small, big = HopfAlgebra(2, 2), HopfAlgebra(2, 3)
    # unit -> unit, z^2 relation -> z_1'^2 relation
    assert embedding_map(small.unit(), big) == big.unit()
    z2_rel = small.z(1) * small.z(1)
    assert embedding_map(z2_rel, big) == big.z(1) * big.z(1)


def _literal_embedding_product(n, m):
    """The literal sweep of embedding-product over every basis pair of
    H_{n,m}, as the check record embedding_check writes."""
    small, big = HopfAlgebra(n, m), HopfAlgebra(n, m + 1)
    basis = small.basis_keys()
    witness = None
    for keys in iproduct(basis, repeat=2):
        a, b = (small.basis_elem(*k) for k in keys)
        if embedding_map(small.hmul(a, b), big) != big.hmul(embedding_map(a, big), embedding_map(b, big)):
            witness = {"pair": [key_json(k) for k in keys]}
            break
    return {
        "name": "embedding-product",
        "identity": "phi(ab) = phi(a)phi(b)",
        "status": "pass" if witness is None else "fail",
        "witness": witness,
        "checked": len(basis) ** 2,
    }


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
def test_embedding_product_matches_literal_sweep(n, m):
    assert _check(embedding_check(n, m), "embedding-product") == _literal_embedding_product(n, m)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3)])
def test_negative_control_target_gamma_dropped_breaks_embedding_product(n, m, monkeypatch):
    """Drop gamma(s_1, s_1) in H_{n,m+1} only: phi(z_1 z_1) != z_1 z_1 there,
    and the label check names the literal sweep's first witness."""
    original = WordCalculus.cocycle

    def dropped(self, w, v):
        if self.m == m + 1 and w == v == Perm.transposition(self.m, 1):
            return self.ring.one
        return original(self, w, v)

    monkeypatch.setattr(WordCalculus, "cocycle", dropped)
    product = _check(embedding_check(n, m), "embedding-product")
    s1 = ((0,) * m, Perm.transposition(m, 1))
    assert product["status"] == "fail"
    assert product["witness"] == {"pair": [key_json(s1), key_json(s1)]}
    assert product == _literal_embedding_product(n, m)


def test_memo_returns_the_same_object_and_is_per_instance():
    H = HopfAlgebra(2, 3)
    s1 = Perm.transposition(3, 1)
    assert H.j_of_word(s1) is H.j_of_word(s1)
    assert H.words.cocycle(s1, s1) is H.words.cocycle(s1, s1)
    qpa = QuantumPolyAlgebra(H, 1, 0)
    assert qpa.action_matrix(H.z(1), 2) is qpa.action_matrix(H.z(1), 2)
    zero = H.ring.zero_exp
    t1 = {(e, Perm.identity(3)): c for e, c in t_of(H.ring, 1).terms.items()}
    for order in ((HopfAlgebra, _GammaDroppedHopf), (_GammaDroppedHopf, HopfAlgebra)):
        built = {cls: cls(2, 3) for cls in order}
        assert built[HopfAlgebra] == built[_GammaDroppedHopf]
        values = {cls: built[cls]._translate(s1, s1, zero) for cls in order}
        assert values[HopfAlgebra] == t1
        assert values[_GammaDroppedHopf] == {(zero, Perm.identity(3)): H.cyc.one}


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        HopfAlgebra(2, 2).unit() * HopfAlgebra(2, 3).unit()


def test_negative_power_raises():
    H = HopfAlgebra(2, 2)
    assert H.z(1) ** 0 == H.unit()
    with pytest.raises(ValueError, match="negative power"):
        H.z(1) ** -1


def test_hopf_elem_json():
    H = HopfAlgebra(2, 2)
    js = (H.z(1) + H.x(1)).to_json()
    assert js == [
        {"exponents": [0, 0], "perm": [2, 1], "word": [1], "coeff": ["1/1", "0/1"]},
        {"exponents": [1, 0], "perm": [1, 2], "word": [], "coeff": ["1/1", "0/1"]},
    ]


class _LiteralCoalgebraHopf(HopfAlgebra):
    """The oracle: never take the exponent tables or the m! labels, so
    every permutation pair gets the HTensor verdict and every per-basis
    check sweeps the whole basis."""

    def _comultiplicative_by_table(self, w, v):
        return None

    def _cases(self, reduced, arity=1):
        return super()._cases(reduced and arity != 1, arity)


def _literal(cls):
    return type(f"_Literal{cls.__name__}", (_LiteralCoalgebraHopf, cls), {})


def _htensor_verdicts(H):
    """The permutation pairs with Delta(w-bar v-bar) = Delta(w-bar)Delta(v-bar)
    through the HTensor product."""
    bar = {w: H.basis_elem(H.ring.zero_exp, w) for w in H.perms}
    return {
        (w, v)
        for w, v in iproduct(H.perms, repeat=2)
        if H.coproduct(bar[w] * bar[v]) == H.coproduct(bar[w]) * H.coproduct(bar[v])
    }


@pytest.mark.parametrize(
    "cls,n,m",
    [
        (HopfAlgebra, 2, 2),
        (HopfAlgebra, 3, 2),
        (HopfAlgebra, 4, 2),
        (HopfAlgebra, 2, 3),
        (HopfAlgebra, 3, 3),
        (_GammaDroppedHopf, 2, 3),
    ],
)
def test_table_verdicts_match_htensor(cls, n, m):
    """Every non-None table verdict is the HTensor verdict, pass and fail."""
    H = cls(n, m)
    passing = _htensor_verdicts(H)
    verdicts = {pair: H._comultiplicative_by_table(*pair) for pair in iproduct(H.perms, repeat=2)}
    for pair, verdict in verdicts.items():
        if verdict is not None:
            assert verdict == (pair in passing), pair
    # every table is read, and only the dropped gamma(s_1, s_1) is refuted
    s1 = Perm.transposition(m, 1)
    refuted = {pair for pair, verdict in verdicts.items() if verdict is False}
    assert None not in verdicts.values()
    assert refuted == ({(s1, s1)} if cls is _GammaDroppedHopf else set())


@pytest.mark.parametrize(
    "cls,n,m",
    [
        (HopfAlgebra, 2, 2),
        (HopfAlgebra, 3, 2),
        (HopfAlgebra, 2, 3),
        (_GammaDroppedHopf, 2, 2),
        (_GammaDroppedHopf, 3, 2),
        (_GammaDroppedHopf, 2, 3),
        (_LeftTranslationMutatedHopf, 2, 2),
    ],
)
def test_reduced_report_matches_literal_coalgebra_sweep(cls, n, m):
    reduced = cls(n, m)
    literal = _literal(cls)(n, m)
    assert reduced.verify_axioms().to_json() == literal.verify_axioms().to_json()
    assert reduced.verify_integral().to_json() == literal.verify_integral().to_json()


def _character_unit(H, psi, psi2, e):
    """The unit of R (x) R with value zeta^e at the character pair
    (psi, psi2) and 1 at every other pair."""
    n, m = H.n, H.m
    size = n**m
    shift = H.cyc.root(e) - H.cyc.one
    terms = {(H.ring.zero_exp, H.ring.zero_exp): H.cyc.one}
    for b1 in H.ring.exponent_vectors():
        for b2 in H.ring.exponent_vectors():
            phase = sum(p * b for p, b in zip(psi, b1)) + sum(p * b for p, b in zip(psi2, b2))
            c = shift * H.cyc.q_pow(-phase) / H.cyc.scalar(size * size)
            terms[b1, b2] = terms.get((b1, b2), H.cyc.zero) + c
    return KTensor(H.ring, 2, {k: c for k, c in terms.items() if c})


class _ShiftedTwistHopf(HopfAlgebra):
    """Negative control: J(s_1) times a unit whose value is zeta at one
    character pair, which adds 1 to one exponent of f_{s_1}."""

    def j_of_word(self, w):
        out = super().j_of_word(w)
        if w == Perm.transposition(self.m, 1):
            psi = (1,) + (0,) * (self.m - 1)
            out = out * _character_unit(self, psi, psi, 1)
        return out


class _SignFlippedTwistHopf(HopfAlgebra):
    """Negative control: negate one coefficient of J(s_1), which leaves
    values at characters that are not roots of unity."""

    def j_of_word(self, w):
        out = super().j_of_word(w)
        if w == Perm.transposition(self.m, 1):
            terms = dict(out.terms)
            key = max(terms)
            terms[key] = -terms[key]
            out = KTensor(self.ring, 2, terms)
        return out


@pytest.mark.parametrize("cls", [_ShiftedTwistHopf, _SignFlippedTwistHopf])
def test_negative_control_twist_mutation_fails_with_literal_witness(cls):
    H = cls(2, 2)
    s1 = Perm.transposition(2, 1)
    assert H._translation_law_holds() and H._coproduct_translates()
    if cls is _ShiftedTwistHopf:
        assert H._comultiplicative_by_table(s1, s1) is False
    else:
        # no value of f_{s_1} is a root of unity, so no pair with s_1 has a verdict
        assert all(H._comultiplicative_by_table(w, v) is None
                   for w, v in iproduct(H.perms, repeat=2) if s1 in (w, v))
    report = H.verify_axioms()
    comult = _check(report, "comultiplicativity")
    assert comult["status"] == "fail"
    assert comult["witness"] == _first_noncomultiplicative_pair(H)
    assert report.to_json() == _literal(cls)(2, 2).verify_axioms().to_json()


def _value_at(H, terms, psi):
    """sum c q^{psi.beta} over the terms c x^beta of an element of R."""
    return sum(
        (c * H.cyc.q_pow(sum(p * b for p, b in zip(psi, beta))) for beta, c in terms.items()),
        H.cyc.zero,
    )


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_character_tables_match_term_sums(n, m):
    """zeta^f_w and zeta^g_{w,v} against sums over the terms of J(w) (through
    QuantumPolyAlgebra.j_value) and of gamma(w, v), at every character."""
    H = HopfAlgebra(n, m)
    qpa = QuantumPolyAlgebra(H, 1, 0)
    chars = list(H.character_index())
    size = len(chars)
    for w in H.perms:
        f = H.j_exponents(w)
        for (a, psi), (b, psi2) in iproduct(enumerate(chars), repeat=2):
            assert H.cyc.root(f[a * size + b]) == qpa.j_value(w, psi, psi2)
        for v in H.perms:
            g = H.gamma_exponents(w, v)
            terms = H.words.cocycle(w, v).terms
            assert [H.cyc.root(e) for e in g] == [_value_at(H, terms, psi) for psi in chars]


class _MislabelledCoproductHopf(HopfAlgebra):
    """Negative control: Delta(s_1-bar) with one right leg relabelled by
    the identity."""

    def coproduct(self, h):
        out = super().coproduct(h)
        if any(w == Perm.transposition(self.m, 1) for _, w in h.terms):
            terms = dict(out.terms)
            k1, (e2, _) = key = max(terms)
            terms[k1, (e2, Perm.identity(self.m))] = terms.pop(key)
            out = HTensor(self, terms)
        return out


def test_j_exponents_are_none_off_the_roots_or_labels():
    s1 = Perm.transposition(2, 1)
    assert _SignFlippedTwistHopf(2, 2).j_exponents(s1) is None
    H = _MislabelledCoproductHopf(2, 2)
    assert H.j_exponents(s1) is None
    assert H.j_exponents(Perm.identity(2)) == [0] * 16


@pytest.mark.parametrize("cls, products", [(_ShiftedTwistHopf, 4), (_SignFlippedTwistHopf, 7)])
def test_each_pair_gets_one_htensor_verdict(cls, products, monkeypatch):
    # the 4 generator pairs run the HTensor product; the table decides
    # (s_1, s_1) of _ShiftedTwistHopf, and the 3 label pairs whose tables
    # are None are decided once and the verdict shared by
    # comultiplicativity and comultiplicativity-direct
    calls = []
    original = HTensor.__mul__

    def counted(self, other):
        calls.append(None)
        return original(self, other)

    H = cls(2, 2)
    monkeypatch.setattr(HTensor, "__mul__", counted)
    H.verify_axioms()
    assert len(calls) == products


class _AntipodeBasisMutatedHopf(HopfAlgebra):
    """Negative control: negate S(x_1 s_1-bar) alone, which breaks S1."""

    def antipode_basis(self, e, w):
        out = super().antipode_basis(e, w)
        if e == (1,) + (0,) * (self.m - 1) and w == Perm.transposition(self.m, 1):
            return -out
        return out


class _AntipodeWordMutatedHopf(HopfAlgebra):
    """Negative control: scale S(s_1-bar) by 2.  S0 and S1 still hold, so
    the label check of the antipode is what fails."""

    def antipode_word(self, w):
        out = super().antipode_word(w)
        if w == Perm.transposition(self.m, 1):
            return out.scale(2)
        return out


def _first_failing_basis_element(H, fails):
    return next(({"basis": key_json(k)} for k in H.basis_keys() if fails(k)), None)


@pytest.mark.parametrize("cls", [_AntipodeBasisMutatedHopf, _AntipodeWordMutatedHopf])
def test_negative_control_antipode_mutation_fails_with_literal_witness(cls):
    H = cls(2, 3)
    assert H._antipode_translates() == (cls is _AntipodeWordMutatedHopf)
    report = H.verify_axioms()

    def antipode_fails(key):
        left = right = H.zero()
        for ((e1, w1), (e2, w2)), c in H.coproduct(H.basis_elem(*key)).terms.items():
            left = left + (H.antipode_basis(e1, w1) * H.basis_elem(e2, w2)).scale(c)
            right = right + (H.basis_elem(e1, w1) * H.antipode_basis(e2, w2)).scale(c)
        return left != H.unit() or right != H.unit()

    antipode = _check(report, "antipode")
    assert antipode["status"] == "fail"
    assert antipode["witness"] == _first_failing_basis_element(H, antipode_fails)
    assert antipode["checked"] == H.dim
    assert report.to_json() == _literal(cls)(2, 3).verify_axioms().to_json()


class _IntegralCountingHopf(HopfAlgebra):
    """Counts the products that take the integral Lambda, the one element
    with dim H terms, as a factor."""

    def __init__(self, n, m):
        super().__init__(n, m)
        self.integral_products = 0

    def hmul(self, a, b):
        self.integral_products += self.dim in (len(a.terms), len(b.terms))
        return super().hmul(a, b)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
def test_fresh_integral_takes_the_label_path(n, m):
    """On a fresh algebra verify_integral checks the product law itself and
    multiplies Lambda by the m! labels only, with the report of the literal
    sweep over every basis element."""
    reduced = _IntegralCountingHopf(n, m)
    literal = _literal(_IntegralCountingHopf)(n, m)
    assert reduced.verify_integral().to_json() == literal.verify_integral().to_json()
    assert reduced.integral_products == 2 * factorial(m)
    assert literal.integral_products == 2 * literal.dim


def test_integral_report_does_not_depend_on_verify_axioms():
    for n, m in [(2, 2), (3, 2), (2, 3)]:
        before = HopfAlgebra(n, m).verify_integral().to_json()
        H = HopfAlgebra(n, m)
        H.verify_axioms()
        assert H._translation_law_holds()
        assert H.verify_integral().to_json() == before


def _make_gamma_ss_a_non_unit(H):
    """Make gamma(s, s) the non-unit 1 - x_1, which vanishes at the trivial
    character."""
    s = cycle_perm(H.m)
    non_unit = H.ring.one - H.ring.monomial(slot_vector(H.m, 1))
    _mutate_gamma(H, (s, s), lambda g: non_unit)


def test_cyclic_subalgebra_dimension_needs_unit_coefficients():
    """With gamma(s, s) a non-unit, theta^2 spans less than R (s^2)-bar."""
    H = HopfAlgebra(2, 3)
    _make_gamma_ss_a_non_unit(H)
    report = H.cyclic_subalgebra().report
    assert _check(report, "theta-powers")["status"] == "pass"
    assert _check(report, "subalgebra-dimension")["status"] == "fail"
    passing = HopfAlgebra(2, 3).cyclic_subalgebra().report
    assert _check(passing, "subalgebra-dimension") == {
        "name": "subalgebra-dimension",
        "identity": "dim H' = m n^m",
        "status": "pass",
        "witness": None,
        "checked": None,
    }


@pytest.mark.parametrize(
    "n, m, non_unit", [(2, 2, False), (3, 2, False), (2, 3, False), (4, 2, False), (2, 3, True)]
)
def test_subalgebra_dimension_matches_inversion(n, m, non_unit):
    """subalgebra-dimension decides the units among the theta^k
    coefficients from their character values alone; its slow path inverts
    each coefficient with ring_inverse."""
    H = HopfAlgebra(n, m)
    if non_unit:
        _make_gamma_ss_a_non_unit(H)
    theta, power, inverted = H.basis_elem(H.ring.zero_exp, cycle_perm(m)), H.unit(), True
    for _ in range(m):
        try:
            ring_inverse(H.ring.from_terms({e: c for (e, _), c in power.terms.items()}))
        except NotInvertibleError:
            inverted = False
        power = power * theta
    assert inverted is not non_unit
    passed = _check(H.cyclic_subalgebra().report, "subalgebra-dimension")["status"] == "pass"
    assert passed is inverted


def presentation_product(H, ka, kb):
    """(x^alpha w-bar)(x^beta v-bar) from the presentation, independently of
    hmul: move x^beta left past w-bar one letter z_k of canonical_word(w) at
    a time, from the last letter, by z_k x_i = x_{s_k(i)} z_k (which swaps
    slots k and k+1 of the exponents), then fold w-bar z_{k_1} ... z_{k_l}
    over canonical_word(v) with the word calculus."""
    (alpha, w), (beta, v) = ka, kb
    beta = list(beta)
    for k in reversed(canonical_word(w)):
        beta[k - 1], beta[k] = beta[k], beta[k - 1]
    gamma, wv = H.words.fold(w, canonical_word(v))
    return HopfElem(
        H,
        {
            (tuple((a + b + g) % H.n for a, b, g in zip(alpha, beta, e)), wv): c
            for e, c in gamma.terms.items()
        },
    )


def _presentation_mismatches(H):
    return [
        (ka, kb)
        for ka, kb in iproduct(H.basis_keys(), repeat=2)
        if H.hmul(H.basis_elem(*ka), H.basis_elem(*kb)) != presentation_product(H, ka, kb)
    ]


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_hmul_matches_presentation_on_every_basis_pair(n, m):
    assert _presentation_mismatches(HopfAlgebra(n, m)) == []


_SAMPLED = [HopfAlgebra(3, 3), HopfAlgebra(2, 4)]


@pytest.mark.parametrize("H", _SAMPLED, ids=lambda H: f"H({H.n},{H.m})")
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hmul_matches_presentation_on_sampled_pairs(H, data):
    ka, kb = (data.draw(st.sampled_from(H.basis_keys())) for _ in range(2))
    assert H.hmul(H.basis_elem(*ka), H.basis_elem(*kb)) == presentation_product(H, ka, kb)


class _RightShiftHopf(HopfAlgebra):
    """Negative control: shift by alpha + v.beta in place of alpha + w.beta."""

    def hmul(self, a, b):
        out = self.zero()
        for (ea, wa), ca in a.terms.items():
            for (eb, wb), cb in b.terms.items():
                delta = tuple((x + eb[i]) % self.n for x, i in zip(ea, wb.images))
                out = out + HopfElem(self, self._translate(wa, wb, delta)).scale(ca * cb)
        return out


def test_negative_control_right_shift_fails_presentation_and_p1():
    H = _RightShiftHopf(2, 2)
    assert len(_presentation_mismatches(H)) == 16
    assert not H._translation_law_holds()
