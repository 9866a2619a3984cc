"""The shared sparse-map core: arithmetic, equality, hashing and context
checks for every element type, and the single check path of AxiomReport."""

import pytest

from kacpal.cocycle import WordCalculus
from kacpal.errors import ContextMismatchError
from kacpal.group_ring import GroupAlgebra, KTensor, RingElem, canonical_twist, slot_vector
from kacpal.hopf import AxiomReport, HopfAlgebra, HTensor
from kacpal.quantum_poly import QuantumPolyAlgebra
from kacpal.symmetric import Perm


def _ring():
    R = GroupAlgebra(3, 2)
    x = R.monomial(slot_vector(R.m, 1)) + R.one.scale(3) + R.monomial((2, 1), R.cyc.q)
    y = R.monomial(slot_vector(R.m, 2)).scale(2) - R.monomial(slot_vector(R.m, 1)) + R.one
    return x, y, GroupAlgebra(3, 3).one, R.one


def _ktensor():
    B = GroupAlgebra(3, 1)
    x = canonical_twist(B)
    y = KTensor(B, 2, {((1,), (0,)): B.cyc.one, ((0,), (0,)): B.cyc.scalar(-2)})
    other = KTensor(B, 3, {((0,), (0,), (0,)): B.cyc.one})  # same ring, other arity
    return x, y, other, None


def _hopf():
    H = HopfAlgebra(2, 2)
    x = H.x(1) + H.z(1).scale(3)
    y = H.z(1) * H.x(2) - H.x(1)
    return x, y, HopfAlgebra(2, 3).unit(), H.unit()


def _htensor():
    H = HopfAlgebra(2, 2)
    x = H.coproduct(H.z(1) + H.x(2))
    y = H.coproduct(H.z(1).scale(2) + H.x(1))
    return x, y, HopfAlgebra(3, 2).coproduct(HopfAlgebra(3, 2).unit()), None


def _qpa():
    H = HopfAlgebra(2, 2)
    A = QuantumPolyAlgebra(H, 1, 0)
    x = A.u(1) * A.u(2) + A.one().scale(2)
    y = A.u(2) * A.u(1) - A.u(1)
    other = QuantumPolyAlgebra(H, 0, 1).u(1)  # other relations
    return x, y, other, None


BUILDERS = {
    "RingElem": _ring,
    "KTensor": _ktensor,
    "HopfElem": _hopf,
    "HTensor": _htensor,
    "QpaElem": _qpa,
}


@pytest.fixture(params=list(BUILDERS))
def elems(request):
    return BUILDERS[request.param]()


def test_add_sub_neg_scale(elems):
    x, y, _, _ = elems
    zero = x._field().zero
    s = x + y
    for k in set(x.terms) | set(y.terms):
        assert s.terms.get(k, zero) == x.terms.get(k, zero) + y.terms.get(k, zero)
    assert all(s.terms.values()), "zero sums must be dropped"
    assert (x - y) == x + (-y)
    assert (x + y) - y == x
    assert (-x).terms == {k: -c for k, c in x.terms.items()}
    assert x.scale(3) == x + x + x
    assert 2 * x == x + x
    assert x.scale(0).terms == {}
    assert x.scale(0).context() == x.context()


def test_sum_with_negative_is_empty(elems):
    x, y, _, _ = elems
    assert (x + (-x)).terms == {}
    assert (y - y).is_zero()
    assert not x.is_zero()


def test_int_embeds_where_a_lift_exists(elems):
    x, _, _, one = elems
    if one is None:
        assert (x == 1) is False
        with pytest.raises(TypeError):
            x + 1
        return
    assert one == 1
    assert one.scale(5) == 5
    assert 1 + one == 2
    assert 3 - one == 2
    assert x + 1 == x + one
    assert (x == 1) is False


def test_equal_elements_hash_equal(elems):
    x, y, _, _ = elems
    same = (x + y) - y
    assert same == x
    assert same is not x
    assert hash(same) == hash(x)
    assert len({x, same, y}) == 2


def test_cross_context(elems):
    x, _, other, _ = elems
    assert type(other) is type(x)
    assert x.context() != other.context()
    with pytest.raises(ContextMismatchError):
        x + other
    with pytest.raises(ContextMismatchError):
        x - other
    assert (x == other) is False
    assert x != other


def test_ring_elem_lifts_scalars():
    R = GroupAlgebra(2, 2)
    assert R.one.scale(R.cyc.q) == R.cyc.q
    assert isinstance(R.one + R.cyc.one, RingElem)


def test_sorted_terms_orders_hopf_keys_by_exponents_then_images():
    H = HopfAlgebra(2, 3)
    h = sum((H.basis_elem((1, 0, 1), w) for w in reversed(H.perms)), H.zero())
    keys = [k for k, _ in h.sorted_terms()]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1].images))
    assert isinstance(H.coproduct(h), HTensor)


def test_axiom_report_check_records_first_failure():
    report = AxiomReport(instance="t")
    assert report.check("evens", "x even", [2, 4, 6], lambda x: x % 2, lambda x: {"x": x}, checked=3)
    assert not report.check("small", "x < 3", [1, 5, 7], lambda x: x >= 3, lambda x: {"x": x})
    assert report.checks == [
        {"name": "evens", "identity": "x even", "status": "pass", "witness": None, "checked": 3},
        {"name": "small", "identity": "x < 3", "status": "fail", "witness": {"x": 5}, "checked": None},
    ]
    assert not report.ok


def test_perturbed_cocycle_fails_associativity_with_triple(monkeypatch):
    original = WordCalculus.cocycle
    s1 = Perm.transposition(2, 1)

    def perturbed(self, w, v):
        g = original(self, w, v)
        if (w, v) != (s1, s1):
            return g
        # change the coefficient of x_1 only: gamma(s_1, s_1) is no longer
        # sigma_{s_1}-invariant, which associativity needs
        terms = dict(g.terms)
        terms[(1, 0)] = terms[(1, 0)] * 2
        return RingElem(g.ring, terms)

    monkeypatch.setattr(WordCalculus, "cocycle", perturbed)
    report = HopfAlgebra(2, 2).verify_axioms()
    assoc = next(c for c in report.checks if c["name"] == "associativity")
    assert assoc["status"] == "fail"
    assert len(assoc["witness"]["triple"]) == 3
    assert assoc["checked"] == 8**3
    assert not report.ok
