"""Property tests on random non-basis elements of H(2,2) and H(3,2).

Exhaustive verification proves associativity from products of basis
elements and relies on hmul being bilinear; these tests exercise the
product, the antipode and the coproduct on sums of several basis elements
with coefficients in Q(zeta_2n), including the antipode axiom
sum S(a_1) a_2 = eps(a) 1 = sum a_1 S(a_2).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacpal import HopfAlgebra

ALGEBRAS = [HopfAlgebra(2, 2), HopfAlgebra(3, 2)]


def elements(H):
    """Sums of one to three basis elements with coefficients k zeta^e."""
    term = st.tuples(
        st.sampled_from(H.basis_keys()),
        st.integers(-3, 3).filter(bool),
        st.integers(0, 2 * H.n - 1),
    )

    def build(terms):
        out = H.zero()
        for (exps, w), k, e in terms:
            out = out + H.basis_elem(exps, w, H.cyc.scalar(k) * H.cyc.root(e))
        return out

    return st.lists(term, min_size=1, max_size=3).map(build)


def draw(data, H, count):
    return [data.draw(elements(H)) for _ in range(count)]


over_algebras = pytest.mark.parametrize("H", ALGEBRAS, ids=lambda H: f"H({H.n},{H.m})")
examples = settings(max_examples=25, deadline=None)


@over_algebras
@examples
@given(data=st.data())
def test_associative_on_random_elements(H, data):
    a, b, c = draw(data, H, 3)
    assert H.hmul(H.hmul(a, b), c) == H.hmul(a, H.hmul(b, c))


@over_algebras
@examples
@given(data=st.data())
def test_antipode_reverses_products(H, data):
    a, b = draw(data, H, 2)
    assert H.antipode(H.hmul(a, b)) == H.hmul(H.antipode(b), H.antipode(a))


@over_algebras
@examples
@given(data=st.data())
def test_coproduct_is_multiplicative(H, data):
    a, b = draw(data, H, 2)
    assert H.coproduct(H.hmul(a, b)) == H.coproduct(a) * H.coproduct(b)


@over_algebras
@examples
@given(data=st.data())
def test_antipode_axiom_on_random_elements(H, data):
    (a,) = draw(data, H, 1)
    left = right = H.zero()
    for (k1, k2), c in H.coproduct(a).terms.items():
        a1, a2 = H.basis_elem(*k1, c), H.basis_elem(*k2)
        left = left + H.hmul(H.antipode_basis(*k1).scale(c), a2)
        right = right + H.hmul(a1, H.antipode(a2))
    unit = H.unit().scale(H.counit(a))
    assert left == unit
    assert right == unit
