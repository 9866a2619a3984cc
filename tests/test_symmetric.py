import random

import pytest

from kacpal import (
    GroupAlgebra,
    Perm,
    WordCalculus,
    all_perms,
    canonical_word,
    cycle_perm,
    eval_word,
    reference_cocycle_table_m3,
    sigma,
    t_of,
)
from kacpal.group_ring import eps_ring


def test_perm_basics():
    w = Perm((1, 2, 0))
    assert w.one_line() == (2, 3, 1)
    assert w(1) == 2 and w(3) == 1
    assert w * w.inverse() == Perm.identity(w.size)
    assert w.inverse().inverse() == w
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


def test_left_to_right_product():
    # (w * v)(i) = v(w(i))
    s1 = Perm.transposition(3, 1)
    s2 = Perm.transposition(3, 2)
    w = s1 * s2
    assert w.one_line() == (3, 1, 2)
    assert (s2 * s1).one_line() == (2, 3, 1)


def test_canonical_word_examples():
    assert canonical_word(Perm.identity(3)) == ()
    assert canonical_word(Perm.transposition(2, 1)) == (1,)
    for m in (2, 3, 4):
        assert canonical_word(cycle_perm(m)) == tuple(range(1, m))
    assert canonical_word(eval_word(3, [1, 2, 1])) == (1, 2, 1)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_canonical_word_roundtrip_and_length(m):
    for w in all_perms(m):
        word = canonical_word(w)
        assert eval_word(m, word) == w
        assert len(word) == w.length()


def _reduced_words(w: Perm):
    """Brute-force enumeration of every reduced word of w (left-peel order)."""
    if w == Perm.identity(w.size):
        yield ()
        return
    m = w.size
    img = w.images
    for i in range(1, m):
        if img[i - 1] > img[i]:
            rest = Perm.transposition(m, i) * w
            for tail in _reduced_words(rest):
                yield (i,) + tail


@pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (3, 3)])
def test_matsumoto_independence(n, m):
    # every reduced word of w normalizes to coefficient 1 and the same label
    calc = WordCalculus(GroupAlgebra(n, m))
    for w in all_perms(m):
        for word in _reduced_words(w):
            coeff, v = calc.normalize_word(word)
            assert v == w
            assert coeff == calc.ring.one


def test_normalize_word_examples():
    R2 = GroupAlgebra(2, 2)
    calc2 = WordCalculus(R2)
    coeff, w = calc2.normalize_word([1, 1])
    assert w == Perm.identity(w.size)
    assert coeff == t_of(R2, 1)

    R3 = GroupAlgebra(3, 3)
    calc3 = WordCalculus(R3)
    c1, w1 = calc3.normalize_word([1, 2, 1])
    c2, w2 = calc3.normalize_word([2, 1, 2])
    assert w1 == w2 == eval_word(3, [1, 2, 1])
    assert c1 == c2 == R3.one

    # [1,2,2,1] reduces to t_1 sigma_1(t_2) at the identity
    coeff, w = calc3.normalize_word([1, 2, 2, 1])
    assert w == Perm.identity(w.size)
    s1 = Perm.transposition(3, 1)
    assert coeff == t_of(R3, 1) * sigma(s1, t_of(R3, 2))


def test_normalize_random_words_against_hopf_product():
    # independent oracle: multiply the generator chain inside H itself
    from kacpal import HopfAlgebra

    rng = random.Random(3)
    for n, m in [(2, 2), (2, 3), (3, 3)]:
        H = HopfAlgebra(n, m)
        for _ in range(25):
            word = [rng.randrange(1, m) for _ in range(rng.randrange(0, 7))]
            coeff, w = H.words.normalize_word(word)
            prod = H.unit()
            for i in word:
                prod = prod * H.z(i)
            assert prod == H.from_ring(coeff) * H.basis_elem(H.ring.zero_exp, w)


def test_cocycle_identity_and_units():
    for n, m in [(2, 3), (3, 3)]:
        R = GroupAlgebra(n, m)
        calc = WordCalculus(R)
        perms = all_perms(m)
        ident = Perm.identity(m)
        for w in perms:
            assert calc.cocycle(ident, w) == R.one
            assert calc.cocycle(w, ident) == R.one
            for v in perms:
                g = calc.cocycle(w, v)
                assert eps_ring(g) == R.cyc.one
                if (w * v).length() == w.length() + v.length():
                    assert g == R.one
                for u in perms:
                    lhs = sigma(w, calc.cocycle(v, u)) * calc.cocycle(w, v * u)
                    rhs = calc.cocycle(w, v) * calc.cocycle(w * v, u)
                    assert lhs == rhs


def test_cocycle_identity_sampled_sigma4():
    rng = random.Random(17)
    R = GroupAlgebra(2, 4)
    calc = WordCalculus(R)
    perms = all_perms(4)
    for _ in range(60):
        w, v, u = (rng.choice(perms) for _ in range(3))
        lhs = sigma(w, calc.cocycle(v, u)) * calc.cocycle(w, v * u)
        rhs = calc.cocycle(w, v) * calc.cocycle(w * v, u)
        assert lhs == rhs


def test_cocycle_m2():
    for n in (2, 3, 4):
        R = GroupAlgebra(n, 2)
        calc = WordCalculus(R)
        s = Perm.transposition(2, 1)
        assert calc.cocycle(s, s) == t_of(R, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_reference_table_m3(n):
    R = GroupAlgebra(n, 3)
    calc = WordCalculus(R)
    table = reference_cocycle_table_m3(R)
    for (w, v), expected in table.items():
        assert calc.cocycle(w, v) == expected, (w.one_line(), v.one_line())


def test_selected_reference_cells():
    R = GroupAlgebra(3, 3)
    calc = WordCalculus(R)
    s1 = Perm.transposition(3, 1)
    s2 = Perm.transposition(3, 2)
    w0 = eval_word(3, [1, 2, 1])
    t1, t2 = t_of(R, 1), t_of(R, 2)
    assert calc.cocycle(s1, s1) == t1
    assert calc.cocycle(s1 * s2, s2) == sigma(s2, t1)
    assert calc.cocycle(w0, w0) == t1 * t2 * sigma(s2, t1)
