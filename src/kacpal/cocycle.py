"""Word normalization and the operational 2-cocycle gamma of the crossed
product R #_gamma Sigma_m.

An arbitrary word in the generators z_1..z_{m-1} equals coeff * w-bar for a
unique basis label w and coefficient in R.  Folding one letter at a time:
appending z_i to w-bar either extends the reduced word (coefficient 1) or
triggers the substitution z_i^2 -> t_i shifted left by the evaluated prefix,

    w-bar z_i = sigma_{w s_i}(t_i) * (w s_i)-bar     when length drops,

since w = (w s_i) s_i and (w s_i)-bar z_i z_i = (w s_i)-bar t_i.
gamma(w, v) is the coefficient accumulated by folding the canonical word of
v starting from w; it is a unit of R with counit 1.
"""

from __future__ import annotations

from .group_ring import GroupAlgebra, RingElem, sigma, t_of
from .sparse import memoized
from .symmetric import Perm, canonical_word


class WordCalculus:
    """Coxeter word calculus for Sigma_m valued in R = K[Z_n]^(tensor m)."""

    def __init__(self, ring: GroupAlgebra):
        if ring.m < 2:
            raise ValueError("need at least two tensor slots")
        self.ring = ring
        self.m = ring.m
        self.t = {k: t_of(ring, k) for k in range(1, ring.m)}
        self._memo: dict = {}

    @memoized
    def shifted_t(self, u: Perm, k: int) -> RingElem:
        return sigma(u, self.t[k])

    def step(self, coeff: RingElem, w: Perm, letter: int) -> tuple[RingElem, Perm]:
        """Multiply coeff * w-bar by z_letter on the right."""
        w2 = w * Perm.transposition(self.m, letter)
        if w2.length() < w.length():
            coeff = coeff * self.shifted_t(w2, letter)
        return coeff, w2

    def fold(self, w: Perm, letters) -> tuple[RingElem, Perm]:
        """Multiply w-bar by z_i for each letter i in turn: (coefficient,
        basis label)."""
        coeff = self.ring.one
        for i in letters:
            coeff, w = self.step(coeff, w, i)
        return coeff, w

    def normalize_word(self, letters) -> tuple[RingElem, Perm]:
        """Rewrite an arbitrary word to (coefficient, basis label)."""
        letters = list(letters)
        for i in letters:
            if not 1 <= i <= self.m - 1:
                raise ValueError(f"letter {i} out of range")
        return self.fold(Perm.identity(self.m), letters)

    @memoized
    def cocycle(self, w: Perm, v: Perm) -> RingElem:
        """gamma(w, v), the coefficient in w-bar v-bar = gamma(w, v) (wv)-bar."""
        return self.fold(w, canonical_word(v))[0]


def reference_cocycle_table_m3(ring: GroupAlgebra) -> dict:
    """The reference gamma table for Sigma_3 (rows w, columns v), with entries
    built from t_1, t_2 and their slot shifts.  Identity rows and columns are
    all 1.  Keys are pairs of basis labels, values RingElems."""
    from .symmetric import eval_word

    if ring.m != 3:
        raise ValueError("the reference table is for m = 3")
    one = ring.one
    t1 = t_of(ring, 1)
    t2 = t_of(ring, 2)
    s1 = Perm.transposition(3, 1)
    s2 = Perm.transposition(3, 2)
    s1t2 = sigma(s1, t2)
    s2t1 = sigma(s2, t1)  # equals s1t2: both are (1/n) sum q^{-ij} x_1^i x_3^j
    labels = [
        eval_word(3, [1]),
        eval_word(3, [2]),
        eval_word(3, [1, 2]),
        eval_word(3, [2, 1]),
        eval_word(3, [1, 2, 1]),
    ]
    rows = [
        [t1, one, t1, one, t1],
        [one, t2, one, t2, t2],
        [one, s2t1, t1, t1 * s2t1, t1 * s2t1],
        [s1t2, one, t2 * s1t2, t2, t2 * s1t2],
        [t2, t1, t2 * s1t2, t1 * s2t1, t1 * t2 * s2t1],
    ]
    table = {}
    ident = Perm.identity(3)
    for w in [ident] + labels:
        table[(ident, w)] = one
        table[(w, ident)] = one
    for w, row in zip(labels, rows):
        for v, val in zip(labels, row):
            table[(w, v)] = val
    return table
