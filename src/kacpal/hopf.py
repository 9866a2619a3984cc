"""The Hopf algebra H_{n,m} = R #_gamma Sigma_m on the basis {x^alpha w-bar}.

Multiplication is the crossed product

    (x^alpha # w)(x^beta # v) = x^alpha sigma_w(x^beta) gamma(w, v) # w*v,

with gamma the operational 2-cocycle from kacpal.cocycle.  The coproduct of
a basis element is Delta(x^alpha # w) = (x^alpha (x) x^alpha) J(w) (w (x) w)
where J(w) is defined by the recursion J(id) = 1 (x) 1 and
J(s_i v) = J_i (sigma_i (x) sigma_i)(J(v)) over the canonical word of w.
The antipode is computed operationally, S(x^alpha # w) = S(w-bar) x^{-alpha}
with S(w-bar) the product of the generators of the reversed canonical word.

Structure constants are evaluated lazily and memoized per algebra
(sparse.memoized); all values are exact.

Every x^alpha is group-like and w-bar acts on exponents by the slot
permutation (w.beta)_i = beta_{w(i)}, so a product of basis elements is a
translate of a product of permutation labels:

    (x^alpha w-bar)(x^beta v-bar) = T_{alpha + w.beta}(w-bar v-bar),

with T_delta shifting every exponent by delta.  hmul computes every basis
product this way (HopfAlgebra._translate), so the law holds by
construction; exhaustive verification still checks it, and the matching
laws for coproduct and antipode, once per algebra, to catch a subclass that
overrides a structure map.  Where its laws hold, a check runs on its label
cases: associativity's (m!)^3 label triples, comultiplicativity's (m!)^2
label pairs, decided from exponent tables of J(w) and gamma(w, v) at
characters (gamma_exponents and j_exponents, one memoized source), and the
m! labels of the per-basis checks.  Otherwise it runs on every basis case
(see verify_axioms).  gamma_table checks the 2-cocycle identity of gamma
on the same tables and runs associativity's predicate on the label
triples.  export reads its table from the same translates
(product_table), and embed-check checks the product on the (m!)^2 label
pairs (embedding_check).  Every check is recorded in an AxiomReport.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

from .cocycle import WordCalculus, reference_cocycle_table_m3
from .cyclotomic import CycScalar
from .errors import ContextMismatchError, NotInvertibleError, SizeGuardError
from .group_ring import (
    GroupAlgebra,
    KTensor,
    RingElem,
    character_values,
    eps_ring,
    exp_add,
    exp_neg,
    ring_inverse,
    slot_act,
    slot_vector,
    twist_Js,
)
from .sparse import SparseElem, accumulate, memoized, power_product
from .symmetric import Perm, all_perms, canonical_word, cycle_perm, cycle_powers

# bounds the commands priced by basis pairs (verify, embed-check, export).
# On a 2-core host with Python 3.11, one run each: embed-check (label pairs)
# takes 0.3-0.4 s on dim 384 (H(2,4), H(4,3)) and, guard lifted, 2.7 s on
# H(5,3) and 4.7 s on H(3,4), so the guard over-prices it.  verify, whose
# P1 alone is |B|^2 hmul calls, takes 3.4-3.5 s on H(8,2), 12.2-12.5 s on
# H(10,2), 49-58 s on H(13,2) (dim 338, of which associativity/P1 is
# 43-53 s), 18.8-19.6 s on H(4,3) and 16.1-16.4 s on H(2,4); it refuses
# H(14,2) (dim 392) in 0.24 s.
# export, whose table comes from the label products, takes 4.2-4.7 s
# (0.9 GB peak RSS) on H(2,4) and 6.2-7.0 s (1.4 GB) on H(4,3), two runs each
BASIS_PAIRS_GUARD = 384**2


class HopfAlgebra:
    """Context object for H_{n,m}; holds the base ring and, in ``_memo``,
    every memoized structure constant and law verdict of this algebra."""

    def __init__(self, n: int, m: int):
        if n < 2 or m < 2:
            raise ValueError("need n, m >= 2")
        self.n = n
        self.m = m
        self.ring = GroupAlgebra(n, m)
        self.cyc = self.ring.cyc
        self.words = WordCalculus(self.ring)
        self.perms = all_perms(m)
        self.dim = n**m * factorial(m)
        self._memo: dict = {}

    # -- element constructors --------------------------------------------------

    def zero(self) -> "HopfElem":
        return HopfElem(self, {})

    def unit(self) -> "HopfElem":
        return self.basis_elem(self.ring.zero_exp, Perm.identity(self.m))

    def basis_elem(self, exps, w: Perm, coeff=None) -> "HopfElem":
        exps = tuple(e % self.n for e in exps)
        if len(exps) != self.m or w.size != self.m:
            raise ValueError("exponent vector length or permutation degree is not m")
        c = self.cyc.one if coeff is None else coeff
        if isinstance(c, int):
            c = self.cyc.scalar(c)
        return HopfElem(self, {(exps, w): c} if c else {})

    def x(self, i: int) -> "HopfElem":
        """The group-like generator x_i (1-based slot)."""
        return self.basis_elem(slot_vector(self.m, i), Perm.identity(self.m))

    def z(self, k: int) -> "HopfElem":
        """The generator z_k = s_k-bar."""
        return self.basis_elem(self.ring.zero_exp, Perm.transposition(self.m, k))

    def from_ring(self, a: RingElem) -> "HopfElem":
        ident = Perm.identity(self.m)
        return HopfElem(self, {(k, ident): c for k, c in a.terms.items()})

    def generators(self) -> list["HopfElem"]:
        return [self.x(i) for i in range(1, self.m + 1)] + [
            self.z(k) for k in range(1, self.m)
        ]

    def basis_keys(self) -> list:
        return [
            (exps, w) for exps in self.ring.exponent_vectors() for w in self.perms
        ]

    @memoized
    def basis_elems(self) -> dict:
        """Each basis element, keyed by its basis key, built once for the
        sweeps over the basis."""
        return {key: self.basis_elem(*key) for key in self.basis_keys()}

    # -- structure constants ----------------------------------------------------

    def _single_product(self, w: Perm, v: Perm):
        """The label product w-bar v-bar = gamma(w, v) (wv)-bar: its label and
        the terms of gamma(w, v)."""
        return w * v, list(self.words.cocycle(w, v).terms.items())

    @memoized
    def _translate(self, w: Perm, v: Perm, delta: tuple) -> dict:
        """The terms of T_delta(w-bar v-bar) = x^delta gamma(w, v) (wv)-bar,
        shifted from those at delta = 0, whose label object they share."""
        if any(delta):
            return _translated(self._translate(w, v, self.ring.zero_exp), delta, self.n)
        wv, gamma_terms = self._single_product(w, v)
        return {(e, wv): c for e, c in gamma_terms}

    def hmul(self, a: "HopfElem", b: "HopfElem") -> "HopfElem":
        """ab = sum ca cb T_delta(wa-bar wb-bar), delta = ea + wa.eb, over the
        term pairs (ca x^ea wa-bar, cb x^eb wb-bar) of a and b.

        P1 of verify_axioms holds by construction.  On basis elements hmul
        returns _translate(w, v, delta), delta = alpha + w.beta, reading
        alpha and beta only through delta; that is w-bar v-bar =
        _translate(w, v, 0) with every exponent shifted by delta, so
        (x^alpha w-bar)(x^beta v-bar) = T_delta(w-bar v-bar) for every
        (n, m).  verify_axioms still sweeps P1 to catch an override."""
        if a.algebra != self:
            raise ContextMismatchError("left factor from a different algebra")
        if b.algebra != self:
            raise ContextMismatchError("right factor from a different algebra")
        n = self.n
        out: dict = {}
        for (ea, wa), ca in a.terms.items():
            for (eb, wb), cb in b.terms.items():
                c = ca * cb
                delta = exp_add(ea, slot_act(wa, eb), n)
                for key, cg in self._translate(wa, wb, delta).items():
                    accumulate(out, key, c * cg)
        return HopfElem(self, out)

    def product_table(self) -> list[list[dict]]:
        """hmul(a, b).to_json() for every basis pair, the pairs in
        basis_keys order with b varying fastest, by the rule of hmul:
        (x^alpha w-bar)(x^beta v-bar) = T_delta(w-bar v-bar), delta =
        alpha + w.beta, w-bar v-bar = _translate(w, v, 0); the |B| m!
        translates are not memoized, as the algebra would keep them.  One
        result list per (w, delta, v) and one dict per term are shared by
        every row that holds them."""
        n, zero = self.n, self.ring.zero_exp
        vectors = list(self.ring.exponent_vectors())
        shared: dict = {}

        def term(key, c) -> dict:
            out = shared.get((key, c))
            if out is None:
                out = shared[key, c] = term_json(key, c)
            return out

        # translates[w, delta][j] = T_delta(w-bar v_j-bar), v_j = perms[j]
        translates = {
            (w, delta): [
                [term(*kv) for kv in sorted(_translated(self._translate(w, v, zero), delta, n).items())]
                for v in self.perms
            ]
            for w in self.perms
            for delta in vectors
        }
        table = []
        for alpha in vectors:
            for w in self.perms:
                for beta in vectors:
                    table.extend(translates[w, exp_add(alpha, slot_act(w, beta), n)])
        return table

    @memoized
    def j_of_word(self, w: Perm) -> KTensor:
        """J(w) by recursion over the canonical word."""
        word = canonical_word(w)
        if not word:
            return KTensor(self.ring, 2, {(self.ring.zero_exp,) * 2: self.cyc.one})
        s_i = Perm.transposition(self.m, word[0])
        return twist_Js(self.ring, word[0]) * self.j_of_word(s_i * w).sigma_all(s_i)

    def coproduct(self, h: "HopfElem") -> "HTensor":
        n = self.n
        out: dict = {}
        for (e, w), c in h.terms.items():
            for (d1, d2), cj in self.j_of_word(w).terms.items():
                accumulate(out, ((exp_add(e, d1, n), w), (exp_add(e, d2, n), w)), c * cj)
        return HTensor(self, out)

    def counit(self, h: "HopfElem"):
        return sum(h.terms.values(), self.cyc.zero)

    @memoized
    def antipode_word(self, w: Perm) -> "HopfElem":
        """S(w-bar): the product of generators of the reversed canonical word."""
        out = self.unit()
        for i in reversed(canonical_word(w)):
            out = self.hmul(out, self.z(i))
        return out

    @memoized
    def antipode_basis(self, e, w: Perm) -> "HopfElem":
        neg = self.basis_elem(exp_neg(e, self.n), Perm.identity(self.m))
        return self.hmul(self.antipode_word(w), neg)

    def antipode(self, h: "HopfElem") -> "HopfElem":
        out = self.zero()
        for (e, w), c in h.terms.items():
            out = out + self.antipode_basis(e, w).scale(c)
        return out

    # -- integral ----------------------------------------------------------------

    def integral(self, labels=None) -> "HopfElem":
        """Lambda = (int_B)^(x m) sum_w w-bar, with int_B = (1/n) sum_i x^i.
        Summed over the given permutation labels of a Hopf subalgebra
        R #_gamma G instead, it is the integral of that subalgebra."""
        inv = self.cyc.scalar(Fraction(1, self.n**self.m))
        labels = self.perms if labels is None else labels
        return HopfElem(
            self, {(exps, w): inv for exps in self.ring.exponent_vectors() for w in labels}
        )

    def verify_integral(self) -> "AxiomReport":
        """Check eps(Lambda) = m! and h Lambda = Lambda = Lambda h on the basis.

        Invariance runs on the m! labels w-bar when the product law of
        verify_axioms holds, and on every basis element otherwise.  For
        h = x^alpha w-bar, P1 and the bilinearity of hmul give h Lambda =
        n^-m sum_{beta,v} T_{alpha + w.beta}(w-bar v-bar), and alpha + w.beta
        runs over Z_n^m as beta does, so h Lambda = w-bar Lambda; likewise
        Lambda h = n^-m sum T_{beta + v.alpha}(v-bar w-bar) = Lambda w-bar."""
        report = AxiomReport(instance=f"H({self.n},{self.m})")
        lam = self.integral()
        eps_lam = self.counit(lam)
        ok = eps_lam == self.cyc.scalar(factorial(self.m))
        report.add("integral-counit", "eps(Lambda) = m!", ok, None if ok else {"eps": eps_lam.to_json()})

        elems = self.basis_elems()

        def invariance_fails(key):
            h = elems[key]
            return self.hmul(h, lam) != lam or self.hmul(lam, h) != lam

        report.check(
            "integral-invariance",
            "h Lambda = eps(h) Lambda = Lambda h",
            self._cases(self._translation_law_holds()),
            invariance_fails,
            _basis_witness,
        )
        return report

    # -- axiom verification --------------------------------------------------------

    def _cases(self, reduced: bool, arity: int = 1):
        """The cases of a check: the arity-tuples of the m! labels (0, w),
        which are the first m! keys of basis_keys(), when reduced, and of
        every basis key otherwise.  A case of arity 1 is a bare key."""
        keys = self.basis_keys()
        if reduced:
            keys = keys[: len(self.perms)]
        return keys if arity == 1 else iproduct(keys, repeat=arity)

    def _associativity_fails(self, elems: dict):
        """The predicate (ab)c != a(bc) on triples of keys of elems, which
        forms each product of two keys once: associativity of verify_axioms
        on basis keys, associativity-oracle of gamma_table on labels."""
        products: dict = {}

        def product(ka, kb) -> "HopfElem":
            out = products.get((ka, kb))
            if out is None:
                out = products[ka, kb] = self.hmul(elems[ka], elems[kb])
            return out

        def fails(keys) -> bool:
            ka, kb, kc = keys
            return self.hmul(product(ka, kb), elems[kc]) != self.hmul(elems[ka], product(kb, kc))

        return fails

    @memoized
    def _translation_law_holds(self) -> bool:
        """The product law of verify_axioms: G read from _translate(w, v, 0),
        P2 on the slot vectors, and P1 by comparing hmul on every basis pair
        with _translate.  P1 holds for hmul by construction (see hmul); the
        sweep is what catches a subclass that overrides hmul."""
        n, m, perms, zero = self.n, self.m, self.perms, self.ring.zero_exp
        units = [slot_vector(m, j) for j in range(1, m + 1)]
        if any(slot_act(w, slot_act(v, e)) != slot_act(w * v, e)
               for w, v, e in iproduct(perms, perms, units)):
            return False
        vectors, elems = list(self.ring.exponent_vectors()), self.basis_elems()
        for w, v in iproduct(perms, repeat=2):
            if any(p != w * v for _, p in self._translate(w, v, zero)):
                return False
            for ea, eb in iproduct(vectors, repeat=2):
                product = self.hmul(elems[ea, w], elems[eb, v])
                if product.terms != self._translate(w, v, exp_add(ea, slot_act(w, eb), n)):
                    return False
        return True

    @memoized
    def _coproduct_translates(self) -> bool:
        """D1 of verify_axioms, checked through coproduct on every basis
        element."""
        n, zero, elems = self.n, self.ring.zero_exp, self.basis_elems()
        for w in self.perms:
            base = self.coproduct(elems[zero, w]).terms
            for e in self.ring.exponent_vectors():
                shifted = {
                    ((exp_add(d1, e, n), w1), (exp_add(d2, e, n), w2)): c
                    for ((d1, w1), (d2, w2)), c in base.items()
                }
                if self.coproduct(elems[e, w]).terms != shifted:
                    return False
        return True

    @memoized
    def _antipode_translates(self) -> bool:
        """S0 and S1 of verify_axioms, checked through antipode and hmul on
        every basis element."""
        n, zero, ident = self.n, self.ring.zero_exp, Perm.identity(self.m)
        elems = self.basis_elems()
        for w in self.perms:
            s_w = self.antipode(elems[zero, w])
            if any(u != w.inverse() for _, u in s_w.terms):
                return False
            for e in self.ring.exponent_vectors():
                if self.antipode(elems[e, w]) != self.hmul(s_w, elems[exp_neg(e, n), ident]):
                    return False
        return True

    # -- structure constants on characters -------------------------------------

    @memoized
    def character_index(self) -> dict:
        """The row-major index of each character psi of Z_n^m, keyed by its
        exponent vector; psi sends x^beta to q^(psi.beta)."""
        return {psi: k for k, psi in enumerate(self.ring.exponent_vectors())}

    @memoized
    def character_sum(self) -> list:
        """plus[a][b], the index of psi_a + psi_b."""
        index = self.character_index()
        return [[index[exp_add(p, r, self.n)] for r in index] for p in index]

    @memoized
    def character_action(self, w: Perm) -> list:
        """act[a], the index of w.psi_a = slot_act(w^-1, psi_a), so that
        psi(sigma_w(r)) = (w.psi)(r) for every r in R."""
        index, inverse = self.character_index(), w.inverse()
        return [index[slot_act(inverse, psi)] for psi in index]

    def _exponents(self, terms: dict, width: int) -> list | None:
        """The exponents e, row-major over the characters of Z_n^width, with
        value zeta_2n^e at each, of the element of K[Z_n^width] with the
        given terms; None when a value is not a root of unity."""
        exponent = {self.cyc.root(e): e for e in range(self.cyc.N)}
        values = [exponent.get(c) for c in character_values(self.ring, terms, width)]
        return None if None in values else values

    @memoized
    def gamma_exponents(self, w: Perm, v: Perm) -> list | None:
        """g_{w,v}, with gamma(w, v)(psi) = zeta_2n^g[a] at the character
        psi of index a, read from _translate(w, v, 0); that is hmul(w-bar,
        v-bar) wherever P1 holds, which is where verify_axioms reads these
        tables; every term carries the label wv.  None when a value is not
        a root of unity."""
        terms = self._translate(w, v, self.ring.zero_exp)
        return self._exponents({e: c for (e, _), c in terms.items()}, self.m)

    @memoized
    def j_exponents(self, w: Perm) -> list | None:
        """f_w, with J(w)(psi, psi') = zeta_2n^f[a n^m + b] at the characters
        psi, psi' of indices a, b, read through coproduct(w-bar) =
        J(w)(w-bar (x) w-bar).  None when a term has a label other than w
        or a value is not a root of unity."""
        terms = self.coproduct(self.basis_elem(self.ring.zero_exp, w)).terms
        if any(w1 != w or w2 != w for (_, w1), (_, w2) in terms):
            return None
        return self._exponents({d1 + d2: c for ((d1, _), (d2, _)), c in terms.items()}, 2 * self.m)

    def _comultiplicative_by_tables(self) -> set:
        """The permutation pairs (w, v) at which the exponent identity of
        verify_axioms holds on gamma_exponents and j_exponents; a pair with
        a None table is left out."""
        N, size, plus = self.cyc.N, self.n**self.m, self.character_sum()
        proved = set()
        for w, v in iproduct(self.perms, repeat=2):
            g = self.gamma_exponents(w, v)
            fw, fv, fwv = (self.j_exponents(u) for u in (w, v, w * v))
            if g is None or fw is None or fv is None or fwv is None:
                continue
            aw = self.character_action(w)
            if not any(
                (g[plus[a][b]] + fwv[a * size + b] - fw[a * size + b]
                 - fv[aw[a] * size + aw[b]] - g[a] - g[b]) % N
                for a in range(size)
                for b in range(size)
            ):
                proved.add((w, v))
        return proved

    def verify_axioms(self) -> "AxiomReport":
        """Exact verification of the Hopf axioms on every basis element.

        Associativity holds over all basis triples and Delta-multiplicativity
        over all basis pairs; coassociativity, counit, antipode and S^2 = id
        hold at every basis element.  P1 below alone makes |B|^2 hmul calls,
        so |B|^2 > BASIS_PAIRS_GUARD is refused.

        With w.beta the slot permutation (w.beta)_i = beta_{w(i)} and T_delta
        the shift of every exponent by delta, these laws are checked once per
        algebra, through hmul, coproduct and antipode:

          G   w-bar v-bar lies in R (wv)-bar, for all w, v;
          P1  (x^alpha w-bar)(x^beta v-bar) = T_{alpha + w.beta}(w-bar v-bar)
              for every basis pair (|B|^2 products);
          P2  w.(v.e_j) = (wv).e_j for all w, v and slots j;
          D1  Delta(x^alpha w-bar) = T_{alpha,alpha} Delta(w-bar);
          S0  S(w-bar) lies in R (w^-1)-bar;
          S1  S(x^alpha w-bar) = S(w-bar) x^-alpha.

        G, P1 and P2 are the product law.  One rule reduces every check:
        when its laws hold, it runs on its label cases, the tuples of labels
        (0, w), and otherwise on every basis case; "checked" counts the basis
        cases either way.  Associativity needs the product law,
        comultiplicativity also D1, and the per-basis checks also S0 and S1.
        Under them, the proofs below show that the two sides of a check at a
        tuple of basis elements are its sides at their labels moved by a
        shift of exponents, a bijection on keys; so the check fails at the
        tuple exactly when it fails at the labels.  Hence the first failing label
        case is the literal sweep's first witness: the m! labels are the
        first m! keys of basis_keys(), and for pairs and triples the
        lex-first failing label tuple is the first failure in the iproduct
        order of basis tuples.

        Associativity.  The label cases are the (m!)^3 triples (w-bar v-bar)
        u-bar = w-bar (v-bar u-bar), from the (m!)^2 label products.  Proof
        for a = x^alpha w-bar, b = x^beta v-bar, c = x^kappa u-bar.  hmul is
        bilinear and T_delta is linear, with T_delta T_eps = T_{delta + eps};
        put delta = alpha + w.beta + (wv).kappa.  Write w-bar v-bar =
        sum_k c_k x^eps_k (wv)-bar (by G).  By P1, ab = sum_k c_k
        x^{alpha + w.beta + eps_k} (wv)-bar, and by P1 again on each term,
        (ab)c = sum_k c_k T_delta T_eps_k((wv)-bar u-bar)
        = T_delta((w-bar v-bar) u-bar), since P1 gives
        (x^eps_k (wv)-bar) u-bar = T_eps_k((wv)-bar u-bar).  Write
        v-bar u-bar = sum_j d_j x^phi_j q_j-bar.  By P1, bc = sum_j d_j
        x^{beta + v.kappa + phi_j} q_j-bar, and since the action is additive
        and w.(v.kappa) = (wv).kappa by P2, a(bc) = sum_j d_j T_delta
        T_{w.phi_j}(w-bar q_j-bar) = T_delta(w-bar (v-bar u-bar)), since P1
        gives w-bar (x^phi_j q_j-bar) = T_{w.phi_j}(w-bar q_j-bar).

        Comultiplicativity.  The label cases are the (m!)^2 pairs, decided
        by Delta(w-bar v-bar) == Delta(w-bar)Delta(v-bar) through hmul,
        coproduct and the HTensor product, which multiplies legs with hmul,
        or by the exponent tables below; comultiplicativity-direct reads the
        same verdicts.  For a = x^alpha w-bar, b = x^beta v-bar, let T_{d,d}
        shift both legs by d and put delta = alpha + w.beta.  By D1,
        Delta(x^alpha w-bar) = T_{alpha,alpha} Delta(w-bar), so Delta(ab) =
        T_{delta,delta} Delta(w-bar v-bar) by P1.  A pair of legs of
        Delta(a)Delta(b) is (x^{alpha+d} w-bar)(x^{beta+e} v-bar) =
        T_delta((x^d w-bar)(x^e v-bar)) by P1 twice and additivity of the
        action, so Delta(a)Delta(b) = T_{delta,delta}
        (Delta(w-bar)Delta(v-bar)).

        Exponent tables.  When the literal predicate passes on the generator
        pairs (x_i, z_k) and (z_k, x_i), which run the HTensor product, a
        label pair may be decided from integer tables instead.  A character
        psi of Z_n^m sends x^beta to q^{psi.beta}.  Read Delta(w-bar) =
        J(w)(w-bar (x) w-bar) through coproduct (j_exponents) and w-bar
        v-bar = gamma(w, v)(wv)-bar from _translate(w, v, 0)
        (gamma_exponents), which is hmul(w-bar, v-bar) because the product
        law, P1 included, holds wherever the tables are read; the character
        transform gives J(w)(psi, psi') = zeta^{f_w(psi, psi')} and
        gamma(w, v)(psi) = zeta^{g(psi)}, zeta = zeta_2n, where every value
        is a root of unity.
        The pair passes when, at every pair of characters, with
        (w.psi)_j = psi_{w^-1(j)},

          g(psi + psi') + f_wv(psi, psi')
            = f_w(psi, psi') + f_v(w.psi, w.psi') + g(psi) + g(psi') mod 2n.

        Proof that Delta(w-bar v-bar) = Delta(w-bar)Delta(v-bar) then holds.
        By D1 and the linearity of coproduct, Delta(w-bar v-bar) = sum_g c_g
        T_{g,g} Delta((wv)-bar) = Delta_R(gamma(w, v)) J(wv) ((wv)-bar (x)
        (wv)-bar), with Delta_R(x^g) = x^g (x) x^g.  The HTensor product
        multiplies legs with hmul, and (x^d w-bar)(x^e v-bar) =
        T_{d + w.e}(w-bar v-bar) by P1, so Delta(w-bar)Delta(v-bar) =
        J(w) sigma_w(J(v)) (gamma (x) gamma) ((wv)-bar (x) (wv)-bar), where
        sigma_w(x^e) = x^{w.e} on each leg and psi(x^{w.e}) = (w.psi)(x^e).
        Both coefficients lie in the commutative algebra R (x) R, where an
        element is fixed by its values at the character pairs, and their
        values are zeta to the two sides of the identity.  A pair whose
        identity fails, or whose tables hold a value that is not a root of
        unity, gets the HTensor verdict; so does every pair when a
        generator pair fails.

        Per-basis checks.  The label cases of coassociativity, counit,
        antipode and S^2 = id are the m! labels w-bar.  hmul and antipode
        are linear over terms; let h = x^alpha w-bar.
          - Coassociativity and counit: by D1 on every leg, both sides at h
            are the sides at w-bar with every leg shifted by alpha, which
            is a bijection on keys.
          - By P1, G and S1 at alpha = 0, S(x^alpha w-bar) is S(w-bar) with
            each term x^e u-bar moved to x^{e - u.alpha} u-bar.
          - Antipode: by D1, the legs of Delta(h) are those of Delta(w-bar)
            shifted by alpha.  With P1, a term of mu(S (x) id)Delta(h) is
            (x^{e - u.(alpha+d1)} u-bar)(x^{alpha+d2} w2-bar) =
            T_{e + u.(d2-d1)}(u-bar w2-bar), its value at alpha = 0.  A term
            of mu(id (x) S)Delta(h) is (x^{alpha+d1} w1-bar)
            (x^{e - u.(alpha+d2)} u-bar), by P1 and P2 the term at alpha = 0
            shifted by alpha - q.alpha, where q = w1 u is its label (G).
            This shift is a bijection on keys and fixes the unit.
          - S^2 = id: by S0 every term of S(w-bar) has the label w^-1 and
            every term of S(u-bar) for u = w^-1 the label w, so S(S(h)) =
            T_{w.(w^-1.alpha)} S(S(w-bar)) = T_alpha S(S(w-bar)) by P2,
            while h = T_alpha(w-bar)."""
        guard_basis_pairs("axiom verification", self.n, self.m)
        basis = self.basis_keys()
        report = AxiomReport(instance=f"H({self.n},{self.m})")
        report.add("dimension", "basis count = n^m m!", len(basis) == self.dim, None)

        products_translate = self._translation_law_holds()
        coproducts_translate = products_translate and self._coproduct_translates()
        elems = self.basis_elems()
        report.check(
            "associativity",
            "(ab)c = a(bc) on basis triples",
            self._cases(products_translate, 3),
            self._associativity_fails(elems),
            lambda keys: {"triple": [key_json(k) for k in keys]},
            checked=len(basis) ** 3,
        )

        proved: set = set()  # the label pairs (w, v) the exponent tables decide
        verdicts: dict = {}  # one HTensor verdict per pair, shared by both checks

        def delta_fails(keys):
            ka, kb = keys
            if (ka[1], kb[1]) in proved:
                return False
            out = verdicts.get(keys)
            if out is None:
                a, b = elems[ka], elems[kb]
                out = verdicts[keys] = (
                    self.coproduct(self.hmul(a, b)) != self.coproduct(a) * self.coproduct(b)
                )
            return out

        if coproducts_translate:
            gens = [next(iter(g.terms)) for g in self.generators()]
            xs, zs = gens[: self.m], gens[self.m :]
            if not any(delta_fails(p) for x in xs for z in zs for p in ((x, z), (z, x))):
                proved.update(self._comultiplicative_by_tables())

        report.check(
            "comultiplicativity",
            "Delta(ab) = Delta(a)Delta(b) on basis pairs",
            self._cases(coproducts_translate, 2),
            delta_fails,
            _pair_witness,
            checked=len(basis) ** 2,
        )
        report.check(
            "comultiplicativity-direct",
            "Delta(w v) = Delta(w)Delta(v) via the full tensor product",
            iproduct(basis[: len(self.perms)], repeat=2),
            delta_fails,
            lambda keys: {"pair": [list(w.one_line()) for _, w in keys]},
            checked=len(self.perms) ** 2,
        )

        def coassociativity_fails(key):
            lhs: dict = {}
            rhs: dict = {}
            for (k1, k2), c in self.coproduct(elems[key]).terms.items():
                for (k1a, k1b), c1 in self.coproduct(elems[k1]).terms.items():
                    accumulate(lhs, (k1a, k1b, k2), c * c1)
                for (k2a, k2b), c2 in self.coproduct(elems[k2]).terms.items():
                    accumulate(rhs, (k1, k2a, k2b), c * c2)
            return lhs != rhs

        def counit_fails(key):
            h = elems[key]
            left: dict = {}
            right: dict = {}
            for (k1, k2), c in self.coproduct(h).terms.items():
                accumulate(left, k2, c)  # (eps(x)id), eps(basis) = 1
                accumulate(right, k1, c)
            return left != h.terms or right != h.terms

        def antipode_fails(key):
            left = self.zero()
            right = self.zero()
            for (k1, k2), c in self.coproduct(elems[key]).terms.items():
                left = left + self.hmul(self.antipode_basis(*k1), elems[k2]).scale(c)
                right = right + self.hmul(elems[k1], self.antipode_basis(*k2)).scale(c)
            target = self.unit()  # eps(basis) = 1
            return left != target or right != target

        def involution_fails(key):
            h = elems[key]
            return self.antipode(self.antipode(h)) != h

        cases = self._cases(coproducts_translate and self._antipode_translates())
        for name, identity, fails in (
            ("coassociativity", "(Delta(x)id)Delta = (id(x)Delta)Delta on all basis elements",
             coassociativity_fails),
            ("counit", "(eps(x)id)Delta = id = (id(x)eps)Delta", counit_fails),
            ("antipode", "mu(S(x)id)Delta = eta eps = mu(id(x)S)Delta", antipode_fails),
            ("involution", "S^2 = id on the basis", involution_fails),
        ):
            report.check(name, identity, cases, fails, _basis_witness, checked=len(basis))
        return report

    def gamma_table(self) -> tuple[list, "AxiomReport"]:
        """The (m!)^2 cocycle values gamma(w, v), one entry each, and the
        checks of the table: the crossed product is associative exactly
        when gamma is a normalized 2-cocycle.

        cocycle-counit is the exact rule eps(gamma(w, v)) = 1.
        cocycle-identity is decided on the exponent tables g_{w,v} of
        gamma_exponents, gamma(w, v)(psi) = zeta^g(psi) with zeta = zeta_2n.
        R is commutative and n is invertible in K, so an element of R is
        fixed by its values at the n^m characters psi, and psi(sigma_w(r))
        = (w.psi)(r) (character_action).  Hence sigma_w(gamma(v, u))
        gamma(w, vu) = gamma(w, v) gamma(wv, u) iff, at every psi,
        g_{v,u}(w.psi) + g_{w,vu}(psi) = g_{w,v}(psi) + g_{wv,u}(psi) mod 2n;
        where a table is None the identity is reported failed.  On this
        algebra no table is None: each gamma(w, v) is a product of shifted
        t_k, sigma_u(t_k), whose value at psi is t_k(u.psi), and t_k(psi) =
        (1/n) sum_{i,j} q^{-ij} q^{psi_k i + psi_{k+1} j} = q^{psi_k
        psi_{k+1}}, since the sum over j vanishes unless i = psi_{k+1}; so
        every value of gamma is a power of q = zeta^2, and every term
        carries the label wv.  associativity-oracle runs the predicate of
        verify_axioms' associativity on the (m!)^3 label triples, the
        ground truth for the table.  At m = 3, reference-table compares
        each value with reference_cocycle_table_m3."""
        perms, gamma, N = self.perms, self.words.cocycle, self.cyc.N
        exponents = self.gamma_exponents
        report = AxiomReport(instance=f"H({self.n},{self.m})")
        reference = reference_cocycle_table_m3(self.ring) if self.m == 3 else None
        entries, mismatches = [], []
        for w, v in iproduct(perms, repeat=2):
            g = gamma(w, v)
            entry = {"w": list(canonical_word(w)), "v": list(canonical_word(v)), "gamma": g.to_json()}
            if reference is not None:
                entry["matches_reference"] = match = reference[w, v] == g
                if not match:
                    mismatches.append(entry)
            entries.append(entry)

        def words(labels):
            return {key: list(canonical_word(p)) for key, p in zip("wvu", labels)}

        def cocycle_fails(wvu):
            w, v, u = wvu
            tables = exponents(v, u), exponents(w, v * u), exponents(w, v), exponents(w * v, u)
            if None in tables:
                return True
            g_vu, g_w_vu, g_wv, g_wv_u = tables
            act = self.character_action(w)
            return any(
                (g_vu[act[a]] + g_w_vu[a] - g_wv[a] - g_wv_u[a]) % N for a in range(len(act))
            )

        report.check(
            "cocycle-counit",
            "eps(gamma(w,v)) = 1",
            iproduct(perms, repeat=2),
            lambda wv: eps_ring(gamma(*wv)) != self.cyc.one,
            words,
            checked=len(perms) ** 2,
        )
        report.check(
            "cocycle-identity",
            "sigma_w(gamma(v,u)) gamma(w,vu) = gamma(w,v) gamma(wv,u)",
            iproduct(perms, repeat=3),
            cocycle_fails,
            words,
            checked=len(perms) ** 3,
        )
        labels = {w: self.basis_elem(self.ring.zero_exp, w) for w in perms}
        report.check(
            "associativity-oracle",
            "(w v) u = w (v u) over basis labels",
            iproduct(perms, repeat=3),
            self._associativity_fails(labels),
            words,
            checked=len(perms) ** 3,
        )
        if reference is not None:
            report.add(
                "reference-table",
                "computed gamma matches the m=3 reference table cell by cell",
                not mismatches,
                {"mismatches": mismatches} if mismatches else None,
                checked=len(perms) ** 2,
            )
        return entries, report

    # -- the cyclic Hopf subalgebra R #_gamma <s> -----------------------------------

    def cyclic_subalgebra(self) -> "CyclicSubalgebra":
        s = cycle_perm(self.m)
        theta = self.basis_elem(self.ring.zero_exp, s)
        report = AxiomReport(instance=f"H({self.n},{self.m}) cyclic subalgebra")

        powers = [self.unit()]
        for _ in range(self.m):
            powers.append(self.hmul(powers[-1], theta))

        # theta^k = (prod_{i<k} gamma(s^i, s)) # (s^k)-bar
        expected = [None]
        t = self.ring.one
        sk = Perm.identity(self.m)
        for _ in range(self.m):
            t = t * self.words.cocycle(sk, s)
            sk = sk * s
            expected.append(HopfElem(self, {(key, sk): c for key, c in t.terms.items()}))
        report.check(
            "theta-powers",
            "theta^k = prod gamma(s^i, s) (s^k)-bar",
            range(1, self.m + 1),
            lambda k: powers[k] != expected[k],
            lambda k: {"k": k},
        )

        # s^m = id, so t = prod_{i<m} gamma(s^i, s), the last coefficient above
        ok = powers[self.m] == self.from_ring(t)
        report.add("theta-order", "theta^m = t in R", ok, None if ok else {"t": t.to_json()})

        def inverse(a: RingElem) -> RingElem | None:
            try:
                return ring_inverse(a)
            except NotInvertibleError:
                return None

        t_inv = inverse(t)
        report.add("t-invertible", "t is a unit of R", t_inv is not None, None)

        labels = cycle_powers(self.m)
        if t_inv is not None:
            g = self.words.cocycle(labels[-1], s)
            rhs = self.hmul(self.from_ring(t_inv * g), powers[self.m - 1])
            ok = self.antipode(theta) == rhs
            report.add(
                "antipode-theta",
                "S(theta) = t^{-1} gamma(s^{m-1}, s) theta^{m-1}",
                ok,
                None,
            )

        s_powers = set(labels)
        report.check(
            "hopf-subalgebra",
            "Delta(theta^k) lies in H'(x)H'",
            range(self.m),
            lambda k: any(
                k1[1] not in s_powers or k2[1] not in s_powers
                for k1, k2 in self.coproduct(powers[k]).terms
            ),
            lambda k: {"k": k},
        )

        ok = self.coproduct(theta) == HTensor(
            self,
            {
                ((d1, s), (d2, s)): c
                for (d1, d2), c in self.j_of_word(s).terms.items()
            },
        )
        report.add("coproduct-theta", "Delta(theta) = J(s)(theta(x)theta)", ok, None)

        report.check(
            "theta-conjugation",
            "theta x_i = x_{i+1} theta (cyclic)",
            range(1, self.m + 1),
            lambda i: self.hmul(theta, self.x(i)) != self.hmul(self.x(i % self.m + 1), theta),
            lambda i: {"i": i},
        )

        # theta^k = c_k (s^k)-bar with c_k a unit of R spans R (s^k)-bar, of
        # dim n^m; m distinct labels s^k make the sum over k < m direct
        labels_of = [{w for _, w in powers[k].terms} for k in range(self.m)]
        ok = all(len(ls) == 1 for ls in labels_of) and len(set().union(*labels_of)) == self.m
        ok = ok and all(
            inverse(RingElem(self.ring, {e: c for (e, _), c in powers[k].terms.items()})) is not None
            for k in range(self.m)
        )
        report.add("subalgebra-dimension", "dim H' = m n^m", ok, None)
        return CyclicSubalgebra(
            s=s, theta=theta, t=t, t_inverse=t_inv, dim=self.m * self.n**self.m, report=report
        )

    def __eq__(self, other):
        return isinstance(other, HopfAlgebra) and (self.n, self.m) == (other.n, other.m)

    def __hash__(self):
        return hash(("HopfAlgebra", self.n, self.m))

    def __repr__(self):
        return f"HopfAlgebra(n={self.n}, m={self.m})"


def _translated(terms: dict, delta, n: int) -> dict:
    """T_delta on the terms of an element of H: every exponent + delta."""
    return {(exp_add(e, delta, n), p): c for (e, p), c in terms.items()}


def key_json(key) -> dict:
    exps, w = key
    return {"exponents": list(exps), "perm": list(w.one_line())}


def label_json(key) -> dict:
    """A basis key with the canonical word of its permutation."""
    return dict(key_json(key), word=list(canonical_word(key[1])))


def term_json(key, c) -> dict:
    """One term of HopfElem.to_json: the labelled key and its coefficient."""
    return dict(label_json(key), coeff=c.to_json())


def _basis_witness(key) -> dict:
    return {"basis": key_json(key)}


def _pair_witness(keys) -> dict:
    return {"pair": [key_json(k) for k in keys]}


class HopfElem(SparseElem):
    """Sparse element of H: map from (exponent vector, Perm) to scalars."""

    __slots__ = ("algebra", "terms")
    _mismatch = "elements of different Hopf algebras"

    def __init__(self, algebra: HopfAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def context(self):
        return self.algebra

    def _new(self, terms: dict) -> "HopfElem":
        return HopfElem(self.algebra, terms)

    def _field(self):
        return self.algebra.cyc

    def _lift(self, c):
        if isinstance(c, int):
            return self.algebra.unit().scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, CycScalar)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.algebra.hmul(self, other)

    def __pow__(self, e: int) -> "HopfElem":
        if e < 0:
            raise ValueError(f"negative power {e} of a Hopf algebra element")
        out = self.algebra.unit()
        for _ in range(e):
            out = self.algebra.hmul(out, self)
        return out

    def to_json(self) -> list:
        return [term_json(key, c) for key, c in self.sorted_terms()]

    def _monomial_repr(self, key) -> str:
        e, w = key
        return "*".join(power_product("x", e) + [f"z{i}" for i in canonical_word(w)]) or "1"


class HTensor(SparseElem):
    """Sparse element of H (x) H keyed by pairs of basis keys."""

    __slots__ = ("algebra", "terms")
    _mismatch = "tensors over different Hopf algebras"

    def __init__(self, algebra: HopfAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def context(self):
        return self.algebra

    def _new(self, terms: dict) -> "HTensor":
        return HTensor(self.algebra, terms)

    def _field(self):
        return self.algebra.cyc

    def __mul__(self, other: "HTensor"):
        """Componentwise product in H (x) H: each pair of legs is multiplied
        by hmul, once per pair of leg keys."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        alg = self.algebra
        legs: dict = {}

        def leg(k1, k2) -> list:
            out = legs.get((k1, k2))
            if out is None:
                product = alg.hmul(alg.basis_elem(*k1), alg.basis_elem(*k2))
                out = legs[k1, k2] = list(product.terms.items())
            return out

        out: dict = {}
        for (kl1, kr1), c1 in self.terms.items():
            for (kl2, kr2), c2 in other.terms.items():
                c = c1 * c2
                right = leg(kr1, kr2)
                for kl, cl in leg(kl1, kl2):
                    ccl = c * cl
                    for kr, cr in right:
                        accumulate(out, (kl, kr), ccl * cr)
        return HTensor(alg, out)

    def to_json(self) -> list:
        return [
            {"left": key_json(k1), "right": key_json(k2), "coeff": c.to_json()}
            for (k1, k2), c in self.sorted_terms()
        ]


@dataclass
class CyclicSubalgebra:
    """H' = R #_gamma <s> for the m-cycle s; theta generates it over R.
    Basis {x^alpha theta^k, 0 <= k < m} labeled by (exponents, s^k)."""

    s: Perm
    theta: HopfElem
    t: RingElem
    t_inverse: RingElem | None
    dim: int
    report: "AxiomReport"


@dataclass
class AxiomReport:
    """Checks in the order recorded.  ``timings`` maps each check name to
    the seconds between the previous record (or the report's creation) and
    its own, so the work done to set a check up counts towards it."""

    instance: str
    checks: list = field(default_factory=list)
    timings: dict = field(default_factory=dict, compare=False, repr=False)
    _clock: float = field(default_factory=time.perf_counter, init=False, compare=False, repr=False)

    def add(self, name: str, identity: str, ok: bool, witness, checked: int | None = None):
        self._record(name, identity, "pass" if ok else "fail", witness, checked)

    def check(self, name: str, identity: str, cases, fails, witness, checked: int | None = None) -> bool:
        """Record one check: fail with witness(case) at the first case for
        which fails(case) is true, else pass."""
        for case in cases:
            if fails(case):
                self.add(name, identity, False, witness(case), checked)
                return False
        self.add(name, identity, True, None, checked)
        return True

    def extend(self, *parts: "AxiomReport") -> "AxiomReport":
        """Append the checks of each part, in order, and add its seconds per
        check to this report's; returns this report."""
        for part in parts:
            self.checks.extend(part.checks)
            for name, s in part.timings.items():
                self.timings[name] = self.timings.get(name, 0.0) + s
        return self

    def add_skipped(self, name: str, identity: str, reason: str):
        self._record(name, identity, "skipped", {"reason": reason}, None)

    def _record(self, name: str, identity: str, status: str, witness, checked: int | None):
        self.checks.append(
            {"name": name, "identity": identity, "status": status, "witness": witness, "checked": checked}
        )
        now = time.perf_counter()
        self.timings[name] = self.timings.get(name, 0.0) + now - self._clock
        self._clock = now

    @property
    def ok(self) -> bool:
        return not any(c["status"] == "fail" for c in self.checks)

    def __bool__(self):
        return self.ok

    def to_json(self) -> dict:
        return {"instance": self.instance, "checks": self.checks, "ok": self.ok}


def embedding_map(h: HopfElem, target: HopfAlgebra) -> HopfElem:
    """x_i -> x_i, z_i -> z_i from H_{n,m} into H_{n,m+1}: append a trivial
    tensor slot and extend permutations by a fixed point."""
    src = h.algebra
    if target.n != src.n or target.m != src.m + 1:
        raise ContextMismatchError("target must be H_{n,m+1}")
    return HopfElem(target, {_embed_key(k, src.m): c for k, c in h.terms.items()})


def _embed_key(key, m: int) -> tuple:
    """The key of phi(x^e w-bar) in H_{n,m+1} for the key (e, w) of H_{n,m}."""
    e, w = key
    return e + (0,), Perm(w.images + (m,))


def guard_basis_pairs(what: str, n: int, m: int) -> None:
    """Refuse a sweep over all basis pairs of H_{n,m} when |B|^2 exceeds
    BASIS_PAIRS_GUARD."""
    pairs = (n**m * factorial(m)) ** 2
    if pairs > BASIS_PAIRS_GUARD:
        raise SizeGuardError(f"{what} refused for {pairs} basis pairs > {BASIS_PAIRS_GUARD}")


def embedding_check(n: int, m: int) -> AxiomReport:
    """Verify that the generator map phi intertwines product, coproduct,
    counit and antipode between H_{n,m} and H_{n,m+1}, guarded by the |B|^2
    basis pairs that embedding-product covers before either is built.

    embedding-product runs on the (m!)^2 label pairs and counts all |B|^2
    basis pairs as checked.  Proof that phi(ab) = phi(a)phi(b) holds at
    a = x^alpha w-bar, b = x^beta v-bar exactly when it holds at (w-bar,
    v-bar).  Both algebras are plain HopfAlgebras, so P1 holds in each by
    construction (see HopfAlgebra.hmul).  phi is linear and sends x^e u-bar
    to x^(e,0) (u x 1)-bar, so phi(T_delta h) = T_(delta,0) phi(h).  With
    delta = alpha + w.beta, P1 gives phi(ab) = T_(delta,0) phi(w-bar v-bar),
    and since (w x 1).(beta, 0) = (w.beta, 0), P1 in H_{n,m+1} gives
    phi(a)phi(b) = T_(delta,0)(phi(w-bar) phi(v-bar)).  T_(delta,0) is a
    bijection on keys, so the two sides at (a, b) agree exactly when they
    agree at the labels.  The labels (0, w) are the first m! keys of
    basis_keys(), so the lex-first failing label pair is also the first
    failing pair of the literal sweep over every basis pair."""
    guard_basis_pairs("embedding check", n, m)
    small = HopfAlgebra(n, m)
    big = HopfAlgebra(n, m + 1)
    report = AxiomReport(instance=f"H({n},{m}) -> H({n},{m+1})")
    basis = small.basis_keys()

    def phi(h):
        return embedding_map(h, big)

    def product_fails(keys):
        a, b = (small.basis_elem(*k) for k in keys)
        return phi(small.hmul(a, b)) != big.hmul(phi(a), phi(b))

    def coproduct_fails(key):
        h = small.basis_elem(*key)
        lhs = {
            (_embed_key(k1, m), _embed_key(k2, m)): c
            for (k1, k2), c in small.coproduct(h).terms.items()
        }
        return HTensor(big, lhs) != big.coproduct(phi(h))

    def counit_fails(key):
        h = small.basis_elem(*key)
        return small.counit(h) != big.counit(phi(h))

    def antipode_fails(key):
        h = small.basis_elem(*key)
        return phi(small.antipode(h)) != big.antipode(phi(h))

    report.check(
        "embedding-product",
        "phi(ab) = phi(a)phi(b)",
        small._cases(True, 2),
        product_fails,
        _pair_witness,
        checked=len(basis) ** 2,
    )
    for name, identity, fails in (
        ("embedding-coproduct", "(phi(x)phi)Delta = Delta phi", coproduct_fails),
        ("embedding-counit", "eps phi = eps", counit_fails),
        ("embedding-antipode", "phi S = S phi", antipode_fails),
    ):
        report.check(name, identity, basis, fails, _basis_witness, checked=len(basis))
    return report
