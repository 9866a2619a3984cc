"""The Hopf algebra H_{n,m} = R #_gamma Sigma_m on the basis {x^alpha w-bar}.

Multiplication is the crossed product

    (x^alpha # w)(x^beta # v) = x^alpha sigma_w(x^beta) gamma(w, v) # w*v,

with gamma the operational 2-cocycle from kacpal.cocycle.  The coproduct of
a basis element is Delta(x^alpha # w) = (x^alpha (x) x^alpha) J(w) (w (x) w)
where J(w) is defined by the recursion J(id) = 1 (x) 1 and
J(s_i v) = J_i (sigma_i (x) sigma_i)(J(v)) over the canonical word of w.
The antipode is computed operationally, S(x^alpha # w) = S(w-bar) x^{-alpha}
with S(w-bar) the product of the generators of the reversed canonical word.

Structure constants are evaluated lazily per product and memoized by the
permutation pair; all values are exact.

Every x^alpha is group-like and w-bar acts on exponents by the slot
permutation (w.beta)_i = beta_{w(i)}, so a product of basis elements is a
translate of a product of permutation labels:

    (x^alpha w-bar)(x^beta v-bar) = T_{alpha + w.beta}(w-bar v-bar),

with T_delta shifting every exponent by delta.  Exhaustive verification
checks this law through hmul and uses it to prove associativity over all
|B|^3 basis triples from |B|^2 products and the (m!)^3 permutation triples,
and comultiplicativity over all |B|^2 basis pairs from one verdict per
permutation pair, read from exponent tables of J(w) and gamma(w, v) at
characters.  With the matching laws for coproduct and antipode, the other
per-basis checks run on the m! permutation labels.  Where a law fails, the
literal sweep names the witness (see verify_axioms).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

from .cocycle import WordCalculus
from .cyclotomic import CycScalar
from .errors import ContextMismatchError, NotInvertibleError, SizeGuardError
from .group_ring import (
    GroupAlgebra,
    KTensor,
    RingElem,
    _character_values,
    ring_inverse,
    slot_vector,
    twist_Js,
)
from .sparse import SparseElem, accumulate, power_product
from .symmetric import Perm, all_perms, canonical_word, cycle_perm, cycle_powers

# bounds every sweep over all basis pairs (verify, embed-check, export).  On
# a 2-core host with Python 3.11, one or two runs each: dim 384 (H(2,4),
# H(4,3)) takes 18-32 s in embed-check, and H(5,3) (dim 750) and H(3,4)
# (dim 1944) each ran past 60 s.  verify, whose P1 alone is |B|^2 hmul
# calls, takes 3.4-3.5 s on H(8,2), 12.2-12.5 s on H(10,2), 49-58 s on
# H(13,2) (dim 338, of which associativity/P1 is 43-53 s), 18.8-19.6 s on
# H(4,3) and 16.1-16.4 s on H(2,4); it refuses H(14,2) (dim 392) in 0.24 s
BASIS_PAIRS_GUARD = 384**2


class HopfAlgebra:
    """Context object for H_{n,m}; holds the base ring and all memo tables."""

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
        self._j_cache: dict[Perm, KTensor] = {}
        self._sproduct: dict[tuple[Perm, Perm], tuple[Perm, list]] = {}
        self._antipode_word: dict[Perm, "HopfElem"] = {}
        self._antipode_basis: dict = {}
        # P1 of verify_axioms, once it has been checked
        self._translates: bool | None = None

    # -- element constructors --------------------------------------------------

    def zero(self) -> "HopfElem":
        return HopfElem(self, {})

    def unit(self) -> "HopfElem":
        return self.basis_elem(self.ring.zero_exp, Perm.identity(self.m))

    def basis_elem(self, exps, w: Perm, coeff=None) -> "HopfElem":
        exps = tuple(e % self.n for e in exps)
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

    # -- structure constants ----------------------------------------------------

    def _single_product(self, w: Perm, v: Perm):
        """Template for (x^0 # w)(x^0 # v): target permutation and the sparse
        gamma(w, v) terms."""
        key = (w, v)
        out = self._sproduct.get(key)
        if out is None:
            g = self.words.cocycle(w, v)
            out = (w * v, list(g.terms.items()))
            self._sproduct[key] = out
        return out

    def hmul(self, a: "HopfElem", b: "HopfElem") -> "HopfElem":
        if a.algebra != self:
            raise ContextMismatchError("left factor from a different algebra")
        if b.algebra != self:
            raise ContextMismatchError("right factor from a different algebra")
        n = self.n
        rng = range(self.m)
        out: dict = {}
        for (ea, wa), ca in a.terms.items():
            img = wa.images
            for (eb, wb), cb in b.terms.items():
                c = ca * cb
                shifted = tuple((ea[i] + eb[img[i]]) % n for i in rng)
                wv, gamma_terms = self._single_product(wa, wb)
                for dg, cg in gamma_terms:
                    accumulate(out, (tuple((shifted[i] + dg[i]) % n for i in rng), wv), c * cg)
        return HopfElem(self, out)

    def j_of_word(self, w: Perm) -> KTensor:
        """J(w) by recursion over the canonical word; cached."""
        out = self._j_cache.get(w)
        if out is None:
            word = canonical_word(w)
            if not word:
                out = KTensor(
                    self.ring, 2, {(self.ring.zero_exp,) * 2: self.cyc.one}
                )
            else:
                i = word[0]
                s_i = Perm.transposition(self.m, i)
                rest = s_i * w
                out = twist_Js(self.ring, i) * self.j_of_word(rest).sigma_all(s_i)
            self._j_cache[w] = out
        return out

    def coproduct(self, h: "HopfElem") -> "HTensor":
        n = self.n
        out: dict = {}
        for (e, w), c in h.terms.items():
            for (d1, d2), cj in self.j_of_word(w).terms.items():
                key = (
                    (tuple((e[i] + d1[i]) % n for i in range(self.m)), w),
                    (tuple((e[i] + d2[i]) % n for i in range(self.m)), w),
                )
                accumulate(out, key, c * cj)
        return HTensor(self, out)

    def counit(self, h: "HopfElem"):
        return sum(h.terms.values(), self.cyc.zero)

    def antipode_word(self, w: Perm) -> "HopfElem":
        """S(w-bar): the product of generators of the reversed canonical word."""
        out = self._antipode_word.get(w)
        if out is None:
            out = self.unit()
            for i in reversed(canonical_word(w)):
                out = self.hmul(out, self.z(i))
            self._antipode_word[w] = out
        return out

    def antipode_basis(self, e, w: Perm) -> "HopfElem":
        out = self._antipode_basis.get((e, w))
        if out is None:
            neg = tuple((-x) % self.n for x in e)
            out = self.hmul(self.antipode_word(w), self.basis_elem(neg, Perm.identity(self.m)))
            self._antipode_basis[(e, w)] = out
        return out

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

        Once verify_axioms has found P1, invariance is checked on the m!
        labels w-bar only.  For h = x^alpha w-bar, P1 and the
        bilinearity of hmul give h Lambda = n^-m sum_{beta,v}
        T_{alpha + w.beta}(w-bar v-bar), and alpha + w.beta runs over Z_n^m
        as beta does, so h Lambda = w-bar Lambda; likewise Lambda h = n^-m
        sum T_{beta + v.alpha}(v-bar w-bar) = Lambda w-bar.  Without a P1
        verdict, or if a label fails, every basis element is swept."""
        report = AxiomReport(instance=f"H({self.n},{self.m})")
        lam = self.integral()
        eps_lam = self.counit(lam)
        ok = eps_lam == self.cyc.scalar(factorial(self.m))
        report.add("integral-counit", "eps(Lambda) = m!", ok, None if ok else {"eps": eps_lam.to_json()})

        def invariance_fails(key):
            h = self.basis_elem(*key)
            return self.hmul(h, lam) != lam or self.hmul(lam, h) != lam

        report.check(
            "integral-invariance",
            "h Lambda = eps(h) Lambda = Lambda h",
            self._sweep_cases(bool(self._translates), invariance_fails),
            invariance_fails,
            _basis_witness,
        )
        return report

    def _sweep_cases(self, reduced: bool, fails) -> list:
        """The basis keys a per-basis check sweeps: none when reduced is set
        and fails is false on every label (0, w), whose verdicts then decide
        every basis element; otherwise all of them in order, so a failure
        names the literal sweep's first witness."""
        zero = self.ring.zero_exp
        if reduced and not any(fails((zero, w)) for w in self.perms):
            return []
        return self.basis_keys()

    # -- axiom verification --------------------------------------------------------

    def _translation_law_holds(self) -> bool:
        """P1 of verify_axioms, checked through hmul on every basis pair."""
        n, m, zero = self.n, self.m, self.ring.zero_exp
        for w, v in iproduct(self.perms, repeat=2):
            template = self.hmul(self.basis_elem(zero, w), self.basis_elem(zero, v)).terms
            for ea, eb in iproduct(self.ring.exponent_vectors(), repeat=2):
                shift = [(a + eb[j]) % n for a, j in zip(ea, w.images)]
                expected = {
                    (tuple((e[i] + shift[i]) % n for i in range(m)), p): c
                    for (e, p), c in template.items()
                }
                if self.hmul(self.basis_elem(ea, w), self.basis_elem(eb, v)).terms != expected:
                    return False
        return True

    def _associative_by_reduction(self) -> bool:
        """True when the facts G, P2 and P3 of verify_axioms hold, which with
        P1 prove (ab)c = a(bc) on every basis triple; False when one fails."""
        m, perms = self.m, self.perms
        bar = {w: self.basis_elem(self.ring.zero_exp, w) for w in perms}
        template = {(w, v): self.hmul(bar[w], bar[v]) for w in perms for v in perms}

        def act(w: Perm, e) -> tuple:
            return tuple(e[i] for i in w.images)

        # G: w-bar v-bar lies in R (wv)-bar
        if any(p != w * v for (w, v), t in template.items() for _, p in t.terms):
            return False
        # P2: w.(v.e_j) = (wv).e_j
        units = [slot_vector(m, j) for j in range(1, m + 1)]
        if any(act(w, act(v, e)) != act(w * v, e) for w in perms for v in perms for e in units):
            return False
        # P3: (w-bar v-bar) u-bar = w-bar (v-bar u-bar)
        return all(
            self.hmul(template[w, v], bar[u]) == self.hmul(bar[w], template[v, u])
            for w, v, u in iproduct(perms, repeat=3)
        )

    def _coproduct_translates(self) -> bool:
        """D1 of verify_axioms, checked through coproduct on every basis
        element."""
        n, zero = self.n, self.ring.zero_exp
        for w in self.perms:
            base = self.coproduct(self.basis_elem(zero, w)).terms
            for e in self.ring.exponent_vectors():
                shifted = {
                    ((_shift(d1, e, n), w1), (_shift(d2, e, n), w2)): c
                    for ((d1, w1), (d2, w2)), c in base.items()
                }
                if self.coproduct(self.basis_elem(e, w)).terms != shifted:
                    return False
        return True

    def _antipode_translates(self) -> bool:
        """S0 and S1 of verify_axioms, checked through antipode and hmul on
        every basis element."""
        n, zero, ident = self.n, self.ring.zero_exp, Perm.identity(self.m)
        for w in self.perms:
            s_w = self.antipode(self.basis_elem(zero, w))
            if any(u != w.inverse() for _, u in s_w.terms):
                return False
            for e in self.ring.exponent_vectors():
                neg = self.basis_elem(tuple(-x for x in e), ident)
                if self.antipode(self.basis_elem(e, w)) != self.hmul(s_w, neg):
                    return False
        return True

    def _comultiplicative_by_tables(self) -> set:
        """The permutation pairs (w, v) at which the exponent identity of
        verify_axioms holds, from tables read through coproduct and hmul.
        A pair is left out when an identity fails, when a value is not a
        root of unity, or when a term carries an unexpected label."""
        n, m, N, zero = self.n, self.m, self.cyc.N, self.ring.zero_exp
        vectors = list(self.ring.exponent_vectors())
        index = {e: k for k, e in enumerate(vectors)}
        size = len(vectors)
        exponent = {self.cyc.root(e): e for e in range(N)}

        def table(items, live: int) -> list | None:
            """Exponents e with value zeta_2n^e at every character, row-major."""
            values = [exponent.get(c) for c in _character_values(self.cyc, items, live, 1)]
            return None if None in values else values

        # f[w](psi, psi') from Delta(w-bar), flattened as psi * n^m + psi'
        f = {}
        for w in self.perms:
            terms = self.coproduct(self.basis_elem(zero, w)).terms
            f[w] = None
            if all(w1 == w == w2 for (_, w1), (_, w2) in terms):
                items = [(index[d1] * size + index[d2], c) for ((d1, _), (d2, _)), c in terms.items()]
                f[w] = table(items, 2 * m)
        # act[w][psi] = w.psi with (w.psi)_j = psi_{w^-1(j)}, so that
        # psi(sigma_w(x^beta)) = (w.psi)(x^beta)
        act = {
            w: [index[tuple(psi[i] for i in w.inverse().images)] for psi in vectors]
            for w in self.perms
        }
        plus = [[index[tuple((a + b) % n for a, b in zip(p, r))] for r in vectors] for p in vectors]
        proved = set()
        for w, v in iproduct(self.perms, repeat=2):
            terms = self.hmul(self.basis_elem(zero, w), self.basis_elem(zero, v)).terms
            if any(p != w * v for _, p in terms):
                continue
            g = table([(index[e], c) for (e, _), c in terms.items()], m)
            fw, fv, fwv, aw = f[w], f[v], f[w * v], act[w]
            if g is None or fw is None or fv is None or fwv is None:
                continue
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
        over all basis pairs.  Coassociativity, counit, antipode and
        S^2 = id are decided for every basis element, from the m! labels
        where the label reduction below applies.  P1 below alone makes |B|^2
        hmul calls, so |B|^2 > BASIS_PAIRS_GUARD is refused.

        Associativity is proved, not swept.  With w.beta the slot
        permutation (w.beta)_i = beta_{w(i)} and T_delta the shift of every
        exponent by delta, these facts are checked through hmul:

          G   w-bar v-bar lies in R (wv)-bar, for all w, v;
          P1  (x^alpha w-bar)(x^beta v-bar) = T_{alpha + w.beta}(w-bar v-bar)
              for every basis pair (|B|^2 products);
          P2  w.(v.e_j) = (wv).e_j for all w, v and slots j;
          P3  (w-bar v-bar) u-bar = w-bar (v-bar u-bar) for all (m!)^3
              permutation triples.

        Proof that they give (ab)c = a(bc) for a = x^alpha w-bar,
        b = x^beta v-bar, c = x^kappa u-bar.  hmul is bilinear and T_delta
        is linear, with T_delta T_eps = T_{delta + eps}; put
        delta = alpha + w.beta + (wv).kappa.  Write w-bar v-bar =
        sum_k c_k x^eps_k (wv)-bar (by G).  By P1, ab = sum_k c_k
        x^{alpha + w.beta + eps_k} (wv)-bar, and by P1 again on each term,
        (ab)c = sum_k c_k T_delta T_eps_k((wv)-bar u-bar)
        = T_delta((w-bar v-bar) u-bar), since P1 gives
        (x^eps_k (wv)-bar) u-bar = T_eps_k((wv)-bar u-bar).  Write
        v-bar u-bar = sum_j d_j x^phi_j q_j-bar.  By P1, bc = sum_j d_j
        x^{beta + v.kappa + phi_j} q_j-bar, and since the action is additive
        and w.(v.kappa) = (wv).kappa by P2, a(bc) = sum_j d_j T_delta
        T_{w.phi_j}(w-bar q_j-bar) = T_delta(w-bar (v-bar u-bar)), since P1
        gives w-bar (x^phi_j q_j-bar) = T_{w.phi_j}(w-bar q_j-bar).  P3
        makes the two equal.

        If a fact fails, the literal predicate runs over every triple, so
        the report names the same first failing triple as a full sweep.

        Comultiplicativity is decided once per permutation pair, by
        Delta(w-bar v-bar) == Delta(w-bar)Delta(v-bar) through hmul,
        coproduct and the HTensor product, which multiplies legs with hmul,
        or by the exponent tables below; both comultiplicativity checks
        read this verdict.  Given P1 it
        decides every basis pair a = x^alpha w-bar, b = x^beta v-bar.  Let
        T_{d,d} shift both legs by d and put delta = alpha + w.beta.  By the
        form of coproduct, Delta(x^alpha w-bar) = T_{alpha,alpha}
        Delta(w-bar), so Delta(ab) = T_{delta,delta} Delta(w-bar v-bar) by
        P1.  A pair of legs of Delta(a)Delta(b) is (x^{alpha+d} w-bar)
        (x^{beta+e} v-bar) = T_delta((x^d w-bar)(x^e v-bar)) by P1 twice and
        additivity of the action, so Delta(a)Delta(b) = T_{delta,delta}
        (Delta(w-bar)Delta(v-bar)), and T_{delta,delta} is a bijection on
        keys.  D1 below states the form of coproduct used here, and a
        failing P1 or D1 sends comultiplicativity to the literal predicate
        over the basis pairs in order.

        These facts are also checked, through coproduct, antipode and hmul,
        on every basis element:

          D1  Delta(x^alpha w-bar) = T_{alpha,alpha} Delta(w-bar);
          S0  S(w-bar) lies in R (w^-1)-bar;
          S1  S(x^alpha w-bar) = S(w-bar) x^-alpha.

        Exponent tables.  When P1 and D1 hold and the literal predicate
        passes on the generator pairs (x_i, z_k) and (z_k, x_i), which run
        the HTensor product, a permutation pair may be decided from integer
        tables instead.  A character psi of Z_n^m sends x^beta
        to q^{psi.beta}.  Read Delta(w-bar) = J(w)(w-bar (x) w-bar) through
        coproduct and w-bar v-bar = gamma(w, v)(wv)-bar through hmul; the
        character transform gives J(w)(psi, psi') = zeta^{f_w(psi, psi')}
        and gamma(w, v)(psi) = zeta^{g(psi)}, zeta = zeta_2n, where every
        value is a root of unity.  The pair passes when, at every pair of
        characters, with (w.psi)_j = psi_{w^-1(j)},

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

        Label reduction.  When associativity is proved (G, P1, P2, P3) and
        D1, S0 and S1 hold, coassociativity, counit, antipode and S^2 = id
        run their predicates on the m! labels w-bar, and each label's
        verdict holds at every h = x^alpha w-bar.  hmul and antipode are
        linear over terms.
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
            while h = T_alpha(w-bar).
        If a fact or a label fails, the predicate sweeps every basis
        element in order, so the witness is the literal sweep's; "checked"
        is |B| either way."""
        guard_basis_pairs("axiom verification", self.n, self.m)
        basis = self.basis_keys()
        report = AxiomReport(instance=f"H({self.n},{self.m})")
        report.add("dimension", "basis count = n^m m!", len(basis) == self.dim, None)

        translates = self._translates = self._translation_law_holds()
        # a failing reduction falls back to the literal sweep for the witness
        reduced = translates and self._associative_by_reduction()
        coproduct_translates = self._coproduct_translates()

        def associativity_fails(keys):
            a, b, c = (self.basis_elem(*k) for k in keys)
            return self.hmul(self.hmul(a, b), c) != self.hmul(a, self.hmul(b, c))

        report.check(
            "associativity",
            "(ab)c = a(bc) on basis triples",
            () if reduced else iproduct(basis, repeat=3),
            associativity_fails,
            lambda keys: {"triple": [key_json(k) for k in keys]},
            checked=len(basis) ** 3,
        )

        def delta_fails(keys):
            a, b = (self.basis_elem(*k) for k in keys)
            return self.coproduct(self.hmul(a, b)) != self.coproduct(a) * self.coproduct(b)

        by_pair = translates and coproduct_translates
        verdicts: dict = {}
        if by_pair:
            gens = [next(iter(g.terms)) for g in self.generators()]
            xs, zs = gens[: self.m], gens[self.m :]
            if not any(delta_fails(p) for x in xs for z in zs for p in ((x, z), (z, x))):
                verdicts = dict.fromkeys(self._comultiplicative_by_tables(), False)

        def perm_pair_fails(perms):
            bad = verdicts.get(perms)
            if bad is None:
                bad = verdicts[perms] = delta_fails([(self.ring.zero_exp, u) for u in perms])
            return bad

        report.check(
            "comultiplicativity",
            "Delta(ab) = Delta(a)Delta(b) on basis pairs",
            iproduct(basis, repeat=2),
            (lambda keys: perm_pair_fails((keys[0][1], keys[1][1]))) if by_pair else delta_fails,
            _pair_witness,
            checked=len(basis) ** 2,
        )
        report.check(
            "comultiplicativity-direct",
            "Delta(w v) = Delta(w)Delta(v) via the full tensor product",
            iproduct(self.perms, repeat=2),
            perm_pair_fails,
            lambda perms: {"pair": [list(u.one_line()) for u in perms]},
            checked=len(self.perms) ** 2,
        )

        def coassociativity_fails(key):
            lhs: dict = {}
            rhs: dict = {}
            for (k1, k2), c in self.coproduct(self.basis_elem(*key)).terms.items():
                for (k1a, k1b), c1 in self.coproduct(self.basis_elem(*k1)).terms.items():
                    accumulate(lhs, (k1a, k1b, k2), c * c1)
                for (k2a, k2b), c2 in self.coproduct(self.basis_elem(*k2)).terms.items():
                    accumulate(rhs, (k1, k2a, k2b), c * c2)
            return lhs != rhs

        by_label = reduced and coproduct_translates and self._antipode_translates()
        report.check(
            "coassociativity",
            "(Delta(x)id)Delta = (id(x)Delta)Delta on all basis elements",
            self._sweep_cases(by_label, coassociativity_fails),
            coassociativity_fails,
            _basis_witness,
            checked=len(basis),
        )

        def counit_fails(key):
            h = self.basis_elem(*key)
            left: dict = {}
            right: dict = {}
            for (k1, k2), c in self.coproduct(h).terms.items():
                accumulate(left, k2, c)  # (eps(x)id), eps(basis) = 1
                accumulate(right, k1, c)
            return left != h.terms or right != h.terms

        report.check(
            "counit",
            "(eps(x)id)Delta = id = (id(x)eps)Delta",
            self._sweep_cases(by_label, counit_fails),
            counit_fails,
            _basis_witness,
            checked=len(basis),
        )

        def antipode_fails(key):
            left = self.zero()
            right = self.zero()
            for ((e1, w1), (e2, w2)), c in self.coproduct(self.basis_elem(*key)).terms.items():
                left = left + self.hmul(
                    self.antipode_basis(e1, w1), self.basis_elem(e2, w2)
                ).scale(c)
                right = right + self.hmul(
                    self.basis_elem(e1, w1), self.antipode_basis(e2, w2)
                ).scale(c)
            target = self.unit()  # eps(basis) = 1
            return left != target or right != target

        report.check(
            "antipode",
            "mu(S(x)id)Delta = eta eps = mu(id(x)S)Delta",
            self._sweep_cases(by_label, antipode_fails),
            antipode_fails,
            _basis_witness,
            checked=len(basis),
        )

        def involution_fails(key):
            h = self.basis_elem(*key)
            return self.antipode(self.antipode(h)) != h

        report.check(
            "involution",
            "S^2 = id on the basis",
            self._sweep_cases(by_label, involution_fails),
            involution_fails,
            _basis_witness,
            checked=len(basis),
        )
        return report

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


def _shift(d, e, n: int) -> tuple:
    """The exponent vector d + e mod n."""
    return tuple((a + b) % n for a, b in zip(d, e))


def key_json(key) -> dict:
    exps, w = key
    return {"exponents": list(exps), "perm": list(w.one_line())}


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
        return [
            {
                "exponents": list(e),
                "perm": list(w.one_line()),
                "word": list(canonical_word(w)),
                "coeff": c.to_json(),
            }
            for (e, w), c in self.sorted_terms()
        ]

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
    """Verify that the generator map intertwines product, coproduct, counit
    and antipode between H_{n,m} and H_{n,m+1}.  The product check runs
    over all |B|^2 basis pairs, so it is guarded before either algebra is
    built."""
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
        iproduct(basis, repeat=2),
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
