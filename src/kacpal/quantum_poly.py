"""The quantum polynomial algebra A_{a,b} with its H_{n,m}-module-algebra
structure, truncated at a configurable degree bound.

Relations u_i u_j = r_{ij} u_j u_i with r_ii = 1, r_ij = lambda^{j-i-1} mu
for i < j (lambda = q^{b^2-ab}, mu = p^{b^2-a^2}) and r_ij = r_ji^{-1}
otherwise.  Monomials are kept normal-ordered, u_1^{a_1} ... u_m^{a_m}.

Generators act by the degree-one module V_{a,b}.  The base ring R acts
diagonally on the letters, so the action is computed in the weight basis:
a basis element x^e w-bar sends a monomial to one scalar times one
monomial, read off from values of J(w) at pairs of letter weights (see
QuantumPolyAlgebra.act).  Those values are cached per (permutation, weight
pair), and whole-operator matrices per (element, degree).
"""

from __future__ import annotations

import operator
import random
import warnings
from itertools import combinations

from .cyclotomic import CycScalar
from .errors import ContextMismatchError
from .group_ring import slot_vector
from .hopf import AxiomReport, HopfAlgebra, HopfElem
from .linalg import Mat, kernel_basis, rref
from .reps import RepParams, inner_faithful_bruteforce, inner_faithful_criterion
from .sparse import SparseElem, accumulate, power_product
from .symmetric import Perm, canonical_word, cycle_perm, cycle_powers


def monomials_of_degree(m: int, k: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree k in graded lexicographic order with
    u_1 > u_2 > ... (descending lex), so degree one lists u_1, ..., u_m."""
    if m == 1:
        return [(k,)]
    out = []
    for first in range(k + 1):
        for rest in monomials_of_degree(m - 1, k - first):
            out.append((first,) + rest)
    return sorted(out, reverse=True)


class QuantumPolyAlgebra:
    def __init__(self, hopf: HopfAlgebra, a: int, b: int, degree_bound: int | None = None):
        self.hopf = hopf
        self.n = hopf.n
        self.m = hopf.m
        self.a = a % self.n
        self.b = b % self.n
        if self.a == self.b:
            warnings.warn(
                "a = b mod n: the module-algebra statement assumes a != b",
                stacklevel=2,
            )
        self.ctx = hopf.cyc
        self.degree_bound = degree_bound if degree_bound is not None else 2 * self.n
        b2 = self.b * self.b
        self.lam = self.ctx.q_pow(b2 - self.a * self.b)
        self.mu = self.ctx.p_pow(b2 - self.a * self.a)
        self._r: dict[tuple[int, int], CycScalar] = {}
        for i in range(1, self.m + 1):
            for j in range(1, self.m + 1):
                if i == j:
                    self._r[(i, j)] = self.ctx.one
                elif i < j:
                    self._r[(i, j)] = self.lam ** (j - i - 1) * self.mu
        for i in range(1, self.m + 1):
            for j in range(1, i):
                self._r[(i, j)] = self._r[(j, i)].inv()
        self._j_value: dict = {}
        self._line_action: dict = {}
        self._op_cache: dict = {}

    # -- relation data ---------------------------------------------------------

    def r(self, i: int, j: int) -> CycScalar:
        return self._r[(i, j)]

    # -- elements ----------------------------------------------------------------

    def zero(self) -> "QpaElem":
        return QpaElem(self, {})

    def one(self) -> "QpaElem":
        return QpaElem(self, {(0,) * self.m: self.ctx.one})

    def monomial(self, exps, coeff=None) -> "QpaElem":
        exps = tuple(exps)
        if len(exps) != self.m or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector")
        if sum(exps) > self.degree_bound:
            raise ValueError("degree overflow beyond the truncation bound")
        c = self.ctx.one if coeff is None else coeff
        if isinstance(c, int):
            c = self.ctx.scalar(c)
        return QpaElem(self, {exps: c} if c else {})

    def u(self, i: int) -> "QpaElem":
        return self.monomial(slot_vector(self.m, i))

    def normal_order(self, word) -> "QpaElem":
        """Sort a generator word into normal order; each adjacent swap
        u_j u_i -> r_{ji} u_i u_j (j > i) multiplies the coefficient by r_{ji}."""
        letters = list(word)
        if len(letters) > self.degree_bound:
            raise ValueError("degree overflow beyond the truncation bound")
        coeff = self.ctx.one
        changed = True
        while changed:
            changed = False
            for p in range(len(letters) - 1):
                if letters[p] > letters[p + 1]:
                    coeff = coeff * self._r[(letters[p], letters[p + 1])]
                    letters[p], letters[p + 1] = letters[p + 1], letters[p]
                    changed = True
        exps = [0] * self.m
        for i in letters:
            exps[i - 1] += 1
        return self.monomial(exps, coeff)

    def _swap_factor(self, ea, eb) -> CycScalar:
        """Scalar from normal-ordering u^ea * u^eb: each beta-letter u_i moves
        left past every alpha-letter u_k with k > i."""
        out = self.ctx.one
        for i in range(1, self.m + 1):
            bi = eb[i - 1]
            if not bi:
                continue
            for k in range(i + 1, self.m + 1):
                ak = ea[k - 1]
                if ak:
                    out = out * self._r[(k, i)] ** (ak * bi)
        return out

    # -- the H-action --------------------------------------------------------------

    def _z_on_letter(self, k: int, j: int) -> tuple[CycScalar, int]:
        """z_k . u_j from the degree-one module."""
        if j == k:
            return self.ctx.q_pow(self.a * self.b), k + 1
        if j == k + 1:
            return self.ctx.one, k
        return self.ctx.p_pow(self.b * self.b), j

    def line_action(self, w: Perm) -> list[tuple[CycScalar, int]]:
        """w-bar . u_j = scalar * u_{j'}; index j is 1-based (list entry j-1)."""
        out = self._line_action.get(w)
        if out is None:
            out = []
            word = canonical_word(w)
            for j in range(1, self.m + 1):
                c = self.ctx.one
                cur = j
                for k in reversed(word):
                    c2, cur = self._z_on_letter(k, cur)
                    c = c * c2
                out.append((c, cur))
            self._line_action[w] = out
        return out

    def letter_weight(self, j: int) -> tuple[int, ...]:
        """The character psi_j of Z_n^m by which R acts on u_j:
        x^d . u_j = q^{psi_j . d} u_j, with psi_j = a at slot j, b elsewhere."""
        return tuple(self.a if i == j - 1 else self.b for i in range(self.m))

    def j_value(self, w: Perm, psi: tuple, psi2: tuple) -> CycScalar:
        """J_w(psi, psi') = sum c q^{psi.d1 + psi'.d2} over the terms
        c x^d1 (x) x^d2 of J(w): the scalar by which J(w) acts on a pair of
        letters of weights psi and psi'.  Cached per (w, psi, psi')."""
        key = (w, psi, psi2)
        out = self._j_value.get(key)
        if out is None:
            out = self.ctx.zero
            for (d1, d2), c in self.hopf.j_of_word(w).terms.items():
                e = sum(map(operator.mul, psi, d1)) + sum(map(operator.mul, psi2, d2))
                out = out + c * self.ctx.q_pow(e)
            self._j_value[key] = out
        return out

    def later_weights(self, weights: list) -> list:
        """psi_{i+1} + ... + psi_k (mod n) for each i < k: the total weight
        of the letters after letter i."""
        n = self.n
        out = []
        tail = (0,) * self.m
        for psi in reversed(weights[1:]):
            tail = tuple((t + x) % n for t, x in zip(tail, psi))
            out.append(tail)
        return out[::-1]

    def act(self, h: HopfElem, f: "QpaElem") -> "QpaElem":
        """h . f in the weight basis: each basis element of h sends a
        monomial to one scalar times one monomial.

        Let f = u_{j_1} ... u_{j_k} (normal-ordered letters) and h = x^e w-bar,
        with w-bar . u_j = c_j u_{j'} from line_action, and let psi_i be the
        weight of the new letter u_{j'_i}.  The iterated coproduct is

            Delta^(k-1)(x^e w-bar) = (x^e)^(x)k J^(k)(w) (w-bar)^(x)k,

        with J^(1) = 1 and J^(k) = (id^(k-2) (x) Delta_R)(J^(k-1)) (1^(k-2) (x) J(w)):
        each step comultiplies the right leg.  Every element of R^(x)k acts
        on u_{j'_1} (x) ... (x) u_{j'_k} by its value at (psi_1, ..., psi_k),
        r(psi) = sum c_delta q^{sum_i psi_i . delta_i}.  Evaluation is
        multiplicative, and Delta_R(x^d) = x^d (x) x^d gives
        (Delta_R r)(psi, psi') = r(psi + psi').  So

            J^(k)(psi_1..psi_k) = J^(k-1)(psi_1, ..., psi_{k-1} + psi_k) J_w(psi_{k-1}, psi_k)
                                = prod_{i<k} J_w(psi_i, psi_{i+1} + ... + psi_k),

        and the legs x^e contribute q^{(psi_1 + ... + psi_k) . e}.  The product
        of the images in A is then

            h . f = prod_i c_{j_i} q^{(sum psi) . e} prod_{i<k} J_w(psi_i, psi_{i+1} + ... + psi_k)
                    normal_order(u_{j'_1} ... u_{j'_k}),

        k - 1 cached values of J_w instead of the |J(w)|^(k-1) terms of the
        dense expansion.  (Comultiplying the left leg instead gives
        prod J_w(psi_1 + ... + psi_i, psi_{i+1}), the same value by the
        2-cocycle identity of J_w, which is coassociativity.)  On degree 0,
        h acts by eps(h)."""
        if h.algebra != self.hopf:
            raise ContextMismatchError("acting element from a different algebra")
        by_perm: dict = {}
        for (e_h, w), c_h in h.terms.items():
            by_perm.setdefault(w, []).append((e_h, c_h))
        out: dict = {}
        for exps_f, c_f in f.terms.items():
            if not any(exps_f):
                accumulate(out, exps_f, self.hopf.counit(h) * c_f)
                continue
            word = [i + 1 for i, e in enumerate(exps_f) for _ in range(e)]
            for w, terms in by_perm.items():
                lines = self.line_action(w)
                scalar = c_f
                new_letters = []
                for j in word:
                    c_line, j2 = lines[j - 1]
                    scalar = scalar * c_line
                    new_letters.append(j2)
                weights = [self.letter_weight(j2) for j2 in new_letters]
                for psi, tail in zip(weights, self.later_weights(weights)):
                    scalar = scalar * self.j_value(w, psi, tail)
                # the x^e parts of h, read at the total weight of the word
                total = [sum(col) for col in zip(*weights)]
                ring_value = self.ctx.zero
                for e_h, c_h in terms:
                    e = sum(map(operator.mul, total, e_h))
                    ring_value = ring_value + c_h * self.ctx.q_pow(e)
                for e, c in self.normal_order(new_letters).terms.items():
                    accumulate(out, e, c * scalar * ring_value)
        return QpaElem(self, out)

    def monomials(self, k: int) -> list[tuple[int, ...]]:
        return monomials_of_degree(self.m, k)

    def action_matrix(self, h: HopfElem, k: int) -> Mat:
        """The exact operator of h on the degree-k monomial space."""
        key = (_elem_key(h), k)
        out = self._op_cache.get(key)
        if out is None:
            mons = self.monomials(k)
            index = {mon: i for i, mon in enumerate(mons)}
            cols = []
            for mon in mons:
                res = self.act(h, self.monomial(mon))
                col = [self.ctx.zero] * len(mons)
                for e, c in res.terms.items():
                    col[index[e]] = c
                cols.append(col)
            out = Mat(self.ctx, [list(row) for row in zip(*cols)])
            self._op_cache[key] = out
        return out

    def act_monomial_cached(self, h: HopfElem, mon: tuple) -> "QpaElem":
        """h . u^mon through the cached degree operator."""
        k = sum(mon)
        mat = self.action_matrix(h, k)
        mons = self.monomials(k)
        j = mons.index(mon)
        return QpaElem(
            self, {mons[i]: mat[i, j] for i in range(len(mons)) if mat[i, j]}
        )

    # -- verification -----------------------------------------------------------

    def module_algebra_check(
        self,
        degree: int | None = None,
        sample_elements: int = 3,
        seed: int = 0,
        delta_terms=None,
    ) -> AxiomReport:
        """Verify h.(fg) = sum (h_(1).f)(h_(2).g) for h over the algebra
        generators plus a seeded sample of basis elements, and f, g over all
        monomial pairs with deg f + deg g <= degree; also h.1 = eps(h)1.

        delta_terms overrides the coproduct expansion of the acting element
        (an iterable of ((key1, key2), coeff)); used by negative controls."""
        d = self.degree_bound if degree is None else degree
        if d > self.degree_bound:
            raise ValueError("degree exceeds the truncation bound")
        hopf = self.hopf
        if delta_terms is None:
            delta_terms = lambda h: hopf.coproduct(h).terms.items()  # noqa: E731
        report = AxiomReport(instance=f"A({self.a},{self.b}) over H({self.n},{self.m})")
        hs = self.subalgebra_generators("full")
        rng = random.Random(seed)
        basis = hopf.basis_keys()
        for idx in range(sample_elements):
            key = rng.choice(basis)
            hs.append((f"basis{idx}:{key[0]}#{key[1].one_line()}", hopf.basis_elem(*key)))

        def unit_fails(item):
            _, h = item
            return self.act(h, self.one()) != self.one().scale(hopf.counit(h))

        report.check(
            "unit-action", "h . 1 = eps(h) 1", hs, unit_fails, lambda item: {"element": item[0]}
        )

        pairs = [
            (mf, mg)
            for kf in range(d + 1)
            for kg in range(d + 1 - kf)
            for mf in self.monomials(kf)
            for mg in self.monomials(kg)
        ]

        def cases():
            for name, h in hs:
                dterms = [
                    ((hopf.basis_elem(*k1), hopf.basis_elem(*k2)), c)
                    for (k1, k2), c in delta_terms(h)
                ]
                for mf, mg in pairs:
                    yield name, h, dterms, mf, mg

        def sides(case):
            _, h, dterms, mf, mg = case
            fg = self.monomial(mf) * self.monomial(mg)
            ((e_fg, c_fg),) = fg.terms.items()
            lhs = self.act_monomial_cached(h, e_fg).scale(c_fg)
            rhs = self.zero()
            for (h1, h2), c in dterms:
                rhs = rhs + (
                    self.act_monomial_cached(h1, mf) * self.act_monomial_cached(h2, mg)
                ).scale(c)
            return lhs, rhs

        def witness(case):
            lhs, rhs = sides(case)
            return {
                "element": case[0],
                "f": list(case[3]),
                "g": list(case[4]),
                "lhs": lhs.to_json(),
                "rhs": rhs.to_json(),
            }

        report.check(
            "module-algebra",
            "h.(fg) = sum (h_(1).f)(h_(2).g)",
            cases(),
            lambda case: operator.ne(*sides(case)),
            witness,
            checked=len(hs) * len(pairs),
        )
        return report

    def subalgebra_generators(self, subalgebra: str) -> list[tuple[str, HopfElem]]:
        hopf = self.hopf
        gens = [(f"x{i}", hopf.x(i)) for i in range(1, self.m + 1)]
        if subalgebra == "full":
            gens += [(f"z{k}", hopf.z(k)) for k in range(1, self.m)]
        elif subalgebra == "cyclic":
            gens.append(("theta", hopf.basis_elem(hopf.ring.zero_exp, cycle_perm(self.m))))
        elif subalgebra == "ring":
            pass
        else:
            raise ValueError("subalgebra must be full, cyclic or ring")
        return gens

    def _subalgebra_integral(self, subalgebra: str) -> HopfElem:
        """Lambda' = int_R sum over the subgroup labels; a two-sided integral
        of the corresponding subalgebra."""
        if subalgebra == "full":
            return self.hopf.integral()
        labels = [Perm.identity(self.m)] if subalgebra == "ring" else cycle_powers(self.m)
        return self.hopf.integral(labels)

    def invariants(self, subalgebra: str, degree: int) -> dict[int, list["QpaElem"]]:
        """Exact basis (reduced echelon form) of the invariant space in each
        degree k <= degree: the joint kernel of (g - eps(g)) over the chosen
        generators."""
        gens = self.subalgebra_generators(subalgebra)
        out: dict[int, list[QpaElem]] = {}
        for k in range(degree + 1):
            mons = self.monomials(k)
            dim = len(mons)
            rows = []
            for _, g in gens:
                mat = self.action_matrix(g, k)
                eps_g = self.hopf.counit(g)
                for i in range(dim):
                    row = [
                        mat[i, j] - eps_g if i == j else mat[i, j] for j in range(dim)
                    ]
                    rows.append(row)
            kern = kernel_basis(rows, dim, self.ctx)
            basis_rows = rref(kern, self.ctx)[0] if kern else []
            out[k] = [
                QpaElem(self, {mons[j]: v[j] for j in range(dim) if v[j]})
                for v in basis_rows
            ]
        return out

    def invariants_oracle(self, subalgebra: str, degree: int) -> dict[int, list[list[CycScalar]]]:
        """Independent route: the invariant space is the image of the
        normalized integral projector rho_k(Lambda')/eps(Lambda').  Returns
        the canonical RREF rows of the column space per degree, or None for
        a degree whose projector is not idempotent (it certifies nothing)."""
        lam = self._subalgebra_integral(subalgebra)
        out = {}
        for k in range(degree + 1):
            proj = self.integral_projector(lam, k)
            cols = [list(col) for col in zip(*proj.rows)]
            out[k] = rref(cols, self.ctx)[0] if proj * proj == proj else None
        return out

    def integral_projector(self, lam: HopfElem, k: int) -> Mat:
        """rho_k(lam)/eps(lam) on the degree-k monomial space."""
        return self.action_matrix(lam, k).scale(self.hopf.counit(lam).inv())

    def containment_check(self, degree: int, subalgebra: str = "ring") -> AxiomReport:
        """Exponent divisibility of computed invariants, and for n even the
        commutation u_i^n u_j^n = u_j^n u_i^n through normal_order scalars."""
        report = AxiomReport(instance=f"A({self.a},{self.b}) over H({self.n},{self.m})")
        params = RepParams(self.n, self.m, self.a, self.b)
        criterion = inner_faithful_criterion(params)
        inv = self.invariants(subalgebra, degree)
        bad = []
        for k, basis in inv.items():
            for f in basis:
                for exps in f.terms:
                    if any(e % self.n for e in exps):
                        bad.append({"degree": k, "exponents": list(exps)})
        if criterion:
            report.add(
                "exponent-divisibility",
                "invariant supports have all exponents divisible by n",
                not bad,
                {"offending": bad} if bad else None,
            )
        else:
            report.add(
                "exponent-divisibility",
                "gcd criterion fails: odd-exponent invariants may appear (reported)",
                True,
                {"offending": bad, "criterion": False} if bad else {"criterion": False},
            )
        if self.n % 2 == 0:
            pairs = list(combinations(range(1, self.m + 1), 2))
            n = self.n
            report.check(
                "r-power",
                "r_{ij}^{n^2} = 1 (n even)",
                pairs,
                lambda ij: self._r[(ij[1], ij[0])] ** (n * n) != self.ctx.one,
                _ij_witness,
            )
            if 2 * n <= self.degree_bound:
                report.check(
                    "un-commute",
                    "u_i^n u_j^n = u_j^n u_i^n (n even)",
                    pairs,
                    lambda ij: self.normal_order([ij[0]] * n + [ij[1]] * n)
                    != self.normal_order([ij[1]] * n + [ij[0]] * n),
                    _ij_witness,
                )
        else:
            report.add_skipped("r-power", "r_{ij}^{n^2} = 1", "holds only for even n")
            report.add_skipped(
                "un-commute", "u_i^n u_j^n = u_j^n u_i^n", "holds only for even n"
            )
        return report

    def cyclic_inner_faithful_check(self, theta_matrix: Mat | None = None) -> AxiomReport:
        """The cyclic subalgebra acts inner-faithfully: the degree-one matrix
        of theta permutes the coordinate lines through a single m-cycle (so
        sums over theta powers split), and the base ring acts faithfully by
        the brute-force subgroup oracle."""
        hopf = self.hopf
        report = AxiomReport(instance=f"A({self.a},{self.b}) over H({self.n},{self.m})")
        theta = hopf.basis_elem(hopf.ring.zero_exp, cycle_perm(self.m))
        mat = theta_matrix if theta_matrix is not None else self.action_matrix(theta, 1)
        line_map = {}
        ok = True
        for j in range(self.m):
            nz = [i for i in range(self.m) if mat[i, j]]
            if len(nz) != 1:
                ok = False
                break
            line_map[j] = nz[0]
        if ok:
            # the line map must be a single m-cycle
            seen = set()
            cur = 0
            for _ in range(self.m):
                if cur in seen:
                    break
                seen.add(cur)
                cur = line_map[cur]
            ok = len(seen) == self.m and cur == 0
        report.add(
            "theta-line-structure",
            "theta maps coordinate lines through a single m-cycle",
            ok,
            None if ok else {"matrix": mat.to_json()},
        )
        params = RepParams(self.n, self.m, self.a, self.b)
        ring_ok, annihilating = inner_faithful_bruteforce(params)
        report.add(
            "ring-faithful",
            "only the trivial subgroup of Z_n^m acts trivially",
            ring_ok,
            None if ring_ok else {"annihilating": annihilating},
        )
        report.add(
            "inner-faithful",
            "cyclic subalgebra acts inner-faithfully",
            ok and ring_ok,
            None,
        )
        return report


def _elem_key(h: HopfElem):
    return frozenset(h.terms.items())


def _ij_witness(ij) -> dict:
    return {"i": ij[0], "j": ij[1]}


class QpaElem(SparseElem):
    """Normal-ordered element of A_{a,b}: sparse map from exponent vectors
    (non-negative, total degree within the bound) to scalars."""

    __slots__ = ("algebra", "terms")
    _mismatch = "elements of different quantum polynomial algebras"

    def __init__(self, algebra: QuantumPolyAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def context(self):
        alg = self.algebra
        return (alg.hopf, alg.a, alg.b)

    def _new(self, terms: dict) -> "QpaElem":
        return QpaElem(self.algebra, terms)

    def _field(self):
        return self.algebra.ctx

    def __mul__(self, other):
        if isinstance(other, (int, CycScalar)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        alg = self.algebra
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                if sum(exps) > alg.degree_bound:
                    raise ValueError("degree overflow beyond the truncation bound")
                accumulate(out, exps, ca * cb * alg._swap_factor(ea, eb))
        return QpaElem(alg, out)

    def _monomial_repr(self, key) -> str:
        return "*".join(power_product("u", key)) or "1"
