"""The quantum polynomial algebra A_{a,b} with its H_{n,m}-module-algebra
structure.

Relations u_i u_j = r_{ij} u_j u_i with r_ii = 1, r_ij = lambda^{j-i-1} mu
for i < j (lambda = q^{b^2-ab}, mu = p^{b^2-a^2}) and r_ij = r_ji^{-1}
otherwise.  Monomials are kept normal-ordered, u_1^{a_1} ... u_m^{a_m}.
A_{a,b} is graded by total degree and H preserves the grading, so every
computation runs one degree at a time, on the monomials of that degree;
nothing is truncated.

Generators act by the degree-one module V_{a,b}.  The base ring R acts
diagonally on the letters, so the action is computed in the weight basis:
a basis element x^e w-bar sends a monomial to one scalar times one
monomial, read off from values of J(w) at pairs of letter weights (see
QuantumPolyAlgebra.act).  Those values are memoized per (permutation,
weight pair), and whole-operator matrices per (element, degree).
"""

from __future__ import annotations

import operator
import random
import warnings
from itertools import combinations

from .cyclotomic import CycScalar
from .errors import ContextMismatchError
from .group_ring import exp_add, slot_vector
from .hopf import AxiomReport, HopfAlgebra, HopfElem
from .linalg import Mat, kernel_basis, rref
from .reps import RepParams, inner_faithful_bruteforce, inner_faithful_criterion
from .sparse import SparseElem, accumulate, memoized, power_product
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
    def __init__(self, hopf: HopfAlgebra, a: int, b: int):
        self.hopf = hopf
        self.n = hopf.n
        self.m = hopf.m
        self.params = RepParams(self.n, self.m, a, b)
        self.a, self.b = self.params.a, self.params.b
        if self.a == self.b:
            warnings.warn(
                "a = b mod n: the module-algebra statement assumes a != b",
                stacklevel=2,
            )
        self.ctx = hopf.cyc
        # every r_ij is a power p^e of p = zeta_2n, and _r_exp keeps e:
        # lambda = p^(2(b^2 - ab)) and mu = p^(b^2 - a^2)
        b2 = self.b * self.b
        lam, mu = 2 * (b2 - self.a * self.b), b2 - self.a * self.a
        self._r_exp = {(i, i): 0 for i in range(1, self.m + 1)}
        for i in range(1, self.m + 1):
            for j in range(i + 1, self.m + 1):
                self._r_exp[i, j] = lam * (j - i - 1) + mu
                self._r_exp[j, i] = -self._r_exp[i, j]
        self._memo: dict = {}

    # -- relation data ---------------------------------------------------------

    def r(self, i: int, j: int) -> CycScalar:
        return self.ctx.root(self._r_exp[i, j])

    # -- elements ----------------------------------------------------------------

    def zero(self) -> "QpaElem":
        return QpaElem(self, {})

    def one(self) -> "QpaElem":
        return QpaElem(self, {(0,) * self.m: self.ctx.one})

    def monomial(self, exps, coeff=None) -> "QpaElem":
        exps = tuple(exps)
        if len(exps) != self.m or any(e < 0 for e in exps):
            raise ValueError("bad exponent vector")
        c = self.ctx.one if coeff is None else coeff
        if isinstance(c, int):
            c = self.ctx.scalar(c)
        return QpaElem(self, {exps: c} if c else {})

    def u(self, i: int) -> "QpaElem":
        return self.monomial(slot_vector(self.m, i))

    def normal_order(self, word) -> "QpaElem":
        """The generator word as a normal-ordered monomial.  Sorting it swaps
        each pair of letters u_k before u_j with k > j exactly once, by
        u_k u_j -> r_{kj} u_j u_k, whatever the order of the swaps."""
        seen = [0] * (self.m + 1)  # letters u_k read so far, by k
        passes: dict = {}
        for j in word:
            for k in range(j + 1, self.m + 1):
                passes[k, j] = passes.get((k, j), 0) + seen[k]
            seen[j] += 1
        return self.monomial(seen[1:], self._order_scalar(passes.items()))

    def _order_scalar(self, passes) -> CycScalar:
        """prod r_{kj}^c over ((k, j), c) in passes, one root of unity: the
        scalar of normal ordering when c pairs have u_k before u_j, k > j."""
        return self.ctx.root(sum(self._r_exp[kj] * c for kj, c in passes))

    # -- the H-action --------------------------------------------------------------

    @memoized
    def line_action(self, w: Perm) -> list[tuple[CycScalar, int]]:
        """w-bar . u_j = scalar * u_{j'} from the degree-one module, the
        z_line exponents of the letters of w added up; index j is 1-based
        (list entry j-1)."""
        out = []
        word = canonical_word(w)
        for j in range(1, self.m + 1):
            e, cur = 0, j
            for k in reversed(word):
                e_k, cur = self.params.z_line(k, cur)
                e += e_k
            out.append((self.ctx.root(e), cur))
        return out

    @memoized
    def j_value(self, w: Perm, psi: tuple, psi2: tuple) -> CycScalar:
        """J_w(psi, psi') = sum c q^{psi.d1 + psi'.d2} over the terms
        c x^d1 (x) x^d2 of J(w): the scalar by which J(w) acts on a pair of
        letters of weights psi and psi'."""
        out = self.ctx.zero
        for (d1, d2), c in self.hopf.j_of_word(w).terms.items():
            e = sum(map(operator.mul, psi, d1)) + sum(map(operator.mul, psi2, d2))
            out = out + c * self.ctx.q_pow(e)
        return out

    def later_weights(self, weights: list) -> list:
        """psi_{i+1} + ... + psi_k (mod n) for each i < k: the total weight
        of the letters after letter i."""
        out = []
        tail = (0,) * self.m
        for psi in reversed(weights[1:]):
            tail = exp_add(tail, psi, self.n)
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

        k - 1 memoized values of J_w instead of the |J(w)|^(k-1) terms of the
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
                weights = [self.params.weight(j2) for j2 in new_letters]
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

    @memoized
    def action_matrix(self, h: HopfElem, k: int) -> Mat:
        """The exact operator of h on the degree-k monomial space: column j
        is h . u^{mon_j}."""
        mons = self.monomials(k)
        index = {mon: i for i, mon in enumerate(mons)}
        terms = {}
        for j, mon in enumerate(mons):
            for e, c in self.act(h, self.monomial(mon)).terms.items():
                terms[index[e], j] = c
        return Mat(self.ctx, (len(mons), len(mons)), terms)

    # -- verification -----------------------------------------------------------

    def module_algebra_check(self, degree: int, seed: int = 0) -> AxiomReport:
        """Verify h.(fg) = sum (h_(1).f)(h_(2).g) for h over the algebra
        generators plus a seeded sample of three basis elements, and f, g
        over all monomial pairs with deg f + deg g <= degree; also
        h.1 = eps(h)1.  Each h . u^mon comes from act once per run, for the
        acting elements and for the legs of their coproducts."""
        hopf = self.hopf
        report = AxiomReport(instance=f"A({self.a},{self.b}) over H({self.n},{self.m})")
        hs = self.subalgebra_generators("full")
        rng = random.Random(seed)
        basis = hopf.basis_keys()
        for idx in range(3):
            key = rng.choice(basis)
            hs.append((f"basis{idx}:{key[0]}#{key[1].one_line()}", hopf.basis_elem(*key)))
        acting = dict(hs)
        acted: dict = {}

        def act_on(key, mon) -> "QpaElem":
            """h . u^mon, where key is the name of an acting element or the
            basis key of a leg of its coproduct."""
            out = acted.get((key, mon))
            if out is None:
                h = acting[key] if isinstance(key, str) else hopf.basis_elem(*key)
                out = acted[key, mon] = self.act(h, self.monomial(mon))
            return out

        def unit_fails(item):
            _, h = item
            return self.act(h, self.one()) != self.one().scale(hopf.counit(h))

        report.check(
            "unit-action", "h . 1 = eps(h) 1", hs, unit_fails, lambda item: {"element": item[0]}
        )

        pairs = [
            (mf, mg)
            for kf in range(degree + 1)
            for kg in range(degree + 1 - kf)
            for mf in self.monomials(kf)
            for mg in self.monomials(kg)
        ]

        def cases():
            for name, h in hs:
                dterms = list(hopf.coproduct(h).terms.items())
                for mf, mg in pairs:
                    yield name, dterms, mf, mg

        def sides(case):
            name, dterms, mf, mg = case
            fg = self.monomial(mf) * self.monomial(mg)
            ((e_fg, c_fg),) = fg.terms.items()
            lhs = act_on(name, e_fg).scale(c_fg)
            rhs = self.zero()
            for (k1, k2), c in dterms:
                rhs = rhs + (act_on(k1, mf) * act_on(k2, mg)).scale(c)
            return lhs, rhs

        def witness(case):
            lhs, rhs = sides(case)
            return {
                "element": case[0],
                "f": list(case[2]),
                "g": list(case[3]),
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
        else:
            raise ValueError("subalgebra must be full or cyclic")
        return gens

    def _subalgebra_integral(self, subalgebra: str) -> HopfElem:
        """Lambda' = int_R sum over the subgroup labels; a two-sided integral
        of the corresponding subalgebra."""
        if subalgebra == "full":
            return self.hopf.integral()
        return self.hopf.integral(cycle_powers(self.m))

    def invariants(self, subalgebra: str, degree: int) -> dict[int, list["QpaElem"]]:
        """Exact basis (reduced echelon form) of the invariant space in each
        degree k <= degree: the joint kernel of (g - eps(g)) over the chosen
        generators."""
        gens = self.subalgebra_generators(subalgebra)
        out: dict[int, list[QpaElem]] = {}
        for k in range(degree + 1):
            dim = len(self.monomials(k))
            ident = Mat.identity(self.ctx, dim)
            rows = []
            for _, g in gens:
                rows += _lines(self.action_matrix(g, k) - ident.scale(self.hopf.counit(g)), 0)
            kern = kernel_basis(rows, dim, self.ctx)
            out[k] = self._elems(k, rref(kern, self.ctx, dim)[0])
        return out

    def invariants_check(self, subalgebra: str, degree: int) -> tuple[dict, AxiomReport]:
        """The invariants of each degree k <= degree, and the check that they
        equal invariants_oracle's: both are RREF bases, and the RREF of a
        row space is unique."""
        report = AxiomReport(instance=f"A({self.a},{self.b}) over H({self.n},{self.m})")
        inv = self.invariants(subalgebra, degree)
        oracle = self.invariants_oracle(subalgebra, degree)
        report.check(
            "integral-projector-oracle",
            "kernel of (g - eps(g)) equals the image of the normalized integral",
            range(degree + 1),
            lambda k: inv[k] != oracle[k],
            lambda k: {"degree": k},
            checked=degree + 1,
        )
        return inv, report

    def invariants_oracle(self, subalgebra: str, degree: int) -> dict[int, list["QpaElem"] | None]:
        """Independent route: the invariant space is the image of the
        normalized integral projector rho_k(Lambda')/eps(Lambda').  Returns
        the canonical RREF basis of the column space per degree, or None for
        a degree whose projector is not idempotent (it certifies nothing)."""
        lam = self._subalgebra_integral(subalgebra)
        out = {}
        for k in range(degree + 1):
            proj = self.integral_projector(lam, k)
            if proj * proj == proj:
                out[k] = self._elems(k, rref(_lines(proj, 1), self.ctx, proj.shape[0])[0])
            else:
                out[k] = None
        return out

    def _elems(self, k: int, rows: list[dict]) -> list["QpaElem"]:
        """Sparse vectors over the degree-k monomials as elements."""
        mons = self.monomials(k)
        return [QpaElem(self, {mons[j]: c for j, c in row.items()}) for row in rows]

    def integral_projector(self, lam: HopfElem, k: int) -> Mat:
        """rho_k(lam)/eps(lam) on the degree-k monomial space."""
        return self.action_matrix(lam, k).scale(self.hopf.counit(lam).inv())

    def containment_check(self, degree: int) -> AxiomReport:
        """Exponent divisibility of the invariants of the base ring R, and
        for n even the commutation u_i^n u_j^n = u_j^n u_i^n through
        normal_order scalars.

        The R-invariants of degree k are spanned by the monomials u^e of
        weight sum_j e_j psi_j = 0 mod n.  A group-like acts on a product
        letter by letter, and x^d . u_j = q^{psi_j . d} u_j, so x^d sends
        the normal-ordered monomial u^e to q^{(sum_j e_j psi_j) . d} u^e:
        R acts diagonally on the monomials, and u^e is fixed by every x^d
        (q has order n) exactly when its weight is zero mod n.  Taken in
        monomials(k) order these are the reduced echelon basis of the joint
        kernel of (x_i - 1), so no linear algebra is needed."""
        report = AxiomReport(instance=f"A({self.a},{self.b}) over H({self.n},{self.m})")
        criterion = inner_faithful_criterion(self.params)
        psis = [self.params.weight(j) for j in range(1, self.m + 1)]
        bad = []
        for k in range(degree + 1):
            for exps in self.monomials(k):
                weight = [sum(map(operator.mul, exps, col)) for col in zip(*psis)]
                if not any(x % self.n for x in weight) and any(e % self.n for e in exps):
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
                lambda ij: self.r(ij[1], ij[0]) ** (n * n) != self.ctx.one,
                _ij_witness,
            )
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

    def cyclic_inner_faithful_check(self) -> AxiomReport:
        """The cyclic subalgebra acts inner-faithfully: the degree-one matrix
        of theta permutes the coordinate lines through a single m-cycle (so
        sums over theta powers split), and the base ring acts faithfully:
        the kernel K of inner_faithful_bruteforce is {0}."""
        hopf = self.hopf
        report = AxiomReport(instance=f"A({self.a},{self.b}) over H({self.n},{self.m})")
        theta = hopf.basis_elem(hopf.ring.zero_exp, cycle_perm(self.m))
        mat = self.action_matrix(theta, 1)
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
        ring_ok, kernel = inner_faithful_bruteforce(self.params)
        report.add(
            "ring-faithful",
            "x^alpha acts as the identity only for alpha = 0",
            ring_ok,
            None if ring_ok else {"kernel": kernel},
        )
        report.add(
            "inner-faithful",
            "cyclic subalgebra acts inner-faithfully",
            ok and ring_ok,
            None,
        )
        return report


def _lines(mat: Mat, axis: int) -> list[dict]:
    """The rows (axis 0) or columns (axis 1) of mat as sparse
    {index: nonzero entry} dicts."""
    out = [{} for _ in range(mat.shape[axis])]
    for ij, c in mat.terms.items():
        out[ij[axis]][ij[1 - axis]] = c
    return out


def _ij_witness(ij) -> dict:
    return {"i": ij[0], "j": ij[1]}


class QpaElem(SparseElem):
    """Normal-ordered element of A_{a,b}: sparse map from non-negative
    exponent vectors to scalars."""

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
        m = alg.m
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                # each letter u_j of eb moves left past the letters u_k of ea, k > j
                passes = (
                    ((k, j), ea[k - 1] * eb[j - 1])
                    for j in range(1, m + 1)
                    for k in range(j + 1, m + 1)
                )
                exps = tuple(x + y for x, y in zip(ea, eb))
                accumulate(out, exps, ca * cb * alg._order_scalar(passes))
        return QpaElem(alg, out)

    def _monomial_repr(self, key) -> str:
        return "*".join(power_product("u", key)) or "1"
