"""The m-dimensional modules V_{a,b}: matrix construction, relation checks,
simplicity and isomorphism by the dimensions of sparse Hom solves, and
inner-faithfulness over the base ring (the gcd criterion, checked both
ways against the kernel K of R's action, found by search).

Matrices act on coordinate columns, so rho(h1 h2) = rho(h1) rho(h2) for the
left module structure."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

from .cyclotomic import CycContext
from .errors import size_guard
from .hopf import AxiomReport, HopfElem
from .linalg import Mat, rref
from .sparse import accumulate
from .symmetric import Perm, canonical_word

# bounds the n^m elements of Z_n^m that inner_faithful_bruteforce tests
KERNEL_SEARCH_GUARD = 4096


@dataclass
class RepParams:
    """V_{a,b} over H(n, m), with a and b reduced mod n: the one definition
    of the module, as integers.  V has the lines e_1, ..., e_m (1-based);
    the base ring acts on each line by a character and each z_k moves lines
    by a monomial matrix.  Rep builds the matrices from these integers, and
    QuantumPolyAlgebra reads them as the action on the letters u_j."""

    n: int
    m: int
    a: int
    b: int

    def __post_init__(self):
        self.a %= self.n
        self.b %= self.n

    def weight(self, j: int) -> tuple[int, ...]:
        """psi_j, the character of Z_n^m on line j: x^d e_j = q^{psi_j . d} e_j,
        with a at slot j and b elsewhere (row j of M_{m,a,b})."""
        return tuple(self.a if i == j else self.b for i in range(1, self.m + 1))

    def z_line(self, k: int, j: int) -> tuple[int, int]:
        """(e, j') with z_k e_j = zeta_2n^e e_j': z_k sends e_k to q^{ab} e_{k+1},
        e_{k+1} to e_k, and scales every other line by p^{b^2}."""
        if j == k:
            return 2 * self.a * self.b, k + 1
        if j == k + 1:
            return 0, k
        return self.b * self.b, j


class Rep:
    """V_{a,b}: the generator matrices X_i and Z_k over Q(zeta_2n)."""

    def __init__(self, params: RepParams):
        self.params = params
        m = params.m
        self.ctx = ctx = CycContext(params.n)
        weights = [params.weight(j) for j in range(1, m + 1)]
        self.xs = [
            Mat(ctx, (m, m), {(j, j): ctx.q_pow(psi[i]) for j, psi in enumerate(weights)})
            for i in range(m)
        ]
        self.zs = [
            Mat(ctx, (m, m), {
                (j2 - 1, j - 1): ctx.root(e)
                for j in range(1, m + 1)
                for e, j2 in [params.z_line(k, j)]
            })
            for k in range(1, m)
        ]

    def x(self, i: int) -> Mat:
        return self.xs[i - 1]

    def z(self, k: int) -> Mat:
        return self.zs[k - 1]

    def rho_ring_monomial(self, exps) -> Mat:
        out = Mat.identity(self.ctx, self.params.m)
        for i, e in enumerate(exps):
            out = out * self.xs[i] ** (e % self.params.n)
        return out

    def rho_word(self, w: Perm) -> Mat:
        out = Mat.identity(self.ctx, self.params.m)
        for i in canonical_word(w):
            out = out * self.zs[i - 1]
        return out

    def rho(self, h: HopfElem) -> Mat:
        """Linear extension of the generator assignment over the basis."""
        out = Mat.zeros(self.ctx, self.params.m, self.params.m)
        for (e, w), c in h.terms.items():
            out = out + (self.rho_ring_monomial(e) * self.rho_word(w)).scale(c)
        return out

    def rho_t(self, k: int) -> Mat:
        """rho(t_k) = (1/n) sum_{s,t} q^{-st} X_k^s X_{k+1}^t, read entry by
        entry from the diagonals of X_k and X_{k+1}.

        Every X_i is diagonal by construction, and powers, products, scalar
        multiples and sums of diagonal matrices are diagonal, computed entry
        by entry.  So rho(t_k) = diag(c_0, ..., c_{m-1}) with
        c_r = (1/n) sum_{s,t} q^{-st} d_r^s e_r^t, d_r = X_k[r, r] and
        e_r = X_{k+1}[r, r]: m n^2 scalar terms in place of n^2 products
        of m x m matrices.  (With d_r = q^u and e_r = q^v the inner sum over
        t is n when s = v mod n and 0 otherwise, so c_r = q^{uv}; the sum is
        evaluated as written, so that the z-square check compares Z_k^2
        with the definition of t_k rather than with that identity.)"""
        n, m = self.params.n, self.params.m
        ctx = self.ctx
        inv_n = ctx.scalar(Fraction(1, n))
        diagonal = {}
        for r in range(m):
            d, e = self.xs[k - 1][r, r], self.xs[k][r, r]
            d_pows, e_pows = [ctx.one], [ctx.one]
            for _ in range(n - 1):
                d_pows.append(d_pows[-1] * d)
                e_pows.append(e_pows[-1] * e)
            acc = ctx.zero
            for s in range(n):
                for t in range(n):
                    acc = acc + ctx.q_pow(-s * t) * d_pows[s] * e_pows[t]
            if acc:
                diagonal[r, r] = acc * inv_n
        return Mat(ctx, (m, m), diagonal)


def verify_rep(rep: Rep) -> AxiomReport:
    """All defining relations of H_{n,m} hold for the matrices."""
    params = rep.params
    n, m = params.n, params.m
    ident = Mat.identity(rep.ctx, m)
    report = AxiomReport(instance=f"V({params.a},{params.b}) over H({n},{m})")

    ok = all(rep.x(i) ** n == ident for i in range(1, m + 1))
    report.add("x-order", "X_i^n = I", ok, None)

    ok = all(
        rep.x(i) * rep.x(j) == rep.x(j) * rep.x(i)
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
    )
    report.add("x-commute", "X_i X_j = X_j X_i", ok, None)

    def conjugation_fails(ki):
        k, i = ki
        return rep.z(k) * rep.x(i) != rep.x(Perm.transposition(m, k)(i)) * rep.z(k)

    report.check(
        "conjugation",
        "Z_k X_i = X_{s_k(i)} Z_k",
        iproduct(range(1, m), range(1, m + 1)),
        conjugation_fails,
        lambda ki: {"k": ki[0], "i": ki[1]},
    )

    ok = all(
        rep.z(k) * rep.z(k + 1) * rep.z(k) == rep.z(k + 1) * rep.z(k) * rep.z(k + 1)
        for k in range(1, m - 1)
    )
    report.add("braid", "Z_k Z_{k+1} Z_k = Z_{k+1} Z_k Z_{k+1}", ok, None)

    ok = all(
        rep.z(k) * rep.z(l) == rep.z(l) * rep.z(k)
        for k in range(1, m)
        for l in range(k + 2, m)
    )
    report.add("far-commute", "Z_k Z_l = Z_l Z_k for |k-l| > 1", ok, None)

    report.check(
        "z-square",
        "Z_k^2 = rho(t_k)",
        range(1, m),
        lambda k: rep.z(k) ** 2 != rep.rho_t(k),
        lambda k: {"k": k},
    )
    return report


def is_simple(params: RepParams) -> bool:
    """V is simple, with rho(H) = M_m(K), iff dim End_H(V) = 1.

    If rho(H) = M_m(K), End_H(V) is the centralizer of M_m(K), the scalars.
    Conversely, H(n, m) is semisimple (see modules_isomorphic), so
    V = sum a_i S_i over the simple modules S_i and dim End V =
    sum a_i^2 d_i with d_i = dim End S_i >= 1.  This is 1 only when V is
    one S_i with End V = K, and then Jacobson density gives rho(H) =
    End_K(V) = M_m(K), which is Burnside's criterion."""
    rep = Rep(params)
    return _hom_dim(rep, rep) == 1


def _hom_dim(r1: Rep, r2: Rep) -> int:
    """dim Hom_H(V1, V2): the dimension of the space of T with
    T rho1(g) = rho2(g) T over the generators g, which generate H.

    The unknowns are T[i][j], row-major.  The equation at (i, j) is
    sum_k T[i][k] A[k][j] - sum_k B[i][k] T[k][j] = 0, so each nonzero
    entry A[k][j] puts itself on T[i][k] in the equations (i, j) for every
    i, and each nonzero B[i][k] puts its negative on T[k][j] in the
    equations (i, j) for every j.  Every X_i is diagonal and every Z_k
    monomial, so each of the (2m - 1) m^2 equations has at most two
    nonzero entries; the dimension is m^2 minus their rank."""
    m = r1.params.m
    rows = []
    for A, B in zip(r1.xs + r1.zs, r2.xs + r2.zs):
        eqs: dict = {}
        for (k, j), x in A.terms.items():
            for i in range(m):
                accumulate(eqs.setdefault((i, j), {}), i * m + k, x)
        for (i, k), y in B.terms.items():
            for j in range(m):
                accumulate(eqs.setdefault((i, j), {}), k * m + j, -y)
        rows.extend(row for row in eqs.values() if row)
    return m * m - len(rref(rows, r1.ctx, m * m)[1])


def modules_isomorphic(p1: RepParams, p2: RepParams) -> bool:
    """V1 and V2 are isomorphic iff dim Hom(V1, V2) = dim End V1 = dim End V2.

    H(n, m) is semisimple: its integral has eps(Lambda) = m! != 0, which is
    Maschke's theorem for Hopf algebras (Montgomery, Hopf algebras and
    their actions on rings, CBMS 82, 2.2).  So V1 = sum a_i S_i and
    V2 = sum b_i S_i over the simple modules S_i, Hom(S_i, S_j) = 0 for
    i != j, and with d_i = dim End S_i >= 1

        dim Hom(V1, V2) = sum a_i b_i d_i,
        dim End V1 = sum a_i^2 d_i,  dim End V2 = sum b_i^2 d_i.

    When the three are equal, sum d_i (a_i - b_i)^2 = dim End V1 +
    dim End V2 - 2 dim Hom(V1, V2) = 0, so a_i = b_i for every i; the
    converse is clear.  dim Hom = 0 decides non-isomorphism without the
    two End dimensions, since End V1 holds the identity."""
    if (p1.n, p1.m) != (p2.n, p2.m):
        raise ValueError("modules over different algebras")
    r1, r2 = Rep(p1), Rep(p2)
    hom = _hom_dim(r1, r2)
    return hom > 0 and hom == _hom_dim(r1, r1) == _hom_dim(r2, r2)


# ---------------------------------------------------------------------------
# inner-faithfulness over R


def det_M(m: int, a: int, b: int) -> int:
    """Integer determinant of M_{m,a,b}, a on the diagonal and b elsewhere.
    M = (a - b) I + b 11^T has the eigenvalue a + (m - 1) b on the all-ones
    vector and a - b, m - 1 times, on its complement."""
    return (a - b) ** (m - 1) * (a + (m - 1) * b)


def inner_faithful_criterion(params: RepParams) -> bool:
    """gcd(det(M_{m,a,b}), n) = 1: V_{a,b} is inner-faithful over R (see
    inner_faithful_check)."""
    return gcd(det_M(params.m, params.a, params.b), params.n) == 1


def inner_faithful_bruteforce(params: RepParams) -> tuple[bool, list[list[int]]]:
    """V_{a,b} is inner-faithful over R iff the kernel K = {alpha :
    rho(x^alpha) = I} is {0}.

    R is the group algebra of Z_n^m, commutative, so its Hopf ideals are the
    ideals generated by the x^l - 1 with l in a subgroup L of Z_n^m, and
    such an ideal annihilates V exactly when L lies in K.  rho is
    multiplicative on the group-likes, so K is a subgroup, and a nonzero
    annihilating Hopf ideal exists iff K != {0}; the x^l - 1 with l in K
    generate the largest one.  rho(x^alpha) is diagonal with entries
    q^{psi_j . alpha}, psi_j = RepParams.weight(j) the rows of M_{m,a,b},
    and q has order n, so K is the alpha with psi_j . alpha = 0 mod n for
    every j, searched over all of Z_n^m.  Returns (verdict, the elements of
    K in sorted order); refuses n^m > KERNEL_SEARCH_GUARD."""
    n, m = params.n, params.m
    size_guard((n for _ in range(m)), KERNEL_SEARCH_GUARD,
               lambda size: f"kernel search refused for n^m = {size}")
    weights = [params.weight(j) for j in range(1, m + 1)]
    kernel = [
        list(alpha)
        for alpha in iproduct(range(n), repeat=m)
        if not any(sum(map(operator.mul, psi, alpha)) % n for psi in weights)
    ]
    return len(kernel) == 1, kernel


def inner_faithful_check(params: RepParams) -> tuple[bool, list, AxiomReport]:
    """The verdict and kernel K of inner_faithful_bruteforce, and the check
    that the gcd criterion decides the same verdict.

    K is the kernel of alpha -> M alpha on the finite group Z_n^m, with
    M = M_{m,a,b}.  An endomorphism of a finite group is injective iff it
    is bijective, and M is bijective iff an integer matrix N has MN = I
    mod n, since every endomorphism of Z_n^m, an inverse included, is a
    matrix.  Such an N exists iff det M is a unit mod n: then
    N = (det M)^{-1} adj M, and conversely det M det N = 1 mod n.  So
    K = {0} iff gcd(det M, n) = 1, and the two sides must agree both ways."""
    report = AxiomReport(instance=f"V({params.a},{params.b}) over H({params.n},{params.m})")
    verdict, kernel = inner_faithful_bruteforce(params)
    crit = inner_faithful_criterion(params)
    ok = crit == verdict
    report.add(
        "criterion-matches-oracle",
        "gcd(det M, n) = 1 iff K = {0}",
        ok,
        None if ok else {"criterion": crit, "bruteforce": verdict},
    )
    return verdict, kernel, report
