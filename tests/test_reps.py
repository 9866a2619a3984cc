import random
from fractions import Fraction
from itertools import permutations
from itertools import product as iproduct

import pytest

from kacpal import reps
from kacpal import (
    HopfAlgebra,
    Rep,
    RepParams,
    det_M,
    inner_faithful_bruteforce,
    inner_faithful_criterion,
    is_simple,
    modules_isomorphic,
    t_of,
    verify_rep,
)
from kacpal.cyclotomic import CycContext
from kacpal.errors import SizeGuardError
from kacpal.linalg import Mat, kernel_basis, rref
from dense_matrices import mat, sparse


def test_matrices_n2_m2():
    rep = Rep(RepParams(2, 2, 1, 0))
    ctx = rep.ctx
    assert rep.x(1) == mat(ctx, [[ctx.scalar(-1), ctx.zero], [ctx.zero, ctx.one]])
    assert rep.x(2) == mat(ctx, [[ctx.one, ctx.zero], [ctx.zero, ctx.scalar(-1)]])
    assert rep.z(1) == mat(ctx, [[ctx.zero, ctx.one], [ctx.one, ctx.zero]])


def literal_matrices(n, m, a, b):
    """X_i and Z_k written out from the paper, 1-based: X_i has q^a at (i, i)
    and q^b elsewhere on the diagonal; Z_k has p^{b^2} on the diagonal
    outside {k, k+1}, 1 at (k, k+1) and q^{ab} at (k+1, k)."""
    ctx = CycContext(n)
    q, p = ctx.q, ctx.p

    def written_out(entry):
        return mat(ctx, [[entry(r, c) for c in range(1, m + 1)] for r in range(1, m + 1)])

    xs = [
        written_out(lambda r, c, i=i: (q ** (a if r == i else b)) if r == c else ctx.zero)
        for i in range(1, m + 1)
    ]

    def z_entry(k, r, c):
        if (r, c) == (k, k + 1):
            return ctx.one
        if (r, c) == (k + 1, k):
            return q ** (a * b)
        return p ** (b * b) if r == c and r not in (k, k + 1) else ctx.zero

    zs = [written_out(lambda r, c, k=k: z_entry(k, r, c)) for k in range(1, m)]
    return xs, zs


def test_rep_matches_literal_matrices():
    for n, m in iproduct(range(2, 6), repeat=2):
        for a, b in iproduct(range(n), repeat=2):
            rep = Rep(RepParams(n, m, a, b))
            assert (rep.xs, rep.zs) == literal_matrices(n, m, a, b), (n, m, a, b)


@pytest.mark.parametrize("n,m,a,b", [(2, 2, 1, 0), (3, 3, 2, 1), (4, 3, 1, 0)])
def test_moved_z_line_exponent_fails_literal_and_z_square(monkeypatch, n, m, a, b):
    z_line = RepParams.z_line

    def moved(self, k, j):
        e, j2 = z_line(self, k, j)
        return (e + 1 if j == k else e), j2

    monkeypatch.setattr(RepParams, "z_line", moved)
    params = RepParams(n, m, a, b)
    rep = Rep(params)
    xs, zs = literal_matrices(n, m, a, b)
    assert rep.xs == xs
    assert rep.zs != zs
    failed = {c["name"]: c["witness"] for c in verify_rep(rep).checks if c["status"] == "fail"}
    assert failed.get("z-square") == {"k": 1}


def test_braid_product_block_value():
    # Z_k Z_{k+1} Z_k = p^{b^2} [[0,0,1],[0,q^{ab},0],[q^{2ab},0,0]] on the block
    for n, a, b in [(3, 1, 0), (3, 2, 1), (2, 1, 1)]:
        rep = Rep(RepParams(n, 3, a, b))
        ctx = rep.ctx
        prod = rep.z(1) * rep.z(2) * rep.z(1)
        p_b2 = ctx.root(b * b)
        q_ab = ctx.q_pow(a * b)
        expected = mat(
            ctx,
            [
                [ctx.zero, ctx.zero, p_b2],
                [ctx.zero, p_b2 * q_ab, ctx.zero],
                [p_b2 * q_ab * q_ab, ctx.zero, ctx.zero],
            ],
        )
        assert prod == expected
        assert prod == rep.z(2) * rep.z(1) * rep.z(2)


def test_z_square_diagonal_structure():
    rep = Rep(RepParams(3, 3, 2, 1))
    ctx = rep.ctx
    zsq = rep.z(1) ** 2
    assert zsq[0, 0] == ctx.q_pow(2)  # q^{ab} on the block rows
    assert zsq[1, 1] == ctx.q_pow(2)
    assert zsq[2, 2] == ctx.q_pow(1)  # q^{b^2} elsewhere
    for i in range(3):
        for j in range(3):
            if i != j:
                assert not zsq[i, j]


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3), (3, 12)])
def test_verify_rep_instances(n, m):
    for a, b in [(1, 0), (2 % n, 1), (1, 1), (0, 0)]:
        report = verify_rep(Rep(RepParams(n, m, a, b)))
        assert report.ok, (n, m, a, b, [c for c in report.checks if c["status"] != "pass"])


def test_mutated_block_fails_z_square():
    params = RepParams(3, 3, 1, 0)
    rep = Rep(params)
    ctx = rep.ctx
    terms = dict(rep.z(1).terms)
    terms[1, 0] = terms[1, 0] * ctx.q  # q^{ab} -> q^{ab+1}
    rep.zs[0] = Mat(ctx, (3, 3), terms)
    report = verify_rep(rep)
    assert not report.ok
    failed = {c["name"] for c in report.checks if c["status"] == "fail"}
    assert "z-square" in failed


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (3, 3), (3, 4), (2, 5), (3, 5)])
def test_simplicity_iff_a_neq_b(n, m):
    for a in range(n):
        for b in range(n):
            assert is_simple(RepParams(n, m, a, b)) == (a != b), (n, m, a, b)


def closure_oracle(params):
    """The former span closure: re-run rref on the whole basis plus each
    candidate, and accept the candidate when the rank grows."""
    rep = Rep(params)
    m, ctx = params.m, rep.ctx
    basis_rows = []

    def insert(a):
        flat = {i * m + j: x for (i, j), x in a.terms.items()}
        red, _ = rref([dict(row) for row in basis_rows] + [flat], ctx, m * m)
        if len(red) > len(basis_rows):
            basis_rows[:] = red
            return True
        return False

    insert(Mat.identity(ctx, m))
    frontier = [Mat.identity(ctx, m)]
    while frontier and len(basis_rows) < m * m:
        new_frontier = []
        for u in frontier:
            for g in rep.xs + rep.zs:
                v = u * g
                if insert(v):
                    new_frontier.append(v)
        frontier = new_frontier
    return len(basis_rows) == m * m


def test_is_simple_matches_closure_oracle():
    verdicts = []
    for n, m in iproduct(range(2, 6), range(2, 6)):
        for a, b in iproduct(range(n), repeat=2):
            params = RepParams(n, m, a, b)
            verdict = is_simple(params)
            assert verdict == closure_oracle(params), (n, m, a, b)
            # semisimple: V is simple iff End V is the scalars
            rep = Rep(params)
            assert verdict == (reps._hom_dim(rep, rep) == 1), (n, m, a, b)
            verdicts.append(verdict)
    assert (len(verdicts), sum(verdicts)) == (216, 160)


class _NoZEquations(Rep):
    """Leaves the Z_k out of the Hom system: only the X_i equations remain."""

    def __init__(self, params):
        super().__init__(params)
        self.zs = []


def _drop_one_kernel_vector(rows, ctx, ncols):
    """The elimination pass with one more pivot than it finds: the Hom
    solve then loses one kernel vector."""
    red, pivots = rref(rows, ctx, ncols)
    return red, pivots + [ncols]


@pytest.mark.parametrize("a,b,attr,broken", [
    (1, 0, "Rep", _NoZEquations),
    (1, 1, "rref", _drop_one_kernel_vector),
], ids=["no-z-equations", "dropped-kernel-vector"])
def test_broken_hom_solve_disagrees_with_closure_oracle(monkeypatch, a, b, attr, broken):
    params = RepParams(3, 5, a, b)
    verdict = closure_oracle(params)
    assert is_simple(params) == verdict == (a != b)
    monkeypatch.setattr(reps, attr, broken)
    assert is_simple(params) != verdict


def dense_hom_dim(r1, r2):
    """dim Hom_H(V1, V2) from the dense system T A - B T = 0 over the
    generator pairs (A, B), every entry of every equation written out."""
    m = r1.params.m
    ctx = r1.ctx
    rows = []
    for A, B in zip(r1.xs + r1.zs, r2.xs + r2.zs):
        for i in range(m):
            for j in range(m):
                row = [ctx.zero] * (m * m)
                for k in range(m):
                    row[i * m + k] = row[i * m + k] + A[k, j]
                    row[k * m + j] = row[k * m + j] - B[i, k]
                rows.append(row)
    return len(kernel_basis(sparse(rows), m * m, ctx))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sparse_hom_dim_matches_dense_system(n):
    for m in range(2, 6):
        modules = [Rep(RepParams(n, m, a, b)) for a, b in iproduct(range(n), repeat=2)]
        for r1, r2 in iproduct(modules, repeat=2):
            assert reps._hom_dim(r1, r2) == dense_hom_dim(r1, r2), (n, m, r1.params, r2.params)


def test_modules_isomorphic_identity_params():
    p = RepParams(3, 2, 1, 0)
    assert modules_isomorphic(p, p)


def test_modules_isomorphic_m3_iff_equal_params():
    for n in (2, 3):
        params = [
            RepParams(n, 3, a, b)
            for a in range(n)
            for b in range(n)
            if a != b
        ]
        for p1 in params:
            for p2 in params:
                expected = (p1.a, p1.b) == (p2.a, p2.b)
                assert modules_isomorphic(p1, p2) == expected, (n, p1, p2)


def test_modules_isomorphic_m2_informational():
    # the classification is stated only for m >= 3; at m = 2 the swap
    # intertwiner makes V_{1,0} and V_{0,1} isomorphic
    assert modules_isomorphic(RepParams(2, 2, 1, 0), RepParams(2, 2, 0, 1))


def character(rep):
    """tr rho(h) at every basis element h of H(n, m)."""
    n, m = rep.params.n, rep.params.m
    hopf = HopfAlgebra(n, m)
    out = []
    for e, w in hopf.basis_keys():
        mat = rep.rho_ring_monomial(e) * rep.rho_word(w)
        out.append(sum((mat[i, i] for i in range(m)), rep.ctx.zero))
    return out


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_modules_isomorphic_matches_characters(n, m):
    # H(n, m) is semisimple over a field of characteristic 0, so two
    # modules are isomorphic iff their characters agree on a basis
    params = [RepParams(n, m, a, b) for a, b in iproduct(range(n), repeat=2)]
    chars = {(p.a, p.b): character(Rep(p)) for p in params}
    for p1, p2 in iproduct(params, repeat=2):
        expected = chars[p1.a, p1.b] == chars[p2.a, p2.b]
        assert modules_isomorphic(p1, p2) == expected, (n, m, p1, p2)


class _NegatedParams(RepParams):
    """Marks the module whose Z_k are all negated: every defining relation
    of H(n, m) still holds."""


def _rep_or_negated(params):
    rep = Rep(params)
    if isinstance(params, _NegatedParams):
        rep.zs = [z.scale(-1) for z in rep.zs]
    return rep


@pytest.mark.parametrize("n,m,a,b,hom,ends", [(2, 3, 1, 0, 0, (1, 1)), (3, 3, 2, 2, 1, (2, 2))])
def test_negated_z_is_not_isomorphic(monkeypatch, n, m, a, b, hom, ends):
    # at V_{2,2} of H(3, 3) a nonzero intertwiner exists, but the End
    # dimensions show that it is not invertible
    plain, negated = RepParams(n, m, a, b), _NegatedParams(n, m, a, b)
    r1, r2 = _rep_or_negated(negated), _rep_or_negated(plain)
    assert verify_rep(r1).ok
    assert reps._hom_dim(r1, r2) == hom
    assert (reps._hom_dim(r1, r1), reps._hom_dim(r2, r2)) == ends
    assert character(r1) != character(r2)
    monkeypatch.setattr(reps, "Rep", _rep_or_negated)
    assert not modules_isomorphic(negated, plain)
    assert not modules_isomorphic(plain, negated)
    assert modules_isomorphic(negated, _NegatedParams(n, m, a, b))


def test_det_m_formulas():
    for a in range(6):
        for b in range(6):
            assert det_M(2, a, b) == a * a - b * b
            assert det_M(3, a, b) == a**3 + 2 * b**3 - 3 * a * b * b


def _det_by_permutation_expansion(mat, ctx):
    n = len(mat)
    out = ctx.zero
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ctx.scalar(sign)
        for i in range(n):
            term = term * mat[i][perm[i]]
        out = out + term
    return out


def test_det_m_matches_linalg_determinant():
    ctx = CycContext(2)
    for m in range(2, 7):
        for a in range(-3, 6):
            for b in range(-3, 6):
                mat = [[ctx.scalar(a if i == j else b) for j in range(m)] for i in range(m)]
                assert ctx.scalar(det_M(m, a, b)) == _det_by_permutation_expansion(mat, ctx), (m, a, b)


def test_criterion_examples():
    for n in (2, 3, 4, 5):
        for m in (2, 3):
            assert inner_faithful_criterion(RepParams(n, m, 1, 0))


def test_bruteforce_examples():
    ok, kernel = inner_faithful_bruteforce(RepParams(2, 2, 1, 0))
    assert ok
    assert kernel == [[0, 0]]
    ok, kernel = inner_faithful_bruteforce(RepParams(2, 2, 1, 1))
    assert not ok
    assert kernel == [[0, 0], [1, 1]]  # the diagonal subgroup acts trivially
    with pytest.raises(SizeGuardError):
        inner_faithful_bruteforce(RepParams(9, 5, 1, 0))
    # 2^20000 has 6,021 digits: the refusal names it without writing it
    with pytest.raises(SizeGuardError, match=r"n\^m = over 10\^30 > 4096"):
        inner_faithful_bruteforce(RepParams(2, 20000, 1, 0))


def _kernel_of_rho(params):
    """The alpha with rho(x^alpha) = I, read from the matrices and not from M."""
    rep = Rep(params)
    ident = Mat.identity(rep.ctx, params.m)
    return [list(alpha) for alpha in iproduct(range(params.n), repeat=params.m)
            if rep.rho_ring_monomial(alpha) == ident]


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4)])
def test_bruteforce_kernel_is_where_rho_is_the_identity(n, m):
    """On every (a, b), trivial K included, K is the set of alpha with
    rho(x^alpha) = I, and the gcd criterion holds exactly when K = {0}."""
    for a in range(n):
        for b in range(n):
            params = RepParams(n, m, a, b)
            kernel = _kernel_of_rho(params)
            assert inner_faithful_bruteforce(params) == (kernel == [[0] * m], kernel), (a, b)
            assert inner_faithful_criterion(params) == (kernel == [[0] * m]), (a, b)


@pytest.mark.parametrize(
    "n,m,a,b", [(2, 2, 1, 1), (4, 2, 1, 3), (5, 3, 1, 2), (4, 3, 2, 2), (6, 2, 0, 3), (2, 6, 1, 1)]
)
def test_bruteforce_kernel_matches_rho(n, m, a, b):
    """The kernel K, read from M alpha = 0 mod n, is the set of alpha with
    rho(x^alpha) = I."""
    params = RepParams(n, m, a, b)
    kernel = _kernel_of_rho(params)
    assert len(kernel) > 1
    _, found = inner_faithful_bruteforce(params)
    assert found == kernel


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
def test_criterion_implies_bruteforce(n, m):
    for a in range(n):
        for b in range(n):
            params = RepParams(n, m, a, b)
            if inner_faithful_criterion(params):
                ok, _ = inner_faithful_bruteforce(params)
                assert ok, (n, m, a, b)


def test_inner_faithful_check_fails_when_the_oracle_contradicts_the_criterion(monkeypatch):
    """criterion-matches-oracle fails in both directions: an oracle with a
    nontrivial K where gcd(det M, n) = 1, and one with K = {0} where the
    gcd is not 1 (which the one-way implication let pass)."""
    for params in (RepParams(2, 2, 1, 0), RepParams(2, 2, 1, 1)):
        verdict, kernel, report = reps.inner_faithful_check(params)
        assert (verdict, kernel) == inner_faithful_bruteforce(params)
        assert report.ok
    for params, oracle in (
        (RepParams(2, 2, 1, 0), (False, [[0, 0], [1, 1]])),
        (RepParams(2, 2, 1, 1), (True, [[0, 0]])),
    ):
        monkeypatch.setattr(reps, "inner_faithful_bruteforce", lambda p: oracle)
        _, _, report = reps.inner_faithful_check(params)
        (check,) = report.checks
        assert (check["name"], check["status"]) == ("criterion-matches-oracle", "fail")
        assert check["witness"] == {"criterion": not oracle[0], "bruteforce": oracle[0]}


def test_rho_is_multiplicative():
    rng = random.Random(6)
    H = HopfAlgebra(3, 2)
    rep = Rep(RepParams(3, 2, 1, 0))
    basis = H.basis_keys()
    for _ in range(25):
        h1 = H.basis_elem(*rng.choice(basis)) + H.basis_elem(*rng.choice(basis))
        h2 = H.basis_elem(*rng.choice(basis)).scale(rng.randrange(1, 3))
        assert rep.rho(h1 * h2) == rep.rho(h1) * rep.rho(h2)


def dense_rho_t(rep, k):
    """The former rho_t: (1/n) sum_{s,t} q^{-st} X_k^s X_{k+1}^t through n^2
    dense products of m x m matrices."""
    n, ctx = rep.params.n, rep.ctx
    acc = Mat.zeros(ctx, rep.params.m, rep.params.m)
    xk_pows = [rep.x(k) ** s for s in range(n)]
    xk1_pows = [rep.x(k + 1) ** t for t in range(n)]
    for s in range(n):
        for t in range(n):
            acc = acc + (xk_pows[s] * xk1_pows[t]).scale(ctx.q_pow(-s * t))
    return acc.scale(ctx.scalar(Fraction(1, n)))


def test_z_square_equals_rho_t():
    for n, m in iproduct(range(2, 6), repeat=2):
        H = HopfAlgebra(n, m)
        ts = [H.from_ring(t_of(H.ring, k)) for k in range(1, m)]
        for a, b in iproduct(range(n), repeat=2):
            rep = Rep(RepParams(n, m, a, b))
            for k, t in enumerate(ts, start=1):
                got = rep.rho_t(k)
                assert got == rep.z(k) ** 2, (n, m, a, b, k)
                assert got == rep.rho(t), (n, m, a, b, k)
                assert got == dense_rho_t(rep, k), (n, m, a, b, k)


class _MovedRhoT(Rep):
    """rho(t_k) with the exponent of one diagonal entry moved by one, at k = bad."""

    def __init__(self, params, bad):
        super().__init__(params)
        self.bad = bad

    def rho_t(self, k):
        out = super().rho_t(k)
        if k != self.bad:
            return out
        terms = dict(out.terms)
        terms[k, k] = terms[k, k] * self.ctx.q
        return Mat(self.ctx, out.shape, terms)


@pytest.mark.parametrize("n,m,bad", [(2, 3, 2), (3, 4, 1), (3, 5, 4), (5, 3, 2)])
def test_moved_rho_t_exponent_fails_z_square_naming_k(n, m, bad):
    params = RepParams(n, m, 1, 0)
    assert verify_rep(Rep(params)).ok
    report = verify_rep(_MovedRhoT(params, bad))
    failed = [c for c in report.checks if c["status"] == "fail"]
    assert [(c["name"], c["witness"]) for c in failed] == [("z-square", {"k": bad})]


