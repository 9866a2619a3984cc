"""Acceptance suite: every criterion is exact (tolerance zero) and prints one
pass/fail line.  Stated runtime budgets are asserted."""

import time

from kacpal import (
    GroupAlgebra,
    HopfAlgebra,
    Perm,
    QuantumPolyAlgebra,
    Rep,
    RepParams,
    WordCalculus,
    all_perms,
    antipode_conditions,
    canonical_twist,
    embedded_twist,
    embedding_check,
    inner_faithful_bruteforce,
    inner_faithful_criterion,
    is_simple,
    is_strong_twist,
    is_superstrong,
    is_twist,
    modules_isomorphic,
    reference_cocycle_table_m3,
    ring_inverse,
    sigma,
    verify_rep,
)
from kacpal.group_ring import eps_ring
from kacpal.hopf import HTensor
from kacpal.linalg import rref

INSTANCES = [(2, 2), (3, 2), (2, 3), (3, 3)]


class _Criterion:
    def __init__(self, number, label, budget=None):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.label}: {status} ({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, f"runtime budget {self.budget}s exceeded: {elapsed:.2f}s"
        return False


def test_criterion_01_kac_paljutkin_recovery():
    with _Criterion(1, "Kac-Paljutkin recovery", budget=1.0):
        H = HopfAlgebra(2, 2)
        x, y, z = H.x(1), H.x(2), H.z(1)
        half = H.cyc.scalar(1) / H.cyc.scalar(2)
        assert z * z == (H.unit() + x + y - x * y).scale(half)
        assert z * x == y * z
        assert z * y == x * z
        s = Perm.transposition(2, 1)
        assert H.coproduct(z) == HTensor(
            H,
            {
                (((0, 0), s), ((0, 0), s)): half,
                (((1, 0), s), ((0, 0), s)): half,
                (((0, 0), s), ((0, 1), s)): half,
                (((1, 0), s), ((0, 1), s)): -half,
            },
        )


def test_criterion_02_hopf_axioms():
    with _Criterion(2, "Hopf axioms", budget=300.0):
        for n, m in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            report = HopfAlgebra(n, m).verify_axioms()
            assert report.ok, (n, m, [c for c in report.checks if c["status"] != "pass"])


def test_criterion_03_dimension():
    with _Criterion(3, "dimension n^m m!"):
        expected = {(2, 2): 8, (3, 2): 18, (2, 3): 48, (3, 3): 162}
        for (n, m), d in expected.items():
            H = HopfAlgebra(n, m)
            assert H.dim == d
            assert len(H.basis_keys()) == d


def test_criterion_04_twist_suite():
    with _Criterion(4, "twist suite", budget=30.0):
        for n in (2, 3, 4):
            J = canonical_twist(GroupAlgebra(n, 1))
            assert is_twist(J).ok
            assert is_strong_twist(J).ok
            assert is_superstrong(J).ok
            assert antipode_conditions(J).ok
            for m in (2, 3):
                for i in range(1, m + 1):
                    for j in range(i + 1, m + 1):
                        assert embedded_twist(J, i, j, m).ok, (n, i, j, m)


def test_criterion_05_gamma_table():
    with _Criterion(5, "2-cocycle table"):
        for n in (2, 3):
            H = HopfAlgebra(n, 3)
            calc = H.words
            perms = all_perms(3)
            for w in perms:
                for v in perms:
                    g = calc.cocycle(w, v)
                    assert eps_ring(g) == H.cyc.one
                    for u in perms:
                        lhs = sigma(w, calc.cocycle(v, u)) * calc.cocycle(w, v * u)
                        rhs = calc.cocycle(w, v) * calc.cocycle(w * v, u)
                        assert lhs == rhs
            # cell-by-cell comparison with the reference table; associativity
            # over basis labels is the ground-truth oracle
            table = reference_cocycle_table_m3(H.ring)
            mismatches = []
            for (w, v), expected in table.items():
                if calc.cocycle(w, v) != expected:
                    mismatches.append((w.one_line(), v.one_line()))
            for w in perms:
                for v in perms:
                    for u in perms:
                        a = H.basis_elem(H.ring.zero_exp, w)
                        b = H.basis_elem(H.ring.zero_exp, v)
                        c = H.basis_elem(H.ring.zero_exp, u)
                        assert H.hmul(H.hmul(a, b), c) == H.hmul(a, H.hmul(b, c))
            assert mismatches == [], f"table mismatches at {mismatches}"


def test_criterion_06_integral():
    with _Criterion(6, "two-sided integral"):
        for n, m in INSTANCES:
            H = HopfAlgebra(n, m)
            report = H.verify_integral()
            assert report.ok, (n, m, report.checks)
            fact = 1
            for k in range(2, m + 1):
                fact *= k
            assert H.counit(H.integral()) == H.cyc.scalar(fact)


def test_criterion_07_cyclic_subalgebra():
    with _Criterion(7, "cyclic Hopf subalgebra"):
        for n, m in [(2, 3), (3, 3)]:
            H = HopfAlgebra(n, m)
            cyc = H.cyclic_subalgebra()
            assert cyc.report.ok, (n, m, [c for c in cyc.report.checks if c["status"] != "pass"])
            assert cyc.dim == m * n**m
            assert cyc.theta**m == H.from_ring(cyc.t)
            assert ring_inverse(cyc.t) == cyc.t_inverse


def test_criterion_08_representations():
    with _Criterion(8, "representations V_{a,b}", budget=60.0):
        for n, m in INSTANCES:
            for a, b in [(1, 0), (2 % n, 1)]:
                params = RepParams(n, m, a, b)
                report = verify_rep(params)
                assert report.ok, (n, m, a, b)
                rep = Rep(params)
                for k in range(1, m):
                    assert rep.z(k) ** 2 == rep.rho_t(k)
            for a in range(n):
                for b in range(n):
                    assert is_simple(RepParams(n, m, a, b)) == (a != b), (n, m, a, b)
        for n in (2, 3):
            params = [
                RepParams(n, 3, a, b) for a in range(n) for b in range(n) if a != b
            ]
            for p1 in params:
                for p2 in params:
                    assert modules_isomorphic(p1, p2) == ((p1.a, p1.b) == (p2.a, p2.b))


def test_criterion_09_inner_faithfulness():
    with _Criterion(9, "inner-faithfulness over the base ring"):
        for n, m in [(2, 2), (3, 2), (2, 3)]:
            for a in range(n):
                for b in range(n):
                    params = RepParams(n, m, a, b)
                    oracle, _ = inner_faithful_bruteforce(params)
                    if inner_faithful_criterion(params):
                        assert oracle, (n, m, a, b)
        for m in (2, 3):
            verdict, annihilating = inner_faithful_bruteforce(RepParams(2, m, 1, 1))
            assert not verdict
            assert len(annihilating) > 1


def test_criterion_10_module_algebra():
    with _Criterion(10, "module algebra"):
        for n, m in [(2, 2), (2, 3), (3, 2)]:
            qpa = QuantumPolyAlgebra(HopfAlgebra(n, m), 1, 0, degree_bound=4)
            report = qpa.module_algebra_check(degree=4, seed=0)
            assert report.ok, (n, m, [c for c in report.checks if c["status"] != "pass"])
        # negative control: dropping the twist from the coproduct must fail
        qpa = QuantumPolyAlgebra(HopfAlgebra(2, 2), 1, 0, degree_bound=4)

        def naive(h):
            return [(((e, w), (e, w)), c) for (e, w), c in h.terms.items()]

        bad = qpa.module_algebra_check(degree=2, delta_terms=naive)
        assert not bad.ok
        failed = next(c for c in bad.checks if c["status"] == "fail")
        assert failed["witness"] is not None


def test_criterion_11_invariants():
    with _Criterion(11, "invariant rings", budget=120.0):
        qpa = QuantumPolyAlgebra(HopfAlgebra(2, 2), 1, 0, degree_bound=4)
        inv = qpa.invariants("full", 4)
        assert [len(inv[k]) for k in range(5)] == [1, 0, 1, 0, 2]
        assert inv[2] == [qpa.monomial((2, 0)) + qpa.monomial((0, 2))]
        assert inv[4] == [
            qpa.monomial((4, 0)) + qpa.monomial((0, 4)),
            qpa.monomial((2, 2)),
        ]
        oracle = qpa.invariants_oracle("full", 4)
        for k in range(5):
            mons = qpa.monomials(k)
            vecs = [[f.terms.get(mon, qpa.ctx.zero) for mon in mons] for f in inv[k]]
            assert (rref(vecs, qpa.ctx)[0] if vecs else []) == oracle[k]

        qpa3 = QuantumPolyAlgebra(HopfAlgebra(2, 3), 1, 0, degree_bound=4)
        inv3 = qpa3.invariants("cyclic", 4)
        assert inv3[2] == [
            qpa3.monomial((2, 0, 0)) + qpa3.monomial((0, 2, 0)) + qpa3.monomial((0, 0, 2))
        ]
        for k in range(5):
            for f in inv3[k]:
                for exps in f.terms:
                    assert all(e % 2 == 0 for e in exps), (k, exps)
        oracle3 = qpa3.invariants_oracle("cyclic", 4)
        for k in range(5):
            mons = qpa3.monomials(k)
            vecs = [[f.terms.get(mon, qpa3.ctx.zero) for mon in mons] for f in inv3[k]]
            assert (rref(vecs, qpa3.ctx)[0] if vecs else []) == oracle3[k]


def test_criterion_12_embedding():
    with _Criterion(12, "embedding H_{n,m} -> H_{n,m+1}"):
        for n in (2, 3):
            report = embedding_check(n, 2)
            assert report.ok, (n, [c for c in report.checks if c["status"] != "pass"])
